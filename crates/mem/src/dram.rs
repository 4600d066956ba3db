//! A banked main-memory model: per-bank open-row buffers and in-order
//! service, plus a finite MSHR file that bounds outstanding reads.
//!
//! Timing is layered on top of the hierarchy's `memory_latency` (the flat
//! DRAM access time): a row-buffer hit costs exactly `memory_latency`, a
//! closed bank adds `act_latency` (activate), and a conflicting open row
//! adds `precharge_latency` on top of that. Each request also occupies its
//! bank for `bank_busy` cycles, serialising accesses that collide on a
//! bank. Setting every penalty to zero and the MSHR file to
//! [`DramConfig::UNLIMITED_MSHRS`] makes the model cycle-equivalent to
//! [`crate::FlatLatency`] — the conformance anchor the tests pin down.
//!
//! A bank serves its requests in the order it accepts them and nothing
//! overtakes, so a request's whole schedule is known the moment it is
//! accepted: it starts at the later of its arrival and the cycle its bank
//! frees up, the bank's open row fixes its penalty, and it completes
//! `memory_latency` plus that penalty after it starts.
//! [`DramBackend::request`] computes all of this at once and queues only the
//! completion. Nothing else happens inside the backend, so its next event
//! is its earliest completion.

use crate::backend::{Admit, BackendStats, Completion, MemReq, MemoryBackend};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Geometry and timing of the banked DRAM backend.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DramConfig {
    /// Miss-status-holding registers: the maximum number of outstanding
    /// reads. Use [`DramConfig::UNLIMITED_MSHRS`] for an
    /// unbounded file. Posted writes bypass the MSHR file.
    pub mshr_entries: usize,
    /// Number of independent DRAM banks.
    pub banks: usize,
    /// Row-buffer size per bank in bytes (consecutive rows interleave
    /// across banks).
    pub row_bytes: u64,
    /// Extra cycles to activate (open) a row in a precharged bank.
    pub act_latency: u32,
    /// Extra cycles to precharge a bank whose open row conflicts, paid on
    /// top of `act_latency`.
    pub precharge_latency: u32,
    /// Cycles a request occupies its bank (data-burst occupancy); requests
    /// queued behind it wait this long per predecessor.
    pub bank_busy: u32,
}

impl DramConfig {
    /// Sentinel MSHR count meaning "never back-pressure".
    pub const UNLIMITED_MSHRS: usize = usize::MAX;

    /// A small contemporary part: 16 MSHRs, 8 banks, 4 KB rows, activate
    /// and precharge each at a tenth of the paper's 1000-cycle access, and
    /// a 16-cycle burst.
    pub fn table1_like() -> Self {
        DramConfig {
            mshr_entries: 16,
            banks: 8,
            row_bytes: 4096,
            act_latency: 100,
            precharge_latency: 100,
            bank_busy: 16,
        }
    }

    /// An idealized part: unlimited MSHRs, free row management and no bank
    /// occupancy. Cycle-equivalent to [`crate::FlatLatency`].
    pub fn ideal() -> Self {
        DramConfig {
            mshr_entries: Self::UNLIMITED_MSHRS,
            banks: 1,
            row_bytes: 4096,
            act_latency: 0,
            precharge_latency: 0,
            bank_busy: 0,
        }
    }

    /// Sets the MSHR count (builder style).
    pub fn with_mshr_entries(mut self, entries: usize) -> Self {
        self.mshr_entries = entries;
        self
    }

    /// Sets the bank count (builder style).
    pub fn with_banks(mut self, banks: usize) -> Self {
        self.banks = banks;
        self
    }

    /// Sets the row-buffer size (builder style).
    pub fn with_row_bytes(mut self, bytes: u64) -> Self {
        self.row_bytes = bytes;
        self
    }

    /// The worst-case extra latency (beyond the base access) one request
    /// can pay for row management: a row conflict.
    pub fn worst_row_penalty(&self) -> u32 {
        self.act_latency + self.precharge_latency
    }

    /// Validates the geometry.
    ///
    /// # Errors
    /// Returns a description of the first inconsistency.
    pub fn validate(&self) -> Result<(), String> {
        if self.mshr_entries == 0 {
            return Err("DRAM backend needs at least one MSHR".into());
        }
        if self.banks == 0 {
            return Err("DRAM backend needs at least one bank".into());
        }
        if self.row_bytes == 0 || !self.row_bytes.is_power_of_two() {
            return Err("row-buffer size must be a non-zero power of two".into());
        }
        Ok(())
    }
}

impl Default for DramConfig {
    fn default() -> Self {
        Self::table1_like()
    }
}

/// How a request found its bank's row buffer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum RowOutcome {
    Hit,
    Miss,
    Conflict,
}

impl RowOutcome {
    /// The counter this outcome adds to.
    fn counter(self, stats: &mut BackendStats) -> &mut u64 {
        match self {
            RowOutcome::Hit => &mut stats.row_buffer_hits,
            RowOutcome::Miss => &mut stats.row_buffer_misses,
            RowOutcome::Conflict => &mut stats.row_buffer_conflicts,
        }
    }
}

/// An accepted request with its schedule fixed. The derived order is
/// completion cycle, then start cycle, bank and acceptance order: the order
/// in which a model that starts banks in index order, cycle by cycle, would
/// drain completions due in the same cycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
struct Scheduled {
    done: u64,
    start: u64,
    bank: usize,
    seq: u64,
    completion: Completion,
    outcome: RowOutcome,
}

#[derive(Debug, Clone, Copy, Default)]
struct Bank {
    /// The row the last scheduled request leaves open.
    open_row: Option<u64>,
    /// The bank starts no further request before this cycle.
    busy_until: u64,
}

/// The banked DRAM backend. See the module docs for the timing model.
#[derive(Debug, Clone)]
pub struct DramBackend {
    config: DramConfig,
    /// Base access latency (the hierarchy's `memory_latency`).
    base_latency: u32,
    banks: Vec<Bank>,
    /// Accepted requests waiting to be drained, earliest completion first.
    scheduled: BinaryHeap<Reverse<Scheduled>>,
    /// Requests accepted so far: the acceptance order of the next one.
    accepted: u64,
    /// Reads holding an MSHR (freed when the completion drains).
    reads_in_flight: usize,
    /// Counters, with every accepted request's row outcome included.
    stats: BackendStats,
}

impl DramBackend {
    /// Creates a cold DRAM backend.
    ///
    /// # Panics
    /// Panics if the configuration fails [`DramConfig::validate`].
    pub fn new(config: DramConfig, base_latency: u32) -> Self {
        #[expect(
            clippy::panic,
            reason = "invalid configuration is a caller bug; validate() names the field"
        )]
        config
            .validate()
            .unwrap_or_else(|e| panic!("invalid DRAM configuration: {e}"));
        DramBackend {
            banks: vec![Bank::default(); config.banks],
            config,
            base_latency,
            scheduled: BinaryHeap::new(),
            accepted: 0,
            reads_in_flight: 0,
            stats: BackendStats::default(),
        }
    }

    /// Decodes an address into `(bank index, row tag)`. The bank index
    /// XOR-folds the higher row bits (the permutation-based interleaving
    /// real controllers use) so that power-of-two-spaced streams do not
    /// alias onto one bank and ping-pong its row buffer. The row tag is the
    /// full global row number: two accesses share a bank's open row iff
    /// they land in the same `row_bytes` window, regardless of how the
    /// bank hash distributed the rows.
    fn decode(&self, addr: u64) -> (usize, u64) {
        let global_row = addr / self.config.row_bytes;
        let mut hashed = global_row;
        hashed ^= hashed >> 16;
        hashed ^= hashed >> 8;
        hashed ^= hashed >> 4;
        ((hashed % self.config.banks as u64) as usize, global_row)
    }
}

impl MemoryBackend for DramBackend {
    fn request(&mut self, req: MemReq, at: u64) -> Admit {
        if !req.is_write {
            if self.reads_in_flight >= self.config.mshr_entries {
                return Admit::Reject;
            }
            self.reads_in_flight += 1;
            self.stats.mshr_high_water = self.stats.mshr_high_water.max(self.reads_in_flight);
            self.stats.demand_reads += 1;
        } else {
            self.stats.writes += 1;
        }
        let (index, row) = self.decode(req.addr);
        let bank = &mut self.banks[index];
        // The bank serves its requests in acceptance order, so this one
        // starts once it has arrived and its predecessor has let go.
        let start = at.max(bank.busy_until);
        bank.busy_until = start + self.config.bank_busy as u64;
        let (outcome, extra) = match bank.open_row {
            Some(open) if open == row => (RowOutcome::Hit, 0),
            None => (RowOutcome::Miss, self.config.act_latency),
            Some(_) => (RowOutcome::Conflict, self.config.worst_row_penalty()),
        };
        bank.open_row = Some(row);
        *outcome.counter(&mut self.stats) += 1;
        self.scheduled.push(Reverse(Scheduled {
            done: start + self.base_latency as u64 + extra as u64,
            start,
            bank: index,
            seq: self.accepted,
            completion: Completion {
                token: req.token,
                is_write: req.is_write,
            },
            outcome,
        }));
        self.accepted += 1;
        Admit::Queued
    }

    fn next_event(&self) -> Option<u64> {
        self.scheduled.peek().map(|Reverse(s)| s.done)
    }

    fn drain(&mut self, now: u64, out: &mut Vec<Completion>) {
        while let Some(&Reverse(s)) = self.scheduled.peek() {
            if s.done > now {
                break;
            }
            self.scheduled.pop();
            // Each drained read frees its MSHR.
            if !s.completion.is_write {
                self.reads_in_flight -= 1;
            }
            out.push(s.completion);
        }
    }

    fn can_accept(&self) -> bool {
        self.reads_in_flight < self.config.mshr_entries
    }

    fn in_flight(&self) -> usize {
        self.reads_in_flight
    }

    fn stats(&self, now: u64) -> BackendStats {
        // A request that starts after `now` has not reached its bank yet.
        let mut stats = self.stats;
        for Reverse(s) in &self.scheduled {
            if s.start > now {
                *s.outcome.counter(&mut stats) -= 1;
            }
        }
        stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn drive(
        b: &mut DramBackend,
        cycles: std::ops::RangeInclusive<u64>,
        out: &mut Vec<Completion>,
    ) {
        for now in cycles {
            b.drain(now, out);
        }
    }

    fn one_bank() -> DramBackend {
        DramBackend::new(
            DramConfig {
                mshr_entries: 4,
                banks: 1,
                row_bytes: 4096,
                act_latency: 30,
                precharge_latency: 20,
                bank_busy: 10,
            },
            100,
        )
    }

    #[test]
    fn row_miss_hit_conflict_timing() {
        let mut b = one_bank();
        // Cold bank: row miss (activate) = 100 + 30.
        b.request(MemReq::read(1, 0), 0);
        let mut out = Vec::new();
        drive(&mut b, 0..=129, &mut out);
        assert!(out.is_empty());
        drive(&mut b, 130..=130, &mut out);
        assert_eq!(out.len(), 1, "first access completes at 130");
        // Same row: hit = 100.
        b.request(MemReq::read(2, 64), 131);
        drive(&mut b, 131..=231, &mut out);
        assert_eq!(out.len(), 2, "row hit completes 100 cycles after service");
        // Different row: conflict = 100 + 30 + 20.
        b.request(MemReq::read(3, 8192), 232);
        drive(&mut b, 232..=382, &mut out);
        assert_eq!(out.len(), 3);
        let s = b.stats(382);
        assert_eq!(
            (
                s.row_buffer_misses,
                s.row_buffer_hits,
                s.row_buffer_conflicts
            ),
            (1, 1, 1)
        );
    }

    #[test]
    fn mshr_file_rejects_when_full() {
        let mut b = one_bank(); // 4 MSHRs
        for t in 0..4 {
            assert_eq!(b.request(MemReq::read(t, t * 64), 0), Admit::Queued);
        }
        assert!(!b.can_accept());
        assert_eq!(b.request(MemReq::read(9, 0x9000), 0), Admit::Reject);
        assert_eq!(b.request(MemReq::read(9, 0x9000), 1), Admit::Reject);
        assert_eq!(b.stats(1).demand_reads, 4, "a rejected read is not counted");
        assert_eq!(b.in_flight(), 4);
        // Writes are posted: they bypass the MSHR file.
        assert_eq!(b.request(MemReq::write(0x4000), 0), Admit::Queued);
        // Draining a completion frees its MSHR.
        let mut out = Vec::new();
        drive(&mut b, 0..=600, &mut out);
        assert_eq!(b.in_flight(), 0);
        assert!(b.can_accept());
        assert_eq!(out.iter().filter(|c| c.is_write).count(), 1);
    }

    #[test]
    fn bank_busy_serialises_a_bank() {
        let mut b = one_bank();
        // Two same-row requests arriving together: second starts 10 cycles
        // (bank_busy) after the first.
        b.request(MemReq::read(1, 0), 5);
        b.request(MemReq::read(2, 64), 5);
        let mut out = Vec::new();
        // First: service at 5, row miss, done 5+130=135. Second: service at
        // 15 (10 cycles of bank occupancy later), row hit, done 15+100=115 —
        // it completes *earlier* (pipelined burst); both drained by 135.
        drive(&mut b, 0..=114, &mut out);
        assert!(out.is_empty());
        drive(&mut b, 115..=115, &mut out);
        assert_eq!(out.len(), 1, "the row hit overtakes the opener");
        drive(&mut b, 116..=135, &mut out);
        assert_eq!(out.len(), 2);
    }

    #[test]
    fn banks_interleave_by_row() {
        let b = DramBackend::new(DramConfig::table1_like(), 100);
        let (bank0, row0) = b.decode(0);
        let (bank1, _) = b.decode(4096);
        let (bank8, row8) = b.decode(8 * 4096);
        assert_eq!(bank0, 0);
        assert_eq!(bank1, 1);
        assert_eq!(bank8, 0, "wraps around the 8 banks");
        assert_eq!(row0, 0, "the row tag is the global row number");
        assert_eq!(row8, 8);
    }

    #[test]
    fn distinct_rows_in_one_bank_conflict_even_with_odd_bank_counts() {
        // With 3 banks, global rows 19 and 20 both hash to bank 0; they are
        // different physical rows and must be timed as a conflict, not a
        // row-buffer hit.
        let mut b = DramBackend::new(
            DramConfig {
                mshr_entries: 8,
                banks: 3,
                row_bytes: 4096,
                act_latency: 10,
                precharge_latency: 10,
                bank_busy: 0,
            },
            100,
        );
        let (bank19, row19) = b.decode(19 * 4096);
        let (bank20, row20) = b.decode(20 * 4096);
        assert_eq!(bank19, bank20, "the aliasing premise holds");
        assert_ne!(row19, row20, "distinct rows keep distinct tags");
        b.request(MemReq::read(1, 19 * 4096), 0);
        b.request(MemReq::read(2, 20 * 4096), 0);
        let mut out = Vec::new();
        drive(&mut b, 0..=200, &mut out);
        let s = b.stats(200);
        assert_eq!(s.row_buffer_hits, 0, "{s:?}");
        assert_eq!(s.row_buffer_misses, 1);
        assert_eq!(s.row_buffer_conflicts, 1);
    }

    #[test]
    fn ideal_config_behaves_like_flat_latency() {
        let mut b = DramBackend::new(DramConfig::ideal(), 250);
        for t in 0..50 {
            assert_eq!(b.request(MemReq::read(t, t * 64), 10), Admit::Queued);
        }
        let mut out = Vec::new();
        drive(&mut b, 0..=259, &mut out);
        assert!(out.is_empty(), "nothing completes before 10 + 250");
        drive(&mut b, 260..=260, &mut out);
        assert_eq!(out.len(), 50, "all 50 overlap fully and complete at 260");
    }

    #[test]
    fn next_event_tracks_service_and_completion() {
        let mut b = one_bank(); // base 100, act 30
        assert_eq!(b.next_event(), None, "idle backend has no events");
        b.request(MemReq::read(1, 0), 7);
        // Serviced from its arrival at 7, row miss: completes at 7 + 130.
        // Starting service is not an event.
        assert_eq!(b.next_event(), Some(137));
        assert_eq!(b.stats(6).row_buffer_misses, 0, "not started by 6");
        assert_eq!(b.stats(7).row_buffer_misses, 1, "started at 7");
        let mut out = Vec::new();
        b.drain(136, &mut out);
        assert!(out.is_empty());
        b.drain(137, &mut out);
        assert_eq!(out.len(), 1);
        assert_eq!(b.next_event(), None);
    }

    #[test]
    fn draining_only_at_next_event_matches_per_cycle_draining() {
        let requests = [(1u64, 0u64, 0u64), (2, 64, 3), (3, 8192, 5), (4, 128, 9)];
        let mut dense = one_bank();
        let mut sparse = one_bank();
        for &(t, addr, at) in &requests {
            dense.request(MemReq::read(t, addr), at);
            sparse.request(MemReq::read(t, addr), at);
        }
        let mut dense_out = Vec::new();
        let mut dense_times = Vec::new();
        for now in 0..=600 {
            dense.drain(now, &mut dense_out);
            for c in dense_out.drain(..) {
                dense_times.push((c.token, now));
            }
        }
        let mut sparse_out = Vec::new();
        let mut sparse_times = Vec::new();
        while let Some(now) = sparse.next_event() {
            sparse.drain(now, &mut sparse_out);
            for c in sparse_out.drain(..) {
                sparse_times.push((c.token, now));
            }
        }
        assert_eq!(dense_times, sparse_times);
    }

    #[test]
    #[should_panic(expected = "invalid DRAM configuration")]
    fn zero_banks_panic() {
        let _ = DramBackend::new(
            DramConfig {
                banks: 0,
                ..DramConfig::table1_like()
            },
            100,
        );
    }
}
