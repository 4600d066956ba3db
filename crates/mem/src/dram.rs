//! A banked main-memory model: per-bank open-row buffers and in-order
//! service, plus a finite MSHR file that bounds outstanding reads.
//!
//! The part is fixed: [`BANKS`] banks of [`ROW_BYTES`]-byte rows, an
//! [`ACT_LATENCY`]-cycle activate, a [`PRECHARGE_LATENCY`]-cycle precharge
//! and a [`BANK_BUSY`]-cycle burst. Only the MSHR count varies
//! ([`DramConfig`]). Timing is layered on top of the hierarchy's
//! `memory_latency` (the flat DRAM access time): a row-buffer hit costs
//! exactly `memory_latency`, a closed bank adds the activate, and a
//! conflicting open row adds the precharge on top of that. Each request
//! also occupies its bank for the burst, serialising accesses that collide
//! on a bank.
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

/// Number of independent DRAM banks.
pub const BANKS: usize = 16;
/// Row-buffer size per bank in bytes (consecutive rows interleave across
/// banks).
pub const ROW_BYTES: u64 = 4096;
/// Extra cycles to activate (open) a row in a precharged bank.
pub const ACT_LATENCY: u32 = 40;
/// Extra cycles to precharge a bank whose open row conflicts, paid on top
/// of [`ACT_LATENCY`].
pub const PRECHARGE_LATENCY: u32 = 40;
/// Cycles a request occupies its bank (data-burst occupancy); requests
/// queued behind it wait this long per predecessor.
pub const BANK_BUSY: u32 = 4;
/// The worst-case extra latency (beyond the base access) one request can
/// pay: a row conflict, plus the burst of the request ahead of it.
pub(crate) const WORST_PENALTY: u32 = ACT_LATENCY + PRECHARGE_LATENCY + BANK_BUSY;

/// What a run may vary about the DRAM backend: its MSHR file.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DramConfig {
    /// Miss-status-holding registers: the maximum number of outstanding
    /// reads. Posted writes bypass the MSHR file.
    pub mshr_entries: usize,
}

impl DramConfig {
    /// Validates the configuration.
    ///
    /// # Errors
    /// Returns a description of the first inconsistency.
    pub fn validate(&self) -> Result<(), String> {
        if self.mshr_entries == 0 {
            return Err("DRAM backend needs at least one MSHR".into());
        }
        Ok(())
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
    mshr_entries: usize,
    /// Base access latency (the hierarchy's `memory_latency`).
    base_latency: u32,
    banks: [Bank; BANKS],
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
            mshr_entries: config.mshr_entries,
            base_latency,
            banks: [Bank::default(); BANKS],
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
    /// they land in the same [`ROW_BYTES`] window, regardless of how the
    /// bank hash distributed the rows.
    fn decode(addr: u64) -> (usize, u64) {
        let global_row = addr / ROW_BYTES;
        let mut hashed = global_row;
        hashed ^= hashed >> 16;
        hashed ^= hashed >> 8;
        hashed ^= hashed >> 4;
        ((hashed % BANKS as u64) as usize, global_row)
    }
}

impl MemoryBackend for DramBackend {
    fn request(&mut self, req: MemReq, at: u64) -> Admit {
        if !req.is_write {
            if self.reads_in_flight >= self.mshr_entries {
                return Admit::Reject;
            }
            self.reads_in_flight += 1;
            self.stats.mshr_high_water = self.stats.mshr_high_water.max(self.reads_in_flight);
            self.stats.demand_reads += 1;
        } else {
            self.stats.writes += 1;
        }
        let (index, row) = Self::decode(req.addr);
        let bank = &mut self.banks[index];
        // The bank serves its requests in acceptance order, so this one
        // starts once it has arrived and its predecessor has let go.
        let start = at.max(bank.busy_until);
        bank.busy_until = start + BANK_BUSY as u64;
        let (outcome, extra) = match bank.open_row {
            Some(open) if open == row => (RowOutcome::Hit, 0),
            None => (RowOutcome::Miss, ACT_LATENCY),
            Some(_) => (RowOutcome::Conflict, ACT_LATENCY + PRECHARGE_LATENCY),
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
        self.reads_in_flight < self.mshr_entries
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

    /// Row 17 XOR-folds onto bank 0 (`17 ^ (17 >> 4) == 16`), the bank of
    /// row 0: the two rows conflict in one row buffer.
    const ROW_17: u64 = 17 * ROW_BYTES;

    fn drive(
        b: &mut DramBackend,
        cycles: std::ops::RangeInclusive<u64>,
        out: &mut Vec<Completion>,
    ) {
        for now in cycles {
            b.drain(now, out);
        }
    }

    /// The part with 4 MSHRs behind a 100-cycle access.
    fn four_mshrs() -> DramBackend {
        DramBackend::new(DramConfig { mshr_entries: 4 }, 100)
    }

    #[test]
    fn row_miss_hit_conflict_timing() {
        let mut b = four_mshrs();
        // Cold bank: row miss (activate) = 100 + 40.
        b.request(MemReq::read(1, 0), 0);
        let mut out = Vec::new();
        drive(&mut b, 0..=139, &mut out);
        assert!(out.is_empty());
        drive(&mut b, 140..=140, &mut out);
        assert_eq!(out.len(), 1, "first access completes at 140");
        // Same row: hit = 100.
        b.request(MemReq::read(2, 64), 141);
        drive(&mut b, 141..=240, &mut out);
        assert_eq!(out.len(), 1);
        drive(&mut b, 241..=241, &mut out);
        assert_eq!(out.len(), 2, "row hit completes 100 cycles after service");
        // Another row of the same bank: conflict = 100 + 40 + 40.
        b.request(MemReq::read(3, ROW_17), 242);
        drive(&mut b, 242..=421, &mut out);
        assert_eq!(out.len(), 2);
        drive(&mut b, 422..=422, &mut out);
        assert_eq!(out.len(), 3, "row conflict completes at 242 + 180");
        let s = b.stats(422);
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
        let mut b = four_mshrs();
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
        let mut b = four_mshrs();
        // Two same-row requests arriving together: the second queues behind
        // the first and starts 4 cycles (the burst) after it.
        b.request(MemReq::read(1, 0), 5);
        b.request(MemReq::read(2, 64), 5);
        let mut out = Vec::new();
        // First: service at 5, row miss, done 5+140=145. Second: service at
        // 9, row hit, done 9+100=109 — it completes *earlier* (pipelined
        // burst); both drained by 145.
        drive(&mut b, 0..=108, &mut out);
        assert!(out.is_empty());
        drive(&mut b, 109..=109, &mut out);
        assert_eq!(out.len(), 1, "the row hit overtakes the opener");
        drive(&mut b, 110..=144, &mut out);
        assert_eq!(out.len(), 1);
        drive(&mut b, 145..=145, &mut out);
        assert_eq!(out.len(), 2);
    }

    #[test]
    fn banks_interleave_by_row() {
        assert_eq!(DramBackend::decode(0), (0, 0));
        assert_eq!(DramBackend::decode(ROW_BYTES), (1, 1));
        assert_eq!(DramBackend::decode(15 * ROW_BYTES), (15, 15));
        assert_eq!(
            DramBackend::decode(16 * ROW_BYTES),
            (1, 16),
            "the hash folds row 16 onto bank 1, not back onto bank 0"
        );
        assert_eq!(
            DramBackend::decode(ROW_17),
            (0, 17),
            "the row tag is the global row number"
        );
    }

    #[test]
    fn distinct_rows_in_one_bank_conflict() {
        // Rows 0 and 17 share bank 0; they are different physical rows and
        // must be timed as a conflict, not a row-buffer hit.
        let mut b = four_mshrs();
        b.request(MemReq::read(1, 0), 0);
        b.request(MemReq::read(2, ROW_17), 0);
        let mut out = Vec::new();
        // Miss from 0: done 140. Conflict from 4: done 4 + 180 = 184.
        drive(&mut b, 0..=183, &mut out);
        assert_eq!(out.len(), 1);
        drive(&mut b, 184..=184, &mut out);
        assert_eq!(out.len(), 2);
        let s = b.stats(184);
        assert_eq!(s.row_buffer_hits, 0, "{s:?}");
        assert_eq!(s.row_buffer_misses, 1);
        assert_eq!(s.row_buffer_conflicts, 1);
    }

    #[test]
    fn next_event_tracks_service_and_completion() {
        let mut b = four_mshrs();
        assert_eq!(b.next_event(), None, "idle backend has no events");
        b.request(MemReq::read(1, 0), 7);
        // Serviced from its arrival at 7, row miss: completes at 7 + 140.
        // Starting service is not an event.
        assert_eq!(b.next_event(), Some(147));
        assert_eq!(b.stats(6).row_buffer_misses, 0, "not started by 6");
        assert_eq!(b.stats(7).row_buffer_misses, 1, "started at 7");
        let mut out = Vec::new();
        b.drain(146, &mut out);
        assert!(out.is_empty());
        b.drain(147, &mut out);
        assert_eq!(out.len(), 1);
        assert_eq!(b.next_event(), None);
    }

    #[test]
    fn draining_only_at_next_event_matches_per_cycle_draining() {
        let requests = [(1u64, 0u64, 0u64), (2, 64, 3), (3, ROW_17, 5), (4, 128, 9)];
        let mut dense = four_mshrs();
        let mut sparse = four_mshrs();
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
    fn zero_mshrs_panic() {
        let _ = DramBackend::new(DramConfig { mshr_entries: 0 }, 100);
    }
}
