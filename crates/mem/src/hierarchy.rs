//! The multi-level data memory hierarchy: DL1, unified L2, and a pluggable
//! timed main-memory backend.

use crate::backend::{Admit, Completion, FlatLatency, MemReq, MemoryBackend};
use crate::cache::{Cache, DL1, L2};
use crate::config::{BackendKind, MemoryConfig};
use crate::dram::DramBackend;
use crate::stats::MemoryStats;
use koc_obs::{Event, Observer};
use std::collections::VecDeque;

/// Cycles an access spends in the DL1 and L2 lookups: the latency of an
/// L2 hit, and the delay before an L2 miss reaches the backend.
const LOOKUP: u32 = DL1.latency + L2.latency;

/// The level that served a data access.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum MemLevel {
    /// Served by the data L1.
    L1,
    /// Missed L1, served by the L2.
    L2,
    /// Missed L2, served by main memory.
    Memory,
}

/// Result of a timed data access ([`MemoryHierarchy::access_data_timed`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TimedAccess {
    /// The completion cycle is known now: the caller schedules it.
    Ready {
        /// The level that served the access.
        level: MemLevel,
        /// Total latency in cycles from issue to data return.
        latency: u32,
    },
    /// The access went to a queueing backend (or is waiting for an MSHR);
    /// its token will surface from [`MemoryHierarchy::tick`] when the data
    /// returns.
    InFlight,
}

/// The full memory hierarchy.
///
/// Main memory is modelled by a pluggable timed [`MemoryBackend`]: the
/// default [`FlatLatency`] backend lets outstanding misses overlap freely
/// (the paper's assumption — a large instruction window exposes
/// memory-level parallelism), while the banked-DRAM backend bounds
/// outstanding misses with a finite MSHR file and models row-buffer
/// locality. Core-side bandwidth is modelled by the pipeline's memory
/// ports at the issue stage, which `koc-sim` enforces.
#[derive(Debug)]
pub struct MemoryHierarchy {
    /// Every L2 lookup hits ([`MemoryConfig::perfect_l2`]).
    perfect_l2: bool,
    dl1: Cache,
    l2: Cache,
    backend: Box<dyn MemoryBackend>,
    /// Demand misses waiting for an MSHR (FIFO), with their original
    /// arrival cycle at the backend.
    waiting: VecDeque<(MemReq, u64)>,
    /// Scratch buffer for backend completions.
    drained: Vec<Completion>,
    stats: MemoryStats,
}

impl MemoryHierarchy {
    /// Creates an empty (cold) hierarchy.
    ///
    /// # Panics
    /// Panics if the configuration fails [`MemoryConfig::validate`].
    pub fn new(config: MemoryConfig) -> Self {
        let backend: Box<dyn MemoryBackend> = match config.backend {
            BackendKind::Flat => Box::new(FlatLatency::new(config.memory_latency)),
            BackendKind::Dram(d) => Box::new(DramBackend::new(d, config.memory_latency)),
        };
        MemoryHierarchy {
            perfect_l2: config.perfect_l2,
            dl1: Cache::new(DL1),
            l2: Cache::new(L2),
            backend,
            waiting: VecDeque::new(),
            drained: Vec::new(),
            stats: MemoryStats::default(),
        }
    }

    /// Number of reads currently holding backend MSHRs.
    pub fn backend_in_flight(&self) -> usize {
        self.backend.in_flight()
    }

    /// Number of demand misses queued because the backend refused admission
    /// (waiting for a free MSHR). The cycle-accounting observer reads this
    /// to attribute otherwise-idle cycles to MSHR pressure.
    pub fn pending_demand_misses(&self) -> usize {
        self.waiting.len()
    }

    /// Accumulated statistics as of the end of cycle `now`, with the
    /// backend's row-buffer counters for the requests started by then.
    pub fn stats(&self, now: u64) -> MemoryStats {
        let b = self.backend.stats(now);
        MemoryStats {
            row_buffer_hits: b.row_buffer_hits,
            row_buffer_misses: b.row_buffer_misses,
            row_buffer_conflicts: b.row_buffer_conflicts,
            ..self.stats
        }
    }

    /// Writes back a committed store at cycle `now`. The lookup updates
    /// cache state and statistics like a load's (write-allocate,
    /// write-back); an L2 miss is posted to the timed backend as a write
    /// (it occupies DRAM bank bandwidth but never an MSHR, and nothing
    /// waits for its completion).
    pub fn drain_store(&mut self, addr: u64, now: u64) {
        if self.lookup_caches(addr, true).is_none() {
            self.offer(MemReq::write(addr), now + LOOKUP as u64, now);
        }
    }

    /// Accesses the data hierarchy for a load at byte address `addr` on
    /// cycle `now`, with main-memory timing delegated to the backend.
    ///
    /// Cache hits (and [`Admit::At`] backends like [`FlatLatency`]) answer
    /// [`TimedAccess::Ready`] with the full latency. Otherwise the access
    /// returns [`TimedAccess::InFlight`] and `token` will surface from
    /// [`tick`](MemoryHierarchy::tick) when the data comes back — possibly
    /// after waiting for a free MSHR, which is the back-pressure the
    /// `mshr_full_stalls` counter measures. `obs` sees [`Event::MshrAlloc`]
    /// when the backend accepts the miss into its in-flight tracking.
    pub fn access_data_timed<O: Observer>(
        &mut self,
        addr: u64,
        token: u64,
        now: u64,
        obs: &mut O,
    ) -> TimedAccess {
        if let Some(hit) = self.lookup_caches(addr, false) {
            return hit;
        }
        let arrival = now + LOOKUP as u64;
        let req = MemReq::read(token, addr);
        // Keep the wait queue FIFO: nothing overtakes an already-waiting
        // demand miss.
        if !self.waiting.is_empty() {
            self.waiting.push_back((req, arrival));
            return TimedAccess::InFlight;
        }
        match self.offer(req, arrival, now) {
            Admit::At(done) => TimedAccess::Ready {
                level: MemLevel::Memory,
                latency: (done - now) as u32,
            },
            Admit::Queued => {
                if O::ENABLED {
                    obs.event(now, Event::MshrAlloc { token, addr });
                }
                TimedAccess::InFlight
            }
            Admit::Reject => {
                self.waiting.push_back((req, arrival));
                TimedAccess::InFlight
            }
        }
    }

    /// Drains the backend's completions due by cycle `now`, retries waiting
    /// demand misses, and appends the tokens of completed demand reads to
    /// `completed`. Call once per cycle, before issuing new accesses for
    /// that cycle. `obs` sees [`Event::MshrFill`] for every completed
    /// demand read delivered to the pipeline and [`Event::MshrAlloc`] when
    /// a queued miss finally wins an MSHR on retry.
    pub fn tick<O: Observer>(&mut self, now: u64, completed: &mut Vec<u64>, obs: &mut O) {
        if self.next_event().is_none_or(|at| at > now) {
            // Nothing is due: the tick is idle (see `next_event`).
            self.account_idle_ticks(1);
            return;
        }
        self.drained.clear();
        let mut drained = std::mem::take(&mut self.drained);
        self.backend.drain(now, &mut drained);
        for c in &drained {
            if c.is_write {
                continue;
            }
            if O::ENABLED {
                obs.event(now, Event::MshrFill { token: c.token });
            }
            completed.push(c.token);
        }
        drained.clear();
        self.drained = drained;
        // Retry demand misses that were waiting for an MSHR, oldest first.
        while let Some(&(req, arrival)) = self.waiting.front() {
            match self.offer(req, arrival, now) {
                Admit::At(_) => {
                    unreachable!("a backend that rejects requests never answers Admit::At")
                }
                Admit::Queued => {
                    if O::ENABLED {
                        obs.event(
                            now,
                            Event::MshrAlloc {
                                token: req.token,
                                addr: req.addr,
                            },
                        );
                    }
                    self.waiting.pop_front();
                }
                Admit::Reject => break,
            }
        }
        self.stats.mshr_full_stalls += self.waiting.len() as u64;
    }

    /// Offers `req`, arriving at `at`, to the backend during cycle `now`.
    /// That cycle's completions have drained, so the request arrives at
    /// `now + 1` at the earliest (see [`MemoryBackend`]'s protocol).
    fn offer(&mut self, req: MemReq, at: u64, now: u64) -> Admit {
        self.backend.request(req, at.max(now + 1))
    }

    /// The earliest future cycle at which the memory system can deliver a
    /// completion or otherwise change state on its own: the backend's next
    /// event. `None` when nothing is in flight beyond the L2.
    ///
    /// Used by the pipeline's event-driven fast-forward, and by
    /// [`tick`](Self::tick) itself: before this cycle a tick is idle.
    /// Nothing can be drained, and demand misses waiting for an MSHR
    /// cannot be admitted before a drain frees one, which is a backend
    /// event.
    pub fn next_event(&self) -> Option<u64> {
        self.backend.next_event()
    }

    /// Accounts for `cycles` skipped ticks during which the memory system
    /// provably did nothing (fast-forward): the only per-cycle side effect
    /// of an idle [`tick`](Self::tick) is the MSHR-wait counter, which grows
    /// by the (constant, during idle time) length of the wait queue.
    pub fn account_idle_ticks(&mut self, cycles: u64) {
        debug_assert!(
            self.waiting.is_empty() || !self.backend.can_accept(),
            "a waiting miss implies every MSHR is taken"
        );
        self.stats.mshr_full_stalls += self.waiting.len() as u64 * cycles;
    }

    /// The shared L1/L2 lookup: updates cache state and statistics and
    /// answers [`TimedAccess::Ready`] for hits, or `None` when the access
    /// misses L2 and must go to the backend.
    fn lookup_caches(&mut self, addr: u64, is_store: bool) -> Option<TimedAccess> {
        self.stats.data_accesses += 1;
        if is_store {
            self.stats.store_accesses += 1;
        }
        if self.dl1.access(addr).is_hit() {
            self.stats.dl1_hits += 1;
            return Some(TimedAccess::Ready {
                level: MemLevel::L1,
                latency: DL1.latency,
            });
        }
        self.stats.dl1_misses += 1;
        let l2 = self.l2.access(addr);
        if self.perfect_l2 || l2.is_hit() {
            self.stats.l2_hits += 1;
            return Some(TimedAccess::Ready {
                level: MemLevel::L2,
                latency: LOOKUP,
            });
        }
        self.stats.l2_misses += 1;
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dram::DramConfig;
    use koc_obs::NullObserver;

    /// A load that must be answered now: the level and latency of a flat
    /// or cache-hit access.
    fn load(m: &mut MemoryHierarchy, addr: u64) -> (MemLevel, u32) {
        match m.access_data_timed(addr, 0, 0, &mut NullObserver) {
            TimedAccess::Ready { level, latency } => (level, latency),
            TimedAccess::InFlight => panic!("flat backends answer immediately"),
        }
    }

    fn tick(m: &mut MemoryHierarchy, now: u64, done: &mut Vec<u64>) {
        m.tick(now, done, &mut NullObserver);
    }

    #[test]
    fn cold_access_goes_to_memory_then_warms_up() {
        let mut m = MemoryHierarchy::new(MemoryConfig::table1(1000));
        assert_eq!(load(&mut m, 0x10_0000), (MemLevel::Memory, 2 + 10 + 1000));
        assert_eq!(load(&mut m, 0x10_0000), (MemLevel::L1, 2));
    }

    #[test]
    fn perfect_l2_never_reaches_memory() {
        let mut m = MemoryHierarchy::new(MemoryConfig::table1_perfect_l2());
        for i in 0..10_000u64 {
            let (level, latency) = load(&mut m, i * 4096);
            assert_ne!(level, MemLevel::Memory);
            assert!(latency <= 12);
        }
    }

    #[test]
    fn l2_hit_latency_is_l1_plus_l2() {
        let mut m = MemoryHierarchy::new(MemoryConfig::table1(500));
        // Fill L2 and L1, then evict from L1 by touching many other lines
        // mapping everywhere: the line stays in the much larger L2.
        load(&mut m, 0x20_0000);
        for i in 0..4096u64 {
            load(&mut m, 0x40_0000 + i * 32);
        }
        assert_eq!(load(&mut m, 0x20_0000), (MemLevel::L2, 12));
    }

    #[test]
    fn stats_track_hits_and_misses() {
        let mut m = MemoryHierarchy::new(MemoryConfig::table1(100));
        load(&mut m, 0x1000);
        m.drain_store(0x1000, 1);
        let s = m.stats(1);
        assert_eq!(s.data_accesses, 2);
        assert_eq!(s.store_accesses, 1);
        assert_eq!(s.dl1_hits, 1);
        assert_eq!(s.dl1_misses, 1);
        assert_eq!(s.l2_misses, 1);
    }

    #[test]
    fn dram_misses_complete_through_tick() {
        let config = MemoryConfig::table1(100).with_dram(DramConfig { mshr_entries: 8 });
        let mut m = MemoryHierarchy::new(config);
        assert_eq!(
            m.access_data_timed(0x10_0000, 7, 5, &mut NullObserver),
            TimedAccess::InFlight
        );
        let mut done = Vec::new();
        // Arrival 5+12, a row miss of 100+40 cycles: completes at 157.
        for now in 6..157 {
            tick(&mut m, now, &mut done);
            assert!(done.is_empty(), "nothing before cycle 157 (at {now})");
        }
        tick(&mut m, 157, &mut done);
        assert_eq!(done, vec![7]);
        assert_eq!(m.backend_in_flight(), 0);
    }

    #[test]
    fn mshr_exhaustion_queues_and_counts_stalls() {
        let config = MemoryConfig::table1(100).with_dram(DramConfig { mshr_entries: 1 });
        let mut m = MemoryHierarchy::new(config);
        for (token, addr) in [(1, 0x10_0000), (2, 0x90_0000)] {
            assert_eq!(
                m.access_data_timed(addr, token, 0, &mut NullObserver),
                TimedAccess::InFlight
            );
        }
        let mut done = Vec::new();
        let mut finished = Vec::new();
        for now in 1..=300 {
            tick(&mut m, now, &mut done);
            for t in done.drain(..) {
                finished.push((t, now));
            }
        }
        assert_eq!(finished.len(), 2);
        assert_eq!(finished[0].0, 1);
        assert_eq!(finished[1].0, 2);
        assert!(
            finished[1].1 > finished[0].1 + 90,
            "the second miss serialized behind the only MSHR: {finished:?}"
        );
        assert!(m.stats(300).mshr_full_stalls > 0);
    }

    #[test]
    fn flat_hierarchy_never_has_pending_events() {
        let mut m = MemoryHierarchy::new(MemoryConfig::table1(1000));
        assert_eq!(m.next_event(), None);
        // Flat accesses answer Ready; nothing is queued in the backend.
        load(&mut m, 0x10_0000);
        assert_eq!(m.next_event(), None);
    }

    #[test]
    fn next_event_lets_a_caller_jump_to_the_dram_completion() {
        let config = MemoryConfig::table1(100).with_dram(DramConfig { mshr_entries: 8 });
        let mut m = MemoryHierarchy::new(config);
        assert_eq!(m.next_event(), None);
        assert_eq!(
            m.access_data_timed(0x10_0000, 7, 5, &mut NullObserver),
            TimedAccess::InFlight
        );
        let mut done = Vec::new();
        // Jump tick-to-tick along the event chain instead of every cycle;
        // the completion cycle must match the per-cycle test above (157).
        let mut completed_at = None;
        while let Some(at) = m.next_event() {
            tick(&mut m, at, &mut done);
            if let Some(&token) = done.first() {
                assert_eq!(token, 7);
                completed_at = Some(at);
                done.clear();
            }
        }
        assert_eq!(completed_at, Some(157));
    }

    #[test]
    fn account_idle_ticks_scales_the_mshr_wait_counter() {
        let config = MemoryConfig::table1(100).with_dram(DramConfig { mshr_entries: 1 });
        let mut m = MemoryHierarchy::new(config);
        m.access_data_timed(0x10_0000, 1, 0, &mut NullObserver);
        // Waits for the only MSHR.
        m.access_data_timed(0x90_0000, 2, 0, &mut NullObserver);
        let mut done = Vec::new();
        tick(&mut m, 1, &mut done);
        let before = m.stats(1).mshr_full_stalls;
        m.account_idle_ticks(10);
        assert_eq!(m.stats(11).mshr_full_stalls, before + 10);
    }
}
