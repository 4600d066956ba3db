//! The multi-level data memory hierarchy: DL1, unified L2, and a pluggable
//! timed main-memory backend.

use crate::backend::{Admit, Completion, FlatLatency, MemReq, MemoryBackend, SelfSchedule};
use crate::cache::Cache;
use crate::config::{BackendKind, MemoryConfig};
use crate::dram::DramBackend;
use crate::stats::MemoryStats;
use koc_obs::{Event, NullObserver, Observer};
use std::collections::VecDeque;

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

/// Result of a data access: where it was served and its total latency.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DataAccessResult {
    /// The level that served the access.
    pub level: MemLevel,
    /// Total latency in cycles from issue to data return.
    pub latency: u32,
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
    config: MemoryConfig,
    dl1: Cache,
    l2: Cache,
    backend: Box<dyn MemoryBackend>,
    /// Demand misses waiting for an MSHR (FIFO), with their original
    /// arrival cycle at the backend.
    waiting: VecDeque<(MemReq, u64)>,
    /// Completions the hierarchy must deliver itself (an [`Admit::At`]
    /// answer to a retried request).
    self_scheduled: SelfSchedule,
    /// Scratch buffer for backend completions.
    drained: Vec<Completion>,
    stats: MemoryStats,
}

/// Builds the backend a [`MemoryConfig`] describes.
fn backend_from_config(config: &MemoryConfig) -> Box<dyn MemoryBackend> {
    match config.backend {
        BackendKind::Flat => Box::new(FlatLatency::new(config.memory_latency)),
        BackendKind::Dram(d) => Box::new(DramBackend::new(d, config.memory_latency)),
    }
}

impl MemoryHierarchy {
    /// Creates an empty (cold) hierarchy.
    ///
    /// # Panics
    /// Panics if the configuration fails [`MemoryConfig::validate`].
    pub fn new(config: MemoryConfig) -> Self {
        #[expect(
            clippy::panic,
            reason = "invalid configuration is a caller bug; validate() names the field"
        )]
        config
            .validate()
            .unwrap_or_else(|e| panic!("invalid memory configuration: {e}"));
        MemoryHierarchy {
            dl1: Cache::new(config.dl1),
            l2: Cache::new(config.l2),
            backend: backend_from_config(&config),
            waiting: VecDeque::new(),
            self_scheduled: SelfSchedule::default(),
            drained: Vec::new(),
            config,
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

    /// Accesses the data hierarchy at byte address `addr`, untimed: misses
    /// to main memory are charged the flat `memory_latency` regardless of
    /// backend contention, and nothing is posted to the timed backend.
    /// Used by tests and untimed callers; the pipeline's load path uses
    /// [`access_data_timed`] and committed stores drain through
    /// [`drain_store`].
    ///
    /// `is_store` only affects statistics: lines allocate in cache exactly
    /// like loads (write-allocate, write-back).
    ///
    /// [`access_data_timed`]: MemoryHierarchy::access_data_timed
    /// [`drain_store`]: MemoryHierarchy::drain_store
    pub fn access_data(&mut self, addr: u64, is_store: bool) -> DataAccessResult {
        match self.lookup_caches(addr, is_store) {
            Some(result) => result,
            None => DataAccessResult {
                level: MemLevel::Memory,
                latency: self.config.dl1.latency
                    + self.config.l2.latency
                    + self.config.memory_latency,
            },
        }
    }

    /// Writes back a committed store at cycle `now`. Cache state and
    /// statistics update exactly like [`access_data`] with `is_store`;
    /// additionally, an L2 miss is posted to the timed backend as a write
    /// (it occupies DRAM bank bandwidth but never an MSHR, and nothing
    /// waits for its completion).
    ///
    /// [`access_data`]: MemoryHierarchy::access_data
    pub fn drain_store(&mut self, addr: u64, now: u64) -> DataAccessResult {
        match self.lookup_caches(addr, true) {
            Some(result) => result,
            None => {
                let lookup = (self.config.dl1.latency + self.config.l2.latency) as u64;
                self.offer(MemReq::write(addr), now + lookup, now);
                DataAccessResult {
                    level: MemLevel::Memory,
                    latency: self.config.dl1.latency
                        + self.config.l2.latency
                        + self.config.memory_latency,
                }
            }
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
    /// `mshr_full_stalls` counter measures.
    pub fn access_data_timed(&mut self, addr: u64, token: u64, now: u64) -> TimedAccess {
        self.access_data_timed_obs(addr, token, now, &mut NullObserver)
    }

    /// [`access_data_timed`](Self::access_data_timed) with an [`Observer`]:
    /// emits [`Event::MshrAlloc`] when the backend accepts the miss into its
    /// MSHR-like in-flight tracking. Timing is identical to the unobserved
    /// call.
    pub fn access_data_timed_obs<O: Observer>(
        &mut self,
        addr: u64,
        token: u64,
        now: u64,
        obs: &mut O,
    ) -> TimedAccess {
        if let Some(result) = self.lookup_caches(addr, false) {
            return TimedAccess::Ready {
                level: result.level,
                latency: result.latency,
            };
        }
        let lookup = self.config.dl1.latency + self.config.l2.latency;
        let arrival = now + lookup as u64;
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
    /// that cycle.
    pub fn tick(&mut self, now: u64, completed: &mut Vec<u64>) {
        self.tick_obs(now, completed, &mut NullObserver);
    }

    /// [`tick`](Self::tick) with an [`Observer`]: emits [`Event::MshrFill`]
    /// for every completed demand read delivered to the pipeline and
    /// [`Event::MshrAlloc`] when a queued miss finally wins an MSHR on
    /// retry. Timing is identical to the unobserved call.
    pub fn tick_obs<O: Observer>(&mut self, now: u64, completed: &mut Vec<u64>, obs: &mut O) {
        if self.next_event().is_none_or(|at| at > now) {
            // Nothing is due: the tick is idle (see `next_event`).
            self.account_idle_ticks(1);
            return;
        }
        self.drained.clear();
        let mut drained = std::mem::take(&mut self.drained);
        self.backend.drain(now, &mut drained);
        self.self_scheduled.drain(now, &mut drained);
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
                Admit::At(done) => {
                    self.waiting.pop_front();
                    self.self_scheduled.push(
                        done.max(now),
                        Completion {
                            token: req.token,
                            is_write: false,
                        },
                    );
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
    /// event or the hierarchy's own retry schedule. `None` when nothing is
    /// in flight beyond the L2.
    ///
    /// Used by the pipeline's event-driven fast-forward, and by
    /// [`tick`](Self::tick) itself: before this cycle a tick is idle.
    /// Nothing can be drained, and demand misses waiting for an MSHR
    /// cannot be admitted before a drain frees one, which is a backend
    /// event.
    pub fn next_event(&self) -> Option<u64> {
        match (self.backend.next_event(), self.self_scheduled.next_due()) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, b) => a.or(b),
        }
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
    /// returns the result for hits, or `None` when the access misses L2 and
    /// must go to the backend.
    fn lookup_caches(&mut self, addr: u64, is_store: bool) -> Option<DataAccessResult> {
        self.stats.data_accesses += 1;
        if is_store {
            self.stats.store_accesses += 1;
        }
        let l1 = self.dl1.access(addr);
        if l1.is_hit() {
            self.stats.dl1_hits += 1;
            return Some(DataAccessResult {
                level: MemLevel::L1,
                latency: self.config.dl1.latency,
            });
        }
        self.stats.dl1_misses += 1;
        let l2 = self.l2.access(addr);
        if self.config.perfect_l2 || l2.is_hit() {
            self.stats.l2_hits += 1;
            return Some(DataAccessResult {
                level: MemLevel::L2,
                latency: self.config.dl1.latency + self.config.l2.latency,
            });
        }
        self.stats.l2_misses += 1;
        None
    }

    /// Probes whether a data access to `addr` would be a long-latency (L2
    /// miss) access, without disturbing cache state.
    pub fn would_miss_l2(&self, addr: u64) -> bool {
        if self.config.perfect_l2 {
            return false;
        }
        !self.dl1.contains(addr) && !self.l2.contains(addr)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dram::DramConfig;

    #[test]
    fn cold_access_goes_to_memory_then_warms_up() {
        let mut m = MemoryHierarchy::new(MemoryConfig::table1(1000));
        let first = m.access_data(0x10_0000, false);
        assert_eq!(first.level, MemLevel::Memory);
        assert_eq!(first.latency, 2 + 10 + 1000);
        let second = m.access_data(0x10_0000, false);
        assert_eq!(second.level, MemLevel::L1);
        assert_eq!(second.latency, 2);
    }

    #[test]
    fn perfect_l2_never_reaches_memory() {
        let mut m = MemoryHierarchy::new(MemoryConfig::table1_perfect_l2());
        for i in 0..10_000u64 {
            let r = m.access_data(i * 4096, false);
            assert_ne!(r.level, MemLevel::Memory);
            assert!(r.latency <= 12);
        }
    }

    #[test]
    fn l2_hit_latency_is_l1_plus_l2() {
        let mut m = MemoryHierarchy::new(MemoryConfig::table1(500));
        m.access_data(0x20_0000, false); // fill L2 + L1
                                         // Evict from L1 by touching many other lines mapping everywhere, then
                                         // the original line should still be in the much larger L2.
        for i in 0..4096u64 {
            m.access_data(0x40_0000 + i * 32, false);
        }
        let r = m.access_data(0x20_0000, false);
        assert_eq!(r.level, MemLevel::L2);
        assert_eq!(r.latency, 12);
    }

    #[test]
    fn would_miss_l2_predicts_the_cold_miss() {
        let mut m = MemoryHierarchy::new(MemoryConfig::table1(1000));
        assert!(m.would_miss_l2(0x55_0000));
        m.access_data(0x55_0000, false);
        assert!(!m.would_miss_l2(0x55_0000));
    }

    #[test]
    fn stats_track_hits_and_misses() {
        let mut m = MemoryHierarchy::new(MemoryConfig::table1(100));
        m.access_data(0x1000, false);
        m.access_data(0x1000, true);
        let s = m.stats(0);
        assert_eq!(s.data_accesses, 2);
        assert_eq!(s.store_accesses, 1);
        assert_eq!(s.dl1_hits, 1);
        assert_eq!(s.dl1_misses, 1);
        assert_eq!(s.l2_misses, 1);
    }

    #[test]
    fn flat_timed_access_matches_the_untimed_latency() {
        let mut timed = MemoryHierarchy::new(MemoryConfig::table1(750));
        let mut untimed = MemoryHierarchy::new(MemoryConfig::table1(750));
        for (i, addr) in [0x10_0000u64, 0x10_0000, 0x90_0000, 0x10_0020]
            .into_iter()
            .enumerate()
        {
            let u = untimed.access_data(addr, false);
            match timed.access_data_timed(addr, i as u64, 100 + i as u64) {
                TimedAccess::Ready { level, latency } => {
                    assert_eq!(level, u.level);
                    assert_eq!(latency, u.latency);
                }
                TimedAccess::InFlight => panic!("flat backends answer immediately"),
            }
        }
    }

    #[test]
    fn dram_misses_complete_through_tick() {
        let config = MemoryConfig::table1(100).with_dram(DramConfig {
            mshr_entries: 8,
            banks: 2,
            row_bytes: 4096,
            act_latency: 0,
            precharge_latency: 0,
            bank_busy: 0,
        });
        let mut m = MemoryHierarchy::new(config);
        assert_eq!(m.access_data_timed(0x10_0000, 7, 5), TimedAccess::InFlight);
        let mut done = Vec::new();
        // Arrival 5+12, service 100 cycles: completes at 117.
        for now in 6..117 {
            m.tick(now, &mut done);
            assert!(done.is_empty(), "nothing before cycle 117 (at {now})");
        }
        m.tick(117, &mut done);
        assert_eq!(done, vec![7]);
        assert_eq!(m.backend_in_flight(), 0);
    }

    #[test]
    fn mshr_exhaustion_queues_and_counts_stalls() {
        let config = MemoryConfig::table1(100).with_dram(DramConfig {
            mshr_entries: 1,
            banks: 1,
            row_bytes: 4096,
            act_latency: 0,
            precharge_latency: 0,
            bank_busy: 0,
        });
        let mut m = MemoryHierarchy::new(config);
        assert_eq!(m.access_data_timed(0x10_0000, 1, 0), TimedAccess::InFlight);
        assert_eq!(m.access_data_timed(0x90_0000, 2, 0), TimedAccess::InFlight);
        let mut done = Vec::new();
        let mut finished = Vec::new();
        for now in 1..=300 {
            m.tick(now, &mut done);
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
        m.access_data_timed(0x10_0000, 1, 0);
        assert_eq!(m.next_event(), None);
    }

    #[test]
    fn next_event_lets_a_caller_jump_to_the_dram_completion() {
        let config = MemoryConfig::table1(100).with_dram(DramConfig {
            mshr_entries: 8,
            banks: 2,
            row_bytes: 4096,
            act_latency: 0,
            precharge_latency: 0,
            bank_busy: 0,
        });
        let mut m = MemoryHierarchy::new(config);
        assert_eq!(m.next_event(), None);
        assert_eq!(m.access_data_timed(0x10_0000, 7, 5), TimedAccess::InFlight);
        let mut done = Vec::new();
        // Jump tick-to-tick along the event chain instead of every cycle;
        // the completion cycle must match the per-cycle test above (117).
        let mut completed_at = None;
        while let Some(at) = m.next_event() {
            m.tick(at, &mut done);
            if let Some(&token) = done.first() {
                assert_eq!(token, 7);
                completed_at = Some(at);
                done.clear();
            }
        }
        assert_eq!(completed_at, Some(117));
    }

    #[test]
    fn account_idle_ticks_scales_the_mshr_wait_counter() {
        let config = MemoryConfig::table1(100).with_dram(DramConfig {
            mshr_entries: 1,
            banks: 1,
            row_bytes: 4096,
            act_latency: 0,
            precharge_latency: 0,
            bank_busy: 0,
        });
        let mut m = MemoryHierarchy::new(config);
        m.access_data_timed(0x10_0000, 1, 0);
        m.access_data_timed(0x90_0000, 2, 0); // waits for the only MSHR
        let mut done = Vec::new();
        m.tick(1, &mut done);
        let before = m.stats(1).mshr_full_stalls;
        m.account_idle_ticks(10);
        assert_eq!(m.stats(11).mshr_full_stalls, before + 10);
    }
}
