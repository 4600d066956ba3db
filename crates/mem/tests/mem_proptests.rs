//! Property-based tests for the cache and memory-hierarchy model.

use koc_mem::{
    Admit, Cache, CacheConfig, Completion, DramBackend, DramConfig, MemLevel, MemReq,
    MemoryBackend, MemoryConfig, MemoryHierarchy, TimedAccess,
};
use proptest::prelude::*;

proptest! {
    /// An LRU cache always hits on an address that was just accessed.
    #[test]
    fn immediate_reuse_always_hits(addrs in proptest::collection::vec(0u64..1_000_000, 1..200)) {
        let mut cache = Cache::new(CacheConfig::table1_l1());
        for a in addrs {
            cache.access(a);
            prop_assert!(cache.contains(a));
            prop_assert!(cache.access(a).is_hit());
        }
    }

    /// Hits plus misses always equals the number of accesses.
    #[test]
    fn hit_miss_accounting(addrs in proptest::collection::vec(0u64..1u64 << 24, 1..500)) {
        let mut cache = Cache::new(CacheConfig::table1_l2());
        for a in &addrs {
            cache.access(*a);
        }
        prop_assert_eq!(cache.hits() + cache.misses(), addrs.len() as u64);
        prop_assert!(cache.miss_ratio() >= 0.0 && cache.miss_ratio() <= 1.0);
    }

    /// A working set that fits in the cache never misses after the first pass.
    #[test]
    fn resident_working_set_stops_missing(lines in 1u64..256) {
        let mut cache = Cache::new(CacheConfig::table1_l1());
        // 256 lines of 32 bytes = 8 KB, always within the 32 KB capacity.
        for pass in 0..3 {
            for i in 0..lines {
                let outcome = cache.access(i * 32);
                if pass > 0 {
                    prop_assert!(outcome.is_hit(), "pass {pass}, line {i}");
                }
            }
        }
    }

    /// The hierarchy's reported latency always matches the level that served
    /// the access, and levels only get slower.
    #[test]
    fn latency_matches_level(addrs in proptest::collection::vec(0u64..1u64 << 30, 1..300), latency in 50u32..2000) {
        let config = MemoryConfig::table1(latency);
        let mut mem = MemoryHierarchy::new(config);
        for a in addrs {
            let r = mem.access_data(a, false);
            let expected = match r.level {
                MemLevel::L1 => config.dl1.latency,
                MemLevel::L2 => config.dl1.latency + config.l2.latency,
                MemLevel::Memory => config.dl1.latency + config.l2.latency + latency,
            };
            prop_assert_eq!(r.latency, expected);
        }
        let s = mem.stats(0);
        prop_assert_eq!(s.dl1_hits + s.dl1_misses, s.data_accesses);
    }

    /// `would_miss_l2` is a sound predictor of the next access's level.
    #[test]
    fn would_miss_l2_is_consistent(addrs in proptest::collection::vec(0u64..1u64 << 26, 1..200)) {
        let mut mem = MemoryHierarchy::new(MemoryConfig::table1(500));
        for a in addrs {
            let predicted_miss = mem.would_miss_l2(a);
            let r = mem.access_data(a, false);
            prop_assert_eq!(predicted_miss, r.level == MemLevel::Memory);
        }
    }

    /// Filling a set up to its associativity keeps every filled line
    /// resident: the next access to any of them is a hit.
    #[test]
    fn filling_a_set_within_associativity_then_all_hit(
        ways in 1usize..8,
        set_count_log2 in 1u32..6,
        line_log2 in 5u32..8,
    ) {
        let line = 1u64 << line_log2; // 32 / 64 / 128-byte lines
        let sets = 1u64 << set_count_log2;
        let mut cache = Cache::new(CacheConfig::new(sets * ways as u64 * line, ways, line, 1));
        // Fill one set exactly to capacity (stride = sets * line keeps the
        // same set index while changing the tag).
        let set_stride = sets * line;
        for i in 0..ways as u64 {
            prop_assert!(!cache.access(i * set_stride).is_hit(), "first touch misses");
        }
        for i in 0..ways as u64 {
            prop_assert!(cache.contains(i * set_stride), "line {i} must stay resident");
            prop_assert!(cache.access(i * set_stride).is_hit(), "fill -> hit");
        }
    }

    /// True-LRU eviction order: after any access sequence into one set, the
    /// cache holds exactly the `ways` most-recently-used distinct lines, in
    /// agreement with a reference recency list.
    #[test]
    fn lru_matches_a_reference_recency_list(
        ways in 1usize..5,
        refs in proptest::collection::vec(0u64..12, 1..80),
    ) {
        let sets = 4u64;
        let line = 64u64;
        let mut cache = Cache::new(CacheConfig::new(sets * ways as u64 * line, ways, line, 1));
        // All accesses target set 0; `refs` picks among 12 distinct tags.
        let mut recency: Vec<u64> = Vec::new(); // most recent first
        for &tag in &refs {
            cache.access(tag * sets * line);
            recency.retain(|&t| t != tag);
            recency.insert(0, tag);
        }
        for (i, &tag) in recency.iter().enumerate() {
            prop_assert_eq!(
                cache.contains(tag * sets * line),
                i < ways,
                "tag {} at recency position {} with {} ways", tag, i, ways
            );
        }
    }

    /// Under `perfect_l2`, no data access ever reaches main memory, no
    /// matter the access pattern, and the timed path agrees.
    #[test]
    fn perfect_l2_never_misses(addrs in proptest::collection::vec(0u64..1u64 << 40, 1..300)) {
        let mut mem = MemoryHierarchy::new(MemoryConfig::table1_perfect_l2());
        let mut timed = MemoryHierarchy::new(MemoryConfig::table1_perfect_l2());
        for (i, a) in addrs.iter().enumerate() {
            prop_assert!(!mem.would_miss_l2(*a));
            let r = mem.access_data(*a, false);
            prop_assert_ne!(r.level, MemLevel::Memory);
            prop_assert!(r.latency <= 12);
            match timed.access_data_timed(*a, i as u64, i as u64) {
                TimedAccess::Ready { level, latency } => {
                    prop_assert_eq!(level, r.level);
                    prop_assert_eq!(latency, r.latency);
                }
                TimedAccess::InFlight => prop_assert!(false, "perfect L2 never goes to memory"),
            }
        }
        prop_assert_eq!(mem.stats(0).l2_misses, 0);
    }
}

/// One request offered to a backend: `(cycle offered, address, is_write)`.
type Offer = (u64, u64, bool);

/// Turns generated `(gap, row, line, is_write)` tuples into offers on
/// non-decreasing cycles. Rows come from a small set (more rows than
/// banks) so that banks see row-buffer hits, misses and conflicts.
fn offers(raw: &[(u64, u64, u64, bool)]) -> Vec<Offer> {
    let mut cycle = 0;
    raw.iter()
        .map(|&(gap, row, line, is_write)| {
            cycle += gap;
            (cycle, row * 4096 + line * 64, is_write)
        })
        .collect()
}

/// The next cycle a test loop visits after `now`: the next one when
/// `dense`, else the sooner of the next offer and the memory system's next
/// event. `None` once nothing is left to offer or to finish.
fn next_cycle(offer: Option<u64>, event: Option<u64>, now: u64, dense: bool) -> Option<u64> {
    let soonest = match (offer, event) {
        (Some(a), Some(e)) => a.min(e),
        (a, e) => a.or(e)?,
    };
    assert!(
        soonest > now,
        "events never lie in the past or the present: {soonest} at {now}"
    );
    Some(if dense { now + 1 } else { soonest })
}

/// What a backend run produced: admission answers in offer order, every
/// completion with the cycle it drained on, and the final counters.
type BackendRun = (Vec<Admit>, Vec<(Completion, u64)>, koc_mem::BackendStats);

/// Offers each request on its cycle (arriving `delay` cycles later), after
/// that cycle's drain. With `dense`, drains every cycle up to the last
/// completion; otherwise only on offer cycles and at `next_event()`, the
/// way the simulator's fast-forward drives it.
fn drive_backend(b: &mut DramBackend, offers: &[Offer], delay: u64, dense: bool) -> BackendRun {
    let mut admits = Vec::new();
    let mut done = Vec::new();
    let mut out = Vec::new();
    let mut next_offer = 0;
    let mut now = 0;
    loop {
        b.drain(now, &mut out);
        done.extend(out.drain(..).map(|c| (c, now)));
        while next_offer < offers.len() && offers[next_offer].0 == now {
            let (_, addr, is_write) = offers[next_offer];
            let req = if is_write {
                MemReq::write(addr)
            } else {
                MemReq::read(next_offer as u64, addr)
            };
            admits.push(b.request(req, now + delay));
            next_offer += 1;
        }
        match next_cycle(
            offers.get(next_offer).map(|o| o.0),
            b.next_event(),
            now,
            dense,
        ) {
            Some(next) => now = next,
            None => break,
        }
    }
    (admits, done, b.stats(now))
}

/// Offers each demand load on its cycle after that cycle's tick, like the
/// pipeline's memory stage. Sparse driving ticks only on offer cycles and
/// at `next_event()`, and accounts the cycles between with
/// `account_idle_ticks`, exactly as fast-forward does. Returns every
/// completed `(token, cycle)` and the last cycle ticked.
fn drive_hierarchy(
    m: &mut MemoryHierarchy,
    offers: &[Offer],
    dense: bool,
) -> (Vec<(u64, u64)>, u64) {
    let mut done = Vec::new();
    let mut completed = Vec::new();
    let mut next_offer = 0;
    let mut now = 0;
    loop {
        m.tick(now, &mut completed);
        done.extend(completed.drain(..).map(|t| (t, now)));
        while next_offer < offers.len() && offers[next_offer].0 == now {
            let (_, addr, is_store) = offers[next_offer];
            if is_store {
                m.drain_store(addr, now);
            } else {
                m.access_data_timed(addr, next_offer as u64, now);
            }
            next_offer += 1;
        }
        let Some(next) = next_cycle(
            offers.get(next_offer).map(|o| o.0),
            m.next_event(),
            now,
            dense,
        ) else {
            break;
        };
        m.account_idle_ticks(next - now - 1);
        now = next;
    }
    (done, now)
}

proptest! {
    /// Draining a DRAM backend only at `next_event()` and on request cycles
    /// gives the same admissions, the same `(token, cycle)` completions and
    /// the same counters as draining it every cycle, across bank counts,
    /// bank occupancies, MSHR files and row-buffer behaviour.
    #[test]
    fn dram_drained_at_next_event_matches_every_cycle(
        banks in 1usize..17,
        bank_busy in 0u32..17,
        mshrs in 1usize..17,
        act in 0u32..40,
        precharge in 0u32..40,
        delay in 1u64..13,
        raw in proptest::collection::vec((0u64..10, 0u64..40, 0u64..4, proptest::strategy::any::<bool>()), 1..120),
    ) {
        let config = DramConfig {
            mshr_entries: mshrs,
            banks,
            row_bytes: 4096,
            act_latency: act,
            precharge_latency: precharge,
            bank_busy,
        };
        let offers = offers(&raw);
        let mut dense = DramBackend::new(config, 100);
        let mut sparse = DramBackend::new(config, 100);
        let dense_run = drive_backend(&mut dense, &offers, delay, true);
        let sparse_run = drive_backend(&mut sparse, &offers, delay, false);
        prop_assert_eq!(&dense_run, &sparse_run);
        let (admits, done, stats) = dense_run;
        let admitted = admits.iter().filter(|a| **a == Admit::Queued).count();
        prop_assert_eq!(done.len(), admitted, "every admitted request completes");
        prop_assert_eq!(
            stats.row_buffer_hits + stats.row_buffer_misses + stats.row_buffer_conflicts,
            admitted as u64
        );
        prop_assert_eq!(dense.in_flight(), 0);
    }

    /// The same equivalence one level up, under MSHR starvation: with one
    /// to three MSHRs most loads wait in the hierarchy's queue, and the
    /// sparse loop's idle accounting must reproduce `mshr_full_stalls`
    /// and every other counter of per-cycle ticking.
    #[test]
    fn starved_hierarchy_ticked_at_next_event_matches_every_cycle(
        mshrs in 1usize..4,
        banks in 1usize..5,
        raw in proptest::collection::vec((0u64..6, 0u64..4096, 0u64..64, proptest::strategy::any::<bool>()), 1..60),
    ) {
        let config = MemoryConfig::table1(200).with_dram(DramConfig {
            mshr_entries: mshrs,
            banks,
            row_bytes: 4096,
            act_latency: 20,
            precharge_latency: 20,
            bank_busy: 4,
        });
        // Spread lines over many rows so that almost every access misses L2.
        let offers: Vec<Offer> = offers(&raw)
            .into_iter()
            .map(|(at, addr, store)| (at, addr * 1024, store))
            .collect();
        let mut dense = MemoryHierarchy::new(config);
        let mut sparse = MemoryHierarchy::new(config);
        let (dense_done, end) = drive_hierarchy(&mut dense, &offers, true);
        let sparse_run = drive_hierarchy(&mut sparse, &offers, false);
        prop_assert_eq!(&(dense_done.clone(), end), &sparse_run);
        prop_assert_eq!(dense.stats(end), sparse.stats(end));
        let loads = offers.iter().filter(|o| !o.2).count();
        prop_assert!(dense_done.len() <= loads);
    }
}
