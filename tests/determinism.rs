//! Determinism and fast-forward-equivalence gates.
//!
//! The CI `cycle-regression` job compares cycle counts against a committed
//! baseline at zero tolerance; these tests pin the two properties that gate
//! depends on:
//!
//! 1. **Determinism** — the same configuration over the same workloads
//!    yields *bit-identical* `SimStats`, run directly or through a rayon
//!    `sweep` (parallelism must not leak into results), in both ingestion
//!    modes, with fast-forward on or off, capped or not.
//! 2. **Fast-forward equivalence** — the event-driven skip
//!    (`ProcessorConfig::fast_forward`, on by default) changes only how
//!    many cycles the pipeline steps: every statistic, including per-cycle distributions and stall
//!    counters, matches the per-cycle-stepping run exactly.

use koc_sim::{sweep, CycleSample, DramConfig, Observer, Processor, ProcessorConfig, Suite};
use koc_workloads::kernels;

/// Configurations chosen to cover both engines on both memory backends
/// (flat and banked DRAM).
fn coverage_configs() -> Vec<ProcessorConfig> {
    let mut dram = ProcessorConfig::cooo(32, 512, 800);
    dram.memory = dram.memory.with_dram(DramConfig::table1_like());
    let mut dram_baseline = ProcessorConfig::baseline(64, 800);
    dram_baseline.memory = dram_baseline.memory.with_dram(DramConfig::table1_like());
    vec![
        ProcessorConfig::baseline(64, 800),
        ProcessorConfig::cooo(32, 512, 800),
        dram,
        dram_baseline,
    ]
}

/// The MLP-contrast grid at 250-cycle memory — a latency small enough to
/// step `pointer_chase` without fast-forward — covering the in-order
/// engine, the checkpointed engine and a mix of window sizes.
fn mlp_contrast_configs() -> Vec<ProcessorConfig> {
    vec![
        ProcessorConfig::baseline(64, 250),
        ProcessorConfig::baseline(128, 250),
        ProcessorConfig::cooo(32, 512, 250),
        ProcessorConfig::cooo(16, 256, 250),
        ProcessorConfig::cooo(64, 1024, 250),
    ]
}

#[test]
fn identical_sessions_yield_bit_identical_stats() {
    let workloads = Suite::paper().generate(2_000);
    for config in coverage_configs() {
        for w in &workloads {
            let run = || Processor::new(config, &w.trace).run();
            assert_eq!(run(), run(), "{} must be bit-identical across runs", w.name);
        }
    }
}

#[test]
fn parallel_sweeps_are_as_deterministic_as_serial_runs() {
    let workloads = Suite::paper().generate(2_000);
    let configs = coverage_configs();
    let first = sweep(configs.clone(), &workloads);
    let second = sweep(configs, &workloads);
    for (a, b) in first.iter().zip(second.iter()) {
        for (wa, wb) in a.per_workload.iter().zip(b.per_workload.iter()) {
            assert_eq!(wa.stats, wb.stats, "rayon must not leak into results");
        }
    }
    // And a sweep agrees with solo `Processor` runs, across both engines,
    // both ingestion modes and fast-forward on and off, on the paper suite
    // and on the MLP-contrast grid.
    for (suite, configs) in [
        (Suite::paper(), coverage_configs()),
        (Suite::mlp_contrast(), mlp_contrast_configs()),
    ] {
        let specs = suite.specs(1_000);
        let workloads = suite.generate(1_000);
        for fast_forward in [true, false] {
            let configs: Vec<ProcessorConfig> = configs
                .iter()
                .map(|c| c.with_fast_forward(fast_forward))
                .collect();
            for (source, results) in [
                ("materialized", sweep(configs.clone(), &workloads)),
                ("streamed", sweep(configs.clone(), &specs)),
            ] {
                assert_eq!(results.len(), configs.len());
                for (config, swept) in configs.iter().zip(&results) {
                    assert_eq!(swept.config, *config, "results follow input order");
                    assert_eq!(swept.per_workload.len(), workloads.len());
                    for (w, wr) in workloads.iter().zip(&swept.per_workload) {
                        assert_eq!(wr.workload, w.name);
                        assert_eq!(
                            wr.stats,
                            Processor::new(*config, &w.trace).run(),
                            "{}: sweep vs solo run (fast_forward={fast_forward}, {source})",
                            w.name
                        );
                    }
                }
            }
        }
    }
}

#[test]
fn fast_forward_is_bit_identical_to_per_cycle_stepping() {
    let workloads = {
        let mut all = Suite::paper().generate(2_000);
        all.extend(Suite::mlp_contrast().generate(2_000));
        all
    };
    let configs = coverage_configs();
    let fast = sweep(
        configs.iter().map(|c| c.with_fast_forward(true)),
        &workloads,
    );
    let slow = sweep(
        configs.iter().map(|c| c.with_fast_forward(false)),
        &workloads,
    );
    for (config, (fast, slow)) in configs.iter().zip(fast.iter().zip(&slow)) {
        for (wf, ws) in fast.per_workload.iter().zip(slow.per_workload.iter()) {
            assert_eq!(
                wf.stats.cycles, ws.stats.cycles,
                "{}: cycle counts must not depend on the skip path",
                wf.workload
            );
            assert_eq!(
                wf.stats, ws.stats,
                "{}: every statistic (distributions, stalls, recoveries) \
                 must match with fast-forward {:?}",
                wf.workload, config.fast_forward
            );
        }
    }
}

/// Counts the cycles the pipeline stepped (one `sample` each) and the
/// cycles fast-forward skipped (the `n` of every `skip`).
#[derive(Default)]
struct CycleCounter {
    stepped: u64,
    skipped: u64,
}

impl Observer for CycleCounter {
    fn sample(&mut self, _: &CycleSample) {
        self.stepped += 1;
    }

    fn skip(&mut self, _: &CycleSample, n: u64) {
        self.skipped += n;
    }
}

#[test]
fn fast_forward_speeds_up_the_memory_bound_kernel() {
    // pointer_chase (a dependent chain, MLP = 1) at 1000-cycle memory is
    // almost entirely dead time: with fast-forward on, the pipeline must
    // step under 1% of the run's cycles and skip the rest, with, as above,
    // identical statistics. In practice it steps ~0.3%.
    let workload = &Suite::kernel("pointer_chase", kernels::pointer_chase()).generate(10_000)[0];
    let run = |ff: bool| {
        let config = ProcessorConfig::cooo(128, 2048, 1000).with_fast_forward(ff);
        Processor::with_observer(config, &workload.trace, CycleCounter::default()).run_observed()
    };
    let (slow_stats, slow) = run(false);
    let (fast_stats, fast) = run(true);
    assert_eq!(fast_stats, slow_stats, "identical results either way");
    let cycles = fast_stats.cycles;
    assert_eq!(slow.skipped, 0, "nothing is skipped with fast-forward off");
    assert_eq!(slow.stepped, cycles, "every cycle is stepped with it off");
    assert_eq!(
        fast.stepped + fast.skipped,
        cycles,
        "stepped and skipped cycles must cover the run exactly"
    );
    assert!(
        fast.stepped * 100 < cycles,
        "fast-forward must skip >99% of pointer_chase: stepped {} of {cycles}",
        fast.stepped
    );
}

/// The committed `bench/baseline.json` cycle counts over the full quick
/// suite, pinned in-source so any hot-path refactor is proved cycle-neutral
/// by `cargo test` alone — before the CI bench gate even runs. Solo cooo
/// runs must land on exactly these numbers in every combination of
/// ingestion mode and fast-forward, and a `sweep` of both engines in both
/// ingestion modes.
#[test]
fn cooo_quick_suite_cycles_are_pinned_in_all_modes() {
    use koc_bench::harness::{engines, specs, QUICK_TRACE_LEN};

    const PINNED: &[(&str, u64, u64, u64)] = &[
        // (workload, baseline cycles, cooo cycles, retired)
        ("stream_add", 47_328, 4_183, 8_004),
        ("stencil27", 61_382, 4_460, 8_100),
        ("dense_blocked", 57_208, 3_623, 8_140),
        ("reduction", 59_149, 5_608, 8_008),
        ("gather", 63_937, 4_516, 8_070),
        ("pointer_chase", 6_458_794, 6_458_795, 8_000),
        ("stream_mlp", 63_883, 3_933, 8_024),
    ];
    let engine = |wanted: &str| {
        engines()
            .iter()
            .find(|(name, _)| *name == wanted)
            .expect("harness exposes the engine")
            .1
    };
    let config = engine("cooo");
    let specs = specs(QUICK_TRACE_LEN);
    assert_eq!(specs.len(), PINNED.len(), "quick suite changed shape");
    let engines = [engine("baseline"), config];
    let materialized: Vec<_> = specs.iter().map(|s| s.materialize()).collect();
    for results in [sweep(engines, &specs), sweep(engines, &materialized)] {
        for (ei, result) in results.iter().enumerate() {
            for (wr, &(name, base_cycles, cooo_cycles, retired)) in
                result.per_workload.iter().zip(PINNED)
            {
                let cycles = [base_cycles, cooo_cycles][ei];
                assert_eq!(wr.workload, name);
                assert_eq!(
                    (wr.stats.cycles, wr.stats.committed_instructions),
                    (cycles, retired),
                    "{name}: swept cycles must stay on bench/baseline.json (engine {ei})"
                );
            }
        }
    }
    for ((spec, workload), &(name, _, cycles, retired)) in
        specs.iter().zip(&materialized).zip(PINNED)
    {
        assert_eq!(spec.name(), name, "quick suite changed order");
        for fast_forward in [true, false] {
            // Stepping pointer_chase's ~6.5M almost-all-idle cycles one by
            // one is prohibitive under debug codegen; the release CI bench
            // job runs the full matrix, and fast-forward equivalence is
            // separately pinned above on every engine/backend combination.
            if cfg!(debug_assertions) && name == "pointer_chase" && !fast_forward {
                continue;
            }
            let config = config.with_fast_forward(fast_forward);
            for streamed in [false, true] {
                let stats = if streamed {
                    Processor::new(config, spec.source()).run()
                } else {
                    Processor::new(config, &workload.trace).run()
                };
                assert_eq!(
                    (stats.cycles, stats.committed_instructions),
                    (cycles, retired),
                    "{name}: cooo cycles must stay pinned \
                     (streamed={streamed}, fast_forward={fast_forward})"
                );
            }
        }
    }
}

#[test]
fn budgeted_runs_are_deterministic_and_bounded() {
    let workload = &Suite::kernel("pointer_chase", kernels::pointer_chase()).generate(4_000)[0];
    let run = || {
        Processor::new(ProcessorConfig::baseline(64, 1000), &workload.trace)
            .run_capped(Some(50_000))
    };
    let (sa, sb) = (run(), run());
    assert_eq!(sa, sb);
    assert!(sa.budget_exhausted);
    assert_eq!(sa.cycles, 50_000);
    assert!((sa.committed_instructions as usize) < workload.trace.len());
}
