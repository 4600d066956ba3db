//! The benchmark's one seam into the simulator: every call into koc-sim,
//! koc-workloads and the figure code goes through this module, so a change
//! to the simulator's run API edits a single place here.

use crate::layers::{CycleCounter, Instrumented, Probe};
use koc_bench::experiments::{fig09_main, mlp_sensitivity};
use koc_sim::{engine, BackendKind, CommitConfig, CycleAccounting, Processor, Suite};
use std::rc::Rc;
use std::time::Instant;

pub use koc_sim::{CycleBuckets, ProcessorConfig, SimStats};
pub use koc_workloads::{Workload, WorkloadSpec};

/// The seed that reproduces the repository's kernels exactly, so its
/// fingerprints agree with the pinned cycle tables (`bench/baseline.json`).
pub const CANONICAL_SEED: u64 = 0;

/// Derives a kernel's generator seed from the benchmark seed: the canonical
/// seed leaves the kernel's own seed unchanged, and distinct benchmark
/// seeds give distinct kernel seeds (odd multipliers are bijective).
pub fn kernel_seed(base: u64, seed: u64) -> u64 {
    base ^ seed.wrapping_mul(0x9E37_79B9_7F4A_7C15)
}

fn seeded(mut specs: Vec<WorkloadSpec>, seed: u64) -> Vec<WorkloadSpec> {
    for spec in &mut specs {
        if let WorkloadSpec::Kernel { config, .. } = spec {
            config.seed = kernel_seed(config.seed, seed);
        }
    }
    specs
}

/// The five-kernel paper suite, `len` instructions per kernel.
pub fn paper_kernels(seed: u64, len: usize) -> Vec<WorkloadSpec> {
    seeded(Suite::paper().specs(len), seed)
}

/// The MLP-contrast pair (`pointer_chase`, `stream_mlp`).
pub fn mlp_kernels(seed: u64, len: usize) -> Vec<WorkloadSpec> {
    seeded(Suite::mlp_contrast().specs(len), seed)
}

/// Generates a kernel's whole trace.
pub fn materialize(k: &WorkloadSpec) -> Workload {
    k.materialize()
}

/// Drains a kernel's generator outside the simulator and returns how many
/// instructions it produced.
pub fn drain(k: &WorkloadSpec) -> usize {
    let mut source = k.source();
    let mut n = 0;
    while let Some(inst) = source.next_inst() {
        std::hint::black_box(inst);
        n += 1;
    }
    n
}

/// The headline machine: cooo with a 128-entry pseudo-ROB and queues, a
/// 2048-entry SLIQ and 1000-cycle flat memory.
pub fn kilo_machine() -> ProcessorConfig {
    ProcessorConfig::cooo(128, 2048, 1000)
}

/// The `mlp_sensitivity` pair at 1000-cycle memory on the 16-bank,
/// 16-MSHR DRAM part: baseline-32 and cooo 32/2048.
pub fn memory_machines() -> [ProcessorConfig; 2] {
    [
        ProcessorConfig::baseline(32, 1000),
        ProcessorConfig::cooo(32, 2048, 1000),
    ]
    .map(|mut c| {
        c.memory = c.memory.with_dram(mlp_sensitivity::dram(16));
        c
    })
}

/// A short machine label for reports, failure messages and the pinned
/// fingerprints: the engine and its window, plus `+dram` on banked DRAM.
pub fn label(config: &ProcessorConfig) -> String {
    let engine = match config.commit {
        CommitConfig::InOrderRob { rob_size } => format!("baseline-{rob_size}"),
        CommitConfig::Checkpointed { sliq, .. } => {
            format!("cooo-{}/{}", config.iq_size, sliq.capacity)
        }
    };
    match config.memory.backend {
        BackendKind::Flat => engine,
        BackendKind::Dram(_) => format!("{engine}+dram"),
    }
}

/// Checks a configuration the way the processor will.
pub fn validate(config: &ProcessorConfig) -> Result<(), String> {
    config.validate()
}

/// Where a simulation reads its instructions from.
#[derive(Clone, Copy)]
pub enum Input<'w> {
    /// A materialized trace.
    Trace(&'w Workload),
    /// A generator pulled during the run.
    Stream(&'w WorkloadSpec),
}

/// One untraced simulation and its host times.
pub struct Run {
    /// The simulated result.
    pub stats: SimStats,
    /// Host nanoseconds spent constructing the `Processor`.
    pub construct_ns: u64,
    /// Host nanoseconds for the whole simulation, construction included.
    pub wall_ns: u64,
}

/// Runs one simulation with tracing off, capped at `budget` cycles.
pub fn run(config: ProcessorConfig, input: Input<'_>, budget: u64) -> Run {
    let start = Instant::now();
    let processor = match input {
        Input::Trace(w) => Processor::new(config, &w.trace),
        Input::Stream(k) => Processor::new(config, k.source()),
    };
    let construct_ns = start.elapsed().as_nanos() as u64;
    let stats = processor.run_capped(Some(budget));
    Run {
        stats,
        construct_ns,
        wall_ns: start.elapsed().as_nanos() as u64,
    }
}

/// One traced simulation: the result plus everything counted at the
/// observer and engine boundaries.
pub struct Traced {
    /// The simulated result (must equal the untraced one).
    pub stats: SimStats,
    /// Stepped / skipped cycles and fast-forward jumps.
    pub cycles: CycleCounter,
    /// The top-down cycle-accounting buckets.
    pub buckets: CycleBuckets,
    /// Engine hook calls, in [`crate::layers::HOOKS`] order.
    pub calls: [u64; 8],
    /// Raw engine hook nanoseconds, in [`crate::layers::HOOKS`] order.
    pub raw_ns: [u64; 8],
    /// Host nanoseconds for the whole traced simulation.
    pub wall_ns: u64,
}

/// Runs one simulation with the counting observer, cycle accounting and
/// the instrumented engine attached.
pub fn run_traced(config: ProcessorConfig, input: Input<'_>, budget: u64) -> Traced {
    type Obs = (CycleCounter, CycleAccounting);
    let start = Instant::now();
    let probe = Rc::new(Probe::default());
    let engine = Box::new(Instrumented::<Obs>::new(
        engine::from_config(&config.commit),
        Rc::clone(&probe),
    ));
    let obs: Obs = (CycleCounter::default(), CycleAccounting::new());
    let processor = match input {
        Input::Trace(w) => Processor::with_parts(config, &w.trace, engine, obs),
        Input::Stream(k) => Processor::with_parts(config, k.source(), engine, obs),
    };
    let (stats, (cycles, accounting)) = processor.run_capped_observed(Some(budget));
    Traced {
        stats,
        cycles,
        buckets: accounting.into_buckets(),
        calls: probe.calls(),
        raw_ns: probe.raw_ns(),
        wall_ns: start.elapsed().as_nanos() as u64,
    }
}

/// One Figure 9 sweep through the path `koc-experiments fig9` takes.
pub struct Fig9 {
    /// Results in sweep order: baseline-128, baseline-4096, then cooo for
    /// each SLIQ size and each IQ size. Each entry is the configuration and
    /// its per-workload statistics in suite order.
    pub results: Vec<(ProcessorConfig, Vec<SimStats>)>,
    /// The largest cooo configuration's suite IPC as a percentage of
    /// baseline-4096 (the paper reports about 90%).
    pub pct_of_baseline_4096: f64,
    /// The largest cooo configuration's suite-IPC gain over baseline-128,
    /// in percent (the paper reports about 204%).
    pub gain_over_baseline_128: f64,
}

/// Runs Figure 9's 11-configuration grid over `workloads`.
pub fn fig9(workloads: &[Workload]) -> Fig9 {
    let data = fig09_main::collect(workloads);
    let best = data
        .cooo
        .last()
        .and_then(|row| row.last())
        .map_or(0.0, |r| r.mean_ipc());
    let pct_of_baseline_4096 = 100.0 * best / data.baseline_4096.mean_ipc();
    let gain_over_baseline_128 = 100.0 * (best / data.baseline_128.mean_ipc() - 1.0);
    let results = [data.baseline_128, data.baseline_4096]
        .into_iter()
        .chain(data.cooo.into_iter().flatten())
        .map(|r| {
            (
                r.config,
                r.per_workload.into_iter().map(|w| w.stats).collect(),
            )
        })
        .collect();
    Fig9 {
        results,
        pct_of_baseline_4096,
        gain_over_baseline_128,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tracing_leaves_stats_bit_identical() {
        let kernels = paper_kernels(CANONICAL_SEED, 1_500);
        let gather = kernels
            .iter()
            .find(|k| k.name() == "gather")
            .expect("gather kernel");
        let trace = materialize(gather);
        for config in [kilo_machine(), memory_machines()[0]] {
            for input in [Input::Trace(&trace), Input::Stream(gather)] {
                let plain = run(config, input, 10_000_000).stats;
                let traced = run_traced(config, input, 10_000_000);
                assert_eq!(traced.stats, plain, "{}", label(&config));
                assert_eq!(traced.cycles.stepped + traced.cycles.skipped, plain.cycles);
                assert_eq!(traced.buckets.total(), plain.cycles);
                assert_eq!(
                    traced.calls[4], traced.cycles.stepped,
                    "one commit per stepped cycle"
                );
            }
        }
    }

    #[test]
    fn canonical_seed_keeps_the_repository_kernels() {
        for (seeded, suite) in [
            (paper_kernels(CANONICAL_SEED, 1_000), Suite::paper()),
            (mlp_kernels(CANONICAL_SEED, 1_000), Suite::mlp_contrast()),
        ] {
            assert_eq!(format!("{seeded:?}"), format!("{:?}", suite.specs(1_000)));
        }
        assert_ne!(
            format!("{:?}", paper_kernels(1, 1_000)),
            format!("{:?}", Suite::paper().specs(1_000))
        );
        let seeds: Vec<u64> = (0..4).map(|s| kernel_seed(0xA11CE, s)).collect();
        assert_eq!(seeds[0], 0xA11CE);
        assert!(seeds
            .iter()
            .enumerate()
            .all(|(i, a)| seeds[i + 1..].iter().all(|b| a != b)));
    }
}
