//! Integration tests for the pluggable timed memory backend: parity with
//! the paper's flat model, the DRAM/MSHR back-pressure axis, and the
//! pinned DRAM timing of the `memory_bound` benchmark's jobs.

use koc_bench::experiments::mlp_sensitivity;
use koc_mem::MemoryStats;
use koc_sim::{sweep, CycleSample, DramConfig, Observer, Processor, ProcessorConfig, Suite};
use koc_workloads::kernels;

/// Cycle counts recorded from the pre-backend hierarchy (the seed code) on
/// the full paper suite at `trace_len = 4000`: `FlatLatency` must reproduce
/// them exactly, for both commit engines.
const SEED_GOLDEN: &[(&str, u64, u64, u64)] = &[
    // (workload, baseline-128 cycles, COoO-32/512 cycles, committed)
    ("stream_add", 24_674, 2_675, 4_060),
    ("stencil27", 31_695, 6_088, 4_104),
    ("dense_blocked", 29_632, 2_456, 4_180),
    ("reduction", 29_608, 5_829, 4_004),
    ("gather", 32_506, 5_064, 4_072),
];

#[test]
fn flat_backend_reproduces_seed_cycle_counts_exactly() {
    let workloads = Suite::paper().generate(4_000);
    let results = sweep(
        [
            ProcessorConfig::baseline(128, 1000),
            ProcessorConfig::cooo(32, 512, 1000),
        ],
        &workloads,
    );
    for (i, &(name, base_cycles, cooo_cycles, committed)) in SEED_GOLDEN.iter().enumerate() {
        let base = &results[0].per_workload[i];
        let cooo = &results[1].per_workload[i];
        assert_eq!(base.workload, name);
        assert_eq!(
            (base.stats.cycles, base.stats.committed_instructions),
            (base_cycles, committed),
            "baseline diverged from the seed on {name}"
        );
        assert_eq!(
            (cooo.stats.cycles, cooo.stats.committed_instructions),
            (cooo_cycles, committed),
            "checkpointed engine diverged from the seed on {name}"
        );
    }
}

#[test]
fn mshr_starvation_throttles_the_streaming_workload() {
    let machine = |mshrs: usize| {
        let c = ProcessorConfig::cooo(128, 2048, 500);
        ProcessorConfig {
            memory: c.memory.with_dram(DramConfig {
                mshr_entries: mshrs,
            }),
            ..c
        }
    };
    let results = sweep(
        [machine(1), machine(16)],
        &Suite::kernel("stream_mlp", kernels::stream_mlp()).generate(3_000),
    );
    let (starved, fed) = (&results[0], &results[1]);
    assert!(
        fed.mean_ipc() > starved.mean_ipc() * 2.0,
        "16 MSHRs must beat 1 on independent misses: {:.3} vs {:.3}",
        fed.mean_ipc(),
        starved.mean_ipc()
    );
    let stats = &starved.per_workload[0].stats;
    assert!(
        stats.memory.mshr_full_stalls > 0,
        "a single MSHR must back-pressure: {:?}",
        stats.memory
    );
    assert!(
        stats.memory.row_buffer_hits
            + stats.memory.row_buffer_misses
            + stats.memory.row_buffer_conflicts
            > 0,
        "DRAM row activity must be recorded"
    );
}

#[test]
fn pointer_chase_gains_nothing_from_mshrs() {
    let machine = |mshrs: usize| {
        let c = ProcessorConfig::cooo(128, 2048, 500);
        ProcessorConfig {
            memory: c.memory.with_dram(DramConfig {
                mshr_entries: mshrs,
            }),
            ..c
        }
    };
    let results = sweep(
        [machine(1), machine(32)],
        &Suite::kernel("pointer_chase", kernels::pointer_chase()).generate(600),
    );
    let (one, many) = (results[0].mean_ipc(), results[1].mean_ipc());
    let ratio = many / one;
    assert!(
        (0.95..=1.05).contains(&ratio),
        "a dependent chain has MLP 1: {one:.4} vs {many:.4}"
    );
}

/// The `memory_bound` benchmark's four jobs (baseline-32 and cooo 32/2048
/// on the 16-bank, 16-MSHR DRAM part at 1000-cycle memory, each running
/// `pointer_chase` and `stream_mlp` at 8000 instructions) must keep their
/// cycles, retired counts and every memory counter. The cycle and retired
/// columns are the benchmark's pinned fingerprints; the memory counters
/// were recorded from the same runs. Nothing else in tier 1 pins DRAM
/// timing this exactly.
#[test]
fn memory_bound_jobs_keep_their_dram_timing() {
    let machines = [
        ProcessorConfig::baseline(32, 1000),
        ProcessorConfig::cooo(32, 2048, 1000),
    ]
    .map(|mut c| {
        c.memory = c.memory.with_dram(mlp_sensitivity::dram(16));
        c
    });
    let results = sweep(machines, &Suite::mlp_contrast().specs(8_000));
    let got: Vec<_> = results
        .iter()
        .flat_map(|r| &r.per_workload)
        .map(|w| {
            (
                w.workload.as_str(),
                w.stats.cycles,
                w.stats.committed_instructions,
                w.stats.memory,
            )
        })
        .collect();
    let pointer_chase = MemoryStats {
        data_accesses: 6_400,
        dl1_hits: 1,
        dl1_misses: 6_399,
        l2_hits: 17,
        l2_misses: 6_382,
        row_buffer_hits: 9,
        row_buffer_misses: 16,
        row_buffer_conflicts: 6_357,
        ..MemoryStats::default()
    };
    let stream_mlp = MemoryStats {
        data_accesses: 3_776,
        dl1_misses: 3_776,
        l2_misses: 3_776,
        row_buffer_hits: 3_716,
        row_buffer_misses: 16,
        row_buffer_conflicts: 44,
        ..MemoryStats::default()
    };
    let expected = vec![
        // baseline-32+dram
        ("pointer_chase", 6_967_994, 8_000, pointer_chase),
        ("stream_mlp", 241_649, 8_024, stream_mlp),
        // cooo-32/2048+dram: only its window fills every MSHR.
        ("pointer_chase", 6_967_995, 8_000, pointer_chase),
        (
            "stream_mlp",
            236_581,
            8_024,
            MemoryStats {
                mshr_full_stalls: 242_759_160,
                ..stream_mlp
            },
        ),
    ];
    assert_eq!(got, expected);
}

/// Counts fast-forward jumps: one `skip` call each.
#[derive(Default)]
struct JumpCounter {
    jumps: u64,
}

impl Observer for JumpCounter {
    fn skip(&mut self, _: &CycleSample, _: u64) {
        self.jumps += 1;
    }
}

/// On `pointer_chase` every load's dependent is the next load of the chain,
/// itself a long-latency load that stays in the instruction queue, so the
/// checkpointed engine parks nothing in the SLIQ. A completing load must
/// then schedule no wake-up walker: the pipeline has no more to wake up for
/// than the baseline does, and fast-forward makes about as many jumps (one
/// per memory completion). A walker per completion would double them.
#[test]
fn pointer_chase_wakes_the_checkpointed_engine_no_more_than_the_baseline() {
    let workload = &Suite::kernel("pointer_chase", kernels::pointer_chase()).generate(2_000)[0];
    let jumps = |mut config: ProcessorConfig| {
        config.memory = config.memory.with_dram(mlp_sensitivity::dram(16));
        let (stats, counter) =
            Processor::with_observer(config, &workload.trace, JumpCounter::default())
                .run_observed();
        assert_eq!(stats.sliq_moved, 0, "nothing is parked on pointer_chase");
        counter.jumps
    };
    let baseline = jumps(ProcessorConfig::baseline(32, 1000));
    let cooo = jumps(ProcessorConfig::cooo(32, 2048, 1000));
    assert!(
        cooo * 100 <= baseline * 101,
        "cooo makes {cooo} fast-forward jumps, baseline-32 {baseline}"
    );
}
