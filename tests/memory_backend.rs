//! Integration tests for the pluggable timed memory backend: parity with
//! the paper's flat model, the DRAM/MSHR back-pressure axis, and the
//! configuration plumbing through `MemoryConfig`.

use koc_bench::experiments::mlp_sensitivity;
use koc_mem::MemoryStats;
use koc_sim::{sweep, BackendKind, CommitConfig, DramConfig, MemoryConfig, ProcessorConfig, Suite};
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
fn ideal_dram_matches_flat_latency_cycle_for_cycle() {
    let workloads = Suite::paper().generate(2_000);
    for commit in [
        CommitConfig::InOrderRob { rob_size: 128 },
        CommitConfig::cooo(32, 512),
    ] {
        let mut flat = ProcessorConfig::baseline(128, 1000);
        flat.commit = commit;
        let mut dram = flat;
        dram.memory = dram.memory.with_dram(DramConfig::ideal());
        let results = sweep([flat, dram], &workloads);
        for (f, d) in results[0]
            .per_workload
            .iter()
            .zip(results[1].per_workload.iter())
        {
            assert_eq!(
                f.stats.committed_instructions, d.stats.committed_instructions,
                "retired counts must match on {}",
                f.workload
            );
            assert_eq!(
                f.stats.cycles, d.stats.cycles,
                "unlimited MSHRs + free rows must equal the flat model on {}",
                f.workload
            );
        }
    }
}

#[test]
fn mshr_starvation_throttles_the_streaming_workload() {
    let machine = |mshrs: usize| {
        let c = ProcessorConfig::cooo(128, 2048, 500);
        ProcessorConfig {
            memory: c.memory.with_mshr_entries(mshrs).with_dram_banks(16),
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
            memory: c.memory.with_mshr_entries(mshrs),
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

#[test]
fn backend_knobs_flow_through_the_builder() {
    let mem = MemoryConfig::table1(1000)
        .with_mshr_entries(8)
        .with_dram_banks(4)
        .with_row_buffer(8 * 1024);
    match mem.backend {
        BackendKind::Dram(d) => {
            assert_eq!((d.mshr_entries, d.banks, d.row_bytes), (8, 4, 8 * 1024));
        }
        BackendKind::Flat => panic!("knobs must upgrade the backend to DRAM"),
    }
    // The whole-backend override wins over per-knob upgrades.
    let flat_again = mem.with_backend(BackendKind::Flat);
    assert_eq!(flat_again.backend, BackendKind::Flat);
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
