//! Cross-engine integration tests: the qualitative claims of the paper hold
//! on the synthetic suite — out-of-order commit with small queues beats a
//! same-sized conventional machine and approaches the unbuildable large one.

use koc_sim::{sweep, ProcessorConfig, Suite};
use koc_workloads::{kernels, Workload};

fn stream_add(len: usize) -> Vec<Workload> {
    Suite::kernel("stream_add", kernels::stream_add()).generate(len)
}

#[test]
fn cooo_with_small_queues_beats_the_same_size_baseline_on_memory_bound_code() {
    let results = sweep(
        [
            ProcessorConfig::baseline(128, 1000),
            ProcessorConfig::cooo(128, 2048, 1000),
        ],
        &stream_add(8_000),
    );
    let (baseline, cooo) = (&results[0], &results[1]);
    assert!(
        cooo.mean_ipc() > baseline.mean_ipc() * 1.5,
        "out-of-order commit should clearly beat the 128-entry baseline: {} vs {}",
        cooo.mean_ipc(),
        baseline.mean_ipc()
    );
}

#[test]
fn cooo_supports_far_more_inflight_instructions_than_its_queue_size() {
    let cooo = &sweep([ProcessorConfig::cooo(64, 2048, 1000)], &stream_add(8_000))[0];
    assert!(
        cooo.mean_inflight() > 256.0,
        "with 64-entry queues the checkpointed machine should still hold hundreds of \
         instructions in flight, got {}",
        cooo.mean_inflight()
    );
}

#[test]
fn cooo_approaches_the_unrealistic_large_baseline() {
    let results = sweep(
        [
            ProcessorConfig::baseline(4096, 1000),
            ProcessorConfig::cooo(128, 2048, 1000),
        ],
        &Suite::paper().generate(6_000),
    );
    let ratio = results[1].mean_ipc() / results[0].mean_ipc();
    assert!(
        ratio > 0.6,
        "the paper reports ~10% degradation; allow generous slack but require the same shape \
         (got {:.0}% of the limit)",
        ratio * 100.0
    );
}

#[test]
fn bigger_sliq_never_hurts() {
    let results = sweep(
        [
            ProcessorConfig::cooo(64, 512, 1000),
            ProcessorConfig::cooo(64, 2048, 1000),
        ],
        &stream_add(6_000),
    );
    let (small, large) = (&results[0], &results[1]);
    assert!(
        large.mean_ipc() >= small.mean_ipc() * 0.95,
        "SLIQ growth should not hurt: 512 -> {} vs 2048 -> {}",
        small.mean_ipc(),
        large.mean_ipc()
    );
}

#[test]
fn more_checkpoints_never_hurt() {
    let cooo = ProcessorConfig::cooo(128, 2048, 1000);
    let results = sweep(
        [cooo.with_checkpoints(4), cooo.with_checkpoints(64)],
        &Suite::kernel("stencil27", kernels::stencil27()).generate(6_000),
    );
    let (few, many) = (&results[0], &results[1]);
    assert!(
        many.mean_ipc() >= few.mean_ipc() * 0.95,
        "checkpoint growth should not hurt: 4 -> {} vs 64 -> {}",
        few.mean_ipc(),
        many.mean_ipc()
    );
}

#[test]
fn reinsert_delay_has_only_a_small_effect() {
    // Figure 10's claim: even a 12-cycle re-insertion delay costs ~1%.
    let cooo = ProcessorConfig::cooo(64, 1024, 1000);
    let results = sweep(
        [cooo.with_reinsert_delay(1), cooo.with_reinsert_delay(12)],
        &stream_add(6_000),
    );
    let (fast, slow) = (&results[0], &results[1]);
    let degradation = 1.0 - slow.mean_ipc() / fast.mean_ipc();
    assert!(
        degradation < 0.10,
        "re-insertion delay sensitivity should be small, got {:.1}%",
        degradation * 100.0
    );
}

#[test]
fn both_engines_commit_identical_instruction_counts() {
    let results = sweep(
        [
            ProcessorConfig::baseline(256, 500),
            ProcessorConfig::cooo(64, 1024, 500),
        ],
        &Suite::paper().generate(3_000),
    );
    let (baseline, cooo) = (&results[0], &results[1]);
    for (b, c) in baseline.per_workload.iter().zip(cooo.per_workload.iter()) {
        assert_eq!(
            b.stats.committed_instructions, c.stats.committed_instructions,
            "{}: both engines execute the same program",
            b.workload
        );
    }
}

#[test]
fn ipc_is_deterministic_across_runs() {
    let config = ProcessorConfig::cooo(64, 1024, 500);
    let workloads = Suite::kernel("gather", kernels::gather()).generate(4_000);
    let results = sweep([config, config], &workloads);
    let (a, b) = (
        &results[0].per_workload[0].stats,
        &results[1].per_workload[0].stats,
    );
    assert_eq!(a.cycles, b.cycles, "the simulator must be deterministic");
    assert_eq!(a.checkpoints_taken, b.checkpoints_taken);
}
