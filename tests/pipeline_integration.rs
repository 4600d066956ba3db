//! Integration tests spanning the ISA, workload, memory and pipeline crates:
//! every generated workload runs to completion on both commit engines and the
//! basic accounting invariants hold.

use koc_sim::{Processor, ProcessorConfig, SimStats, Suite, WindowStats};
use koc_workloads::{kernels, Workload};

const TRACE_LEN: usize = 4_000;

fn run(config: ProcessorConfig, trace: &koc_isa::Trace) -> SimStats {
    Processor::new(config, trace).run()
}

/// Runs `config` over `w` with a [`WindowStats`] attached and checks the
/// accounting invariants; returns the statistics.
fn run_checked(config: ProcessorConfig, w: &Workload) -> SimStats {
    let (stats, window) =
        Processor::with_observer(config, &w.trace, WindowStats::new()).run_observed();
    assert_run_invariants(&stats, &window, w.trace.len(), &w.name);
    stats
}

fn assert_run_invariants(stats: &SimStats, window: &WindowStats, trace_len: usize, name: &str) {
    assert_eq!(
        stats.committed_instructions as usize, trace_len,
        "{name}: every trace instruction must commit exactly once"
    );
    assert!(stats.cycles > 0, "{name}: simulation must take time");
    assert!(
        stats.dispatched_instructions >= stats.committed_instructions,
        "{name}: dispatches include re-executions"
    );
    assert!(
        stats.ipc() > 0.0 && stats.ipc() <= 4.0,
        "{name}: IPC {} out of range",
        stats.ipc()
    );
    assert_eq!(
        window.inflight.count() as u64,
        stats.cycles,
        "{name}: one in-flight sample per cycle"
    );
    assert_eq!(
        (window.inflight.mean(), window.inflight.max()),
        (stats.avg_inflight(), stats.peak_inflight),
        "{name}: the in-flight counters agree with the per-cycle samples"
    );
}

#[test]
fn every_suite_workload_completes_on_the_baseline() {
    for w in Suite::paper().generate(TRACE_LEN) {
        run_checked(ProcessorConfig::baseline(128, 500), &w);
    }
}

#[test]
fn every_suite_workload_completes_on_the_checkpointed_machine() {
    for w in Suite::paper().generate(TRACE_LEN) {
        let stats = run_checked(ProcessorConfig::cooo(64, 1024, 500), &w);
        assert_eq!(
            stats.checkpoints_taken,
            stats.checkpoints_committed + stats.checkpoints_squashed,
            "{}: every checkpoint taken must commit or be squashed by recovery",
            w.name
        );
        assert!(
            stats.checkpoints_taken > 0,
            "{}: at least the initial checkpoint",
            w.name
        );
    }
}

#[test]
fn perfect_l2_removes_memory_stalls() {
    let w = Workload::generate("stream_add", kernels::stream_add(), TRACE_LEN);
    let perfect = run(ProcessorConfig::baseline_perfect_l2(256), &w.trace);
    let slow = run(ProcessorConfig::baseline(256, 1000), &w.trace);
    assert!(
        perfect.ipc() > slow.ipc() * 1.5,
        "perfect L2 should be much faster: {} vs {}",
        perfect.ipc(),
        slow.ipc()
    );
    assert_eq!(perfect.memory.l2_misses, 0, "perfect L2 never misses");
}

#[test]
fn longer_memory_latency_never_helps() {
    let w = Workload::generate("stencil27", kernels::stencil27(), TRACE_LEN);
    let fast = run(ProcessorConfig::baseline(128, 100), &w.trace);
    let slow = run(ProcessorConfig::baseline(128, 1000), &w.trace);
    assert!(
        fast.ipc() >= slow.ipc(),
        "100-cycle memory {} vs 1000-cycle {}",
        fast.ipc(),
        slow.ipc()
    );
}

#[test]
fn bigger_windows_never_hurt_the_baseline() {
    let w = Workload::generate("gather", kernels::gather(), TRACE_LEN);
    let small = run(ProcessorConfig::baseline(64, 500), &w.trace);
    let large = run(ProcessorConfig::baseline(1024, 500), &w.trace);
    assert!(
        large.ipc() >= small.ipc() * 0.95,
        "window growth should not hurt: 64 -> {} vs 1024 -> {}",
        small.ipc(),
        large.ipc()
    );
}

#[test]
fn the_gshare_predictor_is_nearly_perfect_on_loop_code() {
    let w = Workload::generate("stream_add", kernels::stream_add(), TRACE_LEN);
    let stats = run(ProcessorConfig::baseline(128, 100), &w.trace);
    assert!(
        stats.branches.misprediction_rate() < 0.05,
        "loop back-edges should predict well, rate = {}",
        stats.branches.misprediction_rate()
    );
}

#[test]
fn memory_statistics_are_populated() {
    let w = Workload::generate("stream_add", kernels::stream_add(), TRACE_LEN);
    let stats = run(ProcessorConfig::cooo(64, 1024, 500), &w.trace);
    assert!(stats.memory.data_accesses > 0);
    assert!(
        stats.memory.l2_misses > 0,
        "streaming workload must miss in L2"
    );
    assert!(
        stats.memory.store_accesses > 0,
        "stores drain to the cache at commit"
    );
}

#[test]
fn sliq_is_used_on_memory_bound_workloads() {
    let w = Workload::generate("stream_add", kernels::stream_add(), TRACE_LEN);
    let stats = run(ProcessorConfig::cooo(32, 1024, 1000), &w.trace);
    assert!(
        stats.sliq_moved > 0,
        "long-latency dependents must move to the SLIQ"
    );
    assert!(stats.sliq_high_water > 0);
    assert!(
        stats
            .retire_breakdown
            .count(koc_core::RetireClass::LongLatLoad)
            > 0,
        "L2-missing loads must be classified as long latency"
    );
}
