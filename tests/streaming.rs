//! Integration gates for the streaming `InstructionSource` ingestion path.
//!
//! Two properties the API redesign promises:
//!
//! 1. **Bit-identical timing** — the full paper suite produces the same
//!    cycle counts (indeed the same `SimStats`) whether workloads are
//!    materialized up front or streamed on demand, under both commit
//!    engines, with event-driven fast-forward on and off.
//! 2. **O(window) memory** — a multi-million-instruction streaming run
//!    completes with a replay-window peak bounded by the machine's
//!    recovery depth (ROB / checkpoint span), independent of stream
//!    length.

use koc::sim::{sweep, Processor, ProcessorConfig, Suite};
use koc::workloads::{kernels, KernelSource, Workload, WorkloadSpec};

/// Stream length for the long-run memory guard: ten million instructions
/// in release builds (the acceptance target), scaled down for debug test
/// runs where the simulator is several times slower.
const GUARD_LEN: usize = if cfg!(debug_assertions) {
    600_000
} else {
    10_000_000
};

#[test]
fn paper_suite_is_bit_identical_streamed_vs_materialized() {
    let workloads = Suite::paper().generate(1_500);
    let specs = Suite::paper().specs(1_500);
    for fast_forward in [true, false] {
        let configs = [
            ProcessorConfig::baseline(128, 500),
            ProcessorConfig::cooo(64, 1024, 500),
        ]
        .map(|c| c.with_fast_forward(fast_forward));
        let materialized = sweep(configs, &workloads);
        let streamed = sweep(configs, &specs);
        for (materialized, streamed) in materialized.iter().zip(&streamed) {
            assert_eq!(materialized.per_workload.len(), streamed.per_workload.len());
            for (m, s) in materialized.per_workload.iter().zip(&streamed.per_workload) {
                assert_eq!(m.workload, s.workload);
                assert_eq!(
                    m.stats, s.stats,
                    "{} (ff={fast_forward}) must not depend on the source mode",
                    m.workload
                );
            }
        }
    }
}

#[test]
fn long_streaming_run_keeps_the_replay_window_at_rob_depth() {
    // In-order baseline: the replay window can never exceed the ROB (the
    // only recovery points) plus fetch lookahead.
    let window = 128;
    let config = kernels::stream_add().with_target_len(GUARD_LEN);
    let stats = Processor::new(
        ProcessorConfig::baseline(window, 1000),
        KernelSource::new("stream_add", config),
    )
    .run();
    assert!(stats.committed_instructions as usize >= GUARD_LEN);
    assert!(
        stats.replay_window_peak <= window + 2,
        "peak {} must be bounded by the ROB, not the {GUARD_LEN}-instruction stream",
        stats.replay_window_peak
    );
}

#[test]
fn checkpointed_replay_window_is_bounded_by_checkpoint_depth_not_length() {
    // Checkpointed engine: recovery points are whole checkpoints, so the
    // window spans the live checkpoints — still independent of run length.
    let run = |len: usize| {
        let config = kernels::stream_add().with_target_len(len);
        Processor::new(
            ProcessorConfig::cooo(128, 2048, 1000),
            KernelSource::new("stream_add", config),
        )
        .run()
    };
    let short = run(GUARD_LEN / 5);
    let long = run(GUARD_LEN / 2);
    assert!(short.committed_instructions < long.committed_instructions);
    // 2.5x more instructions, same peak (modulo end-of-stream drain jitter):
    // occupancy is a property of the machine, not of the stream length.
    assert!(
        short.replay_window_peak.abs_diff(long.replay_window_peak) <= 64,
        "peaks {} vs {} must not scale with stream length",
        short.replay_window_peak,
        long.replay_window_peak
    );
    assert!(
        long.replay_window_peak <= 8_192,
        "peak {} should track checkpoint depth",
        long.replay_window_peak
    );
}

#[test]
fn custom_suites_stream_their_fixed_traces() {
    let workload = Workload::generate("stencil27", kernels::stencil27(), 1_000);
    let fixed = [WorkloadSpec::Fixed(workload.clone())];
    let config = [ProcessorConfig::baseline(64, 300)];
    let (m, s) = (sweep(config, &[workload]), sweep(config, &fixed));
    assert_eq!(m[0].per_workload[0].stats, s[0].per_workload[0].stats);
}
