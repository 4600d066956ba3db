//! Streaming ingestion: unbounded-length runs in O(window) memory.
//!
//! ```bash
//! cargo run --release --example streaming_ingestion
//! ```
//!
//! The classic path materializes a workload's whole dynamic trace before
//! the run starts, so run length is capped by host memory. The streaming
//! path hands the pipeline an `InstructionSource` instead: instructions
//! are generated on demand, buffered only between the oldest live
//! recovery point and the fetch head (the `ReplayWindow`), and replayed
//! from that buffer on checkpoint rollback. This example drives a
//! 5-million-instruction run and prints the replay window's high-water
//! mark — thousands of entries, not millions.

use koc::isa::InstructionSource;
use koc::sim::{sweep, Processor, ProcessorConfig, Suite};
use koc::workloads::{kernels, KernelSource};

fn main() {
    // A run ~500x longer than the default suite traces, in O(window)
    // memory. `Processor::new` accepts anything implementing
    // `InstructionSource` (a `&Trace` included).
    let machine = ProcessorConfig::cooo(128, 2048, 1000);
    let config = kernels::stream_add().with_target_len(5_000_000);
    let source = KernelSource::new("stream_add", config);
    println!(
        "streaming {} instructions through the replay window...",
        source.len_hint().expect("stream_add length is exact")
    );
    #[expect(
        clippy::disallowed_methods,
        reason = "the example prints its own wall time; no simulated value reads it"
    )]
    let start = std::time::Instant::now();
    let stats = Processor::new(machine, source).run();
    println!(
        "  {} retired, {} cycles, IPC {:.2}, {:.1}s wall",
        stats.committed_instructions,
        stats.cycles,
        stats.ipc(),
        start.elapsed().as_secs_f64()
    );
    println!(
        "  replay-window peak: {} instructions ({}x smaller than the stream)\n",
        stats.replay_window_peak,
        stats.committed_instructions as usize / stats.replay_window_peak.max(1)
    );

    // The streamed suite: same cycle counts as the materialized suite,
    // without ever building a trace.
    let result = &sweep([machine], &Suite::paper().specs(10_000))[0];
    println!("streamed paper suite: {:.2} mean IPC", result.mean_ipc());
}
