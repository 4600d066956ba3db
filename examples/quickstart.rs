//! Quickstart: simulate one SPEC2000fp-like kernel on the baseline machine
//! and on the paper's checkpointed out-of-order commit machine, and compare.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use koc_sim::{sweep, ProcessorConfig};
use koc_workloads::{kernels, Workload};

fn main() {
    // A swim-like streaming kernel: unit-stride loads over arrays much larger
    // than the L2 cache, abundant independent FP work.
    let workload = Workload::generate("stream_add", kernels::stream_add(), 20_000);
    println!(
        "workload: {} ({} dynamic instructions)",
        workload.name,
        workload.trace.len()
    );
    println!("instruction mix: {:?}", workload.trace.mix());
    println!();

    // Three machines, run in parallel as one sweep:
    // - a realistic conventional processor: 128-entry ROB and instruction
    //   queues, 1000 cycles to main memory (Table 1),
    // - an unrealistic conventional processor with 4096-entry structures
    //   (the paper's upper reference line),
    // - the paper's proposal: 8 checkpoints, 128-entry pseudo-ROB and
    //   instruction queues, 2048-entry SLIQ.
    let results = sweep(
        [
            ProcessorConfig::baseline(128, 1000),
            ProcessorConfig::baseline(4096, 1000),
            ProcessorConfig::cooo(128, 2048, 1000),
        ],
        &[workload],
    );
    let (small, huge, cooo) = (
        &results[0].per_workload[0].stats,
        &results[1].per_workload[0].stats,
        &results[2].per_workload[0].stats,
    );

    println!(
        "{:<50} {:>8} {:>14}",
        "configuration", "IPC", "avg in-flight"
    );
    println!("{:-<74}", "");
    for (name, stats) in [
        ("baseline, 128-entry ROB + IQ", small),
        ("baseline, 4096-entry ROB + IQ (unrealistic)", huge),
        ("out-of-order commit, 8 ckpts + 128 IQ + 2048 SLIQ", cooo),
    ] {
        println!(
            "{:<50} {:>8.3} {:>14.0}",
            name,
            stats.ipc(),
            stats.avg_inflight()
        );
    }
    println!();
    println!(
        "speed-up of out-of-order commit over the 128-entry baseline: {:.2}x",
        cooo.ipc() / small.ipc()
    );
    println!(
        "fraction of the unrealistic 4096-entry machine reached:      {:.0}%",
        100.0 * cooo.ipc() / huge.ipc()
    );
    println!(
        "checkpoints taken: {}, instructions moved to the SLIQ: {}",
        cooo.checkpoints_taken, cooo.sliq_moved
    );
}
