//! The memory-backend axis: what happens to the kilo-instruction window's
//! advantage when main memory is *not* ideal.
//!
//! The paper models main memory as a flat latency with unlimited
//! outstanding misses, so a large window always finds memory-level
//! parallelism. This example swaps in the banked DRAM backend (one fixed
//! 16-bank part) and sweeps its MSHR file on the two MLP-contrast
//! workloads.
//!
//! ```text
//! cargo run --release --example memory_backend
//! ```

use koc_sim::{sweep, DramConfig, ProcessorConfig, Suite};

fn main() {
    let mshr_counts = [1usize, 2, 4, 8, 16, 32];

    println!("checkpointed engine, banked DRAM, 1000-cycle memory");
    println!(
        "{:>8}{:>16}{:>16}{:>14}{:>12}",
        "MSHRs", "stream_mlp IPC", "ptr_chase IPC", "mshr stalls", "row hit%"
    );
    println!("{:-<66}", "");
    let machine = ProcessorConfig::cooo(128, 2048, 1000);
    let workloads = Suite::mlp_contrast().generate(8_000);
    // One grid: a DRAM machine per MSHR count, then the paper's flat model
    // (unlimited outstanding misses).
    let dram = mshr_counts.iter().map(|&mshrs| ProcessorConfig {
        memory: machine.memory.with_dram(DramConfig {
            mshr_entries: mshrs,
        }),
        ..machine
    });
    let results = sweep(dram.chain([machine]), &workloads);
    for (&mshrs, result) in mshr_counts.iter().zip(&results) {
        let stream = &result.per_workload[1].stats;
        let chase = &result.per_workload[0].stats;
        println!(
            "{:>8}{:>16.3}{:>16.3}{:>14}{:>11.0}%",
            mshrs,
            stream.ipc(),
            chase.ipc(),
            stream.memory.mshr_full_stalls,
            100.0 * stream.memory.row_buffer_hit_ratio(),
        );
    }
    let flat = &results[mshr_counts.len()];
    println!(
        "{:>8}{:>16.3}{:>16.3}{:>14}{:>12}",
        "flat",
        flat.per_workload[1].stats.ipc(),
        flat.per_workload[0].stats.ipc(),
        "-",
        "-"
    );

    println!();
    println!("Reading: stream_mlp scales with the MSHR count — the window exposes the");
    println!("parallelism, the MSHR file bounds it — while pointer_chase (MLP = 1) is");
    println!("completely insensitive. The flat default reproduces the paper exactly.");
}
