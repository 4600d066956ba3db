//! Kilo-instruction windows on a budget: the paper's main comparison
//! (Figure 9, condensed). A checkpointed out-of-order commit processor with
//! small instruction queues and a cheap SLIQ approaches an (unbuildable)
//! conventional machine with 4096-entry structures.
//!
//! ```text
//! cargo run --release --example kilo_window
//! ```

use koc_sim::{sweep, ProcessorConfig, Suite};

fn main() {
    let memory_latency = 1000;
    let sliq_sizes = [512usize, 1024, 2048];
    let iq_sizes = [32usize, 64, 128];

    // The whole figure is one grid: two reference baselines plus the nine
    // proposal configurations, fanned out over all cores by the sweep.
    let configs = [
        ProcessorConfig::baseline(128, memory_latency),
        ProcessorConfig::baseline(4096, memory_latency),
    ]
    .into_iter()
    .chain(sliq_sizes.iter().flat_map(|&sliq| {
        iq_sizes
            .iter()
            .map(move |&iq| ProcessorConfig::cooo(iq, sliq, memory_latency))
    }));
    let results = sweep(configs, &Suite::paper().generate(15_000));
    let (baseline_small, baseline_huge) = (&results[0], &results[1]);

    println!("reference lines (conventional in-order commit):");
    println!(
        "  128-entry ROB + IQ : {:.3} IPC",
        baseline_small.mean_ipc()
    );
    println!(
        "  4096-entry ROB + IQ: {:.3} IPC  (not implementable)",
        baseline_huge.mean_ipc()
    );
    println!();
    println!("out-of-order commit processors (8 checkpoints):");
    println!(
        "{:>8} {:>8} {:>10} {:>14} {:>16}",
        "IQ", "SLIQ", "IPC", "vs 128-entry", "avg in-flight"
    );
    println!("{:-<60}", "");

    let mut cooo = results[2..].iter();
    for sliq in sliq_sizes {
        for iq in iq_sizes {
            let r = cooo.next().expect("one result per configuration");
            println!(
                "{:>8} {:>8} {:>10.3} {:>13.0}% {:>16.0}",
                iq,
                sliq,
                r.mean_ipc(),
                100.0 * (r.mean_ipc() / baseline_small.mean_ipc() - 1.0),
                r.mean_inflight()
            );
        }
    }

    println!();
    println!("The largest configuration keeps thousands of instructions in flight with only an");
    println!("8-entry checkpoint table, 128-entry queues and a RAM-like SLIQ.");
}
