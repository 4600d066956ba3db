//! Checkpoint tuning (the paper's Figure 13, condensed): how many checkpoints
//! does out-of-order commit actually need, and what does the checkpoint
//! placement policy cost?
//!
//! ```text
//! cargo run --release --example checkpoint_tuning
//! ```

use koc_core::CheckpointPolicy;
use koc_sim::{sweep, ProcessorConfig, Suite};

fn main() {
    let workloads = Suite::paper().generate(12_000);
    let checkpoint_counts = [4usize, 8, 16, 32, 64, 128];
    let cooo = ProcessorConfig::cooo(128, 2048, 1000);

    // The paper's limit reference (a 4096-entry conventional machine), then
    // the checkpoint-count sweep — one parallel grid.
    let configs = std::iter::once(ProcessorConfig::baseline(4096, 1000))
        .chain(checkpoint_counts.iter().map(|&n| cooo.with_checkpoints(n)));
    let results = sweep(configs, &workloads);
    let limit = &results[0];
    println!(
        "limit (4096-entry conventional machine): {:.3} IPC",
        limit.mean_ipc()
    );
    println!();

    println!("sensitivity to the number of checkpoints (128-entry IQ, 2048-entry SLIQ):");
    println!(
        "{:>13} {:>10} {:>18} {:>18}",
        "checkpoints", "IPC", "slowdown vs limit", "ckpts committed"
    );
    println!("{:-<64}", "");
    for (&checkpoints, r) in checkpoint_counts.iter().zip(&results[1..]) {
        let total_ckpts: u64 = r
            .per_workload
            .iter()
            .map(|w| w.stats.checkpoints_committed)
            .sum();
        println!(
            "{:>13} {:>10.3} {:>17.1}% {:>18}",
            checkpoints,
            r.mean_ipc(),
            100.0 * (1.0 - r.mean_ipc() / limit.mean_ipc()),
            total_ckpts
        );
    }

    println!();
    println!("alternative checkpoint-placement policies (8 checkpoints):");
    println!("{:>26} {:>10}", "policy", "IPC");
    println!("{:-<38}", "");
    let policies: [(&str, CheckpointPolicy); 3] = [
        ("paper (branch/64,512,64)", CheckpointPolicy::paper()),
        ("every 128 instructions", CheckpointPolicy::every_n(128)),
        ("every 512 instructions", CheckpointPolicy::every_n(512)),
    ];
    let policy_results = sweep(
        policies
            .iter()
            .map(|(_, policy)| cooo.with_checkpoint_policy(*policy)),
        &workloads,
    );
    for ((name, _), r) in policies.iter().zip(&policy_results) {
        println!("{:>26} {:>10.3}", name, r.mean_ipc());
    }
}
