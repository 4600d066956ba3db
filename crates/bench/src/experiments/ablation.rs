//! Ablation study (not a paper figure): which parts of the proposal matter?
//!
//! The paper motivates three design choices that this module isolates on the
//! headline configuration (128-entry IQ, 2048-entry SLIQ, 8 checkpoints,
//! 1000-cycle memory):
//!
//! 1. the checkpoint-placement heuristic (branches after 64 instructions vs.
//!    fixed-interval policies),
//! 2. the SLIQ itself (disable the secondary buffer and keep everything in
//!    the small instruction queues),
//! 3. the pseudo-ROB size (which bounds both classification lag and cheap
//!    branch recovery).

use crate::Report;
use koc_core::CheckpointPolicy;
use koc_sim::{sweep, CommitConfig, ProcessorConfig, Suite};

/// Memory latency used by the study.
pub const MEMORY_LATENCY: u32 = 1000;

/// Runs the ablation study.
pub fn run(trace_len: usize) -> Report {
    let reference = ProcessorConfig::cooo(128, 2048, MEMORY_LATENCY);

    // A crippled SLIQ (capacity 1) approximates removing the mechanism: the
    // small instruction queues must then hold every waiting instruction.
    let mut no_sliq = reference;
    if let CommitConfig::Checkpointed { sliq, .. } = &mut no_sliq.commit {
        sliq.capacity = 1;
    }
    // Pseudo-ROB size ablation: shrink it to 16 while keeping the IQ at 128.
    let mut small_prob = reference;
    if let CommitConfig::Checkpointed {
        pseudo_rob_size, ..
    } = &mut small_prob.commit
    {
        *pseudo_rob_size = 16;
    }

    let variants: Vec<(&str, ProcessorConfig)> = vec![
        ("reference (paper policy)", reference),
        (
            "checkpoint every 64 insns",
            reference.with_checkpoint_policy(CheckpointPolicy::every_n(64)),
        ),
        (
            "checkpoint every 512 insns",
            reference.with_checkpoint_policy(CheckpointPolicy::every_n(512)),
        ),
        ("SLIQ disabled (capacity 1)", no_sliq),
        ("pseudo-ROB shrunk to 16", small_prob),
        ("4 checkpoints", reference.with_checkpoints(4)),
    ];

    let results = sweep(
        variants.iter().map(|(_, c)| *c),
        &Suite::paper().generate(trace_len),
    );
    let reference_ipc = results[0].mean_ipc();

    let mut report = Report::new(
        "Ablation — contribution of each design choice (128 IQ / 2048 SLIQ / 8 checkpoints)",
        &["variant", "IPC", "vs reference"],
    );
    for ((name, _), result) in variants.iter().zip(&results) {
        let value = result.mean_ipc();
        report.push_row(vec![
            name.to_string(),
            format!("{value:.2}"),
            format!("{:+.1}%", 100.0 * (value / reference_ipc - 1.0)),
        ]);
    }
    report.push_note(
        "expected shape: disabling the SLIQ hurts the most on memory-bound kernels; the \
         checkpoint policy matters less as long as windows stay a few hundred instructions long",
    );
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ablation_produces_all_variants() {
        let r = run(1_000);
        assert_eq!(r.rows.len(), 6);
        assert!(r.rows[0][0].contains("reference"));
    }
}
