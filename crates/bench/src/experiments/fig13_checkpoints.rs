//! Figure 13 — sensitivity of the commit mechanism to the number of available
//! checkpoints (4…128), with 2048-entry instruction queues and 2048 physical
//! registers, against the 4096-entry ROB limit.

use crate::Report;
use koc_sim::{sweep, ProcessorConfig, Suite};

/// Checkpoint counts swept by the figure.
pub const CHECKPOINTS: &[usize] = &[4, 8, 16, 32, 64, 128];
/// Instruction-queue size used by the figure (the paper uses 2048 to isolate
/// the checkpoint count as the only constraint).
pub const IQ_SIZE: usize = 2048;
/// Physical registers used by the figure.
pub const PHYS_REGS: usize = 2048;
/// Memory latency used by the figure.
pub const MEMORY_LATENCY: u32 = 1000;

/// Runs the Figure 13 sweep.
pub fn run(trace_len: usize) -> Report {
    let configs = std::iter::once(ProcessorConfig::baseline(4096, MEMORY_LATENCY)).chain(
        CHECKPOINTS.iter().map(|&n| {
            ProcessorConfig::cooo(IQ_SIZE, 2048, MEMORY_LATENCY)
                .with_checkpoints(n)
                .with_phys_regs(PHYS_REGS)
        }),
    );
    let results = sweep(configs, &Suite::paper().generate(trace_len));
    let limit = &results[0];

    let mut report = Report::new(
        "Figure 13 — sensitivity to the number of checkpoints (2048-entry IQ, 2048 physical registers)",
        &["checkpoints", "IPC", "slowdown vs limit"],
    );
    report.push_row(vec![
        "limit (4096 ROB)".into(),
        format!("{:.2}", limit.mean_ipc()),
        "0.0%".into(),
    ]);
    for (&n, r) in CHECKPOINTS.iter().zip(&results[1..]) {
        report.push_row(vec![
            n.to_string(),
            format!("{:.2}", r.mean_ipc()),
            format!("{:.1}%", 100.0 * (1.0 - r.mean_ipc() / limit.mean_ipc())),
        ]);
    }
    report.push_note(
        "paper shape: 4 checkpoints cost ~20%, 8 checkpoints ~9%, and 32 or more level off around 6%",
    );
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_has_limit_plus_one_row_per_checkpoint_count() {
        let r = run(1_200);
        assert_eq!(r.rows.len(), CHECKPOINTS.len() + 1);
    }
}
