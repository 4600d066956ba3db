//! Figure 14 — out-of-order commit and SLIQ with a limited register pool:
//! physical registers {512, 1024, 2048} × memory latency {100, 500, 1000},
//! against the 128-entry baseline and the fully up-sized limit.

use crate::Report;
use koc_sim::{sweep, ProcessorConfig, Suite};

/// Physical-register counts swept.
pub const PHYS_REGS: &[usize] = &[512, 1024, 2048];
/// Memory latencies swept.
pub const LATENCIES: &[u32] = &[100, 500, 1000];

/// Runs the Figure 14 sweep.
pub fn run(trace_len: usize) -> Report {
    // Per latency: the two reference machines, then COoO 128/2048 at each
    // register count.
    let configs = LATENCIES.iter().flat_map(|&latency| {
        [
            ProcessorConfig::baseline(128, latency),
            ProcessorConfig::baseline(4096, latency),
        ]
        .into_iter()
        .chain(
            PHYS_REGS
                .iter()
                .map(move |&regs| ProcessorConfig::cooo(128, 2048, latency).with_phys_regs(regs)),
        )
    });
    let results = sweep(configs, &Suite::paper().generate(trace_len));

    let mut report = Report::new(
        "Figure 14 — out-of-order commit + SLIQ with a limited register pool",
        &[
            "memory",
            "registers",
            "COoO 128/2048",
            "baseline 128",
            "limit 4096",
        ],
    );
    let per_latency = 2 + PHYS_REGS.len();
    for (li, &latency) in LATENCIES.iter().enumerate() {
        let block = &results[li * per_latency..(li + 1) * per_latency];
        let (baseline, limit) = (&block[0], &block[1]);
        for (ri, &regs) in PHYS_REGS.iter().enumerate() {
            report.push_row(vec![
                latency.to_string(),
                regs.to_string(),
                format!("{:.2}", block[2 + ri].mean_ipc()),
                format!("{:.2}", baseline.mean_ipc()),
                format!("{:.2}", limit.mean_ipc()),
            ]);
        }
    }
    report.push_note(
        "registers are allocated at rename, as for Figure 13; the paper's ephemeral registers, \
         allocated at write-back, are not modelled (ROADMAP item 4)",
    );
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_sweeps_every_latency_and_tag_count() {
        let r = run(1_000);
        assert_eq!(r.rows.len(), LATENCIES.len() * PHYS_REGS.len());
        assert_eq!(r.headers.len(), 5);
    }
}
