//! Figure 9 — the main performance result: out-of-order commit processors
//! with 32/64/128-entry pseudo-ROB + instruction queues and 512/1024/2048
//! SLIQ entries, against the 128- and 4096-entry conventional baselines.

use crate::Report;
use koc_sim::{sweep, ProcessorConfig, Suite, SuiteResult};
use koc_workloads::Workload;

/// Instruction-queue (and pseudo-ROB) sizes swept.
pub const IQ_SIZES: &[usize] = &[32, 64, 128];
/// SLIQ sizes swept.
pub const SLIQ_SIZES: &[usize] = &[512, 1024, 2048];
/// Main-memory latency used by the figure.
pub const MEMORY_LATENCY: u32 = 1000;

/// The raw results behind the figure (used by Figure 11 and 12 as well).
pub struct Fig9Data {
    /// Baseline with 128-entry ROB and queues.
    pub baseline_128: SuiteResult,
    /// Baseline with 4096-entry ROB and queues (unrealistic upper line).
    pub baseline_4096: SuiteResult,
    /// COoO results indexed by `[sliq][iq]` following the constant orders.
    pub cooo: Vec<Vec<SuiteResult>>,
}

/// Runs every configuration of the figure as one parallel sweep.
pub fn collect(workloads: &[Workload]) -> Fig9Data {
    let configs = [
        ProcessorConfig::baseline(128, MEMORY_LATENCY),
        ProcessorConfig::baseline(4096, MEMORY_LATENCY),
    ]
    .into_iter()
    .chain(SLIQ_SIZES.iter().flat_map(|&sliq| {
        IQ_SIZES
            .iter()
            .map(move |&iq| ProcessorConfig::cooo(iq, sliq, MEMORY_LATENCY))
    }));
    let mut results = sweep(configs, workloads).into_iter();
    let baseline_128 = results.next().expect("baseline-128 result");
    let baseline_4096 = results.next().expect("baseline-4096 result");
    let cooo = SLIQ_SIZES
        .iter()
        .map(|_| {
            IQ_SIZES
                .iter()
                .map(|_| results.next().expect("COoO result"))
                .collect()
        })
        .collect();
    Fig9Data {
        baseline_128,
        baseline_4096,
        cooo,
    }
}

/// Runs the Figure 9 sweep and formats it.
pub fn run(trace_len: usize) -> Report {
    let workloads = Suite::paper().generate(trace_len);
    let data = collect(&workloads);
    let mut report = Report::new(
        "Figure 9 — main performance results (suite-average IPC, 1000-cycle memory)",
        &[
            "SLIQ",
            "COoO 32",
            "COoO 64",
            "COoO 128",
            "Baseline 128",
            "Baseline 4096",
        ],
    );
    for (si, &sliq) in SLIQ_SIZES.iter().enumerate() {
        let mut row = vec![sliq.to_string()];
        for (ii, _) in IQ_SIZES.iter().enumerate() {
            row.push(format!("{:.2}", data.cooo[si][ii].mean_ipc()));
        }
        row.push(format!("{:.2}", data.baseline_128.mean_ipc()));
        row.push(format!("{:.2}", data.baseline_4096.mean_ipc()));
        report.push_row(row);
    }
    let best = data.cooo[SLIQ_SIZES.len() - 1][IQ_SIZES.len() - 1].mean_ipc();
    let simplest = data.cooo[0][0].mean_ipc();
    report.push_note(format!(
        "largest COoO config reaches {:.0}% of the unrealistic 4096-entry baseline and is {:.0}% \
         faster than the 128-entry baseline (paper: ~90% and ~204%)",
        100.0 * best / data.baseline_4096.mean_ipc(),
        100.0 * (best / data.baseline_128.mean_ipc() - 1.0),
    ));
    report.push_note(format!(
        "simplest COoO config (32-entry IQ, 512-entry SLIQ) is {:.0}% faster than the 128-entry \
         baseline (paper: ~110%)",
        100.0 * (simplest / data.baseline_128.mean_ipc() - 1.0),
    ));
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_has_one_row_per_sliq_size() {
        let r = run(1_200);
        assert_eq!(r.rows.len(), SLIQ_SIZES.len());
        assert_eq!(r.notes.len(), 2);
    }

    #[test]
    fn collect_labels_results_with_their_configs() {
        let workloads = Suite::paper().generate(600);
        let data = collect(&workloads);
        assert_eq!(data.baseline_128.config.iq_size, 128);
        assert_eq!(data.baseline_4096.config.iq_size, 4096);
        assert_eq!(data.cooo[0][1].config.iq_size, IQ_SIZES[1]);
    }
}
