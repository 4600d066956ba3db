//! Figure 11 — average number of in-flight instructions for the same
//! configurations as Figure 9.

use crate::experiments::fig09_main::{collect, IQ_SIZES, SLIQ_SIZES};
use crate::Report;
use koc_sim::Suite;

/// Runs the Figure 11 measurement.
pub fn run(trace_len: usize) -> Report {
    let workloads = Suite::paper().generate(trace_len);
    let data = collect(&workloads);
    let mut report = Report::new(
        "Figure 11 — average in-flight instructions (same configurations as Figure 9)",
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
            row.push(format!("{:.0}", data.cooo[si][ii].mean_inflight()));
        }
        row.push(format!("{:.0}", data.baseline_128.mean_inflight()));
        row.push(format!("{:.0}", data.baseline_4096.mean_inflight()));
        report.push_row(row);
    }
    report.push_note(
        "paper shape: the checkpointed machine sustains thousands of in-flight instructions with \
         an 8-entry checkpoint table, approaching (and in some configurations exceeding) the \
         4096-entry baseline",
    );
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_has_one_row_per_sliq_size() {
        let r = run(1_200);
        assert_eq!(r.rows.len(), SLIQ_SIZES.len());
    }
}
