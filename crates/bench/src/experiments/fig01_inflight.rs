//! Figure 1 — IPC as a function of the number of in-flight instructions a
//! conventional processor supports (128…4096 entries, all resources scaled)
//! for perfect L2 and 100/500/1000-cycle main-memory latencies.

use crate::Report;
use koc_sim::{sweep, ProcessorConfig, Suite};

/// Window sizes swept by the figure.
pub const WINDOWS: &[usize] = &[128, 256, 512, 1024, 2048, 4096];
/// Memory latencies swept by the figure (plus the perfect-L2 column).
pub const LATENCIES: &[u32] = &[100, 500, 1000];

/// Runs the Figure 1 sweep.
pub fn run(trace_len: usize) -> Report {
    // One flat grid: per window, the perfect-L2 machine followed by one
    // machine per memory latency. `sweep` preserves input order.
    let configs = WINDOWS.iter().flat_map(|&window| {
        std::iter::once(ProcessorConfig::baseline_perfect_l2(window)).chain(
            LATENCIES
                .iter()
                .map(move |&lat| ProcessorConfig::baseline(window, lat)),
        )
    });
    let results = sweep(configs, &Suite::paper().generate(trace_len));

    let mut report = Report::new(
        "Figure 1 — IPC vs in-flight instructions and memory latency (suite average)",
        &["in-flight", "L2 perfect", "100", "500", "1000"],
    );
    let per_window = 1 + LATENCIES.len();
    for (wi, &window) in WINDOWS.iter().enumerate() {
        let mut row = vec![window.to_string()];
        for r in &results[wi * per_window..(wi + 1) * per_window] {
            row.push(format!("{:.2}", r.mean_ipc()));
        }
        report.push_row(row);
    }
    report.push_note(
        "paper shape: at 128 entries the 1000-cycle machine is ~3.5x slower than perfect L2; \
         by 4096 entries the gap nearly closes",
    );
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sweep_produces_one_row_per_window() {
        let r = run(1_500);
        assert_eq!(r.rows.len(), WINDOWS.len());
        assert_eq!(r.headers.len(), 2 + LATENCIES.len());
    }
}
