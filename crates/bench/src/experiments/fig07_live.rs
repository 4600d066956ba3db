//! Figure 7 — distribution of live (not yet issued) instructions with respect
//! to the number of in-flight instructions, on a 2048-entry machine with
//! 500-cycle memory.

use crate::Report;
use koc_sim::{Processor, ProcessorConfig, Suite, WindowStats};

/// The percentiles Figure 7 reports.
pub const PERCENTILES: &[(&str, f64)] = &[
    ("10%", 0.10),
    ("25%", 0.25),
    ("50%", 0.50),
    ("75%", 0.75),
    ("90%", 0.90),
];

/// Runs the Figure 7 measurement.
pub fn run(trace_len: usize) -> Report {
    let config = ProcessorConfig::baseline(2048, 500);
    let workloads = Suite::paper().generate(trace_len);
    // One thread per workload, since each run hands back its own observer;
    // only these runs pay for the window walk.
    let stats: Vec<WindowStats> = std::thread::scope(|scope| {
        let runs: Vec<_> = workloads
            .iter()
            .map(|w| {
                scope.spawn(|| {
                    Processor::with_observer(config, &w.trace, WindowStats::new())
                        .run_observed()
                        .1
                })
            })
            .collect();
        runs.into_iter()
            .map(|run| run.join().expect("Figure 7 run panicked"))
            .collect()
    });
    let mut report = Report::new(
        "Figure 7 — live instructions vs in-flight instructions (2048-entry window, 500-cycle memory)",
        &["percentile", "in-flight", "live", "blocked-long", "blocked-short"],
    );

    // Average the per-workload distributions, mirroring the paper's averaging
    // over SPEC2000fp.
    let avg =
        |f: &dyn Fn(&WindowStats) -> f64| stats.iter().map(f).sum::<f64>() / stats.len() as f64;
    for (label, p) in PERCENTILES {
        let inflight = avg(&|s| s.inflight.percentile(*p) as f64);
        let live = avg(&|s| s.live.percentile(*p) as f64);
        let long = avg(&|s| s.live_long.percentile(*p) as f64);
        let short = avg(&|s| s.live_short.percentile(*p) as f64);
        report.push_row(vec![
            label.to_string(),
            format!("{inflight:.0}"),
            format!("{live:.0}"),
            format!("{long:.0}"),
            format!("{short:.0}"),
        ]);
    }
    report.push_note(
        "paper shape: live instructions are a small fraction of in-flight instructions \
         (~70-75% of in-flight instructions have executed but cannot commit), and most live \
         instructions are blocked on long-latency loads",
    );
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reports_one_row_per_percentile() {
        let r = run(1_200);
        assert_eq!(r.rows.len(), PERCENTILES.len());
    }
}
