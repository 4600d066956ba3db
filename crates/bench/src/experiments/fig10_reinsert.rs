//! Figure 10 — sensitivity to the SLIQ → instruction-queue re-insertion
//! delay (1 / 4 / 8 / 12 cycles), with a 1024-entry SLIQ and 32/64/128-entry
//! pseudo-ROB and instruction queues.

use crate::Report;
use koc_sim::{sweep, ProcessorConfig, Suite};

/// Re-insertion delays swept (cycles).
pub const DELAYS: &[u32] = &[1, 4, 8, 12];
/// Instruction-queue sizes swept.
pub const IQ_SIZES: &[usize] = &[32, 64, 128];
/// SLIQ size used by the figure.
pub const SLIQ_SIZE: usize = 1024;
/// Memory latency used by the figure.
pub const MEMORY_LATENCY: u32 = 1000;

/// Runs the Figure 10 sweep.
pub fn run(trace_len: usize) -> Report {
    let configs = IQ_SIZES.iter().flat_map(|&iq| {
        DELAYS.iter().map(move |&delay| {
            ProcessorConfig::cooo(iq, SLIQ_SIZE, MEMORY_LATENCY).with_reinsert_delay(delay)
        })
    });
    let results = sweep(configs, &Suite::paper().generate(trace_len));

    let mut report = Report::new(
        "Figure 10 — sensitivity to the SLIQ re-insertion delay (1024-entry SLIQ)",
        &[
            "IQ",
            "delay 1",
            "delay 4",
            "delay 8",
            "delay 12",
            "worst-case loss",
        ],
    );
    for (ii, &iq) in IQ_SIZES.iter().enumerate() {
        let ipcs: Vec<f64> = results[ii * DELAYS.len()..(ii + 1) * DELAYS.len()]
            .iter()
            .map(|r| r.mean_ipc())
            .collect();
        let best = ipcs.iter().cloned().fold(f64::MIN, f64::max);
        let worst = ipcs.iter().cloned().fold(f64::MAX, f64::min);
        let mut row = vec![iq.to_string()];
        row.extend(ipcs.iter().map(|v| format!("{v:.2}")));
        row.push(format!("{:.1}%", 100.0 * (1.0 - worst / best)));
        report.push_row(row);
    }
    report.push_note(
        "paper shape: even a 12-cycle delay costs only ~1%, so a slow secondary buffer works",
    );
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_has_one_row_per_iq_size() {
        let r = run(1_200);
        assert_eq!(r.rows.len(), IQ_SIZES.len());
        assert_eq!(r.headers.len(), DELAYS.len() + 2);
    }
}
