//! Figure 12 — breakdown of the status of instructions when they are retired
//! from the pseudo-ROB, for every (IQ, SLIQ) configuration of Figure 9.

use crate::Report;
use koc_core::RetireClass;
use koc_sim::{sweep, ProcessorConfig, Suite};

/// Instruction-queue sizes swept.
pub const IQ_SIZES: &[usize] = &[32, 64, 128];
/// SLIQ sizes swept.
pub const SLIQ_SIZES: &[usize] = &[512, 1024, 2048];
/// Memory latency used by the figure.
pub const MEMORY_LATENCY: u32 = 1000;

/// Runs the Figure 12 measurement.
pub fn run(trace_len: usize) -> Report {
    let configs = SLIQ_SIZES.iter().flat_map(|&sliq| {
        IQ_SIZES
            .iter()
            .map(move |&iq| ProcessorConfig::cooo(iq, sliq, MEMORY_LATENCY))
    });
    let results = sweep(configs, &Suite::paper().generate(trace_len));

    let mut report = Report::new(
        "Figure 12 — breakdown of instructions retired from the pseudo-ROB (percent)",
        &[
            "SLIQ/IQ",
            "moved",
            "finished",
            "short-lat",
            "finished loads",
            "long-lat loads",
            "stores",
        ],
    );
    let mut results = results.iter();
    for &sliq in SLIQ_SIZES {
        for &iq in IQ_SIZES {
            let result = results.next().expect("one result per configuration");
            // Aggregate the breakdown over the suite.
            let mut counts = [0u64; RetireClass::COUNT];
            for w in &result.per_workload {
                for &class in RetireClass::all() {
                    counts[class.index()] += w.stats.retire_breakdown.count(class);
                }
            }
            let total: u64 = counts.iter().sum::<u64>().max(1);
            let pct = |class: RetireClass| 100.0 * counts[class.index()] as f64 / total as f64;
            report.push_row(vec![
                format!("{sliq}/{iq}"),
                format!("{:.1}", pct(RetireClass::Moved)),
                format!("{:.1}", pct(RetireClass::Finished)),
                format!("{:.1}", pct(RetireClass::ShortLat)),
                format!("{:.1}", pct(RetireClass::FinishedLoad)),
                format!("{:.1}", pct(RetireClass::LongLatLoad)),
                format!("{:.1}", pct(RetireClass::Store)),
            ]);
        }
    }
    report.push_note(
        "paper shape: moved instructions are ~20-30% of retirements but need most of the storage; \
         long-latency loads are ~10% and are the root cause",
    );
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rows_cover_every_configuration_and_sum_to_100() {
        let r = run(1_200);
        assert_eq!(r.rows.len(), SLIQ_SIZES.len() * IQ_SIZES.len());
        for row in &r.rows {
            let sum: f64 = row[1..].iter().map(|c| c.parse::<f64>().unwrap()).sum();
            assert!(
                (sum - 100.0).abs() < 1.0,
                "breakdown should sum to ~100%, got {sum}"
            );
        }
    }
}
