//! Figure 14 — combining out-of-order commit and SLIQ with ephemeral /
//! virtual registers: virtual tags {512, 1024, 2048} × physical registers
//! {256, 512} × memory latency {100, 500, 1000}, against the 128-entry
//! baseline and the fully up-sized limit.

use crate::Report;
use koc_sim::{sweep, ProcessorConfig, RegisterModel, Suite};

/// Virtual-tag counts swept.
pub const VIRTUAL_TAGS: &[usize] = &[512, 1024, 2048];
/// Physical-register counts swept.
pub const PHYS_REGS: &[usize] = &[256, 512];
/// Memory latencies swept.
pub const LATENCIES: &[u32] = &[100, 500, 1000];

/// Runs the Figure 14 sweep.
pub fn run(trace_len: usize) -> Report {
    // Per latency: the two reference machines, then the virtual-register
    // grid (tags x phys) in row-major order.
    let configs = LATENCIES.iter().flat_map(|&latency| {
        [
            ProcessorConfig::baseline(128, latency),
            ProcessorConfig::baseline(4096, latency),
        ]
        .into_iter()
        .chain(VIRTUAL_TAGS.iter().flat_map(move |&vtags| {
            PHYS_REGS.iter().map(move |&phys| {
                ProcessorConfig::cooo(128, 2048, latency).with_registers(RegisterModel::Virtual {
                    virtual_tags: vtags,
                    phys_regs: phys,
                })
            })
        }))
    });
    let results = sweep(configs, &Suite::paper().generate(trace_len));

    let mut report = Report::new(
        "Figure 14 — out-of-order commit + SLIQ + virtual (ephemeral) registers",
        &[
            "memory",
            "virtual tags",
            "256 phys",
            "512 phys",
            "baseline 128",
            "limit 4096",
        ],
    );
    let per_latency = 2 + VIRTUAL_TAGS.len() * PHYS_REGS.len();
    for (li, &latency) in LATENCIES.iter().enumerate() {
        let block = &results[li * per_latency..(li + 1) * per_latency];
        let (baseline, limit) = (&block[0], &block[1]);
        for (vi, &vtags) in VIRTUAL_TAGS.iter().enumerate() {
            let mut row = vec![latency.to_string(), vtags.to_string()];
            for pi in 0..PHYS_REGS.len() {
                row.push(format!(
                    "{:.2}",
                    block[2 + vi * PHYS_REGS.len() + pi].mean_ipc()
                ));
            }
            row.push(format!("{:.2}", baseline.mean_ipc()));
            row.push(format!("{:.2}", limit.mean_ipc()));
            report.push_row(row);
        }
    }
    report.push_note(
        "paper shape: with a few hundred physical registers plus virtual tags, the combined \
         machine stays well above the 128-entry baseline and approaches the up-sized limit as \
         virtual tags grow, at every memory latency",
    );
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_sweeps_every_latency_and_tag_count() {
        let r = run(1_000);
        assert_eq!(r.rows.len(), LATENCIES.len() * VIRTUAL_TAGS.len());
        assert_eq!(r.headers.len(), 2 + PHYS_REGS.len() + 2);
    }
}
