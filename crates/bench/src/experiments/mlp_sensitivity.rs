//! MLP sensitivity — how much of the kilo-instruction window's advantage
//! survives a *limited* memory system.
//!
//! The paper models main memory as a flat latency with unlimited
//! outstanding misses, so the checkpointed engine's memory-level
//! parallelism is bounded only by the window. This experiment replaces the
//! backend with banked DRAM and sweeps the MSHR count × main-memory
//! latency for both commit engines on the MLP-contrast workloads: on
//! `stream_mlp` (independent line-stride misses) the checkpointed engine's
//! IPC should climb with the MSHR count until the window, not the MSHR
//! file, is the limit again — while `pointer_chase` (MLP = 1) stays flat,
//! confirming the effect is memory-level parallelism and not raw latency.

use crate::Report;
use koc_sim::{sweep, DramConfig, ProcessorConfig, Suite, SuiteResult};

/// MSHR counts swept.
pub const MSHR_COUNTS: &[usize] = &[1, 2, 4, 8, 16, 32];
/// Main-memory latencies swept (the paper's three machines).
pub const MEMORY_LATENCIES: &[u32] = &[100, 500, 1000];

/// The DRAM part used by the sweep, with the given MSHR file size: enough
/// banks that the MSHR count is the binding limit.
pub fn dram(mshr_entries: usize) -> DramConfig {
    DramConfig {
        mshr_entries,
        banks: 16,
        row_bytes: 4096,
        act_latency: 40,
        precharge_latency: 40,
        bank_busy: 4,
    }
}

/// The two machines compared at each grid point: both have 32-entry
/// instruction queues, so the conventional ROB bounds the baseline's MLP
/// (a 32-entry window holds only a handful of loads) while the
/// checkpointed engine's effective kilo-window can keep every MSHR busy —
/// the axis along which the two separate.
fn engines(memory_latency: u32) -> [ProcessorConfig; 2] {
    [
        ProcessorConfig::baseline(32, memory_latency),
        ProcessorConfig::cooo(32, 2048, memory_latency),
    ]
}

/// Raw results: `results[latency][mshr]` = `[baseline, cooo]`, each over
/// the MLP-contrast suite (`pointer_chase`, `stream_mlp`).
pub struct MlpData {
    /// Results following [`MEMORY_LATENCIES`] × [`MSHR_COUNTS`] × engine.
    pub grid: Vec<Vec<[SuiteResult; 2]>>,
}

impl MlpData {
    /// IPC of workload `w` (0 = `pointer_chase`, 1 = `stream_mlp`) for the
    /// given grid point and engine (0 = baseline, 1 = checkpointed).
    pub fn ipc(&self, latency_idx: usize, mshr_idx: usize, engine: usize, w: usize) -> f64 {
        self.grid[latency_idx][mshr_idx][engine].per_workload[w]
            .stats
            .ipc()
    }
}

/// Runs the whole grid as one parallel sweep.
pub fn collect(trace_len: usize) -> MlpData {
    let configs = MEMORY_LATENCIES.iter().flat_map(|&lat| {
        MSHR_COUNTS.iter().flat_map(move |&mshr| {
            engines(lat).into_iter().map(move |mut c| {
                c.memory = c.memory.with_dram(dram(mshr));
                c
            })
        })
    });
    let mut results = sweep(configs, &Suite::mlp_contrast().generate(trace_len)).into_iter();
    let grid = MEMORY_LATENCIES
        .iter()
        .map(|_| {
            MSHR_COUNTS
                .iter()
                .map(|_| {
                    let base = results.next().expect("baseline result");
                    let cooo = results.next().expect("COoO result");
                    [base, cooo]
                })
                .collect()
        })
        .collect();
    MlpData { grid }
}

/// Runs the MLP-sensitivity sweep and formats it.
pub fn run(trace_len: usize) -> Report {
    let data = collect(trace_len);
    let mut report = Report::new(
        "MLP sensitivity — IPC on stream_mlp (pointer_chase) vs MSHR count, banked DRAM",
        &[
            "MSHRs",
            "base@100",
            "COoO@100",
            "base@500",
            "COoO@500",
            "base@1000",
            "COoO@1000",
        ],
    );
    for (mi, &mshr) in MSHR_COUNTS.iter().enumerate() {
        let mut row = vec![mshr.to_string()];
        for (li, _) in MEMORY_LATENCIES.iter().enumerate() {
            for engine in 0..2 {
                row.push(format!(
                    "{:.3} ({:.3})",
                    data.ipc(li, mi, engine, 1),
                    data.ipc(li, mi, engine, 0),
                ));
            }
        }
        report.push_row(row);
    }
    let li = MEMORY_LATENCIES.len() - 1;
    let first = data.ipc(li, 0, 1, 1);
    let last = data.ipc(li, MSHR_COUNTS.len() - 1, 1, 1);
    report.push_note(format!(
        "checkpointed engine on stream_mlp at 1000-cycle memory: {:.3} IPC with {} MSHR -> \
         {:.3} IPC with {} MSHRs ({:.1}x from memory-level parallelism)",
        first,
        MSHR_COUNTS[0],
        last,
        MSHR_COUNTS[MSHR_COUNTS.len() - 1],
        last / first.max(f64::MIN_POSITIVE),
    ));
    let pc_first = data.ipc(li, 0, 1, 0);
    let pc_last = data.ipc(li, MSHR_COUNTS.len() - 1, 1, 0);
    report.push_note(format!(
        "pointer_chase is MSHR-insensitive (MLP = 1): {pc_first:.3} -> {pc_last:.3} IPC",
    ));
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use koc_workloads::kernels;

    /// Runs the checkpointed engine on one kernel at the two MSHR extremes
    /// (500-cycle memory, so the dependent chain stays fast in debug builds).
    fn mshr_extremes(kernel: &'static str, trace_len: usize) -> (f64, f64) {
        let configs = [MSHR_COUNTS[0], MSHR_COUNTS[MSHR_COUNTS.len() - 1]].map(|mshr| {
            let mut c = ProcessorConfig::cooo(128, 2048, 500);
            c.memory = c.memory.with_dram(dram(mshr));
            c
        });
        let (name, config) = kernels::mlp_contrast()
            .into_iter()
            .find(|(n, _)| *n == kernel)
            .expect("known kernel");
        let results = sweep(configs, &Suite::kernel(name, config).generate(trace_len));
        (
            results[0].per_workload[0].stats.ipc(),
            results[1].per_workload[0].stats.ipc(),
        )
    }

    #[test]
    fn checkpointed_ipc_grows_with_mshrs_on_the_streaming_workload() {
        let (one, many) = mshr_extremes("stream_mlp", 2_000);
        assert!(
            many > one * 2.0,
            "stream_mlp must scale with MSHRs: 1 MSHR {one:.3} vs 32 MSHRs {many:.3}"
        );
    }

    #[test]
    fn pointer_chase_is_insensitive_to_mshrs() {
        let (one, many) = mshr_extremes("pointer_chase", 800);
        let ratio = many / one.max(f64::MIN_POSITIVE);
        assert!(
            (0.95..=1.05).contains(&ratio),
            "MLP=1 cannot profit from MSHRs: {one:.3} vs {many:.3}"
        );
    }

    #[test]
    fn report_has_one_row_per_mshr_count() {
        let r = run(400);
        assert_eq!(r.rows.len(), MSHR_COUNTS.len());
        assert_eq!(r.headers.len(), 1 + 2 * MEMORY_LATENCIES.len());
        assert_eq!(r.notes.len(), 2);
    }
}
