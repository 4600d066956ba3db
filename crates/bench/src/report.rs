//! Plain-text tabular reports, one per experiment, plus the full
//! per-run statistics table ([`stats_table`]) that gives every public
//! counter in [`SimStats`] a formatted row. Coverage is checked at compile
//! time: each stats struct is destructured without `..`, so a new field is
//! a compile error here, and a field bound but left unformatted is an
//! unused-variable warning (an error under CI's `clippy -D warnings`).

use koc_core::RetireClass;
use koc_sim::{
    BranchStats, CycleBuckets, Distribution, IntervalRecord, MemoryStats, RecoveryStats, SimStats,
    StallStats, WindowStats,
};

/// A formatted experiment report: a title, column headers, data rows and
/// free-form notes relating the result to the paper.
#[derive(Debug, Clone, Default)]
pub struct Report {
    /// Experiment title (e.g. `"Figure 9 — main performance results"`).
    pub title: String,
    /// Column headers.
    pub headers: Vec<String>,
    /// Data rows (already formatted as strings).
    pub rows: Vec<Vec<String>>,
    /// Notes on how to read the result against the paper.
    pub notes: Vec<String>,
}

impl Report {
    /// Creates an empty report with a title and column headers.
    pub fn new(title: impl Into<String>, headers: &[&str]) -> Self {
        Report {
            title: title.into(),
            headers: headers.iter().map(|h| h.to_string()).collect(),
            rows: Vec::new(),
            notes: Vec::new(),
        }
    }

    /// Appends a data row.
    pub fn push_row(&mut self, row: Vec<String>) {
        self.rows.push(row);
    }

    /// Appends a note.
    pub fn push_note(&mut self, note: impl Into<String>) {
        self.notes.push(note.into());
    }

    /// Renders the report as aligned plain text.
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.headers.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                if i >= widths.len() {
                    widths.push(cell.len());
                } else {
                    widths[i] = widths[i].max(cell.len());
                }
            }
        }
        let mut out = String::new();
        out.push_str(&format!("== {} ==\n", self.title));
        out.push_str(&format_row(&self.headers, &widths));
        out.push('\n');
        out.push_str(
            &"-".repeat(widths.iter().sum::<usize>() + 2 * widths.len().saturating_sub(1)),
        );
        out.push('\n');
        for row in &self.rows {
            out.push_str(&format_row(row, &widths));
            out.push('\n');
        }
        for note in &self.notes {
            out.push_str(&format!("note: {note}\n"));
        }
        out
    }
}

/// Right-aligns one row (header or data) to the column widths — the single
/// formatting path for every line of a report.
fn format_row(cells: &[String], widths: &[usize]) -> String {
    cells
        .iter()
        .enumerate()
        .map(|(i, cell)| {
            format!(
                "{:>width$}",
                cell,
                width = widths.get(i).copied().unwrap_or(cell.len())
            )
        })
        .collect::<Vec<_>>()
        .join("  ")
}

impl std::fmt::Display for Report {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.render())
    }
}

/// Formats one [`Distribution`] field as mean / p50 / p90 / max rows.
fn distribution_rows(prefix: &str, d: &Distribution, rows: &mut Vec<(String, String)>) {
    rows.push((format!("{prefix}.mean"), format!("{:.2}", d.mean())));
    rows.push((format!("{prefix}.p50"), d.percentile(0.50).to_string()));
    rows.push((format!("{prefix}.p90"), d.percentile(0.90).to_string()));
    rows.push((format!("{prefix}.max"), d.max().to_string()));
}

/// Every public field of [`SimStats`] (including the nested recovery,
/// stall, branch and memory statistics) as `(name, formatted value)` rows.
///
/// The exhaustive destructuring below is the coverage check: adding a
/// public field to any of these structs without formatting it here fails
/// to compile.
pub fn stats_rows(stats: &SimStats) -> Vec<(String, String)> {
    let SimStats {
        cycles,
        committed_instructions,
        dispatched_instructions,
        checkpoints_taken,
        checkpoints_committed,
        checkpoints_squashed,
        sliq_moved,
        sliq_high_water,
        inflight_sum,
        peak_inflight,
        retire_breakdown,
        branches: BranchStats {
            predicted,
            mispredicted,
        },
        recoveries:
            RecoveryStats {
                near_recoveries,
                checkpoint_rollbacks,
                exceptions,
                squashed_instructions,
                reexecuted_instructions,
            },
        memory:
            MemoryStats {
                data_accesses,
                store_accesses,
                dl1_hits,
                dl1_misses,
                l2_hits,
                l2_misses,
                mshr_full_stalls,
                row_buffer_hits,
                row_buffer_misses,
                row_buffer_conflicts,
            },
        stalls:
            StallStats {
                iq_full,
                rob_full,
                lsq_full,
                regs_full,
                redirect,
                checkpoint_full,
            },
        replay_window_peak,
        budget_exhausted,
    } = stats;
    let mut rows: Vec<(String, String)> = Vec::new();
    let mut push = |name: &str, value: String| rows.push((name.to_string(), value));

    push("cycles", cycles.to_string());
    push("committed_instructions", committed_instructions.to_string());
    push(
        "dispatched_instructions",
        dispatched_instructions.to_string(),
    );
    push("ipc", format!("{:.4}", stats.ipc()));
    push("checkpoints_taken", checkpoints_taken.to_string());
    push("checkpoints_committed", checkpoints_committed.to_string());
    push("checkpoints_squashed", checkpoints_squashed.to_string());
    push("sliq_moved", sliq_moved.to_string());
    push("sliq_high_water", sliq_high_water.to_string());
    push("replay_window_peak", replay_window_peak.to_string());
    push("budget_exhausted", budget_exhausted.to_string());
    push("inflight_sum", inflight_sum.to_string());
    push("inflight.mean", format!("{:.2}", stats.avg_inflight()));
    push("peak_inflight", peak_inflight.to_string());

    for &class in RetireClass::all() {
        push(
            &format!("retire_breakdown.{class:?}"),
            format!("{:.4}", retire_breakdown.fraction(class)),
        );
    }

    push("branches.predicted", predicted.to_string());
    push("branches.mispredicted", mispredicted.to_string());

    push("recoveries.near_recoveries", near_recoveries.to_string());
    push(
        "recoveries.checkpoint_rollbacks",
        checkpoint_rollbacks.to_string(),
    );
    push("recoveries.exceptions", exceptions.to_string());
    push(
        "recoveries.squashed_instructions",
        squashed_instructions.to_string(),
    );
    push(
        "recoveries.reexecuted_instructions",
        reexecuted_instructions.to_string(),
    );

    push("stalls.iq_full", iq_full.to_string());
    push("stalls.rob_full", rob_full.to_string());
    push("stalls.lsq_full", lsq_full.to_string());
    push("stalls.regs_full", regs_full.to_string());
    push("stalls.redirect", redirect.to_string());
    push("stalls.checkpoint_full", checkpoint_full.to_string());

    push("memory.data_accesses", data_accesses.to_string());
    push("memory.store_accesses", store_accesses.to_string());
    push("memory.dl1_hits", dl1_hits.to_string());
    push("memory.dl1_misses", dl1_misses.to_string());
    push("memory.l2_hits", l2_hits.to_string());
    push("memory.l2_misses", l2_misses.to_string());
    push("memory.mshr_full_stalls", mshr_full_stalls.to_string());
    push("memory.row_buffer_hits", row_buffer_hits.to_string());
    push("memory.row_buffer_misses", row_buffer_misses.to_string());
    push(
        "memory.row_buffer_conflicts",
        row_buffer_conflicts.to_string(),
    );

    rows
}

/// Every public field of [`WindowStats`] — Figure 7's window distributions
/// — as mean / p50 / p90 / max rows per distribution. Destructured
/// exhaustively, like [`stats_rows`], so a new field fails to compile.
pub fn window_rows(window: &WindowStats) -> Vec<(String, String)> {
    let WindowStats {
        inflight,
        live,
        live_long,
        live_short,
    } = window;
    let mut rows: Vec<(String, String)> = Vec::new();
    distribution_rows("inflight", inflight, &mut rows);
    distribution_rows("live", live, &mut rows);
    distribution_rows("live_long", live_long, &mut rows);
    distribution_rows("live_short", live_short, &mut rows);
    rows
}

/// Figure 7's window distributions as a rendered [`Report`].
pub fn window_table(title: impl Into<String>, window: &WindowStats) -> Report {
    let mut report = Report::new(title, &["stat", "value"]);
    for (name, value) in window_rows(window) {
        report.push_row(vec![name, value]);
    }
    report.push_note(format!(
        "live_long/live_short are sampled every {} cycles, the rest every cycle",
        koc_obs::BREAKDOWN_INTERVAL
    ));
    report
}

/// The full per-run statistics as a rendered [`Report`].
pub fn stats_table(title: impl Into<String>, stats: &SimStats) -> Report {
    let mut report = Report::new(title, &["stat", "value"]);
    for (name, value) in stats_rows(stats) {
        report.push_row(vec![name, value]);
    }
    report.push_note("every public SimStats field has a row (checked at compile time)");
    report
}

/// Every public field of [`CycleBuckets`] — the top-down cycle-accounting
/// result — as `(bucket, formatted value)` rows, each with its share of the
/// total. Destructured exhaustively, like [`stats_rows`]: a new bucket
/// cannot stay invisible in bench output.
pub fn accounting_rows(buckets: &CycleBuckets) -> Vec<(String, String)> {
    let &CycleBuckets {
        committing,
        window_full,
        iq_full,
        regfile_exhausted,
        checkpoint_table_full,
        mshr_full,
        memory_wait,
        fetch_starved,
        execute_wait,
    } = buckets;
    let total = buckets.total();
    let mut rows: Vec<(String, String)> = Vec::new();
    let mut push = |name: &str, value: u64| {
        let pct = if total == 0 {
            0.0
        } else {
            value as f64 * 100.0 / total as f64
        };
        rows.push((name.to_string(), format!("{value} ({pct:.1}%)")));
    };
    push("committing", committing);
    push("window_full", window_full);
    push("iq_full", iq_full);
    push("regfile_exhausted", regfile_exhausted);
    push("checkpoint_table_full", checkpoint_table_full);
    push("mshr_full", mshr_full);
    push("memory_wait", memory_wait);
    push("fetch_starved", fetch_starved);
    push("execute_wait", execute_wait);
    rows
}

/// The top-down cycle-accounting result as a rendered [`Report`], one row
/// per bucket plus the total (which equals the run's cycle count — every
/// cycle lands in exactly one bucket).
pub fn accounting_table(title: impl Into<String>, buckets: &CycleBuckets) -> Report {
    let mut report = Report::new(title, &["bucket", "cycles"]);
    for (name, value) in accounting_rows(buckets) {
        report.push_row(vec![name, value]);
    }
    report.push_row(vec!["total".to_string(), buckets.total().to_string()]);
    report.push_note("buckets partition the run: their sum equals total cycles exactly");
    report
}

/// An interval time-series (see `koc_obs::TimelineRecorder`) as a rendered
/// [`Report`]: one row per interval with per-cycle rates derived from each
/// [`IntervalRecord`]'s sums, plus the interval's dominant stall bucket.
/// Each record is destructured exhaustively, like [`stats_rows`].
pub fn timeline_table(title: impl Into<String>, records: &[IntervalRecord]) -> Report {
    let mut report = Report::new(
        title,
        &[
            "start",
            "cycles",
            "IPC",
            "disp/cyc",
            "inflight",
            "live",
            "ckpts",
            "mshr",
            "replay",
            "top-stall",
        ],
    );
    for &IntervalRecord {
        start_cycle,
        cycles,
        committed,
        dispatched,
        inflight_sum,
        live_sum,
        live_checkpoints_sum,
        mshr_sum,
        replay_window_sum,
        stall,
    } in records
    {
        let per_cycle = |sum: u64| sum as f64 / cycles.max(1) as f64;
        let (top_name, top_cycles) = stall
            .named()
            .into_iter()
            .max_by_key(|&(_, v)| v)
            .unwrap_or(("-", 0));
        report.push_row(vec![
            start_cycle.to_string(),
            cycles.to_string(),
            format!("{:.3}", per_cycle(committed)),
            format!("{:.3}", per_cycle(dispatched)),
            format!("{:.1}", per_cycle(inflight_sum)),
            format!("{:.1}", per_cycle(live_sum)),
            format!("{:.2}", per_cycle(live_checkpoints_sum)),
            format!("{:.2}", per_cycle(mshr_sum)),
            format!("{:.1}", per_cycle(replay_window_sum)),
            if top_cycles == 0 {
                "-".to_string()
            } else {
                top_name.to_string()
            },
        ]);
    }
    report.push_note(
        "occupancy columns are interval means (sums / cycles); IPC is committed / cycles",
    );
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn render_aligns_columns_and_includes_notes() {
        let mut r = Report::new("Figure X", &["config", "IPC"]);
        r.push_row(vec!["baseline 128".into(), "0.41".into()]);
        r.push_row(vec!["COoO".into(), "1.25".into()]);
        r.push_note("higher is better");
        let text = r.render();
        assert!(text.contains("== Figure X =="));
        assert!(text.contains("baseline 128"));
        assert!(text.contains("note: higher is better"));
        let lines: Vec<&str> = text.lines().collect();
        assert!(lines.len() >= 5);
    }

    #[test]
    fn display_matches_render() {
        let r = Report::new("T", &["a"]);
        assert_eq!(r.to_string(), r.render());
    }

    #[test]
    fn stats_rows_cover_every_top_level_field_and_nested_group() {
        let rows = stats_rows(&SimStats::default());
        let names: Vec<&str> = rows.iter().map(|(n, _)| n.as_str()).collect();
        for expected in [
            "cycles",
            "committed_instructions",
            "dispatched_instructions",
            "checkpoints_taken",
            "checkpoints_committed",
            "checkpoints_squashed",
            "sliq_moved",
            "sliq_high_water",
            "replay_window_peak",
            "budget_exhausted",
            "inflight_sum",
            "inflight.mean",
            "peak_inflight",
            "retire_breakdown.Moved",
            "branches.predicted",
            "branches.mispredicted",
            "recoveries.near_recoveries",
            "stalls.iq_full",
        ] {
            assert!(names.contains(&expected), "missing row {expected}");
        }
        // One row per value: no duplicates that could mask a missing field.
        let mut sorted = names.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), names.len());
    }

    #[test]
    fn window_rows_cover_every_distribution() {
        let mut window = WindowStats::new();
        window.inflight.record_n(40, 3);
        window.live_short.record(2);
        let rows = window_rows(&window);
        assert_eq!(rows.len(), 16, "four rows per distribution");
        for (name, value) in [
            ("inflight.mean", "40.00"),
            ("inflight.max", "40"),
            ("live.mean", "0.00"),
            ("live_long.p50", "0"),
            ("live_short.p90", "2"),
        ] {
            assert!(
                rows.contains(&(name.to_string(), value.to_string())),
                "missing {name} = {value}: {rows:?}"
            );
        }
    }

    #[test]
    fn accounting_rows_cover_every_bucket_and_sum_to_total() {
        let buckets = CycleBuckets {
            committing: 10,
            window_full: 2,
            iq_full: 3,
            regfile_exhausted: 1,
            checkpoint_table_full: 4,
            mshr_full: 5,
            memory_wait: 6,
            fetch_starved: 7,
            execute_wait: 8,
        };
        let rows = accounting_rows(&buckets);
        assert_eq!(rows.len(), 9, "one row per bucket");
        let table = accounting_table("Cycle accounting", &buckets).render();
        assert!(table.contains("committing"));
        assert!(table.contains("execute_wait"));
        assert!(table.contains("46"), "total row: {table}");
    }

    #[test]
    fn timeline_table_reports_interval_rates() {
        let mut r = IntervalRecord {
            start_cycle: 1,
            cycles: 100,
            committed: 50,
            dispatched: 60,
            inflight_sum: 1000,
            live_sum: 500,
            live_checkpoints_sum: 200,
            mshr_sum: 100,
            replay_window_sum: 3000,
            ..Default::default()
        };
        r.stall.memory_wait = 40;
        let text = timeline_table("Timeline", &[r]).render();
        assert!(text.contains("0.500"), "IPC column: {text}");
        assert!(text.contains("10.0"), "inflight mean: {text}");
        assert!(text.contains("memory_wait"), "dominant stall: {text}");
    }

    #[test]
    fn stats_table_renders_all_rows() {
        let stats = SimStats {
            cycles: 100,
            committed_instructions: 250,
            ..Default::default()
        };
        let table = stats_table("Run stats", &stats);
        let text = table.render();
        assert!(text.contains("== Run stats =="));
        assert!(text.contains("ipc"));
        assert!(text.contains("2.5000"));
        assert_eq!(table.rows.len(), stats_rows(&stats).len());
    }
}
