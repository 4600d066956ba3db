//! The cycle-fingerprint harness: a canonical quick-suite over both commit
//! engines, emitted as JSON and diffed against the committed
//! `bench/baseline.json` at zero tolerance.
//!
//! Two consumers drive this module:
//!
//! * **`koc-bench harness`** runs the suite and writes the JSON report.
//!   Every number in it — cycles, retired instructions, IPC, peak window —
//!   is a pure function of (configuration, workload seed), so the report is
//!   an accuracy fingerprint of the simulator.
//! * **`koc-bench compare`** diffs a fresh report against a baseline. Any
//!   drift in `cycles` or `retired` fails: the simulator is deterministic,
//!   so drift means simulated timing changed, which must be intentional and
//!   re-baselined.
//!
//! The harness times nothing. Host speed is measured by the `perfbench/`
//! benchmark (repeated runs, ns per retired instruction); see
//! `perfbench/README.md`.
//!
//! The JSON schema (`koc-bench-harness/1`):
//!
//! ```json
//! {
//!   "schema": "koc-bench-harness/1",
//!   "suite": "quick",
//!   "trace_len": 8000,
//!   "source": "materialized",
//!   "results": [
//!     {"workload": "stream_add", "engine": "baseline", "cycles": 123,
//!      "retired": 8000, "ipc": 0.5, "peak_inflight": 128}
//!   ]
//! }
//! ```
//!
//! The parser skips keys it does not know, so reports written by older
//! harnesses (which carried wall-clock and filter fields) still parse; a
//! missing `source` defaults to `"materialized"`.

use crate::report::Report;
use koc_isa::json::{parse_versioned, write_str, Json};
use koc_sim::{sweep, ProcessorConfig};
use koc_workloads::{Suite, WorkloadSpec};
use std::fmt::Write;

/// Dynamic trace length of the quick suite (CI's accuracy gate).
pub const QUICK_TRACE_LEN: usize = 8_000;
/// Dynamic trace length of the full suite.
pub const FULL_TRACE_LEN: usize = 30_000;

/// Schema identifier embedded in every report.
pub const SCHEMA: &str = "koc-bench-harness/1";

/// One simulation: a workload under one commit engine.
#[derive(Debug, Clone)]
pub struct BenchEntry {
    /// Workload name (suite name of the kernel).
    pub workload: String,
    /// Commit engine: `"baseline"` (in-order ROB) or `"cooo"`
    /// (checkpointed out-of-order).
    pub engine: String,
    /// Simulated cycles (the accuracy fingerprint).
    pub cycles: u64,
    /// Retired (committed) instructions.
    pub retired: u64,
    /// Instructions per cycle.
    pub ipc: f64,
    /// Peak window occupancy (maximum simultaneously in-flight
    /// instructions).
    pub peak_inflight: usize,
}

/// A full harness run: every workload of the canonical suite under both
/// commit engines.
#[derive(Debug, Clone)]
pub struct BenchReport {
    /// Schema identifier ([`SCHEMA`]).
    pub schema: String,
    /// `"quick"` or `"full"`.
    pub suite: String,
    /// Dynamic trace length every workload was generated at.
    pub trace_len: usize,
    /// How workloads were fed to the pipeline: `"materialized"` (traces
    /// generated up front) or `"streamed"` (pulled lazily through the
    /// replay window). Cycle counts are identical either way.
    pub source: String,
    /// One entry per (workload, engine), in suite-then-engine order.
    pub results: Vec<BenchEntry>,
}

impl BenchReport {
    /// The entry for `(workload, engine)`, if present.
    pub fn entry(&self, workload: &str, engine: &str) -> Option<&BenchEntry> {
        self.results
            .iter()
            .find(|e| e.workload == workload && e.engine == engine)
    }

    /// Renders the report as the aligned plain-text table the experiment
    /// driver prints (one formatting path for humans, JSON for machines).
    pub fn to_table(&self) -> Report {
        let mut r = Report::new(
            format!(
                "harness — {} suite (trace_len {}, {} sources)",
                self.suite, self.trace_len, self.source
            ),
            &[
                "workload",
                "engine",
                "cycles",
                "retired",
                "IPC",
                "peak-window",
            ],
        );
        for e in &self.results {
            r.push_row(vec![
                e.workload.clone(),
                e.engine.clone(),
                e.cycles.to_string(),
                e.retired.to_string(),
                format!("{:.3}", e.ipc),
                e.peak_inflight.to_string(),
            ]);
        }
        r.push_note("every column is deterministic; host speed is perfbench's job.");
        r
    }
}

/// The two canonical machines of the harness: the Table 1 in-order
/// baseline and the paper's headline checkpointed configuration, both at
/// 1000-cycle memory.
pub fn engines() -> [(&'static str, ProcessorConfig); 2] {
    [
        ("baseline", ProcessorConfig::baseline(128, 1000)),
        ("cooo", ProcessorConfig::cooo(128, 2048, 1000)),
    ]
}

/// The canonical workload list as lazy specs: the paper's five-kernel suite
/// plus the MLP-contrast pair (`pointer_chase` is the memory-bound case the
/// event-driven fast-forward exists for).
pub fn specs(trace_len: usize) -> Vec<WorkloadSpec> {
    let mut all = Suite::paper().specs(trace_len);
    all.extend(Suite::mlp_contrast().specs(trace_len));
    all
}

/// The canonical workload names, for `--list` and [`resolve`]'s errors.
pub fn workload_names() -> Vec<String> {
    // The names do not depend on the trace length.
    specs(QUICK_TRACE_LEN)
        .iter()
        .map(|s| s.name().to_string())
        .collect()
}

/// Resolves a `(workload, engine)` selection against the canonical suite
/// and machines: `None` picks the suite's first workload.
///
/// # Errors
/// A message naming the unknown workload or engine and listing the
/// available ones.
pub fn resolve(
    workload: Option<&str>,
    engine: &str,
    trace_len: usize,
) -> Result<(WorkloadSpec, ProcessorConfig), String> {
    let mut specs = specs(trace_len).into_iter();
    let spec = match workload {
        None => specs.next(),
        Some(name) => specs.find(|s| s.name() == name),
    }
    .ok_or_else(|| {
        format!(
            "unknown workload '{}' (available: {})",
            workload.unwrap_or_default(),
            workload_names().join(", ")
        )
    })?;
    let engines = engines();
    let (_, config) = engines
        .iter()
        .find(|(name, _)| *name == engine)
        .ok_or_else(|| {
            let names: Vec<_> = engines.iter().map(|(name, _)| *name).collect();
            format!(
                "unknown engine '{engine}' (available: {})",
                names.join(", ")
            )
        })?;
    Ok((spec, *config))
}

/// How the harness feeds workloads to the pipeline (`--source`). Cycle
/// counts are identical either way.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Source {
    /// Every trace is generated up front and shared by both engines.
    Materialized,
    /// Every run pulls its own stream on demand through the replay window.
    Streamed,
}

/// Runs the canonical suite (quick or full length) under both engines,
/// feeding workloads as `source` says, and returns the report.
pub fn run(quick: bool, source: Source) -> BenchReport {
    let trace_len = if quick {
        QUICK_TRACE_LEN
    } else {
        FULL_TRACE_LEN
    };
    let specs = specs(trace_len);
    let engines = engines();
    let configs = engines.map(|(_, config)| config);
    let swept = match source {
        Source::Materialized => {
            let workloads: Vec<_> = specs.iter().map(WorkloadSpec::materialize).collect();
            sweep(configs, &workloads)
        }
        Source::Streamed => sweep(configs, &specs),
    };
    let mut results = Vec::new();
    for (wi, spec) in specs.iter().enumerate() {
        for ((engine, _), result) in engines.iter().zip(&swept) {
            let stats = &result.per_workload[wi].stats;
            // Release-mode guard for the checkpoint-lifecycle invariant
            // (debug builds assert it at engine teardown): every checkpoint
            // a completed run took must have committed or been squashed.
            if *engine == "cooo" {
                assert_eq!(
                    stats.checkpoints_taken,
                    stats.checkpoints_committed + stats.checkpoints_squashed,
                    "{}: checkpoint lifecycle must balance",
                    spec.name()
                );
            }
            results.push(BenchEntry {
                workload: spec.name().to_string(),
                engine: engine.to_string(),
                cycles: stats.cycles,
                retired: stats.committed_instructions,
                ipc: stats.ipc(),
                peak_inflight: stats.peak_inflight,
            });
        }
    }
    BenchReport {
        schema: SCHEMA.to_string(),
        suite: if quick { "quick" } else { "full" }.to_string(),
        trace_len,
        source: match source {
            Source::Materialized => "materialized",
            Source::Streamed => "streamed",
        }
        .to_string(),
        results,
    }
}

// ---------------------------------------------------------------------
// Comparison against a committed baseline
// ---------------------------------------------------------------------

/// The outcome of a comparison: hard failures (gate the build) and notes
/// (informational, e.g. entries only the current run has).
#[derive(Debug, Clone, Default)]
pub struct CompareOutcome {
    /// Count drifts and missing entries; non-empty means the comparison
    /// failed.
    pub failures: Vec<String>,
    /// Informational observations.
    pub notes: Vec<String>,
    /// Baseline entries that were found in the current report and checked.
    pub checked: usize,
}

impl CompareOutcome {
    /// Whether every gate passed.
    pub fn passed(&self) -> bool {
        self.failures.is_empty()
    }
}

/// Compares a freshly generated report (JSON text) against a baseline
/// (JSON text).
///
/// # Errors
/// Returns a description of the first structural problem (unparseable
/// JSON, wrong schema) — distinct from count drift, which is collected in
/// the returned [`CompareOutcome`].
pub fn compare(baseline: &str, current: &str) -> Result<CompareOutcome, String> {
    let baseline = parse_report(baseline).map_err(|e| format!("baseline: {e}"))?;
    let current = parse_report(current).map_err(|e| format!("current: {e}"))?;
    Ok(compare_parsed(&baseline, &current))
}

/// Reads and compares two report **files**, naming the offending file in
/// every structural error — the form CI and humans debug from. A missing,
/// truncated, or corrupt report comes back as `Err` with the path and the
/// reason; it never panics and never turns into a bogus drift verdict.
///
/// # Errors
/// A message of the form `<role> report <path>: <reason>` when either file
/// cannot be read or is not a well-formed `koc-bench-harness/1` document.
pub fn compare_files(
    baseline: &std::path::Path,
    current: &std::path::Path,
) -> Result<CompareOutcome, String> {
    let load = |role: &str, path: &std::path::Path| -> Result<BenchReport, String> {
        let text = std::fs::read_to_string(path)
            .map_err(|e| format!("{role} report {}: {e}", path.display()))?;
        parse_report(&text).map_err(|e| format!("{role} report {}: {e}", path.display()))
    };
    let baseline = load("baseline", baseline)?;
    let current = load("current", current)?;
    Ok(compare_parsed(&baseline, &current))
}

fn compare_parsed(baseline: &BenchReport, current: &BenchReport) -> CompareOutcome {
    let mut outcome = CompareOutcome::default();
    if baseline.suite != current.suite || baseline.trace_len != current.trace_len {
        outcome.failures.push(format!(
            "suite mismatch: baseline {}@{} vs current {}@{} (regenerate the baseline)",
            baseline.suite, baseline.trace_len, current.suite, current.trace_len
        ));
        return outcome;
    }
    if baseline.source != current.source {
        // Streamed and materialized ingestion must agree cycle for cycle —
        // comparing across modes is exactly how CI asserts that — so a
        // source difference is informational, never a gate.
        outcome.notes.push(format!(
            "comparing across source modes: baseline {} vs current {}",
            baseline.source, current.source
        ));
    }
    for b in &baseline.results {
        let Some(c) = current.entry(&b.workload, &b.engine) else {
            outcome.failures.push(format!(
                "{}/{}: missing from current run",
                b.workload, b.engine
            ));
            continue;
        };
        outcome.checked += 1;
        for (what, base, cur) in [
            ("cycles", b.cycles, c.cycles),
            ("retired", b.retired, c.retired),
        ] {
            if base != cur {
                outcome.failures.push(format!(
                    "{}/{}: {what} drifted {cur} vs baseline {base} ({:+})",
                    b.workload,
                    b.engine,
                    i128::from(cur) - i128::from(base)
                ));
            }
        }
    }
    for c in &current.results {
        if baseline.entry(&c.workload, &c.engine).is_none() {
            outcome.notes.push(format!(
                "{}/{}: new entry (not in baseline)",
                c.workload, c.engine
            ));
        }
    }
    outcome
}

impl BenchReport {
    /// Renders the report as `koc-bench-harness/1` JSON (the schema in the
    /// module docs), the document [`compare`] reads back.
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(128 + self.results.len() * 128);
        out.push_str("{\"schema\":");
        write_str(&mut out, &self.schema);
        out.push_str(",\"suite\":");
        write_str(&mut out, &self.suite);
        let _ = write!(out, ",\"trace_len\":{},\"source\":", self.trace_len);
        write_str(&mut out, &self.source);
        out.push_str(",\"results\":[");
        for (i, e) in self.results.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str("{\"workload\":");
            write_str(&mut out, &e.workload);
            out.push_str(",\"engine\":");
            write_str(&mut out, &e.engine);
            // `{:?}` keeps an integral IPC a float: `2.0`, not `2`.
            let _ = write!(
                out,
                ",\"cycles\":{},\"retired\":{},\"ipc\":{:?},\"peak_inflight\":{}}}",
                e.cycles, e.retired, e.ipc, e.peak_inflight
            );
        }
        out.push_str("]}");
        out
    }
}

fn parse_report(text: &str) -> Result<BenchReport, String> {
    // The shared versioned front door: one place rejects empty files,
    // truncated JSON, depth bombs, and wrong/missing schema fields with
    // the same wording every `koc-*/N` document gets.
    let json = parse_versioned(text, SCHEMA)?;
    let results = match json.get("results") {
        Some(Json::Arr(items)) => items
            .iter()
            .map(parse_entry)
            .collect::<Result<Vec<_>, _>>()?,
        _ => return Err("missing results array".into()),
    };
    Ok(BenchReport {
        schema: SCHEMA.to_string(),
        suite: json
            .get("suite")
            .and_then(Json::as_str)
            .ok_or("missing suite")?
            .to_string(),
        trace_len: json
            .get("trace_len")
            .and_then(Json::as_u64)
            .ok_or("missing trace_len")? as usize,
        // Reports predating the streaming API carry no source: they were
        // materialized runs.
        source: json
            .get("source")
            .and_then(Json::as_str)
            .unwrap_or("materialized")
            .to_string(),
        results,
    })
}

fn parse_entry(json: &Json) -> Result<BenchEntry, String> {
    let int = |key: &str| -> Result<u64, String> {
        json.get(key)
            .and_then(Json::as_u64)
            .ok_or(format!("entry missing {key}"))
    };
    let text = |key: &str| -> Result<String, String> {
        Ok(json
            .get(key)
            .and_then(Json::as_str)
            .ok_or(format!("entry missing {key}"))?
            .to_string())
    };
    Ok(BenchEntry {
        workload: text("workload")?,
        engine: text("engine")?,
        cycles: int("cycles")?,
        retired: int("retired")?,
        ipc: json
            .get("ipc")
            .and_then(Json::as_f64)
            .ok_or("entry missing ipc")?,
        peak_inflight: int("peak_inflight")? as usize,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use koc_sim::Processor;

    fn tiny_report() -> BenchReport {
        BenchReport {
            schema: SCHEMA.to_string(),
            suite: "quick".to_string(),
            trace_len: 100,
            source: "materialized".to_string(),
            results: vec![BenchEntry {
                workload: "stream_add".to_string(),
                engine: "baseline".to_string(),
                cycles: 1000,
                retired: 100,
                ipc: 0.1,
                peak_inflight: 64,
            }],
        }
    }

    #[test]
    fn report_json_round_trips_through_the_parser() {
        let report = tiny_report();
        let json = report.to_json();
        let back = parse_report(&json).unwrap();
        assert_eq!(back.suite, "quick");
        assert_eq!(back.trace_len, 100);
        let e = back.entry("stream_add", "baseline").unwrap();
        assert_eq!(e.cycles, 1000);
        assert_eq!(e.retired, 100);
        assert_eq!(e.peak_inflight, 64);
        assert!((e.ipc - 0.1).abs() < 1e-12);
    }

    #[test]
    fn report_json_is_compact_and_an_integral_ipc_stays_a_float() {
        let mut report = tiny_report();
        report.results[0].ipc = 2.0;
        assert_eq!(
            report.to_json(),
            concat!(
                r#"{"schema":"koc-bench-harness/1","suite":"quick","trace_len":100,"#,
                r#""source":"materialized","results":[{"workload":"stream_add","#,
                r#""engine":"baseline","cycles":1000,"retired":100,"ipc":2.0,"#,
                r#""peak_inflight":64}]}"#
            )
        );
    }

    #[test]
    fn identical_reports_compare_clean() {
        let json = tiny_report().to_json();
        let outcome = compare(&json, &json).unwrap();
        assert!(outcome.passed(), "{:?}", outcome.failures);
        assert!(outcome.notes.is_empty(), "{:?}", outcome.notes);
        assert_eq!(outcome.checked, 1);
    }

    #[test]
    fn cycle_drift_fails_at_zero_tolerance_and_passes_within_tolerance() {
        let base = tiny_report();
        let mut drifted = base.clone();
        drifted.results[0].cycles = 1001;
        let (bj, dj) = (base.to_json(), drifted.to_json());
        let strict = compare(&bj, &dj).unwrap();
        assert!(!strict.passed());
        assert!(
            strict.failures[0].contains("cycles drifted 1001 vs baseline 1000 (+1)"),
            "{:?}",
            strict.failures
        );
        // Equal counts pass; there is no tolerance to widen.
        assert!(compare(&dj, &dj).unwrap().passed());
    }

    #[test]
    fn missing_entries_fail_and_new_entries_note() {
        let base = tiny_report();
        let mut extended = base.clone();
        extended.results.push(BenchEntry {
            workload: "gather".to_string(),
            engine: "cooo".to_string(),
            ..base.results[0].clone()
        });
        let outcome = compare(&extended.to_json(), &base.to_json()).unwrap();
        assert!(!outcome.passed(), "baseline entry missing from current");
        let outcome = compare(&base.to_json(), &extended.to_json()).unwrap();
        assert!(outcome.passed());
        assert!(outcome.notes.iter().any(|n| n.contains("new entry")));
    }

    #[test]
    fn quick_harness_runs_are_deterministic_in_their_counts() {
        // A scaled-down harness invocation (single short workload) so the
        // test stays fast: same counts on every run.
        let w = specs(400)[0].materialize();
        let (name, config) = &engines()[0];
        let a = Processor::new(*config, &w.trace).run();
        let b = Processor::new(*config, &w.trace).run();
        assert_eq!(a.cycles, b.cycles, "{name} must be deterministic");
        assert_eq!(a, b);
    }

    #[test]
    fn old_reports_without_source_or_filter_still_parse() {
        // The committed baseline predates the `source` field and carries
        // the retired wall-clock keys (`wall_seconds`, `mips`, ...); the
        // parser skips them, defaults the source and keeps every row.
        let legacy = parse_report(include_str!("../../../bench/baseline.json")).unwrap();
        assert_eq!(legacy.source, "materialized");
        assert_eq!(legacy.results.len(), 14);
        let row = legacy.entry("stream_add", "cooo").unwrap();
        assert_eq!((row.cycles, row.retired), (4_183, 8_004));
        // A report from the retired `--grid` mode carries
        // `grid_lanes`/`grid_speedup`; those are skipped too.
        let grid = parse_report(
            r#"{"schema":"koc-bench-harness/1","suite":"grid16","trace_len":8000,
                "grid_lanes":16,"grid_speedup":0.87,
                "results":[{"workload":"stream_add#00","engine":"per-config",
                "cycles":4183,"retired":8004,"ipc":1.9,"peak_inflight":3000}]}"#,
        )
        .unwrap();
        assert_eq!(grid.suite, "grid16");
        let lane = grid.entry("stream_add#00", "per-config").unwrap();
        assert_eq!((lane.cycles, lane.retired), (4_183, 8_004));
    }

    #[test]
    fn comparing_across_source_modes_notes_but_does_not_gate() {
        let base = tiny_report();
        let mut streamed = base.clone();
        streamed.source = "streamed".to_string();
        let outcome = compare(&base.to_json(), &streamed.to_json()).unwrap();
        assert!(outcome.passed(), "{:?}", outcome.failures);
        assert!(
            outcome.notes.iter().any(|n| n.contains("source modes")),
            "{:?}",
            outcome.notes
        );
    }

    #[test]
    fn unknown_engine_filter_lists_the_engines() {
        let err = resolve(None, "vliw", QUICK_TRACE_LEN).unwrap_err();
        assert!(err.contains("unknown engine 'vliw'"), "{err}");
        assert!(err.contains("baseline"), "{err}");
        assert!(err.contains("cooo"), "{err}");
        assert!(!err.contains("Some("), "{err}");
    }

    #[test]
    fn unknown_only_filter_lists_the_workloads() {
        let err = resolve(Some("swim"), "cooo", QUICK_TRACE_LEN).unwrap_err();
        assert!(err.contains("unknown workload 'swim'"), "{err}");
        assert!(err.contains("stream_add"), "{err}");
        assert!(err.contains("pointer_chase"), "{err}");
        assert!(!err.contains("Some("), "{err}");
    }

    #[test]
    fn streamed_and_materialized_runs_have_identical_counts() {
        let materialized = run(true, Source::Materialized);
        let streamed = run(true, Source::Streamed);
        assert_eq!(materialized.source, "materialized");
        assert_eq!(streamed.source, "streamed");
        assert_eq!(
            materialized.results.len(),
            14,
            "seven workloads x two engines"
        );
        let outcome = compare(&materialized.to_json(), &streamed.to_json()).unwrap();
        assert!(outcome.passed(), "{:?}", outcome.failures);
        assert_eq!(outcome.checked, 14);
        for (m, s) in materialized.results.iter().zip(&streamed.results) {
            assert_eq!(
                m.peak_inflight, s.peak_inflight,
                "{}/{}",
                m.workload, m.engine
            );
        }
    }

    #[test]
    fn hostile_report_files_fail_with_the_path_and_reason_not_a_panic() {
        let dir = std::env::temp_dir().join(format!("koc-bench-hostile-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let good = dir.join("good.json");
        std::fs::write(&good, tiny_report().to_json()).unwrap();

        // Missing file: the path and the OS reason, non-zero (Err), no panic.
        let missing = dir.join("nope.json");
        let err = compare_files(&missing, &good).unwrap_err();
        assert!(err.contains("nope.json"), "{err}");
        assert!(err.starts_with("baseline report"), "{err}");

        // Truncated mid-document (a torn write or interrupted download).
        let torn = dir.join("torn.json");
        let full = tiny_report().to_json();
        std::fs::write(&torn, &full[..full.len() / 2]).unwrap();
        let err = compare_files(&good, &torn).unwrap_err();
        assert!(err.contains("torn.json"), "{err}");
        assert!(err.starts_with("current report"), "{err}");

        // Garbage bytes that are not JSON at all.
        let garbage = dir.join("garbage.json");
        std::fs::write(&garbage, b"\x00\xffnot json at all").unwrap();
        let err = compare_files(&garbage, &good).unwrap_err();
        assert!(err.contains("garbage.json"), "{err}");

        // A nesting bomb must be rejected by the depth cap, not overflow
        // the stack.
        let bomb = dir.join("bomb.json");
        std::fs::write(&bomb, "[".repeat(200_000)).unwrap();
        let err = compare_files(&good, &bomb).unwrap_err();
        assert!(err.contains("bomb.json"), "{err}");
        assert!(err.contains("nesting"), "{err}");

        // Valid JSON of the wrong schema names both schemas.
        let wrong = dir.join("wrong.json");
        std::fs::write(&wrong, "{\"schema\":\"koc-timeline/1\"}").unwrap();
        let err = compare_files(&good, &wrong).unwrap_err();
        assert!(err.contains("schema mismatch"), "{err}");
        assert!(err.contains(SCHEMA), "{err}");

        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn empty_and_schemaless_report_texts_are_structural_errors() {
        let good = tiny_report().to_json();
        for (label, bad) in [
            ("empty", ""),
            ("whitespace", "  \n "),
            ("schemaless object", "{\"results\":[]}"),
            ("non-object", "[1,2,3]"),
            ("truncated", "{\"schema\":\"koc-bench-harness/1\",\"res"),
        ] {
            let err = compare(&good, bad).unwrap_err();
            assert!(err.starts_with("current:"), "{label}: {err}");
            let err = compare(bad, &good).unwrap_err();
            assert!(err.starts_with("baseline:"), "{label}: {err}");
        }
    }
}
