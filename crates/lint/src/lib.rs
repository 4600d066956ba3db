//! `koc-lint`: repo-native static analysis for the koc workspace.
//!
//! The simulator's correctness claims rest on properties `rustc` does not
//! check: cycle counts must be bit-exact across runs (so no hash-order
//! iteration, no wall-clock, no unseeded randomness in the simulation
//! crates), library code must not panic without a written justification,
//! no crate may contain `unsafe`, and every public stat must reach the
//! bench report. This crate turns each of those conventions into a named,
//! machine-checked rule over a hand-rolled Rust lexer — in the same
//! no-external-dependencies style as `koc_isa::json` — so CI fails when a
//! change violates one, instead of a human noticing in review (or a
//! nondeterministic benchmark noticing much later). Each rule is scoped to
//! the crates `lint.toml` names.
//!
//! "Steady-state simulation does not allocate" is not a lint rule: a
//! token pattern misses every spelling it does not list (a turbofish,
//! `.to_string()`) and every allocation behind a trait method or in
//! another crate. `tests/alloc_gate.rs` measures it instead, with a
//! counting global allocator over the whole simulator.
//!
//! Rules are suppressible per line with
//! `// koc-lint: allow(<rule>, "reason")`; the reason is mandatory, and a
//! marker that suppresses nothing is itself reported, so the set of waivers
//! in the tree stays live and auditable. Findings are emitted both
//! human-readable and as machine-readable JSON (the `koc-lint/1` schema)
//! for CI artifacts.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod config;
pub mod lex;
pub mod rules;
pub mod scan;

pub use config::Config;
pub use rules::Finding;

use scan::FileScan;
use serde::Serialize;
use std::path::{Path, PathBuf};

/// The result of linting a tree: what `koc-lint` prints and serializes.
#[derive(Debug, Serialize)]
pub struct LintReport {
    /// Report format identifier.
    pub schema: String,
    /// Number of `.rs` files scanned.
    pub files_scanned: usize,
    /// Findings an `allow` marker silenced (they do not gate).
    pub suppressed: usize,
    /// Unsuppressed findings with severity `error`.
    pub errors: usize,
    /// Unsuppressed findings with severity `warning`.
    pub warnings: usize,
    /// The unsuppressed findings, sorted by file, line, rule.
    pub findings: Vec<Finding>,
}

impl LintReport {
    /// Whether the tree is clean: any unsuppressed finding fails the run,
    /// warnings included (severity is diagnostic detail, not a gate tier).
    pub fn passed(&self) -> bool {
        self.findings.is_empty()
    }
}

/// One `// koc-lint: allow(...)` marker found in the tree, with its
/// liveness after the run — what `koc-lint --list-waivers` enumerates.
#[derive(Debug, Clone, Serialize)]
pub struct Waiver {
    /// Workspace-relative file holding the marker.
    pub file: String,
    /// 1-based line of the marker comment.
    pub line: u32,
    /// The rule it suppresses.
    pub rule: String,
    /// The written justification.
    pub reason: String,
    /// Whether the marker suppressed at least one finding this run
    /// (`false` means the waiver is stale and is itself reported).
    pub live: bool,
}

/// Everything one lint run produces: the gating report and the waiver
/// inventory.
#[derive(Debug)]
pub struct Analysis {
    /// The findings report (the `koc-lint/1` document).
    pub report: LintReport,
    /// Every suppression marker in the tree, live or stale.
    pub waivers: Vec<Waiver>,
}

/// Lints the workspace at `root` under `config`: scan, run every rule,
/// apply suppressions.
///
/// # Errors
/// Returns a message when a configured scan root cannot be read. Rule
/// violations are *not* errors — they come back inside the report.
pub fn analyze(root: &Path, config: &Config) -> Result<Analysis, String> {
    let mut files = Vec::new();
    for scan_root in &config.roots {
        collect_rs_files(&root.join(scan_root), &mut files)?;
    }
    // Deterministic order regardless of directory enumeration order.
    files.sort();

    let mut scans = Vec::new();
    for path in &files {
        let rel = path
            .strip_prefix(root)
            .unwrap_or(path)
            .to_string_lossy()
            .replace('\\', "/");
        if config.exclude.iter().any(|e| rel.starts_with(e.as_str())) {
            continue;
        }
        let source = std::fs::read_to_string(path)
            .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
        scans.push(FileScan::new(rel, &source));
    }

    let mut findings = Vec::new();
    for scan in &scans {
        rules::check_file(scan, config, &mut findings);
        for (line, message) in &scan.bad_markers {
            findings.push(Finding {
                rule: "suppression".to_string(),
                severity: "error".to_string(),
                file: scan.path.clone(),
                line: *line,
                message: message.clone(),
            });
        }
    }
    rules::check_crate_roots(&scans, config, &mut findings);
    rules::check_stats_coverage(&scans, config, &mut findings);

    let (report, waivers) = apply_suppressions(scans, findings);
    Ok(Analysis { report, waivers })
}

/// Lints the workspace and returns just the findings report. See
/// [`analyze`] for the waiver inventory too.
///
/// # Errors
/// Returns a message when a configured scan root cannot be read.
pub fn lint_root(root: &Path, config: &Config) -> Result<LintReport, String> {
    analyze(root, config).map(|a| a.report)
}

/// Splits raw findings into suppressed and live, reports unused markers so
/// stale waivers cannot linger, and inventories every marker seen.
fn apply_suppressions(scans: Vec<FileScan>, raw: Vec<Finding>) -> (LintReport, Vec<Waiver>) {
    let mut suppressed = 0usize;
    let mut live: Vec<Finding> = Vec::new();
    // Marker usage is tracked per (file index, allow index).
    let mut used: Vec<Vec<bool>> = scans.iter().map(|s| vec![false; s.allows.len()]).collect();

    for finding in raw {
        // Malformed-marker findings are themselves unsuppressable.
        let covering = (finding.rule != "suppression")
            .then(|| {
                scans.iter().enumerate().find_map(|(si, s)| {
                    if s.path != finding.file {
                        return None;
                    }
                    s.allows
                        .iter()
                        .position(|a| {
                            a.rule == finding.rule
                                && (a.target_line == finding.line || a.line == finding.line)
                        })
                        .map(|ai| (si, ai))
                })
            })
            .flatten();
        match covering {
            Some((si, ai)) => {
                used[si][ai] = true;
                suppressed += 1;
            }
            None => live.push(finding),
        }
    }

    let mut waivers: Vec<Waiver> = Vec::new();
    for (si, scan) in scans.iter().enumerate() {
        for (ai, allow) in scan.allows.iter().enumerate() {
            waivers.push(Waiver {
                file: scan.path.clone(),
                line: allow.line,
                rule: allow.rule.clone(),
                reason: allow.reason.clone().unwrap_or_default(),
                live: used[si][ai],
            });
            if !used[si][ai] {
                // The marker names its own file:line so the finding stays
                // actionable even when tooling aggregates messages without
                // the surrounding file/line fields (or the file has moved
                // since the waiver was written).
                live.push(Finding {
                    rule: "suppression".to_string(),
                    severity: "warning".to_string(),
                    file: scan.path.clone(),
                    line: allow.line,
                    message: format!(
                        "allow({}) marker at {}:{} suppresses nothing — \
                         remove the stale waiver",
                        allow.rule, scan.path, allow.line
                    ),
                });
            }
        }
    }

    live.sort_by(|a, b| {
        (a.file.as_str(), a.line, a.rule.as_str()).cmp(&(b.file.as_str(), b.line, b.rule.as_str()))
    });
    let errors = live.iter().filter(|f| f.severity == "error").count();
    let warnings = live.len() - errors;
    let report = LintReport {
        schema: "koc-lint/1".to_string(),
        files_scanned: scans.len(),
        suppressed,
        errors,
        warnings,
        findings: live,
    };
    (report, waivers)
}

/// Recursively collects `.rs` files under `dir` (which must exist).
fn collect_rs_files(dir: &Path, out: &mut Vec<PathBuf>) -> Result<(), String> {
    let entries =
        std::fs::read_dir(dir).map_err(|e| format!("cannot read {}: {e}", dir.display()))?;
    for entry in entries {
        let entry = entry.map_err(|e| format!("cannot read {}: {e}", dir.display()))?;
        let path = entry.path();
        let ty = entry
            .file_type()
            .map_err(|e| format!("cannot stat {}: {e}", path.display()))?;
        if ty.is_dir() {
            // `target/` never holds source we own.
            if path.file_name().is_some_and(|n| n == "target") {
                continue;
            }
            collect_rs_files(&path, out)?;
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn suppression_silences_matching_rule_on_matching_line_only() {
        let scans = vec![FileScan::new(
            "crates/sim/src/x.rs".into(),
            "fn f(x: Option<u8>) -> u8 { x.unwrap() } // koc-lint: allow(panic, \"test invariant\")\nfn g(x: Option<u8>) -> u8 { x.unwrap() }\n",
        )];
        let raw = vec![
            Finding {
                rule: "panic".into(),
                severity: "error".into(),
                file: "crates/sim/src/x.rs".into(),
                line: 1,
                message: "m".into(),
            },
            Finding {
                rule: "panic".into(),
                severity: "error".into(),
                file: "crates/sim/src/x.rs".into(),
                line: 2,
                message: "m".into(),
            },
        ];
        let (report, waivers) = apply_suppressions(scans, raw);
        assert_eq!(report.suppressed, 1);
        assert_eq!(report.findings.len(), 1);
        assert_eq!(report.findings[0].line, 2);
        assert_eq!(waivers.len(), 1);
        assert!(waivers[0].live);
        assert_eq!(waivers[0].reason, "test invariant");
    }

    #[test]
    fn unused_markers_are_reported_with_their_location() {
        let scans = vec![FileScan::new(
            "crates/sim/src/x.rs".into(),
            "// koc-lint: allow(panic, \"nothing here panics\")\nfn f() {}\n",
        )];
        let (report, waivers) = apply_suppressions(scans, Vec::new());
        assert_eq!(report.findings.len(), 1);
        assert_eq!(report.findings[0].rule, "suppression");
        assert!(
            report.findings[0]
                .message
                .contains("at crates/sim/src/x.rs:1"),
            "{}",
            report.findings[0].message
        );
        assert!(!report.passed());
        assert_eq!(waivers.len(), 1);
        assert!(!waivers[0].live);
    }

    #[test]
    fn report_serializes_to_json() {
        let (report, _) = apply_suppressions(Vec::new(), Vec::new());
        let json = report.to_json();
        assert!(json.contains("\"schema\":\"koc-lint/1\""), "{json}");
        assert!(json.contains("\"findings\":[]"), "{json}");
    }
}
