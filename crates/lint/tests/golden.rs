//! Golden test: lint the fixture tree under `tests/fixtures/` and compare
//! the full JSON report against `tests/fixtures/golden.json`.
//!
//! The fixture tree holds one deliberate violation (and one deliberate
//! non-violation) per rule behaviour: hash-map point use vs iteration,
//! wall-clock and `rand` bans, unjustified panics with a `#[cfg(test)]`
//! exemption, a crate root missing `#![forbid(unsafe_code)]`, an uncovered
//! stats field, and malformed / stale suppression markers. Regenerate the
//! golden after an intentional rule change with:
//!
//! ```text
//! cargo run -p koc-lint -- --root crates/lint/tests/fixtures \
//!     --config crates/lint/tests/fixtures/lint.toml \
//!     --out crates/lint/tests/fixtures/golden.json
//! ```

use std::path::Path;

use koc_lint::config::Config;
use koc_lint::lint_root;
use serde::Serialize;

fn fixture_root() -> std::path::PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures")
}

#[test]
fn fixture_tree_matches_golden_report() {
    let root = fixture_root();
    let config = Config::load(&root.join("lint.toml")).expect("fixture lint.toml parses");
    let report = lint_root(&root, &config).expect("fixture tree lints");

    let golden = std::fs::read_to_string(root.join("golden.json")).expect("golden.json readable");
    let actual = report.to_json();
    assert_eq!(
        actual.trim(),
        golden.trim(),
        "fixture findings drifted from golden.json — if the rule change is \
         intentional, regenerate it (see this test's module docs)"
    );
}

#[test]
fn fixture_tree_fails_and_counts_line_up() {
    let root = fixture_root();
    let config = Config::load(&root.join("lint.toml")).expect("fixture lint.toml parses");
    let report = lint_root(&root, &config).expect("fixture tree lints");

    assert!(!report.passed());
    assert_eq!(report.errors + report.warnings, report.findings.len());
    // Every rule (and the suppression meta-rule) appears at least once, so
    // the fixture keeps exercising the full rule set.
    for rule in [
        "determinism",
        "panic",
        "unsafe-policy",
        "stats-coverage",
        "suppression",
    ] {
        assert!(
            report.findings.iter().any(|f| f.rule == rule),
            "no fixture finding for rule {rule}"
        );
    }
    // The two well-formed live markers (maps.rs use-line HashMap warning,
    // panics.rs expect) both suppress something.
    assert_eq!(report.suppressed, 2);
}

#[test]
fn suppressions_are_line_and_rule_scoped() {
    let root = fixture_root();
    let config = Config::load(&root.join("lint.toml")).expect("fixture lint.toml parses");
    let report = lint_root(&root, &config).expect("fixture tree lints");

    // The suppressed sites must NOT appear among live findings …
    assert!(!report
        .findings
        .iter()
        .any(|f| f.file.ends_with("maps.rs") && f.rule == "determinism" && f.line == 4));
    assert!(!report
        .findings
        .iter()
        .any(|f| f.file.ends_with("panics.rs") && f.rule == "panic" && f.line == 18));
    // … while unsuppressed findings of the same rules elsewhere survive.
    assert!(report
        .findings
        .iter()
        .any(|f| f.file.ends_with("maps.rs") && f.rule == "determinism"));
    assert!(report
        .findings
        .iter()
        .any(|f| f.file.ends_with("panics.rs") && f.rule == "panic"));
}
