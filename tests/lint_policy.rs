//! The lint policy reaches every crate. rustc and clippy enforce the rules
//! (README "Lints"), but only in a crate that opts in; this test fails when
//! a crate is added, or edited, without the opt-in:
//!
//! - every manifest (the root package and each `crates/*`) inherits the
//!   workspace lint table (`[lints] workspace = true`), which forbids
//!   `unsafe` and refuses a waiver that is not an `#[expect]` with a reason;
//! - every library crate root except koc-bench's (the CLI crate, exempt by
//!   design) denies `unwrap`, `expect` and `panic!` outside tests.

use std::fs;
use std::path::{Path, PathBuf};

const PANIC_DENY: &str = "#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]";

fn root() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
}

/// Every `crates/*` directory, sorted.
fn crate_dirs() -> Vec<PathBuf> {
    let mut dirs: Vec<PathBuf> = fs::read_dir(root().join("crates"))
        .expect("crates/ is readable")
        .map(|e| e.expect("directory entry").path())
        .filter(|p| p.join("Cargo.toml").is_file())
        .collect();
    dirs.sort();
    dirs
}

/// The `key = value` lines of the TOML table `header`, or `None` if the
/// manifest has no such table.
fn table_lines<'a>(manifest: &'a str, header: &str) -> Option<Vec<&'a str>> {
    let mut lines = manifest.lines().map(str::trim);
    lines.by_ref().find(|l| *l == header)?;
    Some(
        lines
            .take_while(|l| !l.starts_with('['))
            .filter(|l| !l.is_empty() && !l.starts_with('#'))
            .collect(),
    )
}

fn inherits_workspace_lints(manifest: &str) -> bool {
    table_lines(manifest, "[lints]").is_some_and(|t| t.contains(&"workspace = true"))
}

#[test]
fn the_workspace_lint_table_forbids_unsafe_and_bare_allows() {
    let manifest = fs::read_to_string(root().join("Cargo.toml")).expect("root Cargo.toml");
    let rust = table_lines(&manifest, "[workspace.lints.rust]").expect("[workspace.lints.rust]");
    assert!(rust.contains(&r#"unsafe_code = "forbid""#), "{rust:?}");
    let clippy =
        table_lines(&manifest, "[workspace.lints.clippy]").expect("[workspace.lints.clippy]");
    for rule in [
        r#"allow_attributes = "deny""#,
        r#"allow_attributes_without_reason = "deny""#,
    ] {
        assert!(clippy.contains(&rule), "missing {rule}: {clippy:?}");
    }
}

#[test]
fn every_manifest_inherits_the_workspace_lints() {
    let mut manifests = vec![root().join("Cargo.toml")];
    manifests.extend(crate_dirs().iter().map(|d| d.join("Cargo.toml")));
    assert!(manifests.len() > 1, "no crates found under crates/");
    let missing: Vec<_> = manifests
        .iter()
        .filter(|m| !inherits_workspace_lints(&fs::read_to_string(m).expect("manifest")))
        .collect();
    assert!(
        missing.is_empty(),
        "manifests without `[lints] workspace = true`: {missing:?}"
    );
}

#[test]
fn every_library_root_but_koc_bench_denies_panics() {
    let mut checked = 0;
    let mut missing = Vec::new();
    for dir in crate_dirs() {
        let lib = dir.join("src/lib.rs");
        if dir.ends_with("bench") || !lib.is_file() {
            continue;
        }
        let source = fs::read_to_string(&lib).expect("lib.rs");
        if !source.lines().any(|l| l.trim() == PANIC_DENY) {
            missing.push(lib);
        }
        checked += 1;
    }
    assert!(checked >= 6, "only {checked} library roots found");
    assert!(
        missing.is_empty(),
        "crate roots without `{PANIC_DENY}`: {missing:?}"
    );
}
