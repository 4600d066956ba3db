//! `koc-lint` — static analysis gate for the koc workspace.
//!
//! ```text
//! koc-lint [--root DIR] [--config PATH] [--out PATH] [--list-waivers]
//!          [--quiet]
//! ```
//!
//! Scans the workspace, checks the determinism, panic, unsafe-policy and
//! stats-coverage rules, prints human-readable findings, optionally writes
//! the machine-readable JSON report (`--out`), and exits nonzero when any
//! unsuppressed finding remains. `--list-waivers` enumerates every
//! `// koc-lint: allow(...)` marker in the tree with its justification.

#![forbid(unsafe_code)]

use serde::Serialize;
use std::path::PathBuf;
use std::process::ExitCode;

fn usage() -> &'static str {
    "usage: koc-lint [--root DIR] [--config PATH] [--out PATH] \
     [--list-waivers] [--quiet]\n\
     \n\
     --root DIR       workspace root to scan (default: current directory)\n\
     --config PATH    lint config (default: <root>/lint.toml)\n\
     --out PATH       also write the JSON findings report here\n\
     --list-waivers   list every allow marker with its reason, then exit\n\
     --quiet          print only the summary line"
}

fn main() -> ExitCode {
    let mut root = PathBuf::from(".");
    let mut config_path: Option<PathBuf> = None;
    let mut out_path: Option<PathBuf> = None;
    let mut list_waivers = false;
    let mut quiet = false;

    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--root" => match args.next() {
                Some(v) => root = PathBuf::from(v),
                None => return fail("--root needs a value"),
            },
            "--config" => match args.next() {
                Some(v) => config_path = Some(PathBuf::from(v)),
                None => return fail("--config needs a value"),
            },
            "--out" => match args.next() {
                Some(v) => out_path = Some(PathBuf::from(v)),
                None => return fail("--out needs a value"),
            },
            "--list-waivers" => list_waivers = true,
            "--quiet" => quiet = true,
            "--help" | "-h" => {
                println!("{}", usage());
                return ExitCode::SUCCESS;
            }
            other => return fail(&format!("unknown argument '{other}'")),
        }
    }

    let config_path = config_path.unwrap_or_else(|| root.join("lint.toml"));
    let config = match koc_lint::Config::load(&config_path) {
        Ok(c) => c,
        Err(e) => return fail(&e),
    };
    let started = std::time::Instant::now();
    let analysis = match koc_lint::analyze(&root, &config) {
        Ok(a) => a,
        Err(e) => return fail(&e),
    };
    let total_seconds = started.elapsed().as_secs_f64();
    let report = &analysis.report;

    if list_waivers {
        for w in &analysis.waivers {
            println!(
                "{}:{}: allow({}) — {}{}",
                w.file,
                w.line,
                w.rule,
                w.reason,
                if w.live { "" } else { "  [STALE]" }
            );
        }
        let stale = analysis.waivers.iter().filter(|w| !w.live).count();
        println!(
            "koc-lint: {} waivers ({} live, {} stale)",
            analysis.waivers.len(),
            analysis.waivers.len() - stale,
            stale
        );
        return ExitCode::SUCCESS;
    }

    if let Some(out) = &out_path {
        if let Err(e) = std::fs::write(out, report.to_json()) {
            return fail(&format!("cannot write {}: {e}", out.display()));
        }
    }

    if !quiet {
        for f in &report.findings {
            println!(
                "{}[{}] {}:{}: {}",
                f.severity, f.rule, f.file, f.line, f.message
            );
        }
    }
    println!(
        "koc-lint: {} files, {} errors, {} warnings, {} suppressed — {} \
         ({:.2}s)",
        report.files_scanned,
        report.errors,
        report.warnings,
        report.suppressed,
        if report.passed() { "clean" } else { "FAILED" },
        total_seconds,
    );
    if report.passed() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn fail(msg: &str) -> ExitCode {
    eprintln!("koc-lint: {msg}");
    eprintln!("{}", usage());
    ExitCode::from(2)
}
