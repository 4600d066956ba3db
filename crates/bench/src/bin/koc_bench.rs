//! Command-line driver for the cycle-fingerprint harness and the
//! observability subcommands.
//!
//! ```text
//! koc-bench harness --quick --out fresh.json  # run, write the JSON report
//! koc-bench harness --full --out full.json
//! koc-bench harness --list                    # canonical workload names
//! koc-bench harness --source streamed --out s.json  # lazy O(window) ingestion
//! koc-bench stats --workload gather --engine cooo   # every SimStats counter
//! koc-bench trace --workload gather --format kanata   # pipeline event trace
//! koc-bench timeline --workload gather --interval 256  # interval time-series
//! koc-bench compare --baseline bench/baseline.json --current fresh.json
//! ```
//!
//! `harness` prints the human-readable table and writes the JSON report;
//! `compare` exits non-zero on any cycle or retired-count drift (CI's
//! cycle gate). Streamed and materialized harness runs must agree cycle
//! for cycle, so CI cross-compares one against the other. Host speed is
//! measured by `perfbench/`, not here.

use koc_bench::harness;
use koc_isa::json::{parse_json, Json};
use koc_obs::{timeline_json, CycleAccounting, PipelineTracer, TimelineRecorder};
use koc_sim::{Processor, SourceMode};
use serde::Serialize;
use std::path::PathBuf;
use std::process::ExitCode;

fn print_usage() {
    eprintln!("usage: koc-bench harness [--quick|--full] --out PATH [--list]");
    eprintln!("                         [--source streamed|materialized]");
    eprintln!("       koc-bench stats [--workload NAME] [--engine baseline|cooo] [--full]");
    eprintln!("       koc-bench trace [--workload NAME] [--engine baseline|cooo] [--len N]");
    eprintln!("                       [--format ptrace|kanata] [--out PATH]");
    eprintln!("       koc-bench timeline [--workload NAME] [--engine baseline|cooo] [--len N]");
    eprintln!("                          [--interval N] [--out PATH]");
    eprintln!("       koc-bench compare --baseline PATH --current PATH");
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("harness") => run_harness(&args[1..]),
        Some("stats") => run_stats(&args[1..]),
        Some("trace") => run_trace(&args[1..]),
        Some("timeline") => run_timeline(&args[1..]),
        Some("compare") => run_compare(&args[1..]),
        Some("--help") | Some("-h") => {
            print_usage();
            ExitCode::SUCCESS
        }
        _ => {
            print_usage();
            ExitCode::FAILURE
        }
    }
}

fn run_harness(args: &[String]) -> ExitCode {
    let mut quick = true;
    let mut source = SourceMode::Materialized;
    let mut out: Option<PathBuf> = None;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--quick" => {
                quick = true;
                i += 1;
            }
            "--full" => {
                quick = false;
                i += 1;
            }
            "--list" => {
                for name in harness::workload_names() {
                    println!("{name}");
                }
                return ExitCode::SUCCESS;
            }
            "--source" => {
                source = match args.get(i + 1).map(String::as_str) {
                    Some("streamed") => SourceMode::Streamed,
                    Some("materialized") => SourceMode::Materialized,
                    other => {
                        eprintln!("--source requires 'streamed' or 'materialized', got {other:?}");
                        return ExitCode::FAILURE;
                    }
                };
                i += 2;
            }
            "--out" => {
                let Some(path) = args.get(i + 1) else {
                    eprintln!("--out requires a path");
                    return ExitCode::FAILURE;
                };
                out = Some(PathBuf::from(path));
                i += 2;
            }
            other => {
                eprintln!("unknown harness option '{other}'");
                print_usage();
                return ExitCode::FAILURE;
            }
        }
    }
    let Some(path) = out else {
        eprintln!("harness requires --out PATH");
        return ExitCode::FAILURE;
    };
    let report = harness::run(quick, source);
    println!("{}", report.to_table());
    if let Err(e) = std::fs::write(&path, report.to_json()) {
        eprintln!("failed to write {}: {e}", path.display());
        return ExitCode::FAILURE;
    }
    println!("wrote {}", path.display());
    ExitCode::SUCCESS
}

/// `koc-bench stats`: run one (workload, engine) pair and print the full
/// per-run statistics table — every public `SimStats` counter, one row
/// each (see `report::stats_table`) — and the `WindowStats` distributions.
fn run_stats(args: &[String]) -> ExitCode {
    let mut workload: Option<String> = None;
    let mut engine_name = "cooo".to_string();
    let mut quick = true;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--workload" => {
                let Some(name) = args.get(i + 1) else {
                    eprintln!("--workload requires a name (see harness --list)");
                    return ExitCode::FAILURE;
                };
                workload = Some(name.clone());
                i += 2;
            }
            "--engine" => {
                let Some(name) = args.get(i + 1) else {
                    eprintln!("--engine requires 'baseline' or 'cooo'");
                    return ExitCode::FAILURE;
                };
                engine_name = name.clone();
                i += 2;
            }
            "--quick" => {
                quick = true;
                i += 1;
            }
            "--full" => {
                quick = false;
                i += 1;
            }
            other => {
                eprintln!("unknown stats option '{other}'");
                print_usage();
                return ExitCode::FAILURE;
            }
        }
    }
    let trace_len = if quick {
        harness::QUICK_TRACE_LEN
    } else {
        harness::FULL_TRACE_LEN
    };
    let (spec, config) = match harness::resolve(workload.as_deref(), &engine_name, trace_len) {
        Ok(run) => run,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::FAILURE;
        }
    };
    let w = spec.materialize();
    let (stats, window) =
        koc_sim::Processor::with_observer(config, &w.trace, koc_sim::WindowStats::new())
            .run_observed();
    let title = format!("Run statistics — {} / {engine_name}", spec.name());
    println!("{}", koc_bench::report::stats_table(title, &stats));
    let title = format!("Window distributions — {} / {engine_name}", spec.name());
    println!("{}", koc_bench::report::window_table(title, &window));
    ExitCode::SUCCESS
}

/// Writes `text` to `out` if given, otherwise prints it.
fn emit(out: Option<PathBuf>, text: &str) -> ExitCode {
    match out {
        Some(path) => {
            if let Err(e) = std::fs::write(&path, text) {
                eprintln!("failed to write {}: {e}", path.display());
                return ExitCode::FAILURE;
            }
            println!("wrote {}", path.display());
            ExitCode::SUCCESS
        }
        None => {
            println!("{text}");
            ExitCode::SUCCESS
        }
    }
}

/// `koc-bench trace`: run one (workload, engine) pair with the pipeline
/// event tracer attached and emit the stream as `koc-ptrace/1` JSON or
/// Kanata/Konata text. Attaching the tracer never perturbs simulated time.
fn run_trace(args: &[String]) -> ExitCode {
    let mut workload: Option<String> = None;
    let mut engine_name = "cooo".to_string();
    let mut trace_len = 2_000usize;
    let mut format = "ptrace".to_string();
    let mut out: Option<PathBuf> = None;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--workload" => {
                let Some(name) = args.get(i + 1) else {
                    eprintln!("--workload requires a name (see harness --list)");
                    return ExitCode::FAILURE;
                };
                workload = Some(name.clone());
                i += 2;
            }
            "--engine" => {
                let Some(name) = args.get(i + 1) else {
                    eprintln!("--engine requires 'baseline' or 'cooo'");
                    return ExitCode::FAILURE;
                };
                engine_name = name.clone();
                i += 2;
            }
            "--len" => {
                let Some(n) = args.get(i + 1).and_then(|v| v.parse().ok()) else {
                    eprintln!("--len requires an instruction count");
                    return ExitCode::FAILURE;
                };
                trace_len = n;
                i += 2;
            }
            "--format" => {
                let Some(f) = args.get(i + 1).filter(|f| *f == "ptrace" || *f == "kanata") else {
                    eprintln!("--format requires 'ptrace' or 'kanata'");
                    return ExitCode::FAILURE;
                };
                format = f.clone();
                i += 2;
            }
            "--out" => {
                let Some(path) = args.get(i + 1) else {
                    eprintln!("--out requires a path");
                    return ExitCode::FAILURE;
                };
                out = Some(PathBuf::from(path));
                i += 2;
            }
            other => {
                eprintln!("unknown trace option '{other}'");
                print_usage();
                return ExitCode::FAILURE;
            }
        }
    }
    let (spec, config) = match harness::resolve(workload.as_deref(), &engine_name, trace_len) {
        Ok(run) => run,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::FAILURE;
        }
    };
    let w = spec.materialize();
    let (stats, tracer) =
        Processor::with_observer(config, &w.trace, PipelineTracer::new()).run_observed();
    eprintln!(
        "traced {} / {engine_name}: {} events over {} cycles",
        spec.name(),
        tracer.len(),
        stats.cycles
    );
    let text = if format == "kanata" {
        tracer.to_kanata()
    } else {
        let json = tracer.to_ptrace_json();
        // Self-validation: the emitted document must round-trip through the
        // workspace JSON parser before anything downstream consumes it.
        if let Err(e) = parse_json(&json) {
            eprintln!("internal error: emitted koc-ptrace JSON does not parse: {e}");
            return ExitCode::FAILURE;
        }
        json
    };
    emit(out, &text)
}

/// `koc-bench timeline`: run one (workload, engine) pair with the interval
/// time-series recorder and the top-down cycle-accounting observer attached.
/// Prints both tables, emits the `koc-timeline/1` JSON, and hard-checks the
/// accounting invariant (bucket sum == total cycles) before exiting.
fn run_timeline(args: &[String]) -> ExitCode {
    let mut workload: Option<String> = None;
    let mut engine_name = "cooo".to_string();
    let mut trace_len = harness::QUICK_TRACE_LEN;
    let mut interval = 256u64;
    let mut out: Option<PathBuf> = None;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--workload" => {
                let Some(name) = args.get(i + 1) else {
                    eprintln!("--workload requires a name (see harness --list)");
                    return ExitCode::FAILURE;
                };
                workload = Some(name.clone());
                i += 2;
            }
            "--engine" => {
                let Some(name) = args.get(i + 1) else {
                    eprintln!("--engine requires 'baseline' or 'cooo'");
                    return ExitCode::FAILURE;
                };
                engine_name = name.clone();
                i += 2;
            }
            "--len" => {
                let Some(n) = args.get(i + 1).and_then(|v| v.parse().ok()) else {
                    eprintln!("--len requires an instruction count");
                    return ExitCode::FAILURE;
                };
                trace_len = n;
                i += 2;
            }
            "--interval" => {
                let Some(n) = args.get(i + 1).and_then(|v| v.parse().ok()) else {
                    eprintln!("--interval requires a cycle count");
                    return ExitCode::FAILURE;
                };
                interval = n;
                i += 2;
            }
            "--out" => {
                let Some(path) = args.get(i + 1) else {
                    eprintln!("--out requires a path");
                    return ExitCode::FAILURE;
                };
                out = Some(PathBuf::from(path));
                i += 2;
            }
            other => {
                eprintln!("unknown timeline option '{other}'");
                print_usage();
                return ExitCode::FAILURE;
            }
        }
    }
    let (spec, config) = match harness::resolve(workload.as_deref(), &engine_name, trace_len) {
        Ok(run) => run,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::FAILURE;
        }
    };
    let w = spec.materialize();
    let obs = (TimelineRecorder::new(interval), CycleAccounting::new());
    let (stats, (timeline, accounting)) =
        Processor::with_observer(config, &w.trace, obs).run_observed();
    let buckets = accounting.into_buckets();
    // The accounting invariant is hard: every cycle lands in exactly one
    // bucket, so the sum must equal the run's cycle count.
    if buckets.total() != stats.cycles {
        eprintln!(
            "internal error: cycle-accounting buckets sum to {} but the run took {} cycles",
            buckets.total(),
            stats.cycles
        );
        return ExitCode::FAILURE;
    }
    let title = format!("{} / {engine_name}", spec.name());
    println!(
        "{}",
        koc_bench::report::accounting_table(format!("Cycle accounting — {title}"), &buckets)
    );
    let records = timeline.into_records();
    println!(
        "{}",
        koc_bench::report::timeline_table(
            format!("Timeline — {title} (interval {interval})"),
            &records
        )
    );
    let json = timeline_json(interval, &records);
    // Self-validation: the emitted document must parse and carry the
    // interval structure it claims.
    match parse_json(&json) {
        Ok(doc) => {
            let records_len = match doc.get("records") {
                Some(Json::Arr(items)) => items.len(),
                _ => {
                    eprintln!("internal error: koc-timeline JSON has no records array");
                    return ExitCode::FAILURE;
                }
            };
            if records_len != records.len() {
                eprintln!("internal error: koc-timeline JSON dropped records");
                return ExitCode::FAILURE;
            }
        }
        Err(e) => {
            eprintln!("internal error: emitted koc-timeline JSON does not parse: {e}");
            return ExitCode::FAILURE;
        }
    }
    emit(out, &json)
}

fn run_compare(args: &[String]) -> ExitCode {
    let mut baseline: Option<PathBuf> = None;
    let mut current: Option<PathBuf> = None;
    let mut i = 0;
    while i < args.len() {
        let take_value = |i: usize| -> Option<&String> { args.get(i + 1) };
        match args[i].as_str() {
            "--baseline" => {
                let Some(v) = take_value(i) else {
                    eprintln!("--baseline requires a path");
                    return ExitCode::FAILURE;
                };
                baseline = Some(PathBuf::from(v));
                i += 2;
            }
            "--current" => {
                let Some(v) = take_value(i) else {
                    eprintln!("--current requires a path");
                    return ExitCode::FAILURE;
                };
                current = Some(PathBuf::from(v));
                i += 2;
            }
            other => {
                eprintln!("unknown compare option '{other}'");
                print_usage();
                return ExitCode::FAILURE;
            }
        }
    }
    let (Some(baseline), Some(current)) = (baseline, current) else {
        eprintln!("compare requires --baseline and --current");
        return ExitCode::FAILURE;
    };
    // compare_files owns the whole missing/truncated/corrupt-file surface:
    // every structural problem exits non-zero with the file path and the
    // reason, and drift verdicts are only ever computed from two
    // well-formed reports.
    match harness::compare_files(&baseline, &current) {
        Ok(outcome) => {
            for note in &outcome.notes {
                println!("note: {note}");
            }
            if outcome.passed() {
                println!("compare: OK ({} entries checked)", outcome.checked);
                ExitCode::SUCCESS
            } else {
                for failure in &outcome.failures {
                    eprintln!("FAIL: {failure}");
                }
                eprintln!(
                    "compare: {} failure(s) vs {}",
                    outcome.failures.len(),
                    baseline.display()
                );
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("compare: {e}");
            ExitCode::FAILURE
        }
    }
}
