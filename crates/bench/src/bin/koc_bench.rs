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
use koc_sim::{Processor, ProcessorConfig};
use koc_workloads::WorkloadSpec;
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
    let mut source = harness::Source::Materialized;
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
                    Some("streamed") => harness::Source::Streamed,
                    Some("materialized") => harness::Source::Materialized,
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

/// The options `stats`, `trace` and `timeline` share: which canonical run
/// to simulate and where its output goes.
struct RunArgs {
    workload: Option<String>,
    engine: String,
    trace_len: usize,
    out: Option<PathBuf>,
}

/// A subcommand's answer for one of its command-line arguments.
enum Own {
    /// One of its own options, consuming this many arguments.
    Took(usize),
    /// One of its own options with a missing or bad value.
    Bad(&'static str),
    /// Not its own: one of the shared run options, or unknown.
    Shared,
    /// An option the subcommand refuses, even a shared one.
    Unknown,
}

impl RunArgs {
    /// Parses `cmd`'s arguments and resolves the run they select against
    /// the canonical suite and machines. `own` sees each option first; the
    /// shared `--workload`, `--engine`, `--len` and `--out` are taken here.
    /// Prints the problem and fails on a bad value, an unknown option or an
    /// unknown workload or engine.
    fn parse(
        cmd: &str,
        args: &[String],
        trace_len: usize,
        mut own: impl FnMut(&mut Self, &str, Option<&String>) -> Own,
    ) -> Result<(Self, WorkloadSpec, ProcessorConfig), ExitCode> {
        let mut run = RunArgs {
            workload: None,
            engine: "cooo".to_string(),
            trace_len,
            out: None,
        };
        let mut i = 0;
        while i < args.len() {
            let (flag, value) = (args[i].as_str(), args.get(i + 1));
            let answer = match own(&mut run, flag, value) {
                Own::Shared => run.shared(flag, value),
                answer => answer,
            };
            match answer {
                Own::Took(n) => i += n,
                Own::Bad(message) => {
                    eprintln!("{message}");
                    return Err(ExitCode::FAILURE);
                }
                Own::Shared | Own::Unknown => {
                    eprintln!("unknown {cmd} option '{flag}'");
                    print_usage();
                    return Err(ExitCode::FAILURE);
                }
            }
        }
        match harness::resolve(run.workload.as_deref(), &run.engine, run.trace_len) {
            Ok((spec, config)) => Ok((run, spec, config)),
            Err(e) => {
                eprintln!("{e}");
                Err(ExitCode::FAILURE)
            }
        }
    }

    fn shared(&mut self, flag: &str, value: Option<&String>) -> Own {
        match (flag, value) {
            ("--workload", Some(name)) => self.workload = Some(name.clone()),
            ("--workload", None) => {
                return Own::Bad("--workload requires a name (see harness --list)")
            }
            ("--engine", Some(name)) => self.engine = name.clone(),
            ("--engine", None) => return Own::Bad("--engine requires 'baseline' or 'cooo'"),
            ("--len", _) => match value.and_then(|v| v.parse().ok()) {
                Some(n) => self.trace_len = n,
                None => return Own::Bad("--len requires an instruction count"),
            },
            ("--out", Some(path)) => self.out = Some(PathBuf::from(path)),
            ("--out", None) => return Own::Bad("--out requires a path"),
            _ => return Own::Unknown,
        }
        Own::Took(2)
    }
}

/// `koc-bench stats`: run one (workload, engine) pair and print the full
/// per-run statistics table — every public `SimStats` counter, one row
/// each (see `report::stats_table`) — and the `WindowStats` distributions.
fn run_stats(args: &[String]) -> ExitCode {
    // The run is sized by --quick/--full, and the tables only print.
    let parsed = RunArgs::parse("stats", args, harness::QUICK_TRACE_LEN, |run, flag, _| {
        match flag {
            "--quick" => run.trace_len = harness::QUICK_TRACE_LEN,
            "--full" => run.trace_len = harness::FULL_TRACE_LEN,
            "--len" | "--out" => return Own::Unknown,
            _ => return Own::Shared,
        }
        Own::Took(1)
    });
    let (run, spec, config) = match parsed {
        Ok(parsed) => parsed,
        Err(code) => return code,
    };
    let w = spec.materialize();
    let (stats, window) =
        Processor::with_observer(config, &w.trace, koc_sim::WindowStats::new()).run_observed();
    let title = format!("Run statistics — {} / {}", spec.name(), run.engine);
    println!("{}", koc_bench::report::stats_table(title, &stats));
    let title = format!("Window distributions — {} / {}", spec.name(), run.engine);
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
    let mut kanata = false;
    let parsed = RunArgs::parse("trace", args, 2_000, |_, flag, value| match flag {
        "--format" => match value.map(String::as_str) {
            Some(format @ ("ptrace" | "kanata")) => {
                kanata = format == "kanata";
                Own::Took(2)
            }
            _ => Own::Bad("--format requires 'ptrace' or 'kanata'"),
        },
        _ => Own::Shared,
    });
    let (run, spec, config) = match parsed {
        Ok(parsed) => parsed,
        Err(code) => return code,
    };
    let w = spec.materialize();
    let (stats, tracer) =
        Processor::with_observer(config, &w.trace, PipelineTracer::new()).run_observed();
    eprintln!(
        "traced {} / {}: {} events over {} cycles",
        spec.name(),
        run.engine,
        tracer.len(),
        stats.cycles
    );
    let text = if kanata {
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
    emit(run.out, &text)
}

/// The `--interval` value of `timeline`: a cycle count of at least 1.
fn interval_option(value: Option<&String>, interval: &mut u64) -> Own {
    match value.and_then(|v| v.parse().ok()) {
        Some(0) => Own::Bad("--interval must be at least 1 cycle"),
        Some(n) => {
            *interval = n;
            Own::Took(2)
        }
        None => Own::Bad("--interval requires a cycle count"),
    }
}

/// `koc-bench timeline`: run one (workload, engine) pair with the interval
/// time-series recorder and the top-down cycle-accounting observer attached.
/// Prints both tables, emits the `koc-timeline/1` JSON, and hard-checks the
/// accounting invariant (bucket sum == total cycles) before exiting.
fn run_timeline(args: &[String]) -> ExitCode {
    let mut interval = 256u64;
    let parsed = RunArgs::parse(
        "timeline",
        args,
        harness::QUICK_TRACE_LEN,
        |_, flag, value| match flag {
            "--interval" => interval_option(value, &mut interval),
            _ => Own::Shared,
        },
    );
    let (run, spec, config) = match parsed {
        Ok(parsed) => parsed,
        Err(code) => return code,
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
    let title = format!("{} / {}", spec.name(), run.engine);
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
    emit(run.out, &json)
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

#[cfg(test)]
mod tests {
    use super::*;

    fn args(words: &[&str]) -> Vec<String> {
        words.iter().map(|w| w.to_string()).collect()
    }

    #[test]
    fn shared_run_options_parse_into_one_selection() {
        let words = args(&["--workload", "gather", "--engine", "baseline"]);
        let (run, spec, _) = RunArgs::parse("trace", &words, 2_000, |_, _, _| Own::Shared).unwrap();
        assert_eq!((spec.name(), run.engine.as_str()), ("gather", "baseline"));
        assert_eq!((run.trace_len, run.out), (2_000, None));
        let words = args(&["--len", "99", "--out", "t.json"]);
        let (run, spec, _) = RunArgs::parse("trace", &words, 2_000, |_, _, _| Own::Shared).unwrap();
        assert_eq!((spec.name(), run.engine.as_str()), ("stream_add", "cooo"));
        assert_eq!(
            (run.trace_len, run.out),
            (99, Some(PathBuf::from("t.json")))
        );
        for bad in [
            &["--len", "x"][..],
            &["--engine"],
            &["--bogus"],
            &["--engine", "vliw"],
        ] {
            let parsed = RunArgs::parse("trace", &args(bad), 2_000, |_, _, _| Own::Shared);
            assert!(parsed.is_err(), "{bad:?}");
        }
    }

    #[test]
    fn a_zero_timeline_interval_is_rejected_naming_the_flag() {
        let mut interval = 256;
        let zero = interval_option(Some(&"0".to_string()), &mut interval);
        assert!(matches!(zero, Own::Bad(m) if m.starts_with("--interval")));
        assert_eq!(interval, 256);
        assert!(matches!(
            interval_option(Some(&"1".to_string()), &mut interval),
            Own::Took(2)
        ));
        assert_eq!(interval, 1);
        assert_eq!(run_timeline(&args(&["--interval", "0"])), ExitCode::FAILURE);
    }
}
