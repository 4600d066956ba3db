//! Command-line driver for one run of the canonical quick suite with an
//! observer attached.
//!
//! ```text
//! koc-bench stats --workload gather --engine cooo   # every SimStats counter
//! koc-bench trace --workload gather --format kanata   # pipeline event trace
//! koc-bench timeline --workload gather --interval 256  # interval time-series
//! ```
//!
//! The quick suite's cycle counts are pinned by `cargo test`
//! (`tests/common/mod.rs`); host speed is measured by `perfbench/`, not
//! here.

use koc_bench::{harness, print};
use koc_isa::json::{parse_json, Json};
use koc_obs::{timeline_json, CycleAccounting, PipelineTracer, TimelineRecorder};
use koc_sim::{Processor, ProcessorConfig};
use koc_workloads::WorkloadSpec;
use std::path::PathBuf;
use std::process::ExitCode;

fn print_usage() {
    eprintln!("usage: koc-bench stats [--workload NAME] [--engine baseline|cooo] [--len N]");
    eprintln!("       koc-bench trace [--workload NAME] [--engine baseline|cooo] [--len N]");
    eprintln!("                       [--format ptrace|kanata] [--out PATH]");
    eprintln!("       koc-bench timeline [--workload NAME] [--engine baseline|cooo] [--len N]");
    eprintln!("                          [--interval N] [--out PATH]");
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let done = match args.first().map(String::as_str) {
        Some("stats") => run_stats(&args[1..]),
        Some("trace") => run_trace(&args[1..]),
        Some("timeline") => run_timeline(&args[1..]),
        Some("--help") | Some("-h") => {
            print_usage();
            return ExitCode::SUCCESS;
        }
        _ => {
            print_usage();
            return ExitCode::FAILURE;
        }
    };
    done.err().unwrap_or(ExitCode::SUCCESS)
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
    /// An option taken, with its value.
    Took,
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
        mut own: impl FnMut(&str, Option<&String>) -> Own,
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
            let answer = match own(flag, value) {
                Own::Shared => run.shared(flag, value),
                answer => answer,
            };
            match answer {
                Own::Took => i += 2,
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
            ("--workload", None) => return Own::Bad("--workload requires a name"),
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
        Own::Took
    }
}

/// The options of `stats`: the shared ones but `--out`, as its tables only
/// print.
fn stats_option(flag: &str, _: Option<&String>) -> Own {
    match flag {
        "--out" => Own::Unknown,
        _ => Own::Shared,
    }
}

/// `koc-bench stats`: run one (workload, engine) pair and print the full
/// per-run statistics table — every public `SimStats` counter, one row
/// each (see `report::stats_table`) — and the `WindowStats` distributions.
fn run_stats(args: &[String]) -> Result<(), ExitCode> {
    let (run, spec, config) =
        RunArgs::parse("stats", args, harness::QUICK_TRACE_LEN, stats_option)?;
    let w = spec.materialize();
    let (stats, window) =
        Processor::with_observer(config, &w.trace, koc_sim::WindowStats::new()).run_observed();
    let title = format!("Run statistics — {} / {}", spec.name(), run.engine);
    print(koc_bench::report::stats_table(title, &stats))?;
    let title = format!("Window distributions — {} / {}", spec.name(), run.engine);
    print(koc_bench::report::window_table(title, &window))
}

/// Prints `message` to stderr and fails.
fn fail(message: impl std::fmt::Display) -> Result<(), ExitCode> {
    eprintln!("{message}");
    Err(ExitCode::FAILURE)
}

/// Writes `text` to `out` if given, otherwise prints it.
fn emit(out: Option<PathBuf>, text: &str) -> Result<(), ExitCode> {
    match out {
        Some(path) => match std::fs::write(&path, text) {
            Ok(()) => print(format_args!("wrote {}", path.display())),
            Err(e) => fail(format_args!("failed to write {}: {e}", path.display())),
        },
        None => print(text),
    }
}

/// `koc-bench trace`: run one (workload, engine) pair with the pipeline
/// event tracer attached and emit the stream as `koc-ptrace/1` JSON or
/// Kanata/Konata text. Attaching the tracer never perturbs simulated time.
fn run_trace(args: &[String]) -> Result<(), ExitCode> {
    let mut kanata = false;
    let (run, spec, config) = RunArgs::parse("trace", args, 2_000, |flag, value| match flag {
        "--format" => match value.map(String::as_str) {
            Some(format @ ("ptrace" | "kanata")) => {
                kanata = format == "kanata";
                Own::Took
            }
            _ => Own::Bad("--format requires 'ptrace' or 'kanata'"),
        },
        _ => Own::Shared,
    })?;
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
            return fail(format_args!(
                "internal error: emitted koc-ptrace JSON does not parse: {e}"
            ));
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
            Own::Took
        }
        None => Own::Bad("--interval requires a cycle count"),
    }
}

/// `koc-bench timeline`: run one (workload, engine) pair with the interval
/// time-series recorder and the top-down cycle-accounting observer attached.
/// Prints both tables, emits the `koc-timeline/1` JSON, and hard-checks the
/// accounting invariant (bucket sum == total cycles) before exiting.
fn run_timeline(args: &[String]) -> Result<(), ExitCode> {
    let mut interval = 256u64;
    let (run, spec, config) = RunArgs::parse(
        "timeline",
        args,
        harness::QUICK_TRACE_LEN,
        |flag, value| match flag {
            "--interval" => interval_option(value, &mut interval),
            _ => Own::Shared,
        },
    )?;
    let w = spec.materialize();
    let obs = (TimelineRecorder::new(interval), CycleAccounting::new());
    let (stats, (timeline, accounting)) =
        Processor::with_observer(config, &w.trace, obs).run_observed();
    let buckets = accounting.into_buckets();
    // The accounting invariant is hard: every cycle lands in exactly one
    // bucket, so the sum must equal the run's cycle count.
    if buckets.total() != stats.cycles {
        return fail(format_args!(
            "internal error: cycle-accounting buckets sum to {} but the run took {} cycles",
            buckets.total(),
            stats.cycles
        ));
    }
    let title = format!("{} / {}", spec.name(), run.engine);
    print(koc_bench::report::accounting_table(
        format!("Cycle accounting — {title}"),
        &buckets,
    ))?;
    let records = timeline.into_records();
    print(koc_bench::report::timeline_table(
        format!("Timeline — {title} (interval {interval})"),
        &records,
    ))?;
    let json = timeline_json(interval, &records);
    // Self-validation: the emitted document must parse and carry the
    // interval structure it claims.
    match parse_json(&json) {
        Ok(doc) => match doc.get("records") {
            Some(Json::Arr(items)) if items.len() == records.len() => {}
            Some(Json::Arr(_)) => return fail("internal error: koc-timeline JSON dropped records"),
            _ => return fail("internal error: koc-timeline JSON has no records array"),
        },
        Err(e) => {
            return fail(format_args!(
                "internal error: emitted koc-timeline JSON does not parse: {e}"
            ))
        }
    }
    emit(run.out, &json)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(words: &[&str]) -> Vec<String> {
        words.iter().map(|w| w.to_string()).collect()
    }

    #[test]
    fn shared_run_options_parse_into_one_selection() {
        let shared = |_: &str, _: Option<&String>| Own::Shared;
        let words = args(&["--workload", "gather", "--engine", "baseline"]);
        let (mut run, spec, _) = RunArgs::parse("trace", &words, 2_000, shared).unwrap();
        assert_eq!((spec.name(), run.engine.as_str()), ("gather", "baseline"));
        assert!(matches!(
            run.shared("--workload", None),
            Own::Bad("--workload requires a name")
        ));
        assert_eq!((run.trace_len, run.out), (2_000, None));
        let words = args(&["--len", "99", "--out", "t.json"]);
        let (run, spec, _) = RunArgs::parse("trace", &words, 2_000, shared).unwrap();
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
            let parsed = RunArgs::parse("trace", &args(bad), 2_000, shared);
            assert!(parsed.is_err(), "{bad:?}");
        }

        // `stats` is sized by `--len` alone, 8000 instructions by default,
        // and refuses `--out`.
        let (run, _, _) = RunArgs::parse("stats", &[], 8_000, stats_option).unwrap();
        assert_eq!((run.trace_len, run.out), (8_000, None));
        let words = args(&["--len", "500"]);
        let (run, _, _) = RunArgs::parse("stats", &words, 8_000, stats_option).unwrap();
        assert_eq!(run.trace_len, 500);
        for bad in [&["--out", "s.txt"][..], &["--quick"], &["--full"]] {
            let parsed = RunArgs::parse("stats", &args(bad), 8_000, stats_option);
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
            Own::Took
        ));
        assert_eq!(interval, 1);
        assert_eq!(
            run_timeline(&args(&["--interval", "0"])),
            Err(ExitCode::FAILURE)
        );
    }
}
