//! `koc-perfbench`: the repository's host-time benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <kilo_window|memory_bound|fig9_sweep> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Prints every metric with its unit, then, as the last line, one JSON
//! object `{"correct", "attempted", "failed", "metrics"}`. With `--trace 0`
//! the metrics are the end-to-end ones, with `--trace 1` the per-layer
//! ones. Exits 1 when any simulation failed its checks, 2 on bad arguments.
//! See `perfbench/README.md` for what each workload and metric is for.

#![forbid(unsafe_code)]

mod adapter;
mod bench;
mod check;
mod layers;
mod metrics;

use bench::{Bench, Kind, Outcome};
use std::process::exit;
use std::time::Instant;

const USAGE: &str = "usage: koc-perfbench --workload <kilo_window|memory_bound|fig9_sweep> \
                     [--seed <n>] [--seconds <s>] [--trace <0|1>]";

/// Parsed command-line options.
#[derive(Debug, PartialEq)]
struct Options {
    workload: Kind,
    seed: u64,
    seconds: u64,
    trace: bool,
}

impl Options {
    fn parse(args: &[String]) -> Result<Options, String> {
        let mut workload = None;
        let mut seed = adapter::CANONICAL_SEED;
        let mut seconds = 10;
        let mut trace = false;
        let mut it = args.iter();
        while let Some(flag) = it.next() {
            let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
            let number = || {
                value
                    .parse::<u64>()
                    .map_err(|_| format!("{flag}: not a whole number: {value}"))
            };
            match flag.as_str() {
                "--workload" => {
                    workload = Some(
                        Kind::parse(value).ok_or_else(|| format!("unknown workload {value}"))?,
                    )
                }
                "--seed" => seed = number()?,
                "--seconds" => seconds = number()?,
                "--trace" => {
                    trace = match number()? {
                        0 => false,
                        1 => true,
                        _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                    }
                }
                _ => return Err(format!("unknown argument {flag}")),
            }
        }
        Ok(Options {
            workload: workload.ok_or("--workload is required")?,
            seed,
            seconds,
            trace,
        })
    }
}

/// Peak resident memory of this process in MiB (`VmHWM`), or 0 where the
/// platform does not report it.
fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

/// The result line: one JSON object with every metric by name and unit.
fn result_json(outcome: &Outcome) -> String {
    let metrics: Vec<String> = outcome
        .metrics
        .iter()
        .map(|(name, value, unit)| {
            let value = if value.is_finite() { *value } else { 0.0 };
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.ledger.all_passed(),
        outcome.ledger.attempted,
        outcome.ledger.failed,
        metrics.join(", ")
    )
}

fn main() {
    let process_start = Instant::now();
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = match Options::parse(&args) {
        Ok(opts) => opts,
        Err(why) => {
            eprintln!("koc-perfbench: {why}\n{USAGE}");
            exit(2);
        }
    };
    let outcome = Bench::new(opts.workload, opts.seed, check::PINS).run(
        process_start,
        opts.seconds,
        opts.trace,
    );

    println!(
        "koc-perfbench {} seed {} seconds {} trace {}: {} timed samples",
        opts.workload.name(),
        opts.seed,
        opts.seconds,
        u8::from(opts.trace),
        outcome.samples
    );
    for (name, value, unit) in &outcome.metrics {
        println!("  {name:<36} {value:>16.4} {unit}");
    }
    if let (false, Some(t)) = (opts.trace, outcome.tail) {
        println!(
            "  ns_per_inst_tail is p{:.1} of {} samples ({} beyond it)",
            t.percentile, t.samples, t.beyond
        );
    }
    println!(
        "operations: attempted {}, failed {}",
        outcome.ledger.attempted, outcome.ledger.failed
    );
    for failure in &outcome.ledger.failures {
        println!("  FAILED {failure}");
    }
    println!("{}", result_json(&outcome));
    exit(outcome.ledger.exit_code());
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn parses_a_full_command_line() {
        let o = Options::parse(&args(
            "--workload memory_bound --seed 7 --seconds 3 --trace 1",
        ))
        .unwrap();
        assert_eq!(
            o,
            Options {
                workload: Kind::MemoryBound,
                seed: 7,
                seconds: 3,
                trace: true
            }
        );
    }

    #[test]
    fn rejects_bad_arguments() {
        for bad in [
            "",
            "--workload",
            "--workload nope",
            "--workload kilo_window --trace 2",
            "--workload kilo_window --seed -1",
            "--workload kilo_window --bogus 1",
        ] {
            assert!(Options::parse(&args(bad)).is_err(), "{bad:?} accepted");
        }
    }

    #[test]
    fn result_line_is_one_json_object() {
        let mut ledger = check::Ledger::default();
        ledger.record("op", Ok(()));
        let outcome = Outcome {
            metrics: vec![
                ("ns_per_inst".into(), 123.25, "ns"),
                ("x".into(), f64::NAN, "ratio"),
            ],
            tail: None,
            samples: 1,
            ledger,
        };
        assert_eq!(
            result_json(&outcome),
            "{\"correct\": true, \"attempted\": 1, \"failed\": 0, \"metrics\": \
             {\"ns_per_inst\": {\"value\": 123.25, \"unit\": \"ns\"}, \
             \"x\": {\"value\": 0, \"unit\": \"ratio\"}}}"
        );
    }
}
