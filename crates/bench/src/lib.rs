//! # koc-bench
//!
//! The experiment harness: one module per table/figure of the paper's
//! evaluation, each of which re-runs the corresponding parameter sweep on the
//! SPEC2000fp-like suite and prints the same rows/series the paper reports.
//!
//! * `koc-experiments <experiment> [--len N]` — the command-line driver
//!   (`all`, `table1`, `fig1`, `fig7`, `fig9`, `fig10`, `fig11`, `fig12`,
//!   `fig13`, `fig14`, `ablation`, `mlp_sensitivity`).
//! * `koc-bench stats|trace|timeline` — one run of the canonical quick suite
//!   (the [`harness`] module) with its statistics, event trace or interval
//!   time-series printed.
//!
//! README "Experiments vs paper figures" maps each experiment to its paper
//! figure. Host speed is not measured here: `perfbench/` times the
//! simulator.

#![warn(missing_docs)]

pub mod experiments;
pub mod harness;
pub mod report;

pub use report::Report;

use std::io::{ErrorKind, Write};
use std::process::ExitCode;

/// Default dynamic trace length per workload used by the command-line driver.
pub const DEFAULT_TRACE_LEN: usize = 20_000;

/// Prints `text` and a newline to stdout, the one way both binaries write
/// their output.
///
/// # Errors
/// The code the process should exit with now: success when the reader has
/// closed the pipe (`koc-bench timeline | head` wants no more), failure,
/// with the reason on stderr, on any other write error.
pub fn print(text: impl std::fmt::Display) -> Result<(), ExitCode> {
    let mut out = std::io::stdout().lock();
    match writeln!(out, "{text}").and_then(|()| out.flush()) {
        Ok(()) => Ok(()),
        Err(e) if e.kind() == ErrorKind::BrokenPipe => Err(ExitCode::SUCCESS),
        Err(e) => {
            eprintln!("failed to write to stdout: {e}");
            Err(ExitCode::FAILURE)
        }
    }
}
