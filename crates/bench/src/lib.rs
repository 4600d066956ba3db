//! # koc-bench
//!
//! The experiment harness: one module per table/figure of the paper's
//! evaluation, each of which re-runs the corresponding parameter sweep on the
//! SPEC2000fp-like suite and prints the same rows/series the paper reports.
//!
//! * `koc-experiments <experiment> [--len N]` — the command-line driver
//!   (`all`, `table1`, `fig1`, `fig7`, `fig9`, `fig10`, `fig11`, `fig12`,
//!   `fig13`, `fig14`, `ablation`, `mlp_sensitivity`).
//! * `koc-bench harness [--quick|--full] --out PATH` — the cycle-fingerprint
//!   harness (the [`harness`] module): runs the canonical suite under both
//!   commit engines and writes the deterministic counts as JSON;
//!   `koc-bench compare` diffs two reports at zero tolerance (CI's
//!   `cycle-regression` gate against `bench/baseline.json`).
//!
//! README "Experiments vs paper figures" maps each experiment to its paper
//! figure. Host speed is not measured here: `perfbench/` times the
//! simulator.

#![warn(missing_docs)]

pub mod experiments;
pub mod harness;
pub mod report;

pub use harness::{BenchEntry, BenchReport, CompareOutcome};
pub use report::Report;

/// Default dynamic trace length per workload used by the command-line driver.
pub const DEFAULT_TRACE_LEN: usize = 20_000;
