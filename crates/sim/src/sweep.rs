//! The one sweep path: [`sweep`] runs a grid of machine configurations over
//! a slice of workloads, fanning every (configuration × workload) pair out
//! as an independent run, and returns one [`SuiteResult`] per
//! configuration, in input order.
//!
//! The slice decides how instructions reach the pipeline:
//! `Suite::generate` gives materialized [`Workload`]s (traces generated
//! once and shared by every configuration), `Suite::specs` gives lazy
//! [`WorkloadSpec`]s (each run pulls its own stream, O(window) memory).
//! Cycle counts are bit-identical either way. A run over one stream is
//! `Processor::new(config, source).run()`.
//!
//! ```no_run
//! use koc_sim::{sweep, ProcessorConfig, Suite};
//!
//! // Figure 9's nine proposal configurations over the paper's suite:
//! let configs = [512usize, 1024, 2048].iter().flat_map(|&sliq| {
//!     [32usize, 64, 128].iter().map(move |&iq| ProcessorConfig::cooo(iq, sliq, 1000))
//! });
//! for r in sweep(configs, &Suite::paper().generate(30_000)) {
//!     println!("{:.2}", r.mean_ipc());
//! }
//! ```

use crate::config::ProcessorConfig;
use crate::pipeline::Processor;
use crate::stats::SimStats;
use koc_isa::InstructionSource;
use koc_workloads::{suite::suite_average, Workload, WorkloadSpec};
use rayon::prelude::*;

/// A workload [`sweep`] can run: something with a name that can mint a
/// fresh instruction stream per run.
pub trait GridWorkload: Sync {
    /// The workload's report name.
    fn name(&self) -> &str;
    /// A fresh source producing this workload's instruction stream from
    /// the beginning.
    fn source(&self) -> Box<dyn InstructionSource + Send + '_>;
}

impl GridWorkload for Workload {
    fn name(&self) -> &str {
        &self.name
    }
    fn source(&self) -> Box<dyn InstructionSource + Send + '_> {
        Box::new(Workload::source(self))
    }
}

impl GridWorkload for WorkloadSpec {
    fn name(&self) -> &str {
        WorkloadSpec::name(self)
    }
    fn source(&self) -> Box<dyn InstructionSource + Send + '_> {
        WorkloadSpec::source(self)
    }
}

/// The result of running one configuration over one workload.
#[derive(Debug, Clone)]
pub struct WorkloadResult {
    /// The workload's suite name.
    pub workload: String,
    /// Full statistics for the run.
    pub stats: SimStats,
}

/// The result of running one configuration over a whole suite.
#[derive(Debug, Clone)]
pub struct SuiteResult {
    /// The configuration that produced the result.
    pub config: ProcessorConfig,
    /// Per-workload results, in suite order.
    pub per_workload: Vec<WorkloadResult>,
}

impl SuiteResult {
    /// The suite-average IPC — the reduction every figure of the paper
    /// reports.
    pub fn mean_ipc(&self) -> f64 {
        suite_average(
            &self
                .per_workload
                .iter()
                .map(|r| r.stats.ipc())
                .collect::<Vec<_>>(),
        )
    }

    /// The suite-average number of in-flight instructions (Figure 11).
    pub fn mean_inflight(&self) -> f64 {
        suite_average(
            &self
                .per_workload
                .iter()
                .map(|r| r.stats.avg_inflight())
                .collect::<Vec<_>>(),
        )
    }

    /// Per-workload IPC values, in suite order.
    pub fn ipcs(&self) -> Vec<f64> {
        self.per_workload.iter().map(|r| r.stats.ipc()).collect()
    }
}

/// Runs every configuration over every workload and returns one result per
/// configuration, in input order, each with its workloads in slice order.
///
/// The (configuration × workload) grid is flattened to pairs and fanned out
/// over rayon workers, each run minting its own source, so parallelism
/// covers the whole grid, not just the configuration axis.
///
/// # Panics
/// Panics if a configuration fails [`ProcessorConfig::validate`].
pub fn sweep<W: GridWorkload>(
    configs: impl IntoIterator<Item = ProcessorConfig>,
    workloads: &[W],
) -> Vec<SuiteResult> {
    let configs: Vec<ProcessorConfig> = configs.into_iter().collect();
    let pairs: Vec<(&ProcessorConfig, &W)> = configs
        .iter()
        .flat_map(|c| workloads.iter().map(move |w| (c, w)))
        .collect();
    let runs: Vec<WorkloadResult> = pairs
        .par_iter()
        .map(|(config, w)| WorkloadResult {
            workload: w.name().to_string(),
            stats: Processor::new(**config, w.source()).run(),
        })
        .collect();
    let mut runs = runs.into_iter();
    configs
        .into_iter()
        .map(|config| SuiteResult {
            config,
            per_workload: runs.by_ref().take(workloads.len()).collect(),
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use koc_workloads::{kernels, Suite};

    #[test]
    fn sweep_returns_results_in_input_order() {
        let windows = [32usize, 64, 128];
        let workloads = Suite::kernel("stream_add", kernels::stream_add()).generate(1_500);
        let results = sweep(
            windows.iter().map(|&w| ProcessorConfig::baseline(w, 100)),
            &workloads,
        );
        assert_eq!(results.len(), windows.len());
        for (r, &w) in results.iter().zip(windows.iter()) {
            assert_eq!(r.config.iq_size, w, "results must follow input order");
            assert_eq!(r.per_workload.len(), 1);
            assert_eq!(r.per_workload[0].workload, "stream_add");
            assert!(r.mean_ipc() > 0.0);
        }
    }

    #[test]
    fn empty_workloads_still_yield_one_result_per_config() {
        let results = sweep(
            [
                ProcessorConfig::baseline(64, 100),
                ProcessorConfig::cooo(32, 512, 100),
            ],
            &[] as &[Workload],
        );
        assert_eq!(results.len(), 2, "one (empty) result per configuration");
        assert!(results.iter().all(|r| r.per_workload.is_empty()));
        assert_eq!(results[1].config.iq_size, 32, "input order holds");
        assert_eq!(
            results[0].mean_ipc(),
            0.0,
            "suite average of nothing is zero, not a panic"
        );
    }

    #[test]
    fn sweep_shares_pregenerated_workloads() {
        let workloads = Suite::paper().generate(800);
        let results = sweep(
            [
                ProcessorConfig::baseline(64, 100),
                ProcessorConfig::cooo(32, 512, 100),
            ],
            &workloads,
        );
        assert_eq!(results.len(), 2);
        for r in &results {
            assert_eq!(r.per_workload.len(), workloads.len());
            for (wr, w) in r.per_workload.iter().zip(workloads.iter()) {
                assert_eq!(wr.workload, w.name);
                assert_eq!(wr.stats.committed_instructions as usize, w.trace.len());
            }
        }
    }
}
