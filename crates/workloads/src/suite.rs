//! The SPEC2000fp-like suite: named workloads and suite-average helpers.

use crate::config::KernelConfig;
use crate::kernels;
use crate::synth::{generate_kernel, KernelSource};
use koc_isa::{InstructionSource, MaterializedTrace, Trace};

/// A named workload: a kernel configuration and its generated trace.
#[derive(Debug, Clone)]
pub struct Workload {
    /// Suite name of the workload (e.g. `"stream_add"`).
    pub name: String,
    /// The kernel configuration the trace was generated from.
    pub config: KernelConfig,
    /// The generated dynamic instruction trace.
    pub trace: Trace,
}

impl Workload {
    /// Generates a workload from a named kernel configuration with the given
    /// minimum dynamic length.
    pub fn generate(name: &str, config: KernelConfig, target_len: usize) -> Self {
        let config = config.with_target_len(target_len);
        let trace = generate_kernel(name, &config);
        Workload {
            name: name.to_string(),
            config,
            trace,
        }
    }

    /// An [`InstructionSource`] replaying this workload's materialized
    /// trace (borrowing it — nothing is copied).
    pub fn source(&self) -> MaterializedTrace<'_> {
        MaterializedTrace::new(&self.trace)
    }
}

/// A workload that has not (necessarily) been materialized: either a kernel
/// configuration to generate from — lazily, via [`WorkloadSpec::source`] —
/// or a pre-built trace used as-is.
///
/// This is what streamed sweeps run: each run pulls its own
/// [`KernelSource`] and never holds the full dynamic stream in memory.
#[derive(Debug, Clone)]
pub enum WorkloadSpec {
    /// A kernel to generate on demand.
    Kernel {
        /// Suite name of the workload.
        name: String,
        /// The (already length-scaled) kernel configuration.
        config: KernelConfig,
    },
    /// A pre-generated workload, streamed from its materialized trace.
    Fixed(Workload),
}

impl WorkloadSpec {
    /// The workload's suite name.
    pub fn name(&self) -> &str {
        match self {
            WorkloadSpec::Kernel { name, .. } => name,
            WorkloadSpec::Fixed(w) => &w.name,
        }
    }

    /// A fresh source producing the workload's dynamic instruction stream
    /// from the beginning.
    pub fn source(&self) -> Box<dyn InstructionSource + Send + '_> {
        match self {
            WorkloadSpec::Kernel { name, config } => Box::new(KernelSource::new(name, *config)),
            WorkloadSpec::Fixed(w) => Box::new(w.source()),
        }
    }

    /// Materializes the spec into a full [`Workload`] (generating the trace
    /// for kernel specs; pre-built workloads are cloned as-is).
    pub fn materialize(&self) -> Workload {
        match self {
            WorkloadSpec::Kernel { name, config } => Workload {
                name: name.clone(),
                config: *config,
                trace: generate_kernel(name, config),
            },
            WorkloadSpec::Fixed(w) => w.clone(),
        }
    }
}

/// A declarative description of which workloads a simulation runs.
///
/// A `Suite` is a *specification*: it becomes concrete [`Workload`]s at a
/// given minimum dynamic trace length through [`Suite::generate`], or lazy
/// [`WorkloadSpec`]s through [`Suite::specs`].
///
/// The paper simulates 300M representative instructions per benchmark; the
/// experiments in this repository default to much shorter traces (tens of
/// thousands of instructions) which are sufficient because the synthetic
/// kernels are statistically stationary — every window of the trace looks
/// like every other window.
#[derive(Debug, Clone)]
pub enum Suite {
    /// The five-kernel SPEC2000fp-like suite the paper's figures average
    /// over.
    Paper,
    /// The MLP-contrast pair: `pointer_chase` (a dependent chain, MLP = 1)
    /// and `stream_mlp` (independent line-stride misses, maximal MLP).
    /// Designed for the memory-backend experiments.
    MlpContrast,
    /// A single named kernel.
    Kernel {
        /// Workload name (used in reports).
        name: String,
        /// The kernel configuration to generate from.
        config: KernelConfig,
    },
}

impl Suite {
    /// The paper's suite: all five SPEC2000fp-like kernels.
    pub fn paper() -> Self {
        Suite::Paper
    }

    /// The MLP-contrast pair ([`kernels::pointer_chase`] and
    /// [`kernels::stream_mlp`]).
    pub fn mlp_contrast() -> Self {
        Suite::MlpContrast
    }

    /// A single kernel by configuration (e.g. `Suite::kernel("stream_add",
    /// kernels::stream_add())`).
    pub fn kernel(name: impl Into<String>, config: KernelConfig) -> Self {
        Suite::Kernel {
            name: name.into(),
            config,
        }
    }

    /// Materializes the suite at the given minimum dynamic trace length.
    pub fn generate(&self, target_len: usize) -> Vec<Workload> {
        self.specs(target_len)
            .iter()
            .map(|s| s.materialize())
            .collect()
    }

    /// The suite as lazy [`WorkloadSpec`]s at the given minimum dynamic
    /// length — the streamed counterpart of [`Suite::generate`]: nothing is
    /// materialized, each spec produces its stream on demand.
    pub fn specs(&self, target_len: usize) -> Vec<WorkloadSpec> {
        let kernel = |name: &str, config: KernelConfig| WorkloadSpec::Kernel {
            name: name.to_string(),
            config: config.with_target_len(target_len),
        };
        match self {
            Suite::Paper => kernels::all()
                .into_iter()
                .map(|(name, config)| kernel(name, config))
                .collect(),
            Suite::MlpContrast => kernels::mlp_contrast()
                .into_iter()
                .map(|(name, config)| kernel(name, config))
                .collect(),
            Suite::Kernel { name, config } => vec![kernel(name, *config)],
        }
    }
}

/// Arithmetic mean over per-workload values, the paper's "average over
/// SPEC2000fp" reduction.
pub fn suite_average(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.iter().sum::<f64>() / values.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn suite_has_five_named_workloads() {
        let suite = Suite::paper().generate(2_000);
        assert_eq!(suite.len(), 5);
        let names: Vec<_> = suite.iter().map(|w| w.name.as_str()).collect();
        assert!(names.contains(&"stream_add"));
        assert!(names.contains(&"gather"));
    }

    #[test]
    fn workloads_meet_the_target_length() {
        for w in Suite::paper().generate(3_000) {
            assert!(
                w.trace.len() >= 3_000,
                "{} too short: {}",
                w.name,
                w.trace.len()
            );
        }
    }

    #[test]
    fn traces_carry_their_suite_name() {
        for w in Suite::paper().generate(1_000) {
            assert_eq!(w.trace.name(), w.name);
        }
    }

    #[test]
    fn suite_average_is_the_arithmetic_mean() {
        assert_eq!(suite_average(&[1.0, 2.0, 3.0]), 2.0);
        assert_eq!(suite_average(&[]), 0.0);
    }

    #[test]
    fn specs_stream_what_generate_materializes() {
        for suite in [
            Suite::paper(),
            Suite::mlp_contrast(),
            Suite::kernel("stream_add", crate::kernels::stream_add()),
        ] {
            let specs = suite.specs(1_000);
            let workloads = suite.generate(1_000);
            assert_eq!(specs.len(), workloads.len());
            for (spec, w) in specs.iter().zip(&workloads) {
                assert_eq!(spec.name(), w.name);
                let mut source = spec.source();
                for id in 0..w.trace.len() {
                    assert_eq!(source.next_inst().as_ref(), Some(&w.trace[id]));
                }
                assert_eq!(source.next_inst(), None);
            }
        }
    }

    #[test]
    fn custom_specs_reuse_the_fixed_trace() {
        let w = Workload::generate("stream_add", crate::kernels::stream_add(), 500);
        let spec = WorkloadSpec::Fixed(w.clone());
        assert_eq!(spec.name(), "stream_add");
        assert_eq!(spec.materialize().trace, w.trace);
        let mut s = spec.source();
        assert_eq!(s.len_hint(), Some(w.trace.len()));
        assert_eq!(s.next_inst().as_ref(), Some(&w.trace[0]));
    }

    #[test]
    fn mlp_contrast_suite_generates_the_pair() {
        let workloads = Suite::mlp_contrast().generate(2_000);
        let names: Vec<_> = workloads.iter().map(|w| w.name.as_str()).collect();
        assert_eq!(names, vec!["pointer_chase", "stream_mlp"]);
        for w in &workloads {
            assert!(w.trace.len() >= 2_000, "{} too short", w.name);
        }
    }
}
