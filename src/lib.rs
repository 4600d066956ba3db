//! # koc — *Out-of-Order Commit Processors* (HPCA 2004) reproduction
//!
//! Umbrella crate re-exporting the workspace members, so downstream code
//! (and the repository-level `examples/` and `tests/`) can reach everything
//! through one dependency:
//!
//! * [`isa`] — instruction set, traces and the trace builder,
//! * [`mem`] — the Table 1 cache hierarchy,
//! * [`core`] — the paper's mechanisms (CAM rename, checkpoints, pseudo-ROB,
//!   SLIQ) and the conventional window structures,
//! * [`workloads`] — the synthetic SPEC2000fp-like suite,
//! * [`sim`] — the pipeline ([`sim::Processor`]) with the Table 1 gshare
//!   branch predictor ([`sim::Gshare`]), the pluggable
//!   [`sim::CommitEngine`], the machine configuration
//!   ([`sim::ProcessorConfig`]) and the [`sim::sweep()`] grid runner,
//! * [`obs`] — the zero-perturbation observability layer: the
//!   [`obs::Observer`] seam plus the pipeline event tracer, the interval
//!   time-series recorder and top-down cycle accounting.

#![warn(missing_docs)]

pub use koc_core as core;
pub use koc_isa as isa;
pub use koc_mem as mem;
pub use koc_obs as obs;
pub use koc_sim as sim;
pub use koc_workloads as workloads;
