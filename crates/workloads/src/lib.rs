//! # koc-workloads
//!
//! Synthetic SPEC2000fp-like workloads for the *Out-of-Order Commit
//! Processors* reproduction.
//!
//! The paper evaluates on SPEC2000fp, averaged over the suite, with 300M
//! representative instructions per benchmark. We cannot redistribute SPEC, so
//! this crate generates seeded synthetic dynamic instruction traces whose
//! *statistical properties* match what the paper's argument depends on:
//!
//! * loop-dominated floating-point code with long basic blocks (tens to a few
//!   hundred instructions between branches),
//! * highly predictable branches (loop back-edges),
//! * large streaming working sets that miss in L2, so performance is bound by
//!   main-memory latency and by how many independent loop iterations fit in
//!   the instruction window,
//! * a minority of kernels with long dependence chains or cache-resident
//!   blocking, providing the diversity that makes the suite average
//!   meaningful.
//!
//! The five kernels and the [`suite`] module are the "SPEC2000fp-like suite"
//! every experiment runs on (README "Experiments vs paper figures").
//!
//! ```
//! use koc_workloads::Suite;
//!
//! let workloads = Suite::paper().generate(10_000);
//! assert_eq!(workloads.len(), 5);
//! for w in &workloads {
//!     assert!(w.trace.len() >= 10_000);
//! }
//! ```

#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
#![warn(missing_docs)]

pub mod config;
pub mod kernels;
pub mod suite;
pub mod synth;

pub use config::{DependencePattern, KernelConfig, MemoryPattern};
pub use suite::{Suite, Workload, WorkloadSpec};
pub use synth::{generate_kernel, KernelSource};
