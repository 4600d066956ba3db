//! # koc-sim
//!
//! A cycle-level, trace-driven superscalar out-of-order processor simulator
//! with pluggable commit engines behind the [`CommitEngine`] trait:
//!
//! * [`engine::InOrderEngine`] — the conventional **in-order ROB commit**
//!   baseline (Table 1 of the paper), and
//! * [`engine::CheckpointedEngine`] — the paper's **checkpointed
//!   out-of-order commit** machine, built from the mechanisms in
//!   [`koc_core`]: CAM renaming with future-free bits, a small checkpoint
//!   table, a pseudo-ROB, and Slow Lane Instruction Queuing.
//!
//! A machine is a [`ProcessorConfig`]: start from one of its constructors
//! ([`ProcessorConfig::baseline`], [`ProcessorConfig::cooo`],
//! [`ProcessorConfig::table1`]) and refine it with the `with_*` methods.
//! [`Processor`] runs one configuration over one instruction stream;
//! [`sweep()`] runs a grid of configurations over a slice of workloads in
//! parallel:
//!
//! ```no_run
//! use koc_sim::{sweep, ProcessorConfig, Suite};
//!
//! // The paper's headline comparison (Figure 9, rightmost group):
//! let results = sweep(
//!     [
//!         ProcessorConfig::cooo(128, 2048, 1000),
//!         ProcessorConfig::baseline(4096, 1000),
//!         ProcessorConfig::baseline(128, 1000),
//!     ],
//!     &Suite::paper().generate(30_000),
//! );
//! println!(
//!     "COoO 128/2048: {:.2} IPC vs baseline-4096 {:.2} and baseline-128 {:.2}",
//!     results[0].mean_ipc(),
//!     results[1].mean_ipc(),
//!     results[2].mean_ipc()
//! );
//! ```

#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
#![warn(missing_docs)]

pub mod config;
pub mod engine;
pub mod gshare;
pub mod inflight;
pub mod pipeline;
pub mod stats;
pub mod sweep;

pub use config::{CommitConfig, ProcessorConfig};
pub use engine::{CommitEngine, DispatchStall, Dispatched, EngineCtx, Writeback};
pub use gshare::Gshare;
pub use inflight::{InFlight, InFlightTable, InstState};
pub use pipeline::Processor;
pub use stats::{BranchStats, RecoveryStats, RetireBreakdown, SimStats, StallStats};
pub use sweep::{sweep, GridWorkload, SuiteResult, WorkloadResult};

// Re-exported so sweeps can name their workloads without importing
// `koc_workloads` directly.
pub use koc_workloads::Suite;

// Re-exported so streaming runs (`Processor::new` over a generator) can be
// written without importing `koc_isa` directly.
pub use koc_isa::{InstructionSource, IntoInstructionSource, ReplayWindow};

// Re-exported so observers — the fourth seam, next to the configuration,
// the instruction source and the commit engine — can be attached without
// importing `koc_obs` directly.
pub use koc_obs::{
    CycleAccounting, CycleBucket, CycleBuckets, CycleSample, Distribution, Event, IntervalRecord,
    NullObserver, Observer, PipelineTracer, TimelineRecorder, WindowStats,
};

// Re-exported so the memory backend (`MemoryConfig::with_dram` and its
// `DramConfig`) can be chosen without importing `koc_mem`.
pub use koc_mem::{BackendKind, DramConfig, MemoryConfig};

// Re-exported so every group nested in `SimStats` can be named from here.
pub use koc_mem::MemoryStats;
