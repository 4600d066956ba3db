//! # koc-mem
//!
//! Cache and main-memory hierarchy model for the *Out-of-Order Commit
//! Processors* reproduction.
//!
//! The hierarchy follows Table 1 of the paper: a 32 KB 4-way data L1 with
//! 32-byte lines and 2-cycle latency, a unified 512 KB 4-way L2 with
//! 64-byte lines and 10-cycle latency, and a configurable main-memory
//! latency (100 / 500 / 1000 cycles in the evaluation). A *perfect L2* mode
//! is provided for Figure 1's first bar. Table 1's instruction L1 is not
//! modelled: fetch is trace driven and never misses.
//!
//! Main memory beyond the L2 is a pluggable *timed backend* behind the
//! [`MemoryBackend`] trait (mirroring the commit-engine seam in `koc-sim`):
//!
//! * [`FlatLatency`] — the default and the paper's model: a fixed
//!   `memory_latency` with unlimited outstanding misses, so memory-level
//!   parallelism is bounded only by the instruction window.
//! * [`DramBackend`] — N banks with open-row buffers (hit / miss /
//!   conflict timing), in-order service per bank, and a finite MSHR file
//!   that back-pressures the core when it fills. This bounds the MLP a
//!   kilo-instruction window can actually expose. Because nothing
//!   overtakes within a bank, each request's schedule is fixed when the
//!   backend accepts it, and the backend's only events are completions.
//!
//! The backend is selected by [`MemoryConfig::backend`]; the default is
//! `FlatLatency`, which reproduces the paper's figures cycle for cycle.
//!
//! ```
//! use koc_mem::{DramConfig, MemoryConfig, MemoryHierarchy};
//!
//! // The paper's model:
//! let mut mem = MemoryHierarchy::new(MemoryConfig::table1(1000));
//! let first = mem.access_data(0x4_0000, false);
//! let second = mem.access_data(0x4_0000, false);
//! assert!(first.latency > second.latency); // second hits in L1
//!
//! // A bandwidth-limited machine: 8 MSHRs, 4 banks.
//! let limited = MemoryConfig::table1(1000)
//!     .with_dram(DramConfig::table1_like().with_mshr_entries(8).with_banks(4));
//! assert!(limited.validate().is_ok());
//! ```

#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
#![warn(missing_docs)]

pub mod backend;
pub mod cache;
pub mod config;
pub mod dram;
pub mod hierarchy;
pub mod stats;

pub use backend::{Admit, BackendStats, Completion, FlatLatency, MemReq, MemoryBackend};
pub use cache::{AccessOutcome, Cache, CacheConfig};
pub use config::{BackendKind, MemoryConfig};
pub use dram::{DramBackend, DramConfig};
pub use hierarchy::{DataAccessResult, MemLevel, MemoryHierarchy, TimedAccess};
pub use stats::MemoryStats;
