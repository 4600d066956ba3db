//! # koc-mem
//!
//! Cache and main-memory hierarchy model for the *Out-of-Order Commit
//! Processors* reproduction.
//!
//! The hierarchy follows Table 1 of the paper: a 32 KB 4-way data L1 with
//! 32-byte lines and 2-cycle latency ([`DL1`]), a unified 512 KB 4-way L2
//! with 64-byte lines and 10-cycle latency ([`L2`]), and a configurable main-memory
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
//! * [`DramBackend`] — one fixed part (16 banks with 4 KiB open-row
//!   buffers, 40-cycle activate and precharge, a 4-cycle burst; see
//!   [`dram`]) served in order per bank, and a finite MSHR file that
//!   back-pressures the core when it fills. This bounds the MLP a
//!   kilo-instruction window can actually expose. Because nothing
//!   overtakes within a bank, each request's schedule is fixed when the
//!   backend accepts it, and the backend's only events are completions.
//!
//! A run varies four things ([`MemoryConfig`]): the memory latency, the
//! perfect-L2 switch, the backend and, for DRAM, the MSHR count
//! ([`DramConfig`]). The default backend is `FlatLatency`, which
//! reproduces the paper's figures cycle for cycle.
//!
//! ```
//! use koc_mem::{DramConfig, MemLevel, MemoryConfig, MemoryHierarchy, TimedAccess};
//! use koc_obs::NullObserver;
//!
//! // The paper's model: a cold miss pays DL1 + L2 + memory, a reuse hits L1.
//! let mut mem = MemoryHierarchy::new(MemoryConfig::table1(1000));
//! let first = mem.access_data_timed(0x4_0000, 0, 0, &mut NullObserver);
//! assert_eq!(first, TimedAccess::Ready { level: MemLevel::Memory, latency: 1012 });
//! let second = mem.access_data_timed(0x4_0000, 1, 1, &mut NullObserver);
//! assert_eq!(second, TimedAccess::Ready { level: MemLevel::L1, latency: 2 });
//!
//! // A bandwidth-limited machine: the DRAM part with 8 MSHRs. The miss
//! // arrives after the 12-cycle lookup and opens a row (40 cycles).
//! let limited = MemoryConfig::table1(1000).with_dram(DramConfig { mshr_entries: 8 });
//! let mut mem = MemoryHierarchy::new(limited);
//! let miss = mem.access_data_timed(0x4_0000, 7, 0, &mut NullObserver);
//! assert_eq!(miss, TimedAccess::InFlight);
//! assert_eq!(mem.next_event(), Some(12 + 1000 + 40));
//! let mut done = Vec::new();
//! mem.tick(1052, &mut done, &mut NullObserver);
//! assert_eq!(done, [7]);
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
pub use cache::{AccessOutcome, Cache, CacheConfig, DL1, L2};
pub use config::{BackendKind, MemoryConfig};
pub use dram::{DramBackend, DramConfig};
pub use hierarchy::{MemLevel, MemoryHierarchy, TimedAccess};
pub use stats::MemoryStats;
