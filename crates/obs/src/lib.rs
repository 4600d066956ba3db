//! Zero-perturbation observability for the out-of-order commit simulator.
//!
//! This crate defines the [`Observer`] seam — the fourth pluggable boundary
//! of the simulator, alongside `CommitEngine`, `MemoryBackend` and
//! `InstructionSource` — and three observers built on top of it:
//!
//! - [`PipelineTracer`]: records per-instruction lifecycle events (fetch,
//!   rename, dispatch, issue, complete, commit, squash, SLIQ moves,
//!   checkpoint lifecycle, MSHR allocate/fill) and renders them as a
//!   versioned `koc-ptrace/1` JSON stream or as Kanata text for the Konata
//!   pipeline viewer.
//! - [`TimelineRecorder`]: aggregates per-cycle samples into per-interval
//!   [`IntervalRecord`] deltas (IPC, occupancies, live checkpoints, MSHR
//!   occupancy, replay-window depth, stall-cause deltas), rendered as
//!   versioned `koc-timeline/1` JSON.
//! - [`CycleAccounting`]: top-down cycle accounting — every simulated cycle
//!   is attributed to exactly one [`CycleBucket`], with the hard invariant
//!   that the buckets sum to the total cycle count.
//! - [`WindowStats`]: Figure 7's in-flight and live-instruction
//!   [`Distribution`]s, including the blocked-long/blocked-short split the
//!   pipeline computes only for observers that set
//!   [`Observer::LIVE_BREAKDOWN`].
//!
//! # Zero perturbation
//!
//! The simulator threads observers through as a *generic parameter*
//! monomorphized to [`NullObserver`] by default. `NullObserver` sets
//! [`Observer::ENABLED`] to `false` and every hook is an empty `#[inline]`
//! method, so the disabled path compiles to nothing: no allocation, no
//! branches in the per-cycle loop beyond what inlines away. With any
//! observer attached, simulated cycle counts and every statistic are
//! bit-identical to the unobserved run — observers only *read* pipeline
//! state (`tests/observability.rs` pins this against the committed bench
//! baseline).
//!
//! Event-driven fast-forward is replayed exactly: when the pipeline skips a
//! provably-idle gap, it calls [`Observer::skip`] with the (constant) cycle
//! sample and the gap length, and the bundled observers expand that into the
//! same stream a cycle-by-cycle run would have produced.

#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
#![warn(missing_docs)]

pub mod accounting;
pub mod format;
pub mod observer;
pub mod stats;
pub mod timeline;
pub mod trace;

pub use accounting::{CycleAccounting, CycleBuckets};
pub use format::{timeline_json, PTRACE_SCHEMA, TIMELINE_SCHEMA};
pub use observer::{CycleBucket, CycleSample, Event, NullObserver, Observer};
pub use stats::{breakdown_points, Distribution, WindowStats, BREAKDOWN_INTERVAL};
pub use timeline::{IntervalRecord, TimelineRecorder};
pub use trace::PipelineTracer;
