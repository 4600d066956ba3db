//! The [`Observer`] seam: lifecycle events and per-cycle samples.
//!
//! This module is on the simulator's per-cycle hot path (the pipeline calls
//! into it every stepped cycle), so nothing here allocates: events are
//! `Copy`, samples are plain structs, and the [`NullObserver`] hooks are
//! empty inline methods.

use koc_isa::{InstId, OpKind};

/// A per-instruction (or per-structure) pipeline lifecycle event.
///
/// Instruction identifiers are the trace indices the simulator itself uses
/// (`koc_isa::InstId`); an instruction re-executed after a checkpoint
/// rollback appears again with the same id, preceded by a [`Event::Squash`].
/// Checkpoint ids and memory tokens are widened to `u64` so the event model
/// stays independent of the engine's internal types.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Event {
    /// An instruction was read out of the replay window by the front end.
    Fetch {
        /// Trace index of the instruction.
        inst: InstId,
        /// Operation class (for labels in rendered traces).
        kind: OpKind,
    },
    /// The instruction's registers were renamed.
    Rename {
        /// Trace index of the instruction.
        inst: InstId,
    },
    /// The instruction was dispatched into the issue queues.
    Dispatch {
        /// Trace index of the instruction.
        inst: InstId,
        /// Checkpoint (or ROB band) the instruction was charged to.
        ckpt: u64,
    },
    /// The instruction was selected for execution.
    Issue {
        /// Trace index of the instruction.
        inst: InstId,
    },
    /// The instruction finished execution (write-back).
    Complete {
        /// Trace index of the instruction.
        inst: InstId,
    },
    /// The instruction was committed (architecturally retired).
    Commit {
        /// Trace index of the instruction.
        inst: InstId,
    },
    /// The instruction was squashed (misprediction or rollback) and will
    /// re-enter the pipeline if the front end re-fetches it.
    Squash {
        /// Trace index of the instruction.
        inst: InstId,
    },
    /// A long-latency-dependent instruction was moved out of the issue
    /// queue into the SLIQ (slow-lane instruction queue).
    SliqMove {
        /// Trace index of the instruction.
        inst: InstId,
    },
    /// The checkpointed engine took a checkpoint.
    CheckpointTake {
        /// Checkpoint-table id.
        id: u64,
        /// Trace index of the first instruction covered.
        at: InstId,
    },
    /// The oldest checkpoint committed, retiring its instructions in bulk.
    CheckpointCommit {
        /// Checkpoint-table id.
        id: u64,
        /// Number of instructions retired with it.
        insts: u64,
    },
    /// Checkpoints younger than a recovery point were squashed.
    CheckpointSquash {
        /// How many checkpoints were dropped.
        count: u64,
    },
    /// The memory backend accepted a demand miss into its MSHR-like
    /// in-flight tracking.
    MshrAlloc {
        /// Request token (the instruction's sequence number).
        token: u64,
        /// Requested address.
        addr: u64,
    },
    /// A demand miss completed and its data returned to the pipeline.
    MshrFill {
        /// Request token (the instruction's sequence number).
        token: u64,
    },
}

/// The top-down cycle-accounting bucket a cycle is attributed to.
///
/// Every simulated cycle lands in *exactly one* bucket; the classification
/// is a fixed priority order evaluated from the commit stage outward (see
/// the pipeline's per-cycle classifier). [`CycleBuckets`] totals therefore
/// sum exactly to `SimStats::cycles`.
///
/// [`CycleBuckets`]: crate::accounting::CycleBuckets
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CycleBucket {
    /// At least one instruction committed this cycle.
    Committing,
    /// Dispatch stalled because the ROB / pseudo-ROB window was full.
    WindowFull,
    /// Dispatch stalled because an instruction or load/store queue was full.
    IqFull,
    /// Dispatch stalled because the rename register pool was exhausted.
    RegfileExhausted,
    /// Dispatch stalled because the checkpoint table could not cover a new
    /// instruction (checkpointed engine only).
    CheckpointTableFull,
    /// No commit or dispatch stall, but demand misses are queued waiting
    /// for an MSHR slot in the memory backend.
    MshrFull,
    /// No commit, no dispatch stall, no MSHR pressure, but outstanding
    /// memory requests are in flight — the window is waiting on memory.
    MemoryWait,
    /// The front end had nothing to dispatch: redirect penalty after a
    /// misprediction/exception, or the trace ran out while the window
    /// drains.
    FetchStarved,
    /// None of the above: in-flight instructions are waiting on execution
    /// latencies or operand dependences (including pipeline ramp-up).
    ExecuteWait,
}

/// A snapshot of pipeline state for one simulated cycle.
///
/// `committed` and `dispatched` are *cumulative* end-of-run-style counters
/// (the same values `SimStats` reports); interval observers difference them.
/// Occupancies are instantaneous at the end of the cycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CycleSample {
    /// The cycle this sample describes (first cycle of the gap for
    /// [`Observer::skip`]).
    pub cycle: u64,
    /// Cumulative committed instructions.
    pub committed: u64,
    /// Cumulative dispatched instructions.
    pub dispatched: u64,
    /// In-flight (dispatched, not yet retired-and-released) instructions.
    pub inflight: usize,
    /// Live instructions in the paper's sense (dispatched, not executed).
    pub live: usize,
    /// Live checkpoints in the checkpoint table (0 for the ROB engine).
    pub live_checkpoints: usize,
    /// Outstanding requests inside the memory backend (MSHR occupancy).
    pub mshr_inflight: usize,
    /// Demand misses queued because the backend refused admission.
    pub pending_misses: usize,
    /// Replay-window occupancy (streamed ingestion's fetch buffer depth).
    pub replay_window: usize,
    /// Figure 7's split of the live instructions into (blocked-long,
    /// blocked-short). `Some` only for observers that set
    /// [`Observer::LIVE_BREAKDOWN`], and only when the sample covers a
    /// multiple of [`BREAKDOWN_INTERVAL`](crate::stats::BREAKDOWN_INTERVAL).
    pub live_breakdown: Option<(usize, usize)>,
    /// The cycle-accounting bucket this cycle was attributed to.
    pub bucket: CycleBucket,
}

/// The observer seam threaded through the pipeline as a generic parameter.
///
/// The pipeline guards every hook behind `if O::ENABLED { ... }`, so with
/// [`NullObserver`] (the default) the calls — and the construction of their
/// arguments — compile to nothing. Implementations must not influence
/// simulation: hooks take `&mut self` but only receive read-only views of
/// pipeline state.
pub trait Observer {
    /// Whether the pipeline should construct samples/events at all. The
    /// pipeline reads this as a compile-time constant.
    const ENABLED: bool = true;

    /// Whether samples should carry [`CycleSample::live_breakdown`], which
    /// costs a walk over the whole in-flight window per sample point. Read
    /// as a compile-time constant; only meaningful when `ENABLED`.
    const LIVE_BREAKDOWN: bool = false;

    /// A lifecycle event at the given cycle. Events within one cycle are
    /// delivered in pipeline-stage order (deterministic across runs).
    fn event(&mut self, cycle: u64, ev: Event) {
        let _ = (cycle, ev);
    }

    /// Exactly one sample per stepped cycle, after all stages ran.
    fn sample(&mut self, s: &CycleSample) {
        let _ = s;
    }

    /// A fast-forwarded idle gap: `n` consecutive cycles starting at
    /// `s.cycle` during which the pipeline state was provably constant.
    /// Implementations must expand this to the exact stream `n` calls to
    /// [`Observer::sample`] would have produced (`s.cycle` advancing by one
    /// each) so fast-forward stays bit-identical.
    fn skip(&mut self, s: &CycleSample, n: u64) {
        let _ = (s, n);
    }
}

/// The default no-op observer: every hook is empty and `ENABLED` is false,
/// so observation costs nothing when not requested.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct NullObserver;

impl Observer for NullObserver {
    const ENABLED: bool = false;

    #[inline(always)]
    fn event(&mut self, _cycle: u64, _ev: Event) {}

    #[inline(always)]
    fn sample(&mut self, _s: &CycleSample) {}

    #[inline(always)]
    fn skip(&mut self, _s: &CycleSample, _n: u64) {}
}

/// Observers compose as pairs: `(A, B)` fans every hook out to both, so a
/// single run can, e.g., record a timeline and cycle accounting at once.
impl<A: Observer, B: Observer> Observer for (A, B) {
    const ENABLED: bool = A::ENABLED || B::ENABLED;
    const LIVE_BREAKDOWN: bool = A::LIVE_BREAKDOWN || B::LIVE_BREAKDOWN;

    #[inline]
    fn event(&mut self, cycle: u64, ev: Event) {
        self.0.event(cycle, ev);
        self.1.event(cycle, ev);
    }

    #[inline]
    fn sample(&mut self, s: &CycleSample) {
        self.0.sample(s);
        self.1.sample(s);
    }

    #[inline]
    fn skip(&mut self, s: &CycleSample, n: u64) {
        self.0.skip(s, n);
        self.1.skip(s, n);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn null_observer_is_disabled_and_inert() {
        const { assert!(!NullObserver::ENABLED) }
        let mut o = NullObserver;
        o.event(1, Event::Commit { inst: 0 });
        let s = CycleSample {
            cycle: 1,
            committed: 0,
            dispatched: 0,
            inflight: 0,
            live: 0,
            live_checkpoints: 0,
            mshr_inflight: 0,
            pending_misses: 0,
            replay_window: 0,
            live_breakdown: None,
            bucket: CycleBucket::ExecuteWait,
        };
        o.sample(&s);
        o.skip(&s, 10);
        assert_eq!(o, NullObserver);
    }

    #[test]
    fn pair_composition_enables_if_either_side_does() {
        const { assert!(!<(NullObserver, NullObserver) as Observer>::ENABLED) }
        struct On;
        impl Observer for On {}
        const { assert!(<(NullObserver, On) as Observer>::ENABLED) }
        const { assert!(<(On, NullObserver) as Observer>::ENABLED) }
        const { assert!(!<(NullObserver, On) as Observer>::LIVE_BREAKDOWN) }
        struct Breakdown;
        impl Observer for Breakdown {
            const LIVE_BREAKDOWN: bool = true;
        }
        const { assert!(<(On, Breakdown) as Observer>::LIVE_BREAKDOWN) }
        const { assert!(<(Breakdown, On) as Observer>::LIVE_BREAKDOWN) }
    }
}
