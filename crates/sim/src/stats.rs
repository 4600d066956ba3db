//! Simulation statistics: everything the paper's figures report.

use koc_core::RetireClass;
use koc_mem::MemoryStats;

/// Prediction counters of the [`Gshare`](crate::Gshare), over conditional
/// branches.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BranchStats {
    /// Number of predicted conditional branches.
    pub predicted: u64,
    /// Number of mispredicted conditional branches.
    pub mispredicted: u64,
}

impl BranchStats {
    /// Misprediction rate in [0, 1].
    pub fn misprediction_rate(&self) -> f64 {
        if self.predicted == 0 {
            0.0
        } else {
            self.mispredicted as f64 / self.predicted as f64
        }
    }
}

/// Counters for the pseudo-ROB retirement breakdown (Figure 12).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RetireBreakdown {
    counts: [u64; RetireClass::COUNT],
}

impl RetireBreakdown {
    /// Records one retirement of the given class.
    pub fn record(&mut self, class: RetireClass) {
        self.counts[class.index()] += 1;
    }

    /// Count for a class.
    pub fn count(&self, class: RetireClass) -> u64 {
        self.counts[class.index()]
    }

    /// Total retirements recorded.
    pub fn total(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// Fraction of retirements in the given class (0 if none recorded).
    pub fn fraction(&self, class: RetireClass) -> f64 {
        let total = self.total();
        if total == 0 {
            0.0
        } else {
            self.count(class) as f64 / total as f64
        }
    }
}

/// Recovery-event counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RecoveryStats {
    /// Mispredicted branches recovered inside the pseudo-ROB (or via the ROB
    /// in the baseline): selective squash.
    pub near_recoveries: u64,
    /// Mispredicted branches recovered by rolling back to a checkpoint.
    pub checkpoint_rollbacks: u64,
    /// Exceptions taken (tests exercise these).
    pub exceptions: u64,
    /// Instructions squashed by all recovery events.
    pub squashed_instructions: u64,
    /// Instructions re-executed because of checkpoint rollbacks.
    pub reexecuted_instructions: u64,
}

/// Everything measured during one simulation run.
///
/// `SimStats` is `PartialEq` so determinism tests can assert bit-identical
/// results.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SimStats {
    /// Cycles simulated.
    pub cycles: u64,
    /// Instructions committed (equals the trace length at the end of a run).
    pub committed_instructions: u64,
    /// Instructions dispatched (includes re-executions after rollbacks).
    pub dispatched_instructions: u64,
    /// Checkpoints taken (checkpointed engine only).
    pub checkpoints_taken: u64,
    /// Checkpoints committed.
    pub checkpoints_committed: u64,
    /// Checkpoints squashed by recovery (branch walkback that dropped a
    /// freshly taken checkpoint, or rollback past younger checkpoints).
    /// Invariant: `checkpoints_taken == checkpoints_committed +
    /// checkpoints_squashed` at the end of a run.
    pub checkpoints_squashed: u64,
    /// Instructions moved to the SLIQ.
    pub sliq_moved: u64,
    /// Peak SLIQ occupancy.
    pub sliq_high_water: usize,
    /// In-flight (dispatched, not committed) instructions summed over every
    /// cycle; [`avg_inflight`](Self::avg_inflight) divides it by `cycles`.
    /// The full distributions are the `koc_obs::WindowStats` observer's.
    pub inflight_sum: u64,
    /// The most instructions in flight at the end of any cycle.
    pub peak_inflight: usize,
    /// Pseudo-ROB retirement breakdown (Figure 12).
    pub retire_breakdown: RetireBreakdown,
    /// Branch-prediction statistics.
    pub branches: BranchStats,
    /// Recovery statistics.
    pub recoveries: RecoveryStats,
    /// Memory-hierarchy statistics.
    pub memory: MemoryStats,
    /// Dispatch stall cycles broken down by cause.
    pub stalls: StallStats,
    /// Peak occupancy of the fetch replay window: the most instructions the
    /// streaming ingestion path ever had to retain for possible rollback
    /// replay. Bounded by the in-flight window (checkpoint depth plus fetch
    /// lookahead), not by the stream length — the memory guarantee of the
    /// [`InstructionSource`](koc_isa::InstructionSource) API.
    pub replay_window_peak: usize,
    /// Whether the run stopped early because it hit a cycle budget
    /// ([`Processor::run_capped`](crate::Processor::run_capped)) before the
    /// trace finished.
    pub budget_exhausted: bool,
}

/// Dispatch-stall cycle counters by cause.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StallStats {
    /// Stalled because the target instruction queue was full.
    pub iq_full: u64,
    /// Stalled because the ROB was full (baseline only).
    pub rob_full: u64,
    /// Stalled because the load/store queue was full.
    pub lsq_full: u64,
    /// Stalled because no physical register was free.
    pub regs_full: u64,
    /// Stalled waiting out a branch-misprediction redirect.
    pub redirect: u64,
    /// Stalled because the checkpoint store bound was hit with a full table.
    pub checkpoint_full: u64,
}

impl SimStats {
    /// Instructions per cycle.
    pub fn ipc(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.committed_instructions as f64 / self.cycles as f64
        }
    }

    /// Average number of in-flight instructions (Figure 11).
    pub fn avg_inflight(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.inflight_sum as f64 / self.cycles as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn retire_breakdown_fractions_sum_to_one() {
        let mut b = RetireBreakdown::default();
        b.record(RetireClass::Moved);
        b.record(RetireClass::Moved);
        b.record(RetireClass::Finished);
        b.record(RetireClass::Store);
        assert_eq!(b.total(), 4);
        assert!((b.fraction(RetireClass::Moved) - 0.5).abs() < 1e-12);
        let sum: f64 = RetireClass::all().iter().map(|&c| b.fraction(c)).sum();
        assert!((sum - 1.0).abs() < 1e-12);
    }

    #[test]
    fn stats_rate_is_zero_with_no_branches() {
        assert_eq!(BranchStats::default().misprediction_rate(), 0.0);
    }

    #[test]
    fn ipc_divides_committed_by_cycles() {
        let stats = SimStats {
            cycles: 200,
            committed_instructions: 500,
            ..Default::default()
        };
        assert!((stats.ipc() - 2.5).abs() < 1e-12);
        assert_eq!(SimStats::default().ipc(), 0.0);
    }

    #[test]
    fn avg_inflight_divides_the_sum_by_cycles() {
        let stats = SimStats {
            cycles: 200,
            inflight_sum: 700,
            ..Default::default()
        };
        assert!((stats.avg_inflight() - 3.5).abs() < 1e-12);
        assert_eq!(SimStats::default().avg_inflight(), 0.0);
    }
}
