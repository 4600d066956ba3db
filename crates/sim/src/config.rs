//! Processor configuration (Table 1) and the commit-engine variants.
//!
//! A [`ProcessorConfig`] holds what the paper's experiments vary. The
//! Table 1 values that every experiment shares are the constants below.

use koc_core::{CheckpointPolicy, SliqConfig};
use koc_mem::MemoryConfig;

/// Instructions fetched, decoded and renamed per cycle (4 in Table 1).
pub const FETCH_WIDTH: usize = 4;
/// Instructions issued to the functional units per cycle (4 in Table 1).
pub const ISSUE_WIDTH: usize = 4;
/// Instructions the baseline ROB commits per cycle (4 in Table 1).
pub const COMMIT_WIDTH: usize = 4;
/// Cycles fetch stalls after a branch misprediction or an exception is
/// resolved (10 in Table 1).
pub const MISPREDICT_PENALTY: u64 = 10;
/// Integer ALUs (4 in Table 1, latency/repeat 1/1).
pub const INT_ALU_UNITS: usize = 4;
/// Integer multiply/divide units (2 in Table 1).
pub const INT_MUL_UNITS: usize = 2;
/// Floating-point units (4 in Table 1, latency/repeat 2/1).
pub const FP_UNITS: usize = 4;
/// Memory ports, i.e. loads and stores issued per cycle (2 in Table 1).
pub const MEM_PORTS: usize = 2;
/// Load/store queue entries (4096 in Table 1, pseudo-perfect).
pub const LSQ_SIZE: usize = 4096;

/// The commit engine: conventional in-order ROB commit, or the paper's
/// checkpointed out-of-order commit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CommitConfig {
    /// Conventional in-order commit from a ROB of the given size.
    InOrderRob {
        /// Reorder-buffer entries (128–4096 in the paper's sweeps).
        rob_size: usize,
    },
    /// Checkpointed out-of-order commit (the paper's proposal).
    Checkpointed {
        /// Checkpoint-table entries (8 in the main configuration).
        checkpoint_entries: usize,
        /// Pseudo-ROB entries (32/64/128; the paper always sizes it equal to
        /// the instruction queues).
        pseudo_rob_size: usize,
        /// SLIQ configuration (512/1024/2048 entries).
        sliq: SliqConfig,
        /// Checkpoint-placement policy.
        policy: CheckpointPolicy,
    },
}

impl CommitConfig {
    /// The paper's main proposal configuration: 8 checkpoints, the given
    /// pseudo-ROB/IQ size, the given SLIQ capacity, paper policy.
    pub fn cooo(pseudo_rob_size: usize, sliq_entries: usize) -> Self {
        CommitConfig::Checkpointed {
            checkpoint_entries: 8,
            pseudo_rob_size,
            sliq: SliqConfig::paper(sliq_entries),
            policy: CheckpointPolicy::paper(),
        }
    }
}

/// Full processor configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ProcessorConfig {
    /// Entries in each general-purpose instruction queue (integer and FP).
    pub iq_size: usize,
    /// Physical registers (4096 in Table 1, "pseudo-perfect"). Renaming
    /// allocates one per destination, so the pool bounds the number of
    /// in-flight definitions.
    pub phys_regs: usize,
    /// Memory hierarchy.
    pub memory: MemoryConfig,
    /// Commit engine.
    pub commit: CommitConfig,
    /// Event-driven fast-forward: when every stage is provably stalled on
    /// the memory backend (or an engine wake-up), jump straight to the next
    /// scheduled event instead of ticking through the dead cycles. Cycle
    /// counts and statistics are bit-identical with the flag off — only
    /// wall-clock changes — which `tests/determinism.rs` pins down.
    pub fast_forward: bool,
}

impl ProcessorConfig {
    /// The Table 1 baseline: a conventional processor with `window` ROB and
    /// instruction-queue entries and the given main-memory latency.
    ///
    /// The paper's baseline scales the ROB and both instruction queues
    /// together ("other resources have been scaled", Figure 1), keeping the
    /// LSQ and physical registers at 4096.
    pub fn baseline(window: usize, memory_latency: u32) -> Self {
        ProcessorConfig {
            iq_size: window,
            phys_regs: 4096,
            memory: MemoryConfig::table1(memory_latency),
            commit: CommitConfig::InOrderRob { rob_size: window },
            fast_forward: true,
        }
    }

    /// The Table 1 baseline with a perfect L2 (Figure 1's first bars).
    pub fn baseline_perfect_l2(window: usize) -> Self {
        ProcessorConfig {
            memory: MemoryConfig::table1_perfect_l2(),
            ..Self::baseline(window, 0)
        }
    }

    /// The paper's proposed machine: out-of-order commit with 8 checkpoints,
    /// `iq_size`-entry pseudo-ROB and instruction queues, and a SLIQ with
    /// `sliq_entries` entries.
    pub fn cooo(iq_size: usize, sliq_entries: usize, memory_latency: u32) -> Self {
        ProcessorConfig {
            iq_size,
            commit: CommitConfig::cooo(iq_size, sliq_entries),
            ..Self::baseline(iq_size, memory_latency)
        }
    }

    /// The Table 1 parameters exactly as printed (4096-entry everything,
    /// 1000-cycle memory): the paper's headline baseline.
    pub fn table1() -> Self {
        Self::baseline(4096, 1000)
    }

    /// Overrides the number of checkpoint-table entries (Figure 13).
    ///
    /// # Panics
    /// Panics if the commit engine is not checkpointed.
    pub fn with_checkpoints(mut self, entries: usize) -> Self {
        match &mut self.commit {
            CommitConfig::Checkpointed {
                checkpoint_entries, ..
            } => *checkpoint_entries = entries,
            #[expect(
                clippy::panic,
                reason = "setter contract: applies only to the checkpointed engine"
            )]
            CommitConfig::InOrderRob { .. } => {
                panic!("checkpoint count applies to the checkpointed engine")
            }
        }
        self
    }

    /// Overrides the SLIQ re-insertion delay (Figure 10).
    ///
    /// # Panics
    /// Panics if the commit engine is not checkpointed.
    pub fn with_reinsert_delay(mut self, delay: u32) -> Self {
        match &mut self.commit {
            CommitConfig::Checkpointed { sliq, .. } => sliq.reinsert_delay = delay,
            #[expect(
                clippy::panic,
                reason = "setter contract: applies only to the checkpointed engine"
            )]
            CommitConfig::InOrderRob { .. } => {
                panic!("re-insertion delay applies to the checkpointed engine")
            }
        }
        self
    }

    /// Overrides the checkpoint-placement policy.
    ///
    /// # Panics
    /// Panics if the commit engine is not checkpointed.
    pub fn with_checkpoint_policy(mut self, policy: CheckpointPolicy) -> Self {
        match &mut self.commit {
            CommitConfig::Checkpointed { policy: p, .. } => *p = policy,
            #[expect(
                clippy::panic,
                reason = "setter contract: applies only to the checkpointed engine"
            )]
            CommitConfig::InOrderRob { .. } => {
                panic!("checkpoint policy applies to the checkpointed engine")
            }
        }
        self
    }

    /// Overrides the number of physical registers (Figures 13 and 14).
    pub fn with_phys_regs(mut self, phys_regs: usize) -> Self {
        self.phys_regs = phys_regs;
        self
    }

    /// Enables or disables the event-driven fast-forward (on by default; see
    /// [`ProcessorConfig::fast_forward`]).
    pub fn with_fast_forward(mut self, enabled: bool) -> Self {
        self.fast_forward = enabled;
        self
    }

    /// Overrides the memory latency, keeping the rest of the hierarchy.
    pub fn with_memory_latency(mut self, latency: u32) -> Self {
        self.memory = self.memory.with_memory_latency(latency);
        self
    }

    /// Validates internal consistency.
    ///
    /// # Errors
    /// Returns a description of the first inconsistency.
    pub fn validate(&self) -> Result<(), String> {
        if self.iq_size == 0 {
            return Err("instruction queues must have at least one entry".into());
        }
        if self.phys_regs < 64 {
            return Err("register pool must cover at least the 64 logical registers".into());
        }
        if let CommitConfig::Checkpointed {
            checkpoint_entries,
            pseudo_rob_size,
            sliq,
            ..
        } = &self.commit
        {
            if *checkpoint_entries == 0 {
                return Err("checkpoint table must have at least one entry".into());
            }
            if *pseudo_rob_size == 0 {
                return Err("pseudo-ROB must have at least one entry".into());
            }
            if sliq.capacity == 0 {
                return Err("SLIQ must have at least one entry".into());
            }
        }
        if let CommitConfig::InOrderRob { rob_size } = &self.commit {
            if *rob_size == 0 {
                return Err("reorder buffer must have at least one entry".into());
            }
        }
        self.memory.validate()
    }
}

impl Default for ProcessorConfig {
    fn default() -> Self {
        Self::table1()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use koc_mem::DramConfig;

    #[test]
    fn table1_matches_the_paper() {
        let c = ProcessorConfig::table1();
        assert_eq!((FETCH_WIDTH, ISSUE_WIDTH, COMMIT_WIDTH), (4, 4, 4));
        assert_eq!(MISPREDICT_PENALTY, 10);
        assert_eq!((INT_ALU_UNITS, INT_MUL_UNITS, FP_UNITS), (4, 2, 4));
        assert_eq!(MEM_PORTS, 2);
        assert_eq!(LSQ_SIZE, 4096);
        assert_eq!(c.iq_size, 4096);
        assert_eq!(c.phys_regs, 4096);
        assert_eq!(c.memory.memory_latency, 1000);
        assert_eq!(c.commit, CommitConfig::InOrderRob { rob_size: 4096 });
        assert!(c.validate().is_ok());
    }

    #[test]
    fn cooo_constructor_uses_eight_checkpoints_and_paper_policy() {
        let c = ProcessorConfig::cooo(128, 2048, 1000);
        match c.commit {
            CommitConfig::Checkpointed {
                checkpoint_entries,
                pseudo_rob_size,
                sliq,
                policy,
            } => {
                assert_eq!(checkpoint_entries, 8);
                assert_eq!(pseudo_rob_size, 128);
                assert_eq!(sliq.capacity, 2048);
                assert_eq!(sliq.reinsert_delay, 4);
                assert_eq!(policy, CheckpointPolicy::paper());
            }
            _ => panic!("expected checkpointed commit"),
        }
        assert_eq!(c.iq_size, 128);
        assert!(c.validate().is_ok());
    }

    #[test]
    fn builder_overrides_apply() {
        let c = ProcessorConfig::cooo(64, 1024, 500)
            .with_checkpoints(32)
            .with_reinsert_delay(12)
            .with_checkpoint_policy(CheckpointPolicy::every_n(64));
        match c.commit {
            CommitConfig::Checkpointed {
                checkpoint_entries,
                sliq,
                policy,
                ..
            } => {
                assert_eq!(checkpoint_entries, 32);
                assert_eq!(sliq.reinsert_delay, 12);
                assert_eq!(policy, CheckpointPolicy::every_n(64));
            }
            _ => unreachable!(),
        }
        assert_eq!(c.with_phys_regs(1024).phys_regs, 1024);
    }

    #[test]
    #[should_panic(expected = "checkpointed engine")]
    fn checkpoint_override_on_baseline_panics() {
        let _ = ProcessorConfig::baseline(128, 1000).with_checkpoints(8);
    }

    #[test]
    #[should_panic(expected = "checkpointed engine")]
    fn checkpoint_policy_override_on_baseline_panics() {
        let _ = ProcessorConfig::baseline(128, 1000)
            .with_checkpoint_policy(CheckpointPolicy::every_n(64));
    }

    #[test]
    fn perfect_l2_baseline_has_perfect_memory() {
        let c = ProcessorConfig::baseline_perfect_l2(2048);
        assert!(c.memory.perfect_l2);
    }

    #[test]
    fn commit_config_cooo_defaults_match_table1() {
        // The paper's main configuration: 8 checkpoints, pseudo-ROB sized
        // like the queues, SLIQ at the requested capacity, paper policy.
        let c = CommitConfig::cooo(128, 2048);
        match c {
            CommitConfig::Checkpointed {
                checkpoint_entries,
                pseudo_rob_size,
                sliq,
                policy,
            } => {
                assert_eq!(checkpoint_entries, 8, "Table 1: 8 checkpoints");
                assert_eq!(pseudo_rob_size, 128);
                assert_eq!(sliq, SliqConfig::paper(2048));
                assert_eq!(policy, CheckpointPolicy::paper());
            }
            CommitConfig::InOrderRob { .. } => unreachable!(),
        }
    }

    #[test]
    fn invalid_configs_are_rejected() {
        let mut c = ProcessorConfig::table1();
        c.iq_size = 0;
        assert!(c.validate().is_err());
        let mut c = ProcessorConfig::table1();
        c.phys_regs = 32;
        assert!(c.validate().is_err());
        assert!(ProcessorConfig::table1()
            .with_phys_regs(64)
            .validate()
            .is_ok());
        let mut c = ProcessorConfig::table1();
        c.commit = CommitConfig::InOrderRob { rob_size: 0 };
        assert!(c.validate().is_err(), "a zero-entry ROB never dispatches");
        let mut c = ProcessorConfig::table1();
        c.memory = c.memory.with_dram(DramConfig { mshr_entries: 0 });
        assert!(
            c.validate().is_err(),
            "a DRAM part with no MSHR never loads"
        );
    }
}
