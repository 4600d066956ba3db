//! Processor configuration (Table 1) and the commit-engine variants.

use koc_core::{CheckpointPolicy, SliqConfig};
use koc_mem::MemoryConfig;

/// Which branch predictor the front end uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BranchPredictorKind {
    /// The Table 1 predictor: 16K-entry gshare.
    Gshare16k,
    /// A perfect predictor (limit studies).
    Perfect,
}

/// How destination registers are backed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RegisterModel {
    /// Conventional renaming: a physical register is allocated at rename and
    /// the pool size bounds the number of in-flight definitions.
    Conventional {
        /// Number of physical registers (4096 in Table 1, "pseudo-perfect").
        phys_regs: usize,
    },
    /// Ephemeral / virtual registers (Figure 14): rename only needs a virtual
    /// tag. The write-back stage acquires a physical register when a
    /// definition writes back (retrying next cycle if none is free), and
    /// recycles one register at that same write-back when the definition
    /// supersedes an earlier one of the same logical register. Nothing is
    /// released at commit or squash. The paper's rule, holding a register
    /// until the superseding definition's checkpoint commits, is not yet
    /// modelled (ROADMAP item 4).
    Virtual {
        /// Number of virtual tags.
        virtual_tags: usize,
        /// Number of physical registers.
        phys_regs: usize,
    },
}

impl RegisterModel {
    /// The size of the underlying physical register pool used for renaming
    /// bookkeeping.
    pub fn rename_pool_size(&self) -> usize {
        match *self {
            RegisterModel::Conventional { phys_regs } => phys_regs,
            // Virtual tags are what rename consumes; the rename pool must be
            // able to name every in-flight definition.
            RegisterModel::Virtual { virtual_tags, .. } => virtual_tags,
        }
    }
}

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
    /// Instructions fetched/decoded/renamed per cycle (4 in Table 1).
    pub fetch_width: usize,
    /// Instructions issued to functional units per cycle (4 in Table 1).
    pub issue_width: usize,
    /// Instructions committed per cycle in the baseline ROB (4 in Table 1).
    pub commit_width: usize,
    /// Branch misprediction redirect penalty in cycles (10 in Table 1).
    pub mispredict_penalty: u32,
    /// Integer ALU units (4).
    pub int_alu_units: usize,
    /// Integer multiply/divide units (2).
    pub int_mul_units: usize,
    /// Floating-point units (4).
    pub fp_units: usize,
    /// Memory ports (2).
    pub mem_ports: usize,
    /// Entries in each general-purpose instruction queue (integer and FP).
    pub iq_size: usize,
    /// Load/store queue entries (4096, pseudo-perfect).
    pub lsq_size: usize,
    /// Register model (4096 conventional physical registers in Table 1).
    pub registers: RegisterModel,
    /// Branch predictor.
    pub predictor: BranchPredictorKind,
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
            fetch_width: 4,
            issue_width: 4,
            commit_width: 4,
            mispredict_penalty: 10,
            int_alu_units: 4,
            int_mul_units: 2,
            fp_units: 4,
            mem_ports: 2,
            iq_size: window,
            lsq_size: 4096,
            registers: RegisterModel::Conventional { phys_regs: 4096 },
            predictor: BranchPredictorKind::Gshare16k,
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

    /// Overrides the register model (Figures 13 and 14).
    pub fn with_registers(mut self, registers: RegisterModel) -> Self {
        self.registers = registers;
        self
    }

    /// Overrides the branch predictor.
    pub fn with_predictor(mut self, predictor: BranchPredictorKind) -> Self {
        self.predictor = predictor;
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
        if self.fetch_width == 0 || self.issue_width == 0 || self.commit_width == 0 {
            return Err("pipeline widths must be non-zero".into());
        }
        for (field, units) in [
            ("int_alu_units", self.int_alu_units),
            ("int_mul_units", self.int_mul_units),
            ("fp_units", self.fp_units),
            ("mem_ports", self.mem_ports),
        ] {
            if units == 0 {
                return Err(format!("{field} must be non-zero"));
            }
        }
        if self.iq_size == 0 {
            return Err("instruction queues must have at least one entry".into());
        }
        if self.lsq_size == 0 {
            return Err("load/store queue must have at least one entry".into());
        }
        if self.registers.rename_pool_size() < 64 {
            return Err("register pool must cover at least the 64 logical registers".into());
        }
        if let RegisterModel::Virtual { phys_regs, .. } = self.registers {
            if phys_regs < 64 {
                return Err(
                    "physical register pool must cover at least the 64 logical registers".into(),
                );
            }
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
            if sliq.capacity == 0 || sliq.wake_width == 0 {
                return Err("SLIQ capacity and wake width must be non-zero".into());
            }
        }
        if let CommitConfig::InOrderRob { rob_size } = &self.commit {
            if *rob_size == 0 {
                return Err("reorder buffer must have at least one entry".into());
            }
        }
        Ok(())
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

    #[test]
    fn table1_matches_the_paper() {
        let c = ProcessorConfig::table1();
        assert_eq!(c.fetch_width, 4);
        assert_eq!(c.commit_width, 4);
        assert_eq!(c.mispredict_penalty, 10);
        assert_eq!(c.int_alu_units, 4);
        assert_eq!(c.int_mul_units, 2);
        assert_eq!(c.fp_units, 4);
        assert_eq!(c.mem_ports, 2);
        assert_eq!(c.iq_size, 4096);
        assert_eq!(c.lsq_size, 4096);
        assert_eq!(c.registers, RegisterModel::Conventional { phys_regs: 4096 });
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
        let v = c.with_registers(RegisterModel::Virtual {
            virtual_tags: 1024,
            phys_regs: 256,
        });
        assert_eq!(v.registers.rename_pool_size(), 1024);
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
    fn rename_pool_follows_the_register_model() {
        // Conventional renaming consumes physical registers...
        assert_eq!(
            RegisterModel::Conventional { phys_regs: 4096 }.rename_pool_size(),
            4096
        );
        assert_eq!(
            RegisterModel::Conventional { phys_regs: 64 }.rename_pool_size(),
            64
        );
        // ...while the ephemeral/virtual scheme renames onto virtual tags;
        // the physical count only bounds post-write-back occupancy.
        assert_eq!(
            RegisterModel::Virtual {
                virtual_tags: 1024,
                phys_regs: 256
            }
            .rename_pool_size(),
            1024
        );
        assert_eq!(
            RegisterModel::Virtual {
                virtual_tags: 512,
                phys_regs: 4096
            }
            .rename_pool_size(),
            512
        );
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
    fn virtual_physical_pool_must_cover_the_logical_registers() {
        // Fewer physical registers than logical ones deadlocks write-back.
        let virtual_regs = |phys_regs| {
            ProcessorConfig::cooo(128, 2048, 1000).with_registers(RegisterModel::Virtual {
                virtual_tags: 2048,
                phys_regs,
            })
        };
        for phys_regs in [16, 63] {
            let err = virtual_regs(phys_regs).validate().unwrap_err();
            assert!(err.contains("physical register pool"), "{err}");
        }
        assert!(virtual_regs(64).validate().is_ok());
    }

    #[test]
    fn invalid_configs_are_rejected() {
        let mut c = ProcessorConfig::table1();
        c.iq_size = 0;
        assert!(c.validate().is_err());
        let mut c = ProcessorConfig::table1();
        c.registers = RegisterModel::Conventional { phys_regs: 32 };
        assert!(c.validate().is_err());
        let mut c = ProcessorConfig::table1();
        c.commit = CommitConfig::InOrderRob { rob_size: 0 };
        assert!(c.validate().is_err(), "a zero-entry ROB never dispatches");
        // A machine without some class of functional unit can never issue
        // that class and deadlocks instead of failing validation.
        type Zero = fn(&mut ProcessorConfig);
        let zeroed: [(&str, Zero); 4] = [
            ("int_alu_units", |c| c.int_alu_units = 0),
            ("int_mul_units", |c| c.int_mul_units = 0),
            ("fp_units", |c| c.fp_units = 0),
            ("mem_ports", |c| c.mem_ports = 0),
        ];
        for (field, zero) in zeroed {
            let mut c = ProcessorConfig::table1();
            zero(&mut c);
            let err = c.validate().expect_err(field);
            assert!(err.contains(field), "{err} must name {field}");
        }
    }
}
