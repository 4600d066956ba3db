//! Tests of the Section 3 logical-register dependence mask.
//!
//! The mask has no type of its own: [`DependenceTracker`] keeps it as one
//! optional trigger per logical register, and a register is in the mask
//! exactly when it names a trigger. These tests check the mask's rules
//! through the tracker.
//!
//! [`DependenceTracker`]: crate::sliq::DependenceTracker

#[cfg(test)]
mod tests {
    use crate::sliq::DependenceTracker;
    use koc_isa::{ArchReg, Instruction, OpKind, PhysReg, NUM_ARCH_REGS};

    const LOAD: PhysReg = PhysReg(41);

    /// A tracker whose mask holds only `reg`, triggered by [`LOAD`].
    fn seeded(reg: ArchReg) -> DependenceTracker {
        let mut t = DependenceTracker::new();
        t.add_long_latency_load(reg, LOAD);
        t
    }

    /// Number of registers in the mask.
    fn len(t: &DependenceTracker) -> usize {
        (0..NUM_ARCH_REGS)
            .filter(|&i| t.trigger_for(ArchReg::from_flat_index(i)).is_some())
            .count()
    }

    fn contains(t: &DependenceTracker, reg: ArchReg) -> bool {
        t.trigger_for(reg).is_some()
    }

    #[test]
    fn seeded_mask_contains_only_the_seed() {
        let t = seeded(ArchReg::fp(3));
        assert!(contains(&t, ArchReg::fp(3)));
        assert!(!contains(&t, ArchReg::fp(4)));
        assert_eq!(len(&t), 1);
    }

    #[test]
    fn consumer_of_masked_register_becomes_dependent() {
        let mut t = seeded(ArchReg::fp(1));
        let consumer = Instruction::op(
            0,
            OpKind::FpAlu,
            Some(ArchReg::fp(2)),
            &[ArchReg::fp(1), ArchReg::fp(3)],
        );
        assert_eq!(t.classify(&consumer), Some(LOAD));
        assert!(contains(&t, ArchReg::fp(2)), "destination joined the mask");
    }

    #[test]
    fn transitive_dependences_propagate() {
        let mut t = seeded(ArchReg::fp(1));
        let a = Instruction::op(0, OpKind::FpAlu, Some(ArchReg::fp(2)), &[ArchReg::fp(1)]);
        let b = Instruction::op(4, OpKind::FpAlu, Some(ArchReg::fp(3)), &[ArchReg::fp(2)]);
        assert_eq!(t.classify(&a), Some(LOAD));
        assert_eq!(t.classify(&b), Some(LOAD));
        assert_eq!(len(&t), 3);
    }

    #[test]
    fn independent_redefinition_kills_the_dependence() {
        let mut t = seeded(ArchReg::fp(1));
        // F1 is redefined from independent sources: later readers of F1 are
        // no longer dependent on the long-latency load.
        let redef = Instruction::op(0, OpKind::FpAlu, Some(ArchReg::fp(1)), &[ArchReg::fp(5)]);
        assert_eq!(t.classify(&redef), None);
        assert!(t.is_empty());
        let reader = Instruction::op(4, OpKind::FpAlu, Some(ArchReg::fp(6)), &[ArchReg::fp(1)]);
        assert_eq!(t.classify(&reader), None);
    }

    #[test]
    fn stores_and_branches_can_be_dependent_without_destinations() {
        let mut t = seeded(ArchReg::fp(1));
        let st = Instruction::store(0, ArchReg::fp(1), ArchReg::int(2), 0x100);
        assert_eq!(t.classify(&st), Some(LOAD));
        let br = Instruction::branch(4, ArchReg::int(9), true, 0);
        assert_eq!(t.classify(&br), None);
        assert_eq!(len(&t), 1, "neither has a destination to add or clear");
    }

    #[test]
    fn int_and_fp_registers_do_not_alias_in_the_mask() {
        let t = seeded(ArchReg::int(5));
        assert!(contains(&t, ArchReg::int(5)));
        assert!(!contains(&t, ArchReg::fp(5)));
    }

    #[test]
    fn clear_removes_a_single_register() {
        let mut t = seeded(ArchReg::fp(1));
        t.add_long_latency_load(ArchReg::fp(2), PhysReg(42));
        t.clear_register(ArchReg::fp(1));
        assert!(!contains(&t, ArchReg::fp(1)));
        assert!(contains(&t, ArchReg::fp(2)));
    }
}
