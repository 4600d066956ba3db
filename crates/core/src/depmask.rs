//! The logical-register dependence bit mask used by SLIQ (Section 3).
//!
//! When a long-latency load leaves the pseudo-ROB, the paper starts a simple
//! forward dependence computation: a bit per logical register, initially only
//! the load's destination. Every later instruction extracted from the
//! pseudo-ROB *joins* the dependent set (and contributes its destination to
//! the mask) if it reads a masked register, and *clears* its destination bit
//! otherwise (an independent redefinition kills the dependence). The paper
//! notes this is the classic reaching-definitions trick from compiler
//! construction.
//!
//! The paper describes a 32-bit mask (integer registers); we track all 64
//! logical registers (32 INT + 32 FP) in a `u64` since FP codes chain through
//! FP registers.

use koc_isa::{ArchReg, Instruction};

/// A dependence mask over the 64 logical registers.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DependenceMask {
    bits: u64,
}

impl DependenceMask {
    /// An empty mask (nothing is dependent).
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates a mask seeded with the destination of a long-latency load.
    pub fn seeded(load_dest: ArchReg) -> Self {
        let mut m = Self::new();
        m.set(load_dest);
        m
    }

    /// Marks `reg` as produced by a long-latency instruction.
    pub fn set(&mut self, reg: ArchReg) {
        self.bits |= 1 << reg.flat_index();
    }

    /// Clears `reg` (it has been redefined by an independent instruction).
    pub fn clear(&mut self, reg: ArchReg) {
        self.bits &= !(1 << reg.flat_index());
    }

    /// Whether `reg` currently carries a long-latency dependence.
    pub fn contains(&self, reg: ArchReg) -> bool {
        self.bits & (1 << reg.flat_index()) != 0
    }

    /// Whether the mask is empty.
    pub fn is_empty(&self) -> bool {
        self.bits == 0
    }

    /// Number of registers currently marked dependent.
    pub fn len(&self) -> usize {
        self.bits.count_ones() as usize
    }

    /// The registers currently marked dependent, lowest flat index first.
    pub fn regs(self) -> impl Iterator<Item = ArchReg> {
        let mut bits = self.bits;
        std::iter::from_fn(move || {
            if bits == 0 {
                return None;
            }
            let index = bits.trailing_zeros() as usize;
            bits &= bits - 1;
            Some(ArchReg::from_flat_index(index))
        })
    }

    /// Classifies `inst` against the mask and updates the mask, exactly as
    /// the pseudo-ROB extraction logic does:
    ///
    /// * if any source of `inst` is marked, the instruction is **dependent**;
    ///   its destination (if any) joins the mask and `true` is returned;
    /// * otherwise the instruction is independent; its destination (if any)
    ///   is cleared from the mask and `false` is returned.
    pub fn classify_and_update(&mut self, inst: &Instruction) -> bool {
        let dependent = inst.sources().any(|s| self.contains(s));
        if let Some(dest) = inst.dest {
            if dependent {
                self.set(dest);
            } else {
                self.clear(dest);
            }
        }
        dependent
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use koc_isa::{Instruction, OpKind};

    #[test]
    fn seeded_mask_contains_only_the_seed() {
        let m = DependenceMask::seeded(ArchReg::fp(3));
        assert!(m.contains(ArchReg::fp(3)));
        assert!(!m.contains(ArchReg::fp(4)));
        assert_eq!(m.len(), 1);
    }

    #[test]
    fn regs_lists_the_marked_registers_in_flat_order() {
        let mut m = DependenceMask::seeded(ArchReg::fp(31));
        m.set(ArchReg::int(0));
        m.set(ArchReg::fp(2));
        let regs: Vec<ArchReg> = m.regs().collect();
        assert_eq!(regs, vec![ArchReg::int(0), ArchReg::fp(2), ArchReg::fp(31)]);
        assert_eq!(DependenceMask::new().regs().count(), 0);
    }

    #[test]
    fn consumer_of_masked_register_becomes_dependent() {
        let mut m = DependenceMask::seeded(ArchReg::fp(1));
        let consumer = Instruction::op(
            0,
            OpKind::FpAlu,
            Some(ArchReg::fp(2)),
            &[ArchReg::fp(1), ArchReg::fp(3)],
        );
        assert!(m.classify_and_update(&consumer));
        assert!(m.contains(ArchReg::fp(2)), "destination joined the mask");
    }

    #[test]
    fn transitive_dependences_propagate() {
        let mut m = DependenceMask::seeded(ArchReg::fp(1));
        let a = Instruction::op(0, OpKind::FpAlu, Some(ArchReg::fp(2)), &[ArchReg::fp(1)]);
        let b = Instruction::op(4, OpKind::FpAlu, Some(ArchReg::fp(3)), &[ArchReg::fp(2)]);
        assert!(m.classify_and_update(&a));
        assert!(m.classify_and_update(&b));
        assert_eq!(m.len(), 3);
    }

    #[test]
    fn independent_redefinition_kills_the_dependence() {
        let mut m = DependenceMask::seeded(ArchReg::fp(1));
        // F1 is redefined from independent sources: later readers of F1 are
        // no longer dependent on the long-latency load.
        let redef = Instruction::op(0, OpKind::FpAlu, Some(ArchReg::fp(1)), &[ArchReg::fp(5)]);
        assert!(!m.classify_and_update(&redef));
        assert!(m.is_empty());
        let reader = Instruction::op(4, OpKind::FpAlu, Some(ArchReg::fp(6)), &[ArchReg::fp(1)]);
        assert!(!m.classify_and_update(&reader));
    }

    #[test]
    fn stores_and_branches_can_be_dependent_without_destinations() {
        let mut m = DependenceMask::seeded(ArchReg::fp(1));
        let st = Instruction::store(0, ArchReg::fp(1), ArchReg::int(2), 0x100);
        assert!(m.classify_and_update(&st));
        let br = Instruction::branch(4, ArchReg::int(9), true, 0);
        assert!(!m.classify_and_update(&br));
    }

    #[test]
    fn int_and_fp_registers_do_not_alias_in_the_mask() {
        let mut m = DependenceMask::new();
        m.set(ArchReg::int(5));
        assert!(!m.contains(ArchReg::fp(5)));
    }

    #[test]
    fn clear_removes_a_single_register() {
        let mut m = DependenceMask::seeded(ArchReg::fp(1));
        m.set(ArchReg::fp(2));
        m.clear(ArchReg::fp(1));
        assert!(!m.contains(ArchReg::fp(1)));
        assert!(m.contains(ArchReg::fp(2)));
    }
}
