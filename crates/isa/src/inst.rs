//! Dynamic instructions: one executed micro-op of a trace.

use crate::op::OpKind;
use crate::reg::ArchReg;
use std::fmt;

/// Maximum number of register sources a dynamic instruction may have.
///
/// Two operand sources plus, for stores, the data register.
pub const MAX_SRCS: usize = 3;

/// A memory access performed by a load or store.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct MemAccess {
    /// Byte address accessed.
    pub addr: u64,
    /// Access size in bytes (8 for the FP doubles the workloads use).
    pub size: u8,
}

impl MemAccess {
    /// Creates a memory access descriptor.
    pub fn new(addr: u64, size: u8) -> Self {
        MemAccess { addr, size }
    }
}

/// The resolved outcome of a branch in the dynamic trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct BranchInfo {
    /// Whether the branch was actually taken.
    pub taken: bool,
    /// Target program counter if taken.
    pub target: u64,
    /// Whether this branch is an unconditional jump / call / return.
    pub unconditional: bool,
}

impl BranchInfo {
    /// A conditional branch with the given outcome and target.
    pub fn conditional(taken: bool, target: u64) -> Self {
        BranchInfo {
            taken,
            target,
            unconditional: false,
        }
    }

    /// An unconditional (always taken) branch.
    pub fn unconditional(target: u64) -> Self {
        BranchInfo {
            taken: true,
            target,
            unconditional: true,
        }
    }
}

/// One dynamic instruction of a trace.
///
/// The simulator is trace driven: register *values* are not modelled, only
/// dependences (via architectural register names), memory addresses and
/// branch outcomes — everything the pipeline timing depends on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Instruction {
    /// Program counter of the instruction (used by the branch predictor).
    pub pc: u64,
    /// Operation class.
    pub kind: OpKind,
    /// Destination register, if the operation writes one.
    pub dest: Option<ArchReg>,
    /// Source registers (up to [`MAX_SRCS`]); `None` entries are unused slots.
    pub srcs: [Option<ArchReg>; MAX_SRCS],
    /// Memory access, for loads and stores.
    pub mem: Option<MemAccess>,
    /// Branch outcome, for branches.
    pub branch: Option<BranchInfo>,
    /// When set, the instruction raises an exception at execute; used by
    /// tests to exercise precise-state recovery.
    pub raises_exception: bool,
}

impl Instruction {
    /// Creates a non-memory, non-branch instruction.
    ///
    /// # Panics
    /// Panics if more than [`MAX_SRCS`] sources are supplied.
    pub fn op(pc: u64, kind: OpKind, dest: Option<ArchReg>, srcs: &[ArchReg]) -> Self {
        assert!(srcs.len() <= MAX_SRCS, "too many sources: {}", srcs.len());
        let mut s = [None; MAX_SRCS];
        for (slot, &r) in s.iter_mut().zip(srcs.iter()) {
            *slot = Some(r);
        }
        Instruction {
            pc,
            kind,
            dest,
            srcs: s,
            mem: None,
            branch: None,
            raises_exception: false,
        }
    }

    /// Creates a load of `dest` from `[base]` at byte address `addr`.
    pub fn load(pc: u64, dest: ArchReg, base: ArchReg, addr: u64) -> Self {
        let mut i = Instruction::op(pc, OpKind::Load, Some(dest), &[base]);
        i.mem = Some(MemAccess::new(addr, 8));
        i
    }

    /// Creates a store of `data` to `[base]` at byte address `addr`.
    pub fn store(pc: u64, data: ArchReg, base: ArchReg, addr: u64) -> Self {
        let mut i = Instruction::op(pc, OpKind::Store, None, &[base, data]);
        i.mem = Some(MemAccess::new(addr, 8));
        i
    }

    /// Creates a conditional branch depending on `cond`.
    pub fn branch(pc: u64, cond: ArchReg, taken: bool, target: u64) -> Self {
        let mut i = Instruction::op(pc, OpKind::Branch, None, &[cond]);
        i.branch = Some(BranchInfo::conditional(taken, target));
        i
    }

    /// Iterates over the used source registers.
    pub fn sources(&self) -> impl Iterator<Item = ArchReg> + '_ {
        self.srcs.iter().flatten().copied()
    }

    /// Number of used source registers.
    pub fn num_sources(&self) -> usize {
        self.srcs.iter().flatten().count()
    }

    /// Whether this is a load.
    pub fn is_load(&self) -> bool {
        self.kind == OpKind::Load
    }

    /// Whether this is a store.
    pub fn is_store(&self) -> bool {
        self.kind == OpKind::Store
    }

    /// Whether this is a branch.
    pub fn is_branch(&self) -> bool {
        self.kind == OpKind::Branch
    }

    /// Marks the instruction as exception-raising (builder style).
    pub fn with_exception(mut self) -> Self {
        self.raises_exception = true;
        self
    }
}

impl fmt::Display for Instruction {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:#x}: {}", self.pc, self.kind)?;
        if let Some(d) = self.dest {
            write!(f, " {d} <-")?;
        }
        for s in self.sources() {
            write!(f, " {s}")?;
        }
        if let Some(m) = &self.mem {
            write!(f, " [{:#x}]", m.addr)?;
        }
        if let Some(b) = &self.branch {
            write!(f, " ({})", if b.taken { "taken" } else { "not-taken" })?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn op_constructor_fills_sources_in_order() {
        let i = Instruction::op(
            0x10,
            OpKind::FpAlu,
            Some(ArchReg::fp(1)),
            &[ArchReg::fp(2), ArchReg::fp(3)],
        );
        assert_eq!(i.num_sources(), 2);
        let srcs: Vec<_> = i.sources().collect();
        assert_eq!(srcs, vec![ArchReg::fp(2), ArchReg::fp(3)]);
        assert_eq!(i.dest, Some(ArchReg::fp(1)));
        assert!(!i.is_load());
    }

    #[test]
    fn load_carries_memory_access_and_dest() {
        let i = Instruction::load(0x20, ArchReg::fp(4), ArchReg::int(2), 0x8000);
        assert!(i.is_load());
        assert_eq!(i.mem.unwrap().addr, 0x8000);
        assert_eq!(i.dest, Some(ArchReg::fp(4)));
        assert_eq!(i.num_sources(), 1);
    }

    #[test]
    fn store_has_no_destination_but_two_sources() {
        let i = Instruction::store(0x24, ArchReg::fp(4), ArchReg::int(2), 0x8008);
        assert!(i.is_store());
        assert_eq!(i.dest, None);
        assert_eq!(i.num_sources(), 2);
    }

    #[test]
    fn branch_records_outcome() {
        let i = Instruction::branch(0x30, ArchReg::int(1), true, 0x10);
        assert!(i.is_branch());
        assert!(i.branch.unwrap().taken);
        assert_eq!(i.branch.unwrap().target, 0x10);
        assert!(!i.branch.unwrap().unconditional);
    }

    #[test]
    fn exception_flag_is_builder_style() {
        let i = Instruction::op(0, OpKind::IntAlu, Some(ArchReg::int(1)), &[]).with_exception();
        assert!(i.raises_exception);
    }

    #[test]
    #[should_panic(expected = "too many sources")]
    fn too_many_sources_panics() {
        let r = ArchReg::int(1);
        let _ = Instruction::op(0, OpKind::IntAlu, None, &[r, r, r, r]);
    }

    #[test]
    fn display_mentions_kind_and_registers() {
        let i = Instruction::load(0x20, ArchReg::fp(4), ArchReg::int(2), 0x8000);
        let s = i.to_string();
        assert!(s.contains("load"));
        assert!(s.contains("F4"));
        assert!(s.contains("0x8000"));
    }
}
