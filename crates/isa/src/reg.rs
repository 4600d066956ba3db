//! Logical (architectural) and physical register identifiers.
//!
//! The machine model follows the paper's Alpha-like ISA: 32 integer and 32
//! floating-point logical registers. Integer register 31 is *not* special
//! (we do not model a hard-wired zero register; the workload generators
//! simply never read what they did not write).

use std::fmt;

/// Number of integer logical registers.
pub const NUM_INT_REGS: usize = 32;
/// Number of floating-point logical registers.
pub const NUM_FP_REGS: usize = 32;
/// Total number of logical registers (integer + floating point).
pub const NUM_ARCH_REGS: usize = NUM_INT_REGS + NUM_FP_REGS;

/// The class of a register: integer or floating point.
///
/// The paper sizes the integer and floating-point instruction queues
/// separately, and the SLIQ dependence mask in Section 3 is a bit mask over
/// logical registers, so the class is part of a register's identity.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum RegClass {
    /// Integer register (`R0`–`R31`).
    Int,
    /// Floating-point register (`F0`–`F31`).
    Fp,
}

impl fmt::Display for RegClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RegClass::Int => write!(f, "int"),
            RegClass::Fp => write!(f, "fp"),
        }
    }
}

/// A logical (architectural) register: `R0`–`R31` or `F0`–`F31`.
///
/// Internally stored as a single flat index in `0..NUM_ARCH_REGS` so that it
/// can directly index the rename map and the 64-bit dependence mask used by
/// the SLIQ mechanism.
///
/// ```
/// use koc_isa::{ArchReg, RegClass};
/// let r = ArchReg::int(3);
/// assert_eq!(r.class(), RegClass::Int);
/// assert_eq!(r.number(), 3);
/// assert_eq!(ArchReg::fp(3).flat_index(), 32 + 3);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ArchReg(u8);

impl ArchReg {
    /// Creates an integer register `R{n}`.
    ///
    /// # Panics
    /// Panics if `n >= 32`.
    pub fn int(n: u8) -> Self {
        assert!(
            (n as usize) < NUM_INT_REGS,
            "integer register out of range: {n}"
        );
        ArchReg(n)
    }

    /// Creates a floating-point register `F{n}`.
    ///
    /// # Panics
    /// Panics if `n >= 32`.
    pub fn fp(n: u8) -> Self {
        assert!((n as usize) < NUM_FP_REGS, "fp register out of range: {n}");
        ArchReg(NUM_INT_REGS as u8 + n)
    }

    /// Creates a register from its flat index in `0..NUM_ARCH_REGS`.
    ///
    /// # Panics
    /// Panics if `index >= NUM_ARCH_REGS`.
    pub fn from_flat_index(index: usize) -> Self {
        assert!(
            index < NUM_ARCH_REGS,
            "flat register index out of range: {index}"
        );
        ArchReg(index as u8)
    }

    /// The register class (integer or floating point).
    pub fn class(self) -> RegClass {
        if (self.0 as usize) < NUM_INT_REGS {
            RegClass::Int
        } else {
            RegClass::Fp
        }
    }

    /// The register number within its class (`0..32`).
    pub fn number(self) -> u8 {
        match self.class() {
            RegClass::Int => self.0,
            RegClass::Fp => self.0 - NUM_INT_REGS as u8,
        }
    }

    /// Flat index in `0..NUM_ARCH_REGS`, suitable for indexing rename tables
    /// and the SLIQ dependence bit mask.
    pub fn flat_index(self) -> usize {
        self.0 as usize
    }

    /// Iterates over every logical register, integer registers first.
    pub fn all() -> impl Iterator<Item = ArchReg> {
        (0..NUM_ARCH_REGS).map(ArchReg::from_flat_index)
    }
}

impl fmt::Display for ArchReg {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.class() {
            RegClass::Int => write!(f, "R{}", self.number()),
            RegClass::Fp => write!(f, "F{}", self.number()),
        }
    }
}

/// A physical register identifier, handed out by the rename stage.
///
/// Physical registers are a single flat pool shared by both classes, exactly
/// as in the paper's CAM register-mapping figures, where the mapping table is
/// indexed by physical register.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct PhysReg(pub u32);

impl PhysReg {
    /// The index of this physical register within the register file.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for PhysReg {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "p{}", self.0)
    }
}

/// An inline list of up to [`MAX_SRCS`](crate::inst::MAX_SRCS) physical
/// registers.
///
/// Renamed source operands are bounded by the ISA's source-operand count, so
/// queue and in-flight bookkeeping never needs a heap-allocated `Vec` for
/// them — with hundreds of thousands of dispatches per simulated run, that
/// per-instruction allocation is pure hot-loop churn. `RegList` is `Copy`
/// and dereferences to a slice, so it drops into existing `Vec<PhysReg>`
/// call sites unchanged.
///
/// ```
/// use koc_isa::{PhysReg, RegList};
/// let l: RegList = [PhysReg(3), PhysReg(9)].into_iter().collect();
/// assert_eq!(l.len(), 2);
/// assert_eq!(l[1], PhysReg(9));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct RegList {
    regs: [PhysReg; crate::inst::MAX_SRCS],
    len: u8,
}

impl Default for RegList {
    fn default() -> Self {
        Self::new()
    }
}

impl RegList {
    /// An empty list.
    pub const fn new() -> Self {
        RegList {
            regs: [PhysReg(0); crate::inst::MAX_SRCS],
            len: 0,
        }
    }

    /// Appends a register.
    ///
    /// # Panics
    /// Panics if the list already holds [`MAX_SRCS`](crate::inst::MAX_SRCS)
    /// registers.
    pub fn push(&mut self, reg: PhysReg) {
        let i = self.len as usize;
        assert!(i < crate::inst::MAX_SRCS, "RegList overflow");
        self.regs[i] = reg;
        self.len += 1;
    }

    /// The registers as a slice.
    pub fn as_slice(&self) -> &[PhysReg] {
        &self.regs[..self.len as usize]
    }
}

impl std::ops::Deref for RegList {
    type Target = [PhysReg];

    fn deref(&self) -> &[PhysReg] {
        self.as_slice()
    }
}

impl FromIterator<PhysReg> for RegList {
    fn from_iter<I: IntoIterator<Item = PhysReg>>(iter: I) -> Self {
        let mut list = RegList::new();
        for r in iter {
            list.push(r);
        }
        list
    }
}

impl From<&[PhysReg]> for RegList {
    fn from(slice: &[PhysReg]) -> Self {
        slice.iter().copied().collect()
    }
}

impl<'a> IntoIterator for &'a RegList {
    type Item = &'a PhysReg;
    type IntoIter = std::slice::Iter<'a, PhysReg>;

    fn into_iter(self) -> Self::IntoIter {
        self.as_slice().iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn int_and_fp_registers_have_distinct_flat_indices() {
        let r3 = ArchReg::int(3);
        let f3 = ArchReg::fp(3);
        assert_ne!(r3, f3);
        assert_eq!(r3.flat_index(), 3);
        assert_eq!(f3.flat_index(), 35);
        assert_eq!(r3.number(), f3.number());
    }

    #[test]
    fn classes_are_reported_correctly() {
        assert_eq!(ArchReg::int(0).class(), RegClass::Int);
        assert_eq!(ArchReg::int(31).class(), RegClass::Int);
        assert_eq!(ArchReg::fp(0).class(), RegClass::Fp);
        assert_eq!(ArchReg::fp(31).class(), RegClass::Fp);
    }

    #[test]
    fn flat_index_round_trips() {
        for r in ArchReg::all() {
            assert_eq!(ArchReg::from_flat_index(r.flat_index()), r);
        }
    }

    #[test]
    fn all_yields_every_register_once() {
        let regs: Vec<_> = ArchReg::all().collect();
        assert_eq!(regs.len(), NUM_ARCH_REGS);
        let ints = regs.iter().filter(|r| r.class() == RegClass::Int).count();
        assert_eq!(ints, NUM_INT_REGS);
    }

    #[test]
    fn display_formats_are_stable() {
        assert_eq!(ArchReg::int(5).to_string(), "R5");
        assert_eq!(ArchReg::fp(7).to_string(), "F7");
        assert_eq!(PhysReg(12).to_string(), "p12");
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_int_register_panics() {
        let _ = ArchReg::int(32);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_flat_index_panics() {
        let _ = ArchReg::from_flat_index(64);
    }

    #[test]
    fn ordering_follows_flat_index() {
        assert!(ArchReg::int(0) < ArchReg::int(1));
        assert!(ArchReg::int(31) < ArchReg::fp(0));
    }
}
