//! Operation kinds, functional-unit classes and execution latencies.
//!
//! Latencies and functional-unit counts follow Table 1 of the paper:
//!
//! | Unit                  | count | latency / repeat |
//! |-----------------------|-------|------------------|
//! | Integer general units | 4     | 1 / 1            |
//! | Integer mult units    | 2     | 3 / 1            |
//! | Integer div units     | 2 (shared with mult) | 20 / 20 |
//! | FP functional units   | 4     | 2 / 1            |
//! | Memory ports          | 2     | cache-dependent  |

use std::fmt;

/// The operation class of a dynamic instruction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum OpKind {
    /// Simple integer ALU operation (add, logic, shift, compare).
    IntAlu,
    /// Integer multiply.
    IntMul,
    /// Integer divide.
    IntDiv,
    /// Floating-point add/mul/compare (the paper models a single 2-cycle FP unit class).
    FpAlu,
    /// Floating-point divide / square root (long latency, unpipelined).
    FpDiv,
    /// Memory load.
    Load,
    /// Memory store.
    Store,
    /// Conditional or unconditional branch.
    Branch,
    /// No-operation (used for padding in hand-written tests).
    Nop,
}

impl OpKind {
    /// Returns `true` for loads and stores.
    pub fn is_memory(self) -> bool {
        matches!(self, OpKind::Load | OpKind::Store)
    }

    /// Returns `true` for branches.
    pub fn is_branch(self) -> bool {
        matches!(self, OpKind::Branch)
    }

    /// Returns `true` if the operation produces a floating-point result or
    /// consumes floating-point sources (used to steer instructions to the
    /// floating-point instruction queue).
    pub fn is_fp(self) -> bool {
        matches!(self, OpKind::FpAlu | OpKind::FpDiv)
    }

    /// The functional-unit class this operation issues to.
    pub fn fu_class(self) -> FuClass {
        match self {
            OpKind::IntAlu | OpKind::Branch | OpKind::Nop => FuClass::IntAlu,
            OpKind::IntMul | OpKind::IntDiv => FuClass::IntMul,
            OpKind::FpAlu | OpKind::FpDiv => FuClass::Fp,
            OpKind::Load | OpKind::Store => FuClass::Mem,
        }
    }

    /// The fixed execution latency of this operation in cycles, excluding any
    /// memory-hierarchy latency (loads add the cache access latency on top).
    pub fn latency(self) -> OpLatency {
        match self {
            OpKind::IntAlu | OpKind::Branch | OpKind::Nop => OpLatency::new(1, 1),
            OpKind::IntMul => OpLatency::new(3, 1),
            OpKind::IntDiv => OpLatency::new(20, 20),
            OpKind::FpAlu => OpLatency::new(2, 1),
            OpKind::FpDiv => OpLatency::new(12, 12),
            // Loads/stores: 1 cycle address generation; the memory hierarchy
            // adds the access latency.
            OpKind::Load | OpKind::Store => OpLatency::new(1, 1),
        }
    }

    /// Every operation kind, useful for exhaustive tests.
    pub fn all() -> &'static [OpKind] {
        &[
            OpKind::IntAlu,
            OpKind::IntMul,
            OpKind::IntDiv,
            OpKind::FpAlu,
            OpKind::FpDiv,
            OpKind::Load,
            OpKind::Store,
            OpKind::Branch,
            OpKind::Nop,
        ]
    }
}

impl fmt::Display for OpKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            OpKind::IntAlu => "int-alu",
            OpKind::IntMul => "int-mul",
            OpKind::IntDiv => "int-div",
            OpKind::FpAlu => "fp-alu",
            OpKind::FpDiv => "fp-div",
            OpKind::Load => "load",
            OpKind::Store => "store",
            OpKind::Branch => "branch",
            OpKind::Nop => "nop",
        };
        f.write_str(s)
    }
}

/// The class of functional unit an operation issues to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FuClass {
    /// Integer general-purpose ALUs (4 in Table 1).
    IntAlu,
    /// Integer multiply/divide units (2 in Table 1).
    IntMul,
    /// Floating-point units (4 in Table 1).
    Fp,
    /// Memory ports (2 in Table 1).
    Mem,
}

impl FuClass {
    /// All functional-unit classes.
    pub fn all() -> &'static [FuClass] {
        &[FuClass::IntAlu, FuClass::IntMul, FuClass::Fp, FuClass::Mem]
    }

    /// Index of this class into per-class arrays.
    pub fn index(self) -> usize {
        match self {
            FuClass::IntAlu => 0,
            FuClass::IntMul => 1,
            FuClass::Fp => 2,
            FuClass::Mem => 3,
        }
    }

    /// The number of distinct functional-unit classes.
    pub const COUNT: usize = 4;
}

/// Execution latency and repeat (initiation) interval of an operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct OpLatency {
    /// Cycles from issue until the result is available.
    pub latency: u32,
    /// Cycles before the functional unit can accept another operation.
    pub repeat: u32,
}

impl OpLatency {
    /// Creates a latency/repeat pair.
    pub fn new(latency: u32, repeat: u32) -> Self {
        OpLatency { latency, repeat }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_latencies() {
        assert_eq!(OpKind::IntAlu.latency(), OpLatency::new(1, 1));
        assert_eq!(OpKind::IntMul.latency(), OpLatency::new(3, 1));
        assert_eq!(OpKind::IntDiv.latency(), OpLatency::new(20, 20));
        assert_eq!(OpKind::FpAlu.latency(), OpLatency::new(2, 1));
    }

    #[test]
    fn memory_ops_are_classified() {
        assert!(OpKind::Load.is_memory());
        assert!(OpKind::Store.is_memory());
        assert!(!OpKind::FpAlu.is_memory());
        assert_eq!(OpKind::Load.fu_class(), FuClass::Mem);
        assert_eq!(OpKind::Store.fu_class(), FuClass::Mem);
    }

    #[test]
    fn fp_ops_are_classified() {
        assert!(OpKind::FpAlu.is_fp());
        assert!(OpKind::FpDiv.is_fp());
        assert!(!OpKind::Load.is_fp());
        assert_eq!(OpKind::FpAlu.fu_class(), FuClass::Fp);
    }

    #[test]
    fn branches_use_int_alu() {
        assert!(OpKind::Branch.is_branch());
        assert_eq!(OpKind::Branch.fu_class(), FuClass::IntAlu);
    }

    #[test]
    fn fu_class_indices_are_unique_and_dense() {
        let mut seen = [false; FuClass::COUNT];
        for c in FuClass::all() {
            assert!(!seen[c.index()]);
            seen[c.index()] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn unpipelined_ops_report_it() {
        assert!(OpKind::IntDiv.latency().repeat > 1);
        assert_eq!(OpKind::IntAlu.latency().repeat, 1);
    }

    #[test]
    fn all_kinds_listed_once() {
        let all = OpKind::all();
        assert_eq!(all.len(), 9);
        for (i, a) in all.iter().enumerate() {
            for b in &all[i + 1..] {
                assert_ne!(a, b);
            }
        }
    }

    #[test]
    fn display_is_nonempty_for_all_kinds() {
        for k in OpKind::all() {
            assert!(!k.to_string().is_empty());
        }
    }
}
