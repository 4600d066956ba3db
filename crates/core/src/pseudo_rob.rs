//! The pseudo-ROB (Section 3).
//!
//! A small FIFO that every dispatched instruction enters. Instructions leave
//! not because they commit (the checkpoints handle commit) but because they
//! are the oldest entries and the structure is full. At extraction time the
//! processor knows whether the instruction executed quickly, is a
//! long-latency load, or depends on one — the decision the SLIQ mechanism
//! needs — and Figure 12 reports the breakdown of these classes.
//!
//! The pseudo-ROB doubles as the recovery window for nearby branches: a
//! mispredicted branch that is still inside the pseudo-ROB is recovered by
//! walking back the rename map (like a conventional ROB squash) instead of
//! rolling back to a checkpoint.

use crate::checkpoint::CheckpointId;
use koc_isa::{ArchReg, InstId, PhysReg};
use serde::{Deserialize, Serialize};
use std::collections::VecDeque;

/// The status classes of instructions retired from the pseudo-ROB
/// (the six sections of Figure 12, bottom to top).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum RetireClass {
    /// Moved from the instruction queue into the SLIQ (long-latency
    /// dependent work).
    Moved,
    /// Already finished execution when retired.
    Finished,
    /// Not yet executed but short latency (or dependent on short-latency
    /// work); stays in the instruction queue.
    ShortLat,
    /// A load that finished or hit in L1/L2.
    FinishedLoad,
    /// A load that missed in L2 (the source of the problem, ~10% in Fig. 12).
    LongLatLoad,
    /// A store.
    Store,
}

impl RetireClass {
    /// All classes in Figure 12's bottom-to-top order.
    pub fn all() -> &'static [RetireClass] {
        &[
            RetireClass::Moved,
            RetireClass::Finished,
            RetireClass::ShortLat,
            RetireClass::FinishedLoad,
            RetireClass::LongLatLoad,
            RetireClass::Store,
        ]
    }

    /// Stable index for per-class counters.
    pub fn index(self) -> usize {
        match self {
            RetireClass::Moved => 0,
            RetireClass::Finished => 1,
            RetireClass::ShortLat => 2,
            RetireClass::FinishedLoad => 3,
            RetireClass::LongLatLoad => 4,
            RetireClass::Store => 5,
        }
    }

    /// Number of classes.
    pub const COUNT: usize = 6;
}

/// One pseudo-ROB entry: the instruction plus the rename undo information
/// needed for walk-back branch recovery.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct PseudoRobEntry {
    /// The dynamic instruction.
    pub inst: InstId,
    /// The checkpoint this instruction is associated with.
    pub ckpt: CheckpointId,
    /// Destination rename record: (logical, newly allocated physical,
    /// previous physical), if the instruction writes a register.
    pub rename: Option<(ArchReg, PhysReg, Option<PhysReg>)>,
    /// Whether the instruction is a store.
    pub is_store: bool,
    /// Whether the instruction is a branch.
    pub is_branch: bool,
}

/// The pseudo-ROB FIFO.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct PseudoRob {
    capacity: usize,
    entries: VecDeque<PseudoRobEntry>,
}

impl PseudoRob {
    /// Creates a pseudo-ROB with room for `capacity` instructions
    /// (32 / 64 / 128 in the paper's experiments).
    ///
    /// # Panics
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "pseudo-ROB capacity must be non-zero");
        PseudoRob {
            capacity,
            entries: VecDeque::with_capacity(capacity),
        }
    }

    /// Maximum number of entries.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Current number of entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the pseudo-ROB holds no instructions.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Whether the pseudo-ROB is full (the next push will evict the oldest).
    pub fn is_full(&self) -> bool {
        self.entries.len() >= self.capacity
    }

    /// Inserts a newly dispatched instruction. If the FIFO is full, the
    /// oldest entry is *retired* (extracted) and returned — this is the
    /// moment the SLIQ classification happens.
    ///
    /// Dispatch walks the stream one position at a time and every squash
    /// removes a suffix, so the FIFO always holds a contiguous band of
    /// trace positions — the invariant [`contains`](Self::contains) relies
    /// on for its O(1) range check.
    pub fn push(&mut self, entry: PseudoRobEntry) -> Option<PseudoRobEntry> {
        debug_assert!(
            self.entries.back().is_none_or(|b| entry.inst == b.inst + 1),
            "pseudo-ROB pushes must be consecutive trace positions"
        );
        let retired = if self.is_full() {
            self.entries.pop_front()
        } else {
            None
        };
        self.entries.push_back(entry);
        retired
    }

    /// Pops the oldest entry unconditionally (used to drain the pseudo-ROB
    /// when fetch has ended).
    pub fn pop_oldest(&mut self) -> Option<PseudoRobEntry> {
        self.entries.pop_front()
    }

    /// Stream position of the oldest entry, if any. Entries still inside
    /// the pseudo-ROB are classified at retirement, so this bounds how far
    /// the fetch replay window may be released.
    pub fn oldest_inst(&self) -> Option<InstId> {
        self.entries.front().map(|e| e.inst)
    }

    /// Whether the given instruction is still inside the pseudo-ROB (and can
    /// therefore be recovered without a checkpoint rollback).
    ///
    /// O(1): the FIFO holds a contiguous band of trace positions (see
    /// [`push`](Self::push)), so membership is a range check against the
    /// oldest and youngest entries.
    pub fn contains(&self, inst: InstId) -> bool {
        match (self.entries.front(), self.entries.back()) {
            (Some(front), Some(back)) => front.inst <= inst && inst <= back.inst,
            _ => false,
        }
    }

    /// Removes and returns every entry **younger** than `inst` (exclusive),
    /// youngest first — the walk-back order required to undo renames.
    /// The entry for `inst` itself is retained.
    pub fn squash_younger_than(&mut self, inst: InstId) -> Vec<PseudoRobEntry> {
        let mut squashed = Vec::new(); // koc-lint: allow(hot-path-alloc, "branch-recovery squash, not per cycle")
        while let Some(back) = self.entries.back() {
            if back.inst > inst {
                squashed.push(self.entries.pop_back().expect("back exists")); // koc-lint: allow(panic, "back was just peeked as Some")
            } else {
                break;
            }
        }
        squashed
    }

    /// Removes every entry at or after trace position `from`, youngest first
    /// (used on checkpoint rollback).
    pub fn squash_from(&mut self, from: InstId) -> Vec<PseudoRobEntry> {
        let mut squashed = Vec::new(); // koc-lint: allow(hot-path-alloc, "checkpoint-rollback squash, not per cycle")
        while let Some(back) = self.entries.back() {
            if back.inst >= from {
                squashed.push(self.entries.pop_back().expect("back exists")); // koc-lint: allow(panic, "back was just peeked as Some")
            } else {
                break;
            }
        }
        squashed
    }

    /// Iterates over entries from oldest to youngest.
    pub fn iter(&self) -> impl Iterator<Item = &PseudoRobEntry> {
        self.entries.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry(inst: InstId) -> PseudoRobEntry {
        PseudoRobEntry {
            inst,
            ckpt: 0,
            rename: None,
            is_store: false,
            is_branch: false,
        }
    }

    #[test]
    fn push_retires_the_oldest_when_full() {
        let mut p = PseudoRob::new(2);
        assert_eq!(p.push(entry(0)), None);
        assert_eq!(p.push(entry(1)), None);
        assert!(p.is_full());
        let retired = p.push(entry(2)).unwrap();
        assert_eq!(retired.inst, 0);
        assert_eq!(p.len(), 2);
    }

    #[test]
    fn retirement_is_fifo_order() {
        let mut p = PseudoRob::new(3);
        for i in 0..3 {
            p.push(entry(i));
        }
        let mut retired = Vec::new();
        for i in 3..6 {
            retired.push(p.push(entry(i)).unwrap().inst);
        }
        assert_eq!(retired, vec![0, 1, 2]);
    }

    #[test]
    fn contains_reports_live_entries_only() {
        let mut p = PseudoRob::new(2);
        p.push(entry(0));
        p.push(entry(1));
        p.push(entry(2)); // retires 0
        assert!(!p.contains(0));
        assert!(p.contains(1));
        assert!(p.contains(2));
    }

    #[test]
    fn squash_younger_than_removes_entries_youngest_first() {
        let mut p = PseudoRob::new(8);
        for i in 0..5 {
            p.push(entry(i));
        }
        let squashed = p.squash_younger_than(2);
        let ids: Vec<_> = squashed.iter().map(|e| e.inst).collect();
        assert_eq!(ids, vec![4, 3]);
        assert!(p.contains(2));
        assert_eq!(p.len(), 3);
    }

    #[test]
    fn squash_from_removes_the_boundary_instruction_too() {
        let mut p = PseudoRob::new(8);
        for i in 0..5 {
            p.push(entry(i));
        }
        let squashed = p.squash_from(3);
        assert_eq!(squashed.len(), 2);
        assert!(!p.contains(3));
        assert!(p.contains(2));
    }

    #[test]
    fn pop_oldest_drains_in_order() {
        let mut p = PseudoRob::new(4);
        p.push(entry(7));
        p.push(entry(8));
        assert_eq!(p.pop_oldest().unwrap().inst, 7);
        assert_eq!(p.pop_oldest().unwrap().inst, 8);
        assert!(p.pop_oldest().is_none());
        assert!(p.is_empty());
    }

    #[test]
    fn retire_class_indices_are_dense_and_unique() {
        let mut seen = [false; RetireClass::COUNT];
        for c in RetireClass::all() {
            assert!(!seen[c.index()]);
            seen[c.index()] = true;
        }
        assert!(seen.iter().all(|&x| x));
    }

    #[test]
    #[should_panic(expected = "non-zero")]
    fn zero_capacity_panics() {
        let _ = PseudoRob::new(0);
    }
}
