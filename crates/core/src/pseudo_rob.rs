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
//! rolling back to a checkpoint. Every instruction younger than such a
//! branch is inside the band too, and none of them has committed, so the
//! walk-back covers exactly the in-flight instructions after the branch.

use koc_isa::InstId;

/// The status classes of instructions retired from the pseudo-ROB
/// (the six sections of Figure 12, bottom to top).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
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

/// The pseudo-ROB: a band of trace positions `head..end`.
///
/// Dispatch walks the stream one position at a time and every squash
/// removes a suffix, so the instructions inside the pseudo-ROB are always
/// contiguous in trace order. The band therefore needs no per-instruction
/// record: what an entry renamed and which checkpoint owns it live in the
/// pipeline's in-flight table, which holds every instruction of the band.
#[derive(Debug, Clone)]
pub struct PseudoRob {
    capacity: usize,
    /// Trace position of the oldest entry.
    head: InstId,
    /// One past the trace position of the youngest entry.
    end: InstId,
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
            head: 0,
            end: 0,
        }
    }

    /// Current number of entries.
    pub fn len(&self) -> usize {
        self.end - self.head
    }

    /// Whether the pseudo-ROB holds no instructions.
    pub fn is_empty(&self) -> bool {
        self.head == self.end
    }

    /// Inserts newly dispatched instruction `id`. If the band is full, the
    /// oldest entry is *retired* (extracted) and returned — this is the
    /// moment the SLIQ classification happens.
    ///
    /// `id` must extend the band: it is the next trace position, or any
    /// position when the band is empty (after a drain or a rollback).
    pub fn push(&mut self, id: InstId) -> Option<InstId> {
        debug_assert!(
            self.is_empty() || id == self.end,
            "pseudo-ROB pushes must be consecutive trace positions"
        );
        if self.is_empty() {
            self.head = id;
        }
        self.end = id + 1;
        if self.len() > self.capacity {
            self.head += 1;
            Some(self.head - 1)
        } else {
            None
        }
    }

    /// Retires the oldest entry unconditionally (used to drain the
    /// pseudo-ROB when fetch has ended).
    pub fn pop_oldest(&mut self) -> Option<InstId> {
        let oldest = self.oldest_inst()?;
        self.head += 1;
        Some(oldest)
    }

    /// Stream position of the oldest entry, if any. Entries still inside
    /// the pseudo-ROB are classified at retirement, so this bounds how far
    /// the fetch replay window may be released.
    pub fn oldest_inst(&self) -> Option<InstId> {
        (!self.is_empty()).then_some(self.head)
    }

    /// Whether the given instruction is still inside the pseudo-ROB (and can
    /// therefore be recovered without a checkpoint rollback).
    pub fn contains(&self, inst: InstId) -> bool {
        self.head <= inst && inst < self.end
    }

    /// Removes every entry at or after trace position `from` (near recovery
    /// passes the position after the branch; checkpoint rollback passes the
    /// checkpoint's first position, which may lie below the band and then
    /// empties it).
    pub fn squash_from(&mut self, from: InstId) {
        self.end = from.clamp(self.head, self.end);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_retires_the_oldest_when_full() {
        let mut p = PseudoRob::new(2);
        assert_eq!(p.push(0), None);
        assert_eq!(p.push(1), None);
        assert_eq!(p.push(2), Some(0));
        assert_eq!(p.len(), 2);
    }

    #[test]
    fn retirement_is_fifo_order() {
        let mut p = PseudoRob::new(3);
        for i in 0..3 {
            p.push(i);
        }
        let retired: Vec<_> = (3..6).filter_map(|i| p.push(i)).collect();
        assert_eq!(retired, vec![0, 1, 2]);
    }

    #[test]
    fn contains_reports_live_entries_only() {
        let mut p = PseudoRob::new(2);
        p.push(0);
        p.push(1);
        p.push(2); // retires 0
        assert!(!p.contains(0));
        assert!(p.contains(1));
        assert!(p.contains(2));
        assert!(!p.contains(3));
    }

    #[test]
    fn squash_younger_than_removes_entries_youngest_first() {
        let mut p = PseudoRob::new(8);
        for i in 0..5 {
            p.push(i);
        }
        // The band shrinks from its young end: squashing younger than 3
        // drops only 4, then squashing younger than 2 drops 3.
        p.squash_from(4);
        assert!(!p.contains(4));
        assert!(p.contains(3));
        assert_eq!(p.len(), 4);
        p.squash_from(3);
        assert!(!p.contains(3));
        assert!(p.contains(2));
        assert_eq!(p.len(), 3);
        assert_eq!(p.oldest_inst(), Some(0), "older entries are untouched");
    }

    #[test]
    fn squash_from_removes_the_boundary_instruction_too() {
        let mut p = PseudoRob::new(8);
        for i in 0..5 {
            p.push(i);
        }
        // Near recovery of a branch at 2 squashes from 3 onwards.
        p.squash_from(3);
        assert!(!p.contains(3));
        assert!(p.contains(2));
        assert_eq!(p.len(), 3);
        assert_eq!(p.push(3), None, "dispatch resumes after the branch");
    }

    #[test]
    fn rollback_below_the_band_empties_it_and_dispatch_restarts_there() {
        let mut p = PseudoRob::new(2);
        for i in 10..15 {
            p.push(i);
        }
        assert_eq!(p.oldest_inst(), Some(13));
        // A checkpoint rollback to 11 lands below the band.
        p.squash_from(11);
        assert!(p.is_empty());
        assert_eq!(p.oldest_inst(), None);
        assert!(!p.contains(13));
        // Re-dispatch restarts the band at the rollback point.
        assert_eq!(p.push(11), None);
        assert_eq!(p.push(12), None);
        assert_eq!(p.push(13), Some(11));
        assert_eq!(p.oldest_inst(), Some(12));
    }

    #[test]
    fn pop_oldest_drains_in_order() {
        let mut p = PseudoRob::new(4);
        p.push(7);
        p.push(8);
        assert_eq!(p.pop_oldest(), Some(7));
        assert_eq!(p.pop_oldest(), Some(8));
        assert_eq!(p.pop_oldest(), None);
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
