//! The conventional re-order buffer used by the baseline machine.
//!
//! The baseline processor of the paper commits in order from a ROB whose size
//! is swept from 128 to 4096 entries (Figure 1, and the two reference lines
//! of Figure 9). Entries carry the rename undo/free information so that
//! commit can free the previously-mapped physical register and squash can
//! walk the map back.

use crate::checkpoint::CheckpointId;
use koc_isa::{ArchReg, InstId, PhysReg};
use serde::{Deserialize, Serialize};
use std::collections::VecDeque;

/// One ROB entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct RobEntry {
    /// The dynamic instruction.
    pub inst: InstId,
    /// Destination rename record: (logical, new physical, previous physical).
    pub rename: Option<(ArchReg, PhysReg, Option<PhysReg>)>,
    /// Whether the instruction is a store.
    pub is_store: bool,
    /// Whether the instruction is a branch.
    pub is_branch: bool,
    /// Checkpoint association (unused by the baseline, kept so shared
    /// pipeline code can treat both machines uniformly).
    pub ckpt: CheckpointId,
}

/// Error returned when the ROB is full at dispatch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RobFull;

impl std::fmt::Display for RobFull {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("reorder buffer is full")
    }
}

impl std::error::Error for RobFull {}

/// A conventional in-order-commit re-order buffer.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ReorderBuffer {
    capacity: usize,
    entries: VecDeque<RobEntry>,
}

impl ReorderBuffer {
    /// Creates a ROB with `capacity` entries.
    ///
    /// # Panics
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "reorder buffer capacity must be non-zero");
        ReorderBuffer {
            capacity,
            entries: VecDeque::with_capacity(capacity.min(4096)),
        }
    }

    /// Maximum number of entries.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Current occupancy.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the ROB is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Whether another instruction can be dispatched.
    pub fn has_space(&self) -> bool {
        self.entries.len() < self.capacity
    }

    /// Allocates an entry at the tail (program order).
    ///
    /// # Errors
    /// Returns [`RobFull`] when the ROB is full; dispatch stalls.
    pub fn push(&mut self, entry: RobEntry) -> Result<(), RobFull> {
        if !self.has_space() {
            return Err(RobFull);
        }
        self.entries.push_back(entry);
        Ok(())
    }

    /// Pops the head entry if `finished` says its instruction has finished
    /// execution — one in-order commit step. The ROB keeps no completion
    /// state of its own: the caller answers from its in-flight records.
    /// The per-cycle commit loop calls this up to the commit width.
    pub fn pop_finished(&mut self, finished: impl FnOnce(InstId) -> bool) -> Option<RobEntry> {
        match self.entries.front() {
            Some(e) if finished(e.inst) => self.entries.pop_front(),
            _ => None,
        }
    }

    /// Pops the youngest entry if it is younger than `inst` (exclusive) —
    /// one step of the rename walk-back on a branch misprediction. The
    /// recovery path loops on this, youngest first.
    pub fn pop_younger_than(&mut self, inst: InstId) -> Option<RobEntry> {
        match self.entries.back() {
            Some(back) if back.inst > inst => self.entries.pop_back(),
            _ => None,
        }
    }

    /// Iterates over entries from oldest to youngest.
    pub fn iter(&self) -> impl Iterator<Item = &RobEntry> {
        self.entries.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry(inst: InstId) -> RobEntry {
        RobEntry {
            inst,
            rename: None,
            is_store: false,
            is_branch: false,
            ckpt: 0,
        }
    }

    /// Commits up to `width` instructions from the head, in order, while
    /// `done` says they have finished — the engine's commit loop.
    fn commit(rob: &mut ReorderBuffer, width: usize, done: &[InstId]) -> Vec<InstId> {
        let mut committed = Vec::new();
        while committed.len() < width {
            match rob.pop_finished(|inst| done.contains(&inst)) {
                Some(e) => committed.push(e.inst),
                None => break,
            }
        }
        committed
    }

    #[test]
    fn commit_is_in_order_and_stops_at_unfinished() {
        let mut rob = ReorderBuffer::new(8);
        for i in 0..4 {
            rob.push(entry(i)).unwrap();
        }
        // Out-of-order completion: 0 and 2 have finished, 1 has not.
        let committed = commit(&mut rob, 4, &[0, 2]);
        assert_eq!(committed, vec![0], "instruction 1 blocks the commit of 2");
        assert_eq!(commit(&mut rob, 4, &[1, 2]), vec![1, 2]);
    }

    #[test]
    fn commit_respects_width() {
        let mut rob = ReorderBuffer::new(8);
        for i in 0..6 {
            rob.push(entry(i)).unwrap();
        }
        let done: Vec<InstId> = (0..6).collect();
        assert_eq!(commit(&mut rob, 4, &done).len(), 4);
        assert_eq!(commit(&mut rob, 4, &done).len(), 2);
    }

    #[test]
    fn full_rob_rejects_dispatch() {
        let mut rob = ReorderBuffer::new(2);
        rob.push(entry(0)).unwrap();
        rob.push(entry(1)).unwrap();
        assert_eq!(rob.push(entry(2)), Err(RobFull));
    }

    #[test]
    fn squash_returns_youngest_first_and_keeps_the_boundary() {
        let mut rob = ReorderBuffer::new(8);
        for i in 0..5 {
            rob.push(entry(i)).unwrap();
        }
        let ids: Vec<_> = std::iter::from_fn(|| rob.pop_younger_than(2))
            .map(|e| e.inst)
            .collect();
        assert_eq!(ids, vec![4, 3]);
        assert_eq!(rob.len(), 3);
        assert_eq!(commit(&mut rob, 4, &[0, 1, 2]), vec![0, 1, 2]);
    }

    #[test]
    fn head_inst_tracks_the_oldest() {
        let mut rob = ReorderBuffer::new(4);
        assert!(rob.pop_finished(|_| true).is_none());
        rob.push(entry(5)).unwrap();
        rob.push(entry(6)).unwrap();
        // The completion query is asked about the head: the oldest entry.
        let mut asked = Vec::new();
        let mut head_done = |inst| {
            asked.push(inst);
            true
        };
        assert_eq!(rob.pop_finished(&mut head_done).map(|e| e.inst), Some(5));
        assert_eq!(rob.pop_finished(&mut head_done).map(|e| e.inst), Some(6));
        assert_eq!(asked, vec![5, 6]);
    }

    #[test]
    #[should_panic(expected = "non-zero")]
    fn zero_capacity_panics() {
        let _ = ReorderBuffer::new(0);
    }
}
