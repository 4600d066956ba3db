//! The checkpoint table and checkpointing policy (Section 2, Figure 2).
//!
//! Instead of a ROB, the processor keeps a small table of checkpoints. Every
//! dispatched instruction is associated with the youngest checkpoint; each
//! checkpoint counts its pending (dispatched but not yet executed)
//! instructions. A checkpoint **commits** when it is the oldest one, its
//! window has been closed by a younger checkpoint, and its counter reaches
//! zero — at which point its stores drain to memory and the registers
//! recorded in its future-free set are released. A misprediction or
//! exception whose instruction has already left the pseudo-ROB **rolls
//! back** to the owning checkpoint, restoring the rename snapshot and
//! re-executing from the checkpoint's trace position.

use crate::rename::RenameCheckpoint;
use koc_isa::{InstId, PhysReg};
use std::collections::VecDeque;

/// Identifier of a checkpoint (monotonically increasing, never reused).
pub type CheckpointId = u64;

/// The heuristic that decides where checkpoints are taken (Section 2,
/// "Taking Checkpoints").
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CheckpointPolicy {
    /// Take a checkpoint at the first branch after this many instructions
    /// since the previous checkpoint (64 in the paper).
    pub branch_after_insts: usize,
    /// Force a checkpoint after this many instructions even if no branch was
    /// seen (512 in the paper).
    pub force_after_insts: usize,
    /// Force a checkpoint after this many stores, bounding the Load/Store
    /// queue entries held by one checkpoint (64 in the paper).
    pub force_after_stores: usize,
}

impl CheckpointPolicy {
    /// The paper's thresholds: branch after 64 instructions, force at 512
    /// instructions, force at 64 stores.
    pub fn paper() -> Self {
        CheckpointPolicy {
            branch_after_insts: 64,
            force_after_insts: 512,
            force_after_stores: 64,
        }
    }

    /// A policy that checkpoints every `n` instructions regardless of
    /// instruction type (`n = 1` mimics a conventional ROB, as the paper
    /// notes).
    pub fn every_n(n: usize) -> Self {
        CheckpointPolicy {
            branch_after_insts: usize::MAX,
            force_after_insts: n.max(1),
            force_after_stores: usize::MAX,
        }
    }

    /// Decides whether a checkpoint should be taken *before* dispatching the
    /// next instruction, given the state of the current (youngest) window.
    pub fn should_take(
        &self,
        insts_in_window: usize,
        stores_in_window: usize,
        next_is_branch: bool,
    ) -> bool {
        if insts_in_window == 0 {
            // A fresh window never re-checkpoints at the same instruction.
            return false;
        }
        (next_is_branch && insts_in_window >= self.branch_after_insts)
            || insts_in_window >= self.force_after_insts
            || stores_in_window >= self.force_after_stores
    }
}

impl Default for CheckpointPolicy {
    fn default() -> Self {
        CheckpointPolicy::paper()
    }
}

/// One checkpoint: a snapshot of the rename state plus the bookkeeping for
/// the instructions associated with it.
#[derive(Debug, Clone)]
pub struct Checkpoint {
    /// Unique identifier.
    pub id: CheckpointId,
    /// Trace position of the first instruction associated with this
    /// checkpoint; rollback re-fetches from here.
    pub trace_index: InstId,
    /// Rename-state snapshot taken when the checkpoint was created.
    pub rename: RenameCheckpoint,
    /// Dispatched-but-not-yet-executed instructions associated with this
    /// checkpoint (the paper's per-checkpoint counter).
    pub pending: usize,
    /// Total instructions associated with this checkpoint (for statistics
    /// and for the committed-instruction count).
    pub total_insts: usize,
    /// Stores associated with this checkpoint.
    pub stores: usize,
    /// Physical registers to free when this checkpoint commits (the drained
    /// future-free set of its window).
    pub free_on_commit: Vec<PhysReg>,
    /// Whether a younger checkpoint exists (the window is closed and
    /// `free_on_commit` is final).
    pub closed: bool,
}

impl Checkpoint {
    fn new(id: CheckpointId, trace_index: InstId, rename: RenameCheckpoint) -> Self {
        Checkpoint {
            id,
            trace_index,
            rename,
            pending: 0,
            total_insts: 0,
            stores: 0,
            free_on_commit: Vec::new(),
            closed: false,
        }
    }
}

/// The checkpoint table: a small in-order queue of live checkpoints
/// (8 entries in the paper's main configuration, 4–128 in Figure 13).
#[derive(Debug, Clone)]
pub struct CheckpointTable {
    capacity: usize,
    entries: VecDeque<Checkpoint>,
    next_id: CheckpointId,
}

impl CheckpointTable {
    /// Creates an empty checkpoint table with room for `capacity`
    /// checkpoints (reserved up front).
    ///
    /// # Panics
    /// Panics if `capacity` is zero — the mechanism requires at least one
    /// live checkpoint at all times.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "checkpoint table needs at least one entry");
        CheckpointTable {
            capacity,
            entries: VecDeque::with_capacity(capacity),
            next_id: 0,
        }
    }

    /// Maximum number of live checkpoints.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Current number of live checkpoints.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether no checkpoint is live (only before the first dispatch).
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Whether the table has no room for another checkpoint.
    pub fn is_full(&self) -> bool {
        self.entries.len() >= self.capacity
    }

    /// Takes a new checkpoint at `trace_index` with the given rename
    /// snapshot. `freed_from_previous_window` is the drained future-free set
    /// of the (now closed) previous window; it is attached to the previous
    /// checkpoint, which this call also closes.
    ///
    /// Returns the id of the new checkpoint, or `None` if the table is full.
    /// The caller then keeps associating instructions with the youngest
    /// checkpoint, whose window grows until the oldest one commits and
    /// frees an entry.
    pub fn take(
        &mut self,
        trace_index: InstId,
        rename: RenameCheckpoint,
        freed_from_previous_window: Vec<PhysReg>,
    ) -> Option<CheckpointId> {
        if self.is_full() {
            return None;
        }
        if let Some(prev) = self.entries.back_mut() {
            prev.free_on_commit = freed_from_previous_window;
            prev.closed = true;
        } else {
            debug_assert!(
                freed_from_previous_window.is_empty(),
                "nothing can be future-free before the first checkpoint"
            );
        }
        let id = self.next_id;
        self.next_id += 1;
        self.entries
            .push_back(Checkpoint::new(id, trace_index, rename));
        Some(id)
    }

    /// The youngest checkpoint (new instructions associate with it).
    pub fn newest(&self) -> Option<&Checkpoint> {
        self.entries.back()
    }

    /// The oldest live checkpoint.
    pub fn oldest(&self) -> Option<&Checkpoint> {
        self.entries.front()
    }

    /// Position of checkpoint `id` in the (id-sorted) table. It runs on
    /// every instruction completion, so it must not scan. Ids are allocated
    /// consecutively, so checkpoint `id` normally sits at `id - oldest.id`.
    /// Dropping the youngest checkpoints on a squash leaves a gap in the
    /// ids (they are never reused), which shifts every later checkpoint to
    /// a lower position; only suffixes are ever truncated, so the deque
    /// stays sorted and a binary search finds those.
    fn position_of(&self, id: CheckpointId) -> Option<usize> {
        let guess = usize::try_from(id.checked_sub(self.entries.front()?.id)?).ok()?;
        if self.entries.get(guess).is_some_and(|c| c.id == id) {
            return Some(guess);
        }
        let i = self.entries.partition_point(|c| c.id < id);
        (i < self.entries.len() && self.entries[i].id == id).then_some(i)
    }

    /// Looks up a checkpoint by id.
    pub fn get(&self, id: CheckpointId) -> Option<&Checkpoint> {
        self.position_of(id).map(|i| &self.entries[i])
    }

    /// Looks up a checkpoint by id, mutable.
    pub fn get_mut(&mut self, id: CheckpointId) -> Option<&mut Checkpoint> {
        let i = self.position_of(id)?;
        Some(&mut self.entries[i])
    }

    /// Associates one dispatched instruction with the youngest checkpoint.
    ///
    /// # Panics
    /// Panics if no checkpoint is live — the caller must take the initial
    /// checkpoint before dispatching (the paper's "there must always exist a
    /// checkpoint").
    pub fn on_dispatch(&mut self, is_store: bool) -> CheckpointId {
        #[expect(
            clippy::expect_used,
            reason = "pipeline dispatches only with a live checkpoint"
        )]
        let c = self
            .entries
            .back_mut()
            .expect("dispatch requires a live checkpoint");
        c.pending += 1;
        c.total_insts += 1;
        if is_store {
            c.stores += 1;
        }
        c.id
    }

    /// Records the completion (execution) of an instruction associated with
    /// checkpoint `id`.
    ///
    /// # Panics
    /// Panics if the checkpoint does not exist or its counter would
    /// underflow — both indicate a bookkeeping bug in the pipeline.
    pub fn on_complete(&mut self, id: CheckpointId) {
        #[expect(
            clippy::expect_used,
            reason = "completion events come only from dispatched instructions"
        )]
        let c = self.get_mut(id).expect("completion for unknown checkpoint");
        assert!(c.pending > 0, "checkpoint {id} pending counter underflow");
        c.pending -= 1;
    }

    /// Records that a squashed instruction associated with checkpoint `id`
    /// is being removed from the window. `was_pending` is `true` if the
    /// instruction had not executed yet (so its pending count must also be
    /// released). Squashes against already-removed checkpoints are ignored.
    pub fn on_squash(&mut self, id: CheckpointId, was_pending: bool) {
        if let Some(c) = self.get_mut(id) {
            if was_pending {
                assert!(
                    c.pending > 0,
                    "checkpoint {id} pending counter underflow on squash"
                );
                c.pending -= 1;
            }
            c.total_insts = c.total_insts.saturating_sub(1);
        }
    }

    /// Drops every checkpoint whose first instruction is younger than
    /// `trace_bound` (exclusive), i.e. taken at or after `trace_bound`.
    /// Used by in-pseudo-ROB branch recovery, where the rename map is
    /// restored by walking undo records rather than from a snapshot.
    /// Returns how many checkpoints were dropped.
    pub fn drop_taken_at_or_after(&mut self, trace_bound: InstId) -> usize {
        let before = self.entries.len();
        while let Some(back) = self.entries.back() {
            if back.trace_index >= trace_bound && self.entries.len() > 1 {
                self.entries.pop_back();
            } else {
                break;
            }
        }
        // The surviving newest checkpoint's window is open again.
        if before != self.entries.len() {
            if let Some(newest) = self.entries.back_mut() {
                newest.closed = false;
                newest.free_on_commit.clear();
            }
        }
        before - self.entries.len()
    }

    /// Removes from every live checkpoint's `free_on_commit` set the
    /// registers for which `keep` returns `false`. Used after a rename
    /// walk-back restores previous mappings: a register that is once again
    /// the valid mapping of a logical register must not be freed when an
    /// older checkpoint commits.
    pub fn retain_free_on_commit(&mut self, mut keep: impl FnMut(PhysReg) -> bool) {
        for c in &mut self.entries {
            c.free_on_commit.retain(|&p| keep(p));
        }
    }

    /// Whether the oldest checkpoint is ready to commit: its window is
    /// closed (or `trace_done`) and no associated instruction is pending.
    pub fn can_commit_oldest(&self, trace_done: bool) -> bool {
        match self.entries.front() {
            Some(c) => (c.closed || trace_done) && c.pending == 0,
            None => false,
        }
    }

    /// Commits and removes the oldest checkpoint.
    ///
    /// # Panics
    /// Panics if [`can_commit_oldest`](Self::can_commit_oldest) would return
    /// `false` with `trace_done == true` semantics disabled; callers are
    /// expected to check first.
    pub fn commit_oldest(&mut self) -> Checkpoint {
        #[expect(clippy::expect_used, reason = "caller checks has_committable first")]
        let c = self.entries.pop_front().expect("no checkpoint to commit");
        assert!(
            c.pending == 0,
            "committing a checkpoint with pending instructions"
        );
        c
    }

    /// Rolls back to checkpoint `id`: removes every younger checkpoint and
    /// reopens `id` (its counters are reset because all of its associated
    /// instructions are being squashed by the caller).
    ///
    /// Returns a clone of the target checkpoint's rename snapshot and its
    /// trace index.
    ///
    /// # Panics
    /// Panics if `id` is not a live checkpoint.
    pub fn rollback_to(&mut self, id: CheckpointId) -> (RenameCheckpoint, InstId) {
        #[expect(
            clippy::expect_used,
            reason = "rollback targets a checkpoint this table handed out"
        )]
        let pos = self
            .position_of(id)
            .expect("rollback target checkpoint not found");
        self.entries.truncate(pos + 1);
        #[expect(
            clippy::expect_used,
            reason = "truncate keeps the target as the back entry"
        )]
        let c = self.entries.back_mut().expect("target survives truncation");
        c.pending = 0;
        c.total_insts = 0;
        c.stores = 0;
        c.free_on_commit.clear();
        c.closed = false;
        (c.rename.clone(), c.trace_index)
    }

    /// Iterates over live checkpoints from oldest to youngest.
    pub fn iter(&self) -> impl Iterator<Item = &Checkpoint> {
        self.entries.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn snap() -> RenameCheckpoint {
        RenameCheckpoint {
            valid: vec![0],
            free_list: vec![0xff],
        }
    }

    #[test]
    fn paper_policy_matches_section2() {
        let p = CheckpointPolicy::paper();
        assert_eq!(p.branch_after_insts, 64);
        assert_eq!(p.force_after_insts, 512);
        assert_eq!(p.force_after_stores, 64);
        assert_eq!(CheckpointPolicy::default(), p);
    }

    #[test]
    fn policy_triggers_on_branch_after_threshold() {
        let p = CheckpointPolicy::paper();
        assert!(!p.should_take(63, 0, true), "not enough instructions yet");
        assert!(p.should_take(64, 0, true));
        assert!(
            !p.should_take(64, 0, false),
            "not a branch, below force threshold"
        );
        assert!(p.should_take(512, 0, false), "forced at 512 instructions");
        assert!(p.should_take(100, 64, false), "forced at 64 stores");
        assert!(
            !p.should_take(0, 0, true),
            "fresh window never re-checkpoints"
        );
    }

    #[test]
    fn every_n_policy_mimics_a_rob() {
        let p = CheckpointPolicy::every_n(1);
        assert!(p.should_take(1, 0, false));
        let p4 = CheckpointPolicy::every_n(4);
        assert!(!p4.should_take(3, 0, false));
        assert!(p4.should_take(4, 0, false));
    }

    #[test]
    fn take_closes_the_previous_window() {
        let mut t = CheckpointTable::new(4);
        let a = t.take(0, snap(), vec![]).unwrap();
        t.on_dispatch(false);
        let freed = vec![PhysReg(3)];
        let _b = t.take(10, snap(), freed.clone()).unwrap();
        let first = t.get(a).unwrap();
        assert!(first.closed);
        assert_eq!(first.free_on_commit, freed);
        assert!(!t.newest().unwrap().closed);
    }

    #[test]
    fn table_capacity_is_enforced() {
        let mut t = CheckpointTable::new(2);
        assert!(t.take(0, snap(), vec![]).is_some());
        assert!(t.take(1, snap(), vec![]).is_some());
        assert!(t.is_full());
        assert!(t.take(2, snap(), vec![]).is_none());
    }

    #[test]
    fn commit_requires_closed_window_and_zero_pending() {
        let mut t = CheckpointTable::new(4);
        let a = t.take(0, snap(), vec![]).unwrap();
        t.on_dispatch(false);
        t.on_dispatch(true);
        assert!(!t.can_commit_oldest(false), "window still open");
        t.take(2, snap(), vec![]).unwrap();
        assert!(!t.can_commit_oldest(false), "instructions still pending");
        t.on_complete(a);
        t.on_complete(a);
        assert!(t.can_commit_oldest(false));
        let committed = t.commit_oldest();
        assert_eq!(committed.id, a);
        assert_eq!(committed.total_insts, 2);
        assert_eq!(committed.stores, 1);
    }

    #[test]
    fn trace_done_allows_committing_an_open_window() {
        let mut t = CheckpointTable::new(4);
        let a = t.take(0, snap(), vec![]).unwrap();
        t.on_dispatch(false);
        t.on_complete(a);
        assert!(!t.can_commit_oldest(false));
        assert!(t.can_commit_oldest(true));
    }

    #[test]
    fn rollback_drops_younger_checkpoints_and_reopens_target() {
        let mut t = CheckpointTable::new(8);
        let a = t.take(0, snap(), vec![]).unwrap();
        t.on_dispatch(false);
        let b = t.take(5, snap(), vec![PhysReg(1)]).unwrap();
        t.on_dispatch(false);
        let _c = t.take(9, snap(), vec![PhysReg(2)]).unwrap();
        assert_eq!(t.len(), 3);
        let (_, trace_index) = t.rollback_to(b);
        assert_eq!(t.len(), 2);
        assert_eq!(trace_index, 5);
        let reopened = t.get(b).unwrap();
        assert!(!reopened.closed);
        assert_eq!(reopened.pending, 0);
        assert!(reopened.free_on_commit.is_empty());
        // The older checkpoint is untouched.
        assert_eq!(t.get(a).unwrap().pending, 1);
    }

    #[test]
    fn squash_releases_pending_without_counting_work() {
        let mut t = CheckpointTable::new(2);
        let a = t.take(0, snap(), vec![]).unwrap();
        t.on_dispatch(false);
        t.on_dispatch(false);
        t.on_squash(a, true);
        let c = t.get(a).unwrap();
        assert_eq!(c.pending, 1);
        assert_eq!(c.total_insts, 1);
        // Squashing an already-executed instruction only reduces the total.
        t.on_complete(a);
        t.on_squash(a, false);
        let c = t.get(a).unwrap();
        assert_eq!(c.pending, 0);
        assert_eq!(c.total_insts, 0);
    }

    #[test]
    fn drop_taken_at_or_after_removes_young_checkpoints_and_reopens_newest() {
        let mut t = CheckpointTable::new(8);
        let a = t.take(0, snap(), vec![]).unwrap();
        let _b = t.take(50, snap(), vec![PhysReg(1)]).unwrap();
        let _c = t.take(100, snap(), vec![PhysReg(2)]).unwrap();
        let dropped = t.drop_taken_at_or_after(40);
        assert_eq!(dropped, 2);
        assert_eq!(t.len(), 1);
        let survivor = t.get(a).unwrap();
        assert!(!survivor.closed);
        assert!(survivor.free_on_commit.is_empty());
    }

    #[test]
    fn drop_taken_at_or_after_never_removes_the_last_checkpoint() {
        let mut t = CheckpointTable::new(4);
        let a = t.take(10, snap(), vec![]).unwrap();
        assert_eq!(t.drop_taken_at_or_after(0), 0);
        assert!(t.get(a).is_some());
    }

    #[test]
    fn retain_free_on_commit_filters_registers() {
        let mut t = CheckpointTable::new(4);
        let a = t.take(0, snap(), vec![]).unwrap();
        t.take(5, snap(), vec![PhysReg(1), PhysReg(2), PhysReg(3)])
            .unwrap();
        t.retain_free_on_commit(|p| p != PhysReg(2));
        assert_eq!(
            t.get(a).unwrap().free_on_commit,
            vec![PhysReg(1), PhysReg(3)]
        );
    }

    #[test]
    #[should_panic(expected = "underflow")]
    fn completion_underflow_panics() {
        let mut t = CheckpointTable::new(2);
        let a = t.take(0, snap(), vec![]).unwrap();
        t.on_complete(a);
    }

    #[test]
    #[should_panic(expected = "live checkpoint")]
    fn dispatch_without_checkpoint_panics() {
        let mut t = CheckpointTable::new(2);
        t.on_dispatch(false);
    }

    #[test]
    #[should_panic(expected = "at least one entry")]
    fn zero_capacity_table_panics() {
        let _ = CheckpointTable::new(0);
    }

    #[test]
    fn lookups_find_checkpoints_across_an_id_gap() {
        let mut t = CheckpointTable::new(8);
        let ids: Vec<_> = (0..4)
            .map(|i| t.take(i * 10, snap(), vec![]).unwrap())
            .collect();
        // Dropping the two youngest leaves ids 0 and 1; the next takes get
        // ids 4 and 5 at positions 2 and 3, below `id - oldest.id`.
        assert_eq!(t.drop_taken_at_or_after(20), 2);
        let after: Vec<_> = (0..2)
            .map(|i| t.take(100 + i, snap(), vec![]).unwrap())
            .collect();
        assert_eq!(after, vec![4, 5]);
        for (id, trace_index) in [(ids[0], 0), (ids[1], 10), (4, 100), (5, 101)] {
            assert_eq!(t.get(id).map(|c| c.trace_index), Some(trace_index));
        }
        for gone in [ids[2], ids[3], 6, 99] {
            assert!(t.get(gone).is_none(), "checkpoint {gone} is not live");
        }
        // Once the pre-gap checkpoints commit, direct indexing works again.
        t.commit_oldest();
        t.commit_oldest();
        assert_eq!(t.oldest().map(|c| c.id), Some(4));
        assert_eq!(t.get(5).map(|c| c.trace_index), Some(101));
        t.on_dispatch(false);
        t.on_complete(5);
        assert_eq!(t.get(5).map(|c| c.pending), Some(0));
    }

    #[test]
    fn ids_are_never_reused() {
        let mut t = CheckpointTable::new(2);
        let a = t.take(0, snap(), vec![]).unwrap();
        t.take(1, snap(), vec![]).unwrap();
        // Commit the first, take another: new id must differ from both.
        t.on_dispatch(false);
        let newest = t.newest().unwrap().id;
        t.rollback_to(newest); // clears pending on newest
        let (_, _) = t.rollback_to(a);
        assert_eq!(t.len(), 1);
        let c = t.take(7, snap(), vec![]).unwrap();
        assert!(c > a);
    }
}
