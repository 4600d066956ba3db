//! General-purpose instruction queues with broadcast wake-up and
//! oldest-first select.
//!
//! The paper's point is that these queues are the cycle-time-critical
//! structures: every entry needs associative wake-up logic, so they must stay
//! small (32–128 entries) even when thousands of instructions are in flight.
//! The SLIQ mechanism removes long-latency-dependent instructions from here
//! so the scarce entries go to work that will issue soon.
//!
//! # Host cost
//!
//! Wake-up and select run every cycle, so nothing on their path hashes or
//! grows. Entries live in a dense slab addressed by the `u32` [`IqSlot`]
//! handle that [`insert`](InstructionQueue::insert) returns; vacated slots
//! go on a free list, so the slab never outgrows the peak occupancy (the
//! configured size plus the SLIQ's bounded wake-up overshoot), and the slab,
//! ready heaps and waiter pool are reserved at that size at construction.
//! Every occupant carries a unique incarnation token, and waiter and
//! ready-heap records name `(slot, token)`: checking one is a direct index
//! plus a compare, and a record left behind by a stolen, squashed or issued
//! entry goes stale the moment its slot is vacated. The waiter table is a
//! flat array keyed by [`PhysReg`] index whose per-register chains thread
//! through a pooled node slab (a broadcast is one array load plus a walk of
//! the actual waiters), and the ready set is partitioned by functional-unit
//! class into lazy min-heaps, so selection is O(picked) regardless of how
//! many ready instructions are starved of their unit (with two memory ports
//! and a hundred ready loads, an age-ordered scan would revisit almost all
//! of them every cycle).

use koc_isa::{FuClass, InstId, PhysReg, RegList};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// An instruction waiting in (or being inserted into) an instruction queue.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IqEntry {
    /// The dynamic instruction.
    pub inst: InstId,
    /// Renamed source registers.
    pub srcs: RegList,
    /// Functional-unit class the instruction issues to.
    pub fu: FuClass,
}

/// Handle of the slab slot an entry occupies, returned by
/// [`InstructionQueue::insert`] and passed back to
/// [`InstructionQueue::remove`]. Valid until the entry leaves the queue;
/// the slot is then recycled for a later entry.
pub type IqSlot = u32;

/// Token of a vacant slot (live tokens count up from 0 and never reach it).
const VACANT: u64 = u64::MAX;

#[derive(Debug, Clone)]
struct Slot {
    entry: IqEntry,
    /// Incarnation of the occupant, unique over the queue's lifetime;
    /// [`VACANT`] while the slot is on the free list.
    token: u64,
    outstanding: usize,
}

/// A ready-heap record: oldest instruction first, then the `(token, slot)`
/// that tells a live record from a stale one.
type ReadyRec = Reverse<(InstId, u64, IqSlot)>;

/// Sentinel index for "no node" in the waiter pool.
const NIL: u32 = u32::MAX;

/// One pooled waiter record: the occupant of `slot` (incarnation `token`)
/// waits on the register whose chain this node is linked into. Freed nodes
/// are chained through `next` onto the free list.
#[derive(Debug, Clone, Copy)]
struct WaiterNode {
    slot: IqSlot,
    token: u64,
    next: u32,
}

/// Error returned when inserting into a full instruction queue.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IqFull;

impl std::fmt::Display for IqFull {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("instruction queue is full")
    }
}

impl std::error::Error for IqFull {}

/// A wake-up/select instruction queue.
///
/// * **Wake-up**: [`wakeup`](InstructionQueue::wakeup) broadcasts a produced
///   physical register; entries whose last outstanding source was produced
///   become ready.
/// * **Select**: [`select_ready`](InstructionQueue::select_ready) picks the
///   oldest ready entries subject to per-functional-unit availability.
#[derive(Debug, Clone)]
pub struct InstructionQueue {
    capacity: usize,
    /// The entry slab, indexed by [`IqSlot`].
    slots: Vec<Slot>,
    /// Vacant slots, reused before the slab grows.
    free: Vec<IqSlot>,
    /// Occupied slots.
    len: usize,
    /// Per-class min-heaps of entries that became ready. Records whose slot
    /// has since been vacated are *stale*; they are discarded lazily when
    /// they surface at the top, so arbitrary removal never restructures a
    /// heap.
    ready: [BinaryHeap<ReadyRec>; FuClass::COUNT],
    /// Number of live ready entries across all classes.
    ready_total: usize,
    /// Head of each physical register's waiter chain, keyed by
    /// [`PhysReg::index`], grown on demand.
    waiter_heads: Vec<u32>,
    /// Pooled waiter nodes; free nodes chain through `next` from
    /// `waiter_free`.
    waiter_nodes: Vec<WaiterNode>,
    waiter_free: u32,
    next_token: u64,
}

impl InstructionQueue {
    /// Creates an instruction queue with the given number of entries, with
    /// its slab, ready heaps and waiter pool reserved at that size.
    ///
    /// # Panics
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "instruction queue capacity must be non-zero");
        InstructionQueue {
            capacity,
            slots: Vec::with_capacity(capacity),
            free: Vec::with_capacity(capacity),
            len: 0,
            ready: std::array::from_fn(|_| BinaryHeap::with_capacity(capacity)),
            ready_total: 0,
            waiter_heads: Vec::new(),
            waiter_nodes: Vec::with_capacity(capacity),
            waiter_free: NIL,
            next_token: 0,
        }
    }

    /// Maximum number of entries.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Current occupancy.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the queue holds no instructions.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Whether another instruction can be inserted.
    pub fn has_space(&self) -> bool {
        self.len < self.capacity
    }

    /// Number of entries currently ready to issue.
    pub fn ready_count(&self) -> usize {
        self.ready_total
    }

    /// Whether `slot` still holds incarnation `token`.
    fn is_live(&self, slot: IqSlot, token: u64) -> bool {
        self.slots[slot as usize].token == token
    }

    /// Vacates `slot` onto the free list and returns its entry.
    fn vacate(&mut self, slot: IqSlot) -> IqEntry {
        let s = &mut self.slots[slot as usize];
        s.token = VACANT;
        if s.outstanding == 0 {
            // Its heap record goes stale; account the live ready count now.
            self.ready_total -= 1;
        }
        let entry = s.entry;
        self.free.push(slot);
        self.len -= 1;
        entry
    }

    /// Pushes a newly ready instruction onto its class heap.
    fn ready_push(&mut self, fu: FuClass, inst: InstId, token: u64, slot: IqSlot) {
        let heap = &mut self.ready[fu.index()];
        heap.push(Reverse((inst, token, slot)));
        self.ready_total += 1;
        // Stale records are normally discarded at the top during selection;
        // bound the heap against pathological flows where records go stale
        // faster than selection drains them (mass squashes, SLIQ steals).
        if heap.len() > 64 && heap.len() > 4 * (self.len + 1) {
            let slots = &self.slots;
            heap.retain(|&Reverse((_, t, s))| slots[s as usize].token == t);
        }
    }

    /// The oldest live ready instruction of class `k` and its slot,
    /// discarding stale heap tops in passing.
    fn ready_peek(&mut self, k: usize) -> Option<(InstId, IqSlot)> {
        while let Some(&Reverse((inst, token, slot))) = self.ready[k].peek() {
            if self.is_live(slot, token) {
                return Some((inst, slot));
            }
            self.ready[k].pop();
        }
        None
    }

    fn push_waiter(&mut self, reg: PhysReg, slot: IqSlot, token: u64) {
        let i = reg.index();
        if i >= self.waiter_heads.len() {
            self.waiter_heads.resize(i + 1, NIL);
        }
        let node = WaiterNode {
            slot,
            token,
            next: self.waiter_heads[i],
        };
        let idx = if self.waiter_free != NIL {
            let idx = self.waiter_free;
            self.waiter_free = self.waiter_nodes[idx as usize].next;
            self.waiter_nodes[idx as usize] = node;
            idx
        } else {
            let idx = self.waiter_nodes.len() as u32;
            self.waiter_nodes.push(node);
            idx
        };
        self.waiter_heads[i] = idx;
    }

    /// Inserts an instruction and returns the slot it occupies.
    /// `is_ready` reports whether a source physical register already holds
    /// its value (the register-file scoreboard).
    ///
    /// # Errors
    /// Returns [`IqFull`] if the queue has no free entry; the dispatch stage
    /// stalls in that case.
    pub fn insert(
        &mut self,
        entry: IqEntry,
        is_ready: impl FnMut(PhysReg) -> bool,
    ) -> Result<IqSlot, IqFull> {
        if !self.has_space() {
            return Err(IqFull);
        }
        Ok(self.insert_unbounded(entry, is_ready))
    }

    /// Inserts an instruction even if the queue is at capacity and returns
    /// the slot it occupies.
    ///
    /// Used only for SLIQ re-insertions: the wake-up path is never blocked by
    /// queue occupancy, because a full queue may only drain once the
    /// instructions still parked in the SLIQ execute — blocking would be a
    /// circular wait. Dispatch still respects the capacity, so the transient
    /// overshoot is bounded by the wake-up width.
    pub fn insert_unbounded(
        &mut self,
        entry: IqEntry,
        mut is_ready: impl FnMut(PhysReg) -> bool,
    ) -> IqSlot {
        let token = self.next_token;
        self.next_token += 1;
        // A vacant slot if there is one, else a new one past the slab's end.
        let slot = self.free.pop().unwrap_or(self.slots.len() as IqSlot);
        let mut outstanding = 0;
        for &s in &entry.srcs {
            if !is_ready(s) {
                outstanding += 1;
                self.push_waiter(s, slot, token);
            }
        }
        let occupant = Slot {
            entry,
            token,
            outstanding,
        };
        match self.slots.get_mut(slot as usize) {
            Some(vacant) => *vacant = occupant,
            None => self.slots.push(occupant),
        }
        self.len += 1;
        if outstanding == 0 {
            self.ready_push(entry.fu, entry.inst, token, slot);
        }
        slot
    }

    /// Broadcasts that `reg` now holds its value, waking dependent entries.
    pub fn wakeup(&mut self, reg: PhysReg) {
        let Some(head) = self.waiter_heads.get_mut(reg.index()) else {
            return;
        };
        let mut cur = std::mem::replace(head, NIL);
        while cur != NIL {
            let WaiterNode { slot, token, next } = self.waiter_nodes[cur as usize];
            let s = &mut self.slots[slot as usize];
            if s.token == token && s.outstanding > 0 {
                s.outstanding -= 1;
                if s.outstanding == 0 {
                    let (fu, inst) = (s.entry.fu, s.entry.inst);
                    self.ready_push(fu, inst, token, slot);
                }
            }
            self.waiter_nodes[cur as usize].next = self.waiter_free;
            self.waiter_free = cur;
            cur = next;
        }
    }

    /// Selects up to `max_total` ready instructions, oldest first, consuming
    /// per-functional-unit availability from `fu_available` (indexed by
    /// [`FuClass::index`]). Selected entries are removed from the queue.
    pub fn select_ready(
        &mut self,
        fu_available: &mut [usize; FuClass::COUNT],
        max_total: usize,
    ) -> Vec<IqEntry> {
        let mut picked = Vec::new();
        self.select_ready_into(fu_available, max_total, &mut picked);
        picked
    }

    /// [`select_ready`](Self::select_ready) into a caller-owned buffer
    /// (appended, not cleared) — the per-cycle issue path reuses one buffer
    /// across the whole run. The per-class ready minima are merged oldest
    /// first (identical pick order to a single age-ordered scan with
    /// functional-unit filtering), so the cost is O(picked), independent of
    /// how many ready instructions are starved of their unit.
    pub fn select_ready_into(
        &mut self,
        fu_available: &mut [usize; FuClass::COUNT],
        max_total: usize,
        picked: &mut Vec<IqEntry>,
    ) {
        let mut taken = 0;
        while taken < max_total && self.ready_total > 0 {
            let mut best: Option<(InstId, IqSlot, usize)> = None;
            for k in (0..FuClass::COUNT).filter(|&k| fu_available[k] > 0) {
                if let Some((inst, slot)) = self.ready_peek(k) {
                    if best.is_none_or(|(b, _, _)| inst < b) {
                        best = Some((inst, slot, k));
                    }
                }
            }
            let Some((_, slot, k)) = best else {
                break;
            };
            fu_available[k] -= 1;
            taken += 1;
            self.ready[k].pop();
            picked.push(self.vacate(slot));
        }
    }

    /// Removes the entry in `slot` (used when the SLIQ steals a
    /// long-latency-dependent entry). Returns it if the slot still holds
    /// `inst`, and `None` if the slot is vacant or has been recycled for
    /// another instruction.
    pub fn remove(&mut self, slot: IqSlot, inst: InstId) -> Option<IqEntry> {
        let s = self.slots.get(slot as usize)?;
        if s.token == VACANT || s.entry.inst != inst {
            return None;
        }
        Some(self.vacate(slot))
    }

    /// Removes every instruction at or after trace position `from`
    /// (squash on rollback or branch recovery), returning their slots to the
    /// free list. Returns how many were removed.
    pub fn squash_from(&mut self, from: InstId) -> usize {
        let mut removed = 0;
        for slot in 0..self.slots.len() {
            let s = &self.slots[slot];
            if s.token != VACANT && s.entry.inst >= from {
                self.vacate(slot as IqSlot);
                removed += 1;
            }
        }
        removed
    }

    /// Whether the queue currently holds `inst` (a slab scan, for tests and
    /// assertions).
    pub fn contains(&self, inst: InstId) -> bool {
        self.slots
            .iter()
            .any(|s| s.token != VACANT && s.entry.inst == inst)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry(inst: InstId, srcs: &[u32], fu: FuClass) -> IqEntry {
        IqEntry {
            inst,
            srcs: srcs.iter().map(|&r| PhysReg(r)).collect::<RegList>(),
            fu,
        }
    }

    fn all_fus() -> [usize; FuClass::COUNT] {
        [4, 2, 4, 2]
    }

    #[test]
    fn entry_with_ready_sources_is_immediately_ready() {
        let mut iq = InstructionQueue::new(4);
        iq.insert(entry(0, &[1, 2], FuClass::IntAlu), |_| true)
            .unwrap();
        assert_eq!(iq.ready_count(), 1);
        let picked = iq.select_ready(&mut all_fus(), 4);
        assert_eq!(picked.len(), 1);
        assert!(iq.is_empty());
    }

    #[test]
    fn wakeup_makes_dependent_entries_ready() {
        let mut iq = InstructionQueue::new(4);
        iq.insert(entry(0, &[7], FuClass::Fp), |_| false).unwrap();
        assert_eq!(iq.ready_count(), 0);
        iq.wakeup(PhysReg(7));
        assert_eq!(iq.ready_count(), 1);
    }

    #[test]
    fn entry_waits_for_all_sources() {
        let mut iq = InstructionQueue::new(4);
        iq.insert(entry(0, &[7, 8], FuClass::Fp), |_| false)
            .unwrap();
        iq.wakeup(PhysReg(7));
        assert_eq!(iq.ready_count(), 0);
        iq.wakeup(PhysReg(8));
        assert_eq!(iq.ready_count(), 1);
    }

    #[test]
    fn select_is_oldest_first_and_respects_fu_limits() {
        let mut iq = InstructionQueue::new(8);
        for i in 0..6 {
            iq.insert(entry(i, &[], FuClass::Fp), |_| true).unwrap();
        }
        let mut fus = [4, 2, 2, 2]; // only 2 FP units available
        let picked = iq.select_ready(&mut fus, 8);
        let ids: Vec<_> = picked.iter().map(|e| e.inst).collect();
        assert_eq!(ids, vec![0, 1]);
        assert_eq!(fus[FuClass::Fp.index()], 0);
        assert_eq!(iq.len(), 4);
    }

    #[test]
    fn select_respects_total_width() {
        let mut iq = InstructionQueue::new(8);
        for i in 0..6 {
            iq.insert(entry(i, &[], FuClass::IntAlu), |_| true).unwrap();
        }
        let picked = iq.select_ready(&mut [8, 8, 8, 8], 4);
        assert_eq!(picked.len(), 4);
    }

    #[test]
    fn select_skips_fu_starved_entries_for_later_ready_ones() {
        let mut iq = InstructionQueue::new(8);
        iq.insert(entry(0, &[], FuClass::Fp), |_| true).unwrap();
        iq.insert(entry(1, &[], FuClass::Fp), |_| true).unwrap();
        iq.insert(entry(2, &[], FuClass::IntAlu), |_| true).unwrap();
        // One FP unit: the second FP entry is skipped, the younger integer
        // entry still issues.
        let picked = iq.select_ready(&mut [4, 2, 1, 2], 4);
        let ids: Vec<_> = picked.iter().map(|e| e.inst).collect();
        assert_eq!(ids, vec![0, 2]);
        assert!(iq.contains(1));
    }

    #[test]
    fn full_queue_rejects_inserts() {
        let mut iq = InstructionQueue::new(2);
        iq.insert(entry(0, &[], FuClass::IntAlu), |_| true).unwrap();
        iq.insert(entry(1, &[], FuClass::IntAlu), |_| true).unwrap();
        assert_eq!(
            iq.insert(entry(2, &[], FuClass::IntAlu), |_| true),
            Err(IqFull)
        );
        assert!(!iq.has_space());
    }

    #[test]
    fn remove_steals_an_entry_for_the_sliq() {
        let mut iq = InstructionQueue::new(4);
        let slot = iq.insert(entry(3, &[9], FuClass::Fp), |_| false).unwrap();
        assert!(iq.remove(slot, 4).is_none(), "the slot holds 3, not 4");
        let stolen = iq.remove(slot, 3).unwrap();
        assert_eq!(stolen.inst, 3);
        assert!(iq.is_empty());
        assert!(iq.remove(slot, 3).is_none(), "a vacant slot holds nothing");
        // A stale wake-up for the removed entry must be harmless.
        iq.wakeup(PhysReg(9));
        assert_eq!(iq.ready_count(), 0);
    }

    #[test]
    fn stale_wakeups_do_not_affect_reinserted_instructions() {
        let mut iq = InstructionQueue::new(4);
        let first = iq.insert(entry(3, &[9], FuClass::Fp), |_| false).unwrap();
        iq.remove(first, 3).unwrap();
        // Re-insert the same instruction id, now waiting on a different
        // register; it recycles the slot of its first incarnation.
        let second = iq.insert(entry(3, &[11], FuClass::Fp), |_| false).unwrap();
        assert_eq!(second, first);
        iq.wakeup(PhysReg(9)); // stale broadcast from the first incarnation
        assert_eq!(
            iq.ready_count(),
            0,
            "stale wakeup must not make the new incarnation ready"
        );
        iq.wakeup(PhysReg(11));
        assert_eq!(iq.ready_count(), 1);
    }

    #[test]
    fn a_recycled_slot_rejects_the_old_instruction() {
        let mut iq = InstructionQueue::new(4);
        let slot = iq.insert(entry(3, &[], FuClass::IntAlu), |_| true).unwrap();
        assert_eq!(iq.select_ready(&mut all_fus(), 4).len(), 1);
        let recycled = iq
            .insert(entry(8, &[5], FuClass::IntAlu), |_| false)
            .unwrap();
        assert_eq!(recycled, slot, "the vacated slot is reused");
        assert!(iq.remove(slot, 3).is_none(), "3 no longer lives there");
        assert!(iq.contains(8));
        assert_eq!(iq.remove(slot, 8).map(|e| e.inst), Some(8));
    }

    #[test]
    fn stale_ready_records_never_issue_a_new_occupant() {
        let mut iq = InstructionQueue::new(4);
        // Instruction 1 becomes ready, then is stolen: its heap record stays
        // behind, naming the slot.
        let slot = iq.insert(entry(1, &[], FuClass::Fp), |_| true).unwrap();
        iq.remove(slot, 1).unwrap();
        // Instruction 2 takes over the slot but still waits on p6; a younger
        // ready instruction keeps selection running past the stale record.
        assert_eq!(
            iq.insert(entry(2, &[6], FuClass::Fp), |_| false).unwrap(),
            slot
        );
        iq.insert(entry(5, &[], FuClass::Fp), |_| true).unwrap();
        assert_eq!(iq.ready_count(), 1);
        let picked = iq.select_ready(&mut all_fus(), 4);
        assert_eq!(
            picked.iter().map(|e| e.inst).collect::<Vec<_>>(),
            vec![5],
            "the stale record must not issue the waiting occupant"
        );
        assert!(iq.contains(2));
        iq.wakeup(PhysReg(6));
        let picked = iq.select_ready(&mut all_fus(), 4);
        assert_eq!(picked.iter().map(|e| e.inst).collect::<Vec<_>>(), vec![2]);
    }

    #[test]
    fn squash_from_removes_young_entries_only() {
        let mut iq = InstructionQueue::new(8);
        for i in 0..6 {
            iq.insert(entry(i, &[], FuClass::IntAlu), |_| true).unwrap();
        }
        assert_eq!(iq.squash_from(3), 3);
        assert!(iq.contains(2));
        assert!((3..6).all(|i| !iq.contains(i)));
        assert_eq!(iq.ready_count(), 3);
        // The squashed slots are free again: refilling to capacity does not
        // grow the slab.
        for i in 3..8 {
            iq.insert(entry(i, &[], FuClass::IntAlu), |_| true).unwrap();
        }
        assert_eq!(iq.len(), 8);
        assert_eq!(iq.slots.len(), 8);
    }

    #[test]
    fn duplicate_source_registers_are_counted_per_occurrence() {
        let mut iq = InstructionQueue::new(4);
        iq.insert(entry(0, &[7, 7], FuClass::Fp), |_| false)
            .unwrap();
        iq.wakeup(PhysReg(7));
        assert_eq!(
            iq.ready_count(),
            1,
            "one broadcast satisfies both occurrences"
        );
    }

    #[test]
    fn waiter_nodes_are_pooled_across_wakeup_churn() {
        // Insert/wake repeatedly: the pool must recycle nodes instead of
        // growing with the total number of waits.
        let mut iq = InstructionQueue::new(8);
        for round in 0..1_000usize {
            for k in 0..4 {
                iq.insert(entry(round * 4 + k, &[5, 6], FuClass::IntAlu), |_| false)
                    .unwrap();
            }
            iq.wakeup(PhysReg(5));
            iq.wakeup(PhysReg(6));
            assert_eq!(iq.select_ready(&mut [8, 8, 8, 8], 8).len(), 4);
        }
        assert!(iq.is_empty());
        assert!(
            iq.waiter_nodes.len() <= 8,
            "pool must stay at peak concurrent waiters, got {}",
            iq.waiter_nodes.len()
        );
    }

    #[test]
    fn slab_stays_within_capacity_plus_wakeup_overshoot() {
        let (capacity, overshoot) = (8, 4);
        let mut iq = InstructionQueue::new(capacity);
        assert!(
            iq.slots.capacity() >= capacity,
            "the slab is reserved up front"
        );
        let mut next = 0;
        for round in 0..500u32 {
            // Dispatch fills the queue, then a SLIQ wake-up burst overshoots.
            while iq.has_space() {
                iq.insert(entry(next, &[round % 3], FuClass::IntAlu), |_| false)
                    .unwrap();
                next += 1;
            }
            for _ in 0..overshoot {
                iq.insert_unbounded(entry(next, &[], FuClass::IntAlu), |_| true);
                next += 1;
            }
            iq.wakeup(PhysReg(round % 3));
            iq.select_ready(&mut [8, 8, 8, 8], 6);
            iq.squash_from(next - 2);
            assert!(iq.slots.len() <= capacity + overshoot);
        }
    }

    #[test]
    fn insert_unbounded_ignores_capacity_but_preserves_it() {
        let mut iq = InstructionQueue::new(1);
        iq.insert(entry(0, &[], FuClass::IntAlu), |_| true).unwrap();
        iq.insert_unbounded(entry(1, &[], FuClass::IntAlu), |_| true);
        assert_eq!(iq.len(), 2);
        assert_eq!(iq.capacity(), 1);
        assert!(!iq.has_space());
        assert_eq!(
            iq.insert(entry(2, &[], FuClass::IntAlu), |_| true),
            Err(IqFull)
        );
    }

    #[test]
    fn an_entry_fits_in_32_bytes() {
        // Every IQ slot and SLIQ node holds one, and dispatch writes one
        // per instruction.
        assert!(std::mem::size_of::<IqEntry>() <= 32);
    }

    #[test]
    #[should_panic(expected = "non-zero")]
    fn zero_capacity_panics() {
        let _ = InstructionQueue::new(0);
    }
}
