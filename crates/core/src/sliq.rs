//! Slow Lane Instruction Queuing (Section 3, Figure 8).
//!
//! Instructions that depend (transitively) on a load that missed in L2 will
//! not issue for hundreds of cycles; keeping them in the wake-up/select
//! instruction queue wastes its scarce entries. When such an instruction is
//! identified at pseudo-ROB extraction time, it is *moved* from the
//! instruction queue into the SLIQ — a large, simple, RAM-like in-order
//! buffer with no wake-up logic. Each SLIQ entry is tagged with the
//! destination physical register of the long-latency load it depends on;
//! when that register is finally produced, a wake-up walker re-inserts the
//! dependent instructions into the instruction queue at 4 per cycle, after a
//! configurable re-insertion delay (Figure 10 sweeps 1/4/8/12 cycles).
//!
//! # Host cost
//!
//! The SLIQ is the largest per-cycle structure of the checkpointed engine
//! (up to 2048 entries in the paper's sweeps), so its simulator-side cost
//! must be proportional to *activity*, not occupancy. Entries live in a
//! pooled node slab threaded onto per-trigger doubly-linked buckets (a
//! dense `Vec` keyed by [`PhysReg`] index), so a wake-up step touches only
//! the entries it actually re-inserts. Squash walks an insertion-ordered
//! age stack from the young end, with generation stamps marking records
//! whose node has since been woken (freed), so `squash_from` is
//! O(squashed), never O(entries). The slab and the age stack are reserved
//! for the configured capacity at construction. A produced register with
//! nothing parked on it schedules no walker, so the pipeline never wakes
//! for a re-insertion step that would move nothing.
//!
//! [`DependenceTracker`] implements the classification: the Section 3
//! logical-register dependence mask, kept as a per-register record of
//! *which* load the dependence chains back to.

use crate::iq::IqEntry;
use koc_isa::{ArchReg, InstId, Instruction, PhysReg, NUM_ARCH_REGS};
use std::collections::VecDeque;

/// Instructions the wake-up walker re-inserts per cycle (4 in the paper).
pub const SLIQ_WAKE_WIDTH: usize = 4;

/// Configuration of the SLIQ.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SliqConfig {
    /// Number of entries (512 / 1024 / 2048 in the paper).
    pub capacity: usize,
    /// Cycles between the triggering register being produced and the first
    /// re-insertion (4 in the paper; Figure 10 sweeps 1–12).
    pub reinsert_delay: u32,
}

impl SliqConfig {
    /// The paper's default: 4-cycle re-insertion delay.
    pub fn paper(capacity: usize) -> Self {
        SliqConfig {
            capacity,
            reinsert_delay: 4,
        }
    }
}

/// A trigger whose register has been produced and whose dependent entries
/// will start re-inserting once the re-insertion delay has elapsed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WakeupWalker {
    /// The trigger register being processed.
    pub trigger: PhysReg,
    /// Cycle at which re-insertion of its dependents may begin.
    pub ready_at: u64,
}

/// Sentinel index for "no node" in the pooled slab.
const NIL: u32 = u32::MAX;

/// One pooled SLIQ node: the stolen instruction-queue entry threaded onto
/// its trigger's bucket list. Freed nodes are chained through `next` onto
/// the intrusive free list; `gen` is bumped at free time so stale age-stack
/// records can be detected without a scan.
#[derive(Debug, Clone)]
struct SliqNode {
    entry: IqEntry,
    trigger: PhysReg,
    prev: u32,
    next: u32,
    gen: u32,
}

/// Head/tail of one trigger's bucket, plus the pending-walker dedupe flag
/// (replaces the linear membership scan of the walker FIFO).
#[derive(Debug, Clone, Copy)]
struct TriggerBucket {
    head: u32,
    tail: u32,
    pending: bool,
}

impl TriggerBucket {
    const EMPTY: TriggerBucket = TriggerBucket {
        head: NIL,
        tail: NIL,
        pending: false,
    };
}

/// One record of the insertion-ordered age stack: enough to find and unlink
/// the youngest live entries on a squash without touching anything older.
#[derive(Debug, Clone, Copy)]
struct AgeRecord {
    inst: InstId,
    node: u32,
    gen: u32,
}

/// The Slow Lane Instruction Queue.
#[derive(Debug, Clone)]
pub struct SliqBuffer {
    config: SliqConfig,
    /// Node slab; free nodes are chained through `next` from `free_head`.
    nodes: Vec<SliqNode>,
    free_head: u32,
    /// Per-trigger buckets, keyed by `PhysReg::index()`, grown on demand.
    buckets: Vec<TriggerBucket>,
    /// Insertion-ordered records of live entries (plus stale leftovers of
    /// woken ones, skipped lazily and compacted amortized-O(1)).
    age: Vec<AgeRecord>,
    /// Produced triggers waiting out the re-insertion delay, FIFO. `now` is
    /// monotonic, so the front walker always has the minimum `ready_at`.
    pending_triggers: VecDeque<WakeupWalker>,
    /// Live entries (the slab may hold more, on the free list).
    len: usize,
    /// Peak occupancy, for reporting.
    high_water: usize,
    /// Total instructions that ever entered the SLIQ.
    total_moved: u64,
}

impl SliqBuffer {
    /// Creates an empty SLIQ, with its node slab and age stack reserved for
    /// the configured capacity.
    ///
    /// # Panics
    /// Panics if the configured capacity is zero.
    pub fn new(config: SliqConfig) -> Self {
        assert!(config.capacity > 0, "SLIQ capacity must be non-zero");
        SliqBuffer {
            config,
            nodes: Vec::with_capacity(config.capacity),
            free_head: NIL,
            buckets: Vec::new(),
            age: Vec::with_capacity(config.capacity),
            pending_triggers: VecDeque::new(),
            len: 0,
            high_water: 0,
            total_moved: 0,
        }
    }

    /// The configuration in use.
    pub fn config(&self) -> &SliqConfig {
        &self.config
    }

    /// Current occupancy.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the SLIQ holds no instructions.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Whether another instruction can be moved in.
    pub fn has_space(&self) -> bool {
        self.len < self.config.capacity
    }

    /// Peak occupancy seen so far.
    pub fn high_water(&self) -> usize {
        self.high_water
    }

    /// Total instructions ever moved into the SLIQ.
    pub fn total_moved(&self) -> u64 {
        self.total_moved
    }

    fn alloc_node(&mut self, entry: IqEntry, trigger: PhysReg) -> u32 {
        if self.free_head != NIL {
            let idx = self.free_head;
            let node = &mut self.nodes[idx as usize];
            self.free_head = node.next;
            node.entry = entry;
            node.trigger = trigger;
            node.prev = NIL;
            node.next = NIL;
            idx
        } else {
            let idx = self.nodes.len() as u32;
            self.nodes.push(SliqNode {
                entry,
                trigger,
                prev: NIL,
                next: NIL,
                gen: 0,
            });
            idx
        }
    }

    /// Detaches `idx` from its bucket and returns it to the free list,
    /// bumping its generation so age-stack records pointing at it go stale.
    fn unlink_and_free(&mut self, idx: u32) -> IqEntry {
        let (prev, next, trigger, entry) = {
            let n = &self.nodes[idx as usize];
            (n.prev, n.next, n.trigger, n.entry)
        };
        let bucket = &mut self.buckets[trigger.index()];
        if prev == NIL {
            bucket.head = next;
        } else {
            self.nodes[prev as usize].next = next;
        }
        if next == NIL {
            bucket.tail = prev;
        } else {
            self.nodes[next as usize].prev = prev;
        }
        let node = &mut self.nodes[idx as usize];
        node.gen = node.gen.wrapping_add(1);
        node.next = self.free_head;
        self.free_head = idx;
        self.len -= 1;
        entry
    }

    fn bucket_mut(&mut self, trigger: PhysReg) -> &mut TriggerBucket {
        let i = trigger.index();
        if i >= self.buckets.len() {
            self.buckets.resize(i + 1, TriggerBucket::EMPTY);
        }
        &mut self.buckets[i]
    }

    fn bucket(&self, trigger: PhysReg) -> TriggerBucket {
        self.buckets
            .get(trigger.index())
            .copied()
            .unwrap_or(TriggerBucket::EMPTY)
    }

    /// Drops stale records once they dominate the age stack, so its length
    /// stays proportional to occupancy even on unbounded streams. Amortized
    /// O(1) per insertion.
    fn maybe_compact_age(&mut self) {
        if self.age.len() >= 64 && self.age.len() >= 4 * self.len {
            let nodes = &self.nodes;
            self.age.retain(|r| nodes[r.node as usize].gen == r.gen);
        }
    }

    /// Moves an instruction into the SLIQ (in program order), tagged with its
    /// triggering load's destination register.
    ///
    /// Returns `false` if the SLIQ is full; the caller then leaves the
    /// instruction in the instruction queue.
    pub fn insert(&mut self, iq_entry: IqEntry, trigger: PhysReg) -> bool {
        if !self.has_space() {
            return false;
        }
        self.maybe_compact_age();
        let inst = iq_entry.inst;
        let idx = self.alloc_node(iq_entry, trigger);
        let gen = self.nodes[idx as usize].gen;
        let bucket = self.bucket_mut(trigger);
        // Dispatch order is trace order and squashes always remove the young
        // suffix first, so appends keep every bucket (and the age stack)
        // sorted by trace position — the "oldest first" wake-up order.
        let tail = bucket.tail;
        bucket.tail = idx;
        if tail == NIL {
            bucket.head = idx;
        } else {
            debug_assert!(
                self.nodes[tail as usize].entry.inst < inst,
                "SLIQ inserts must arrive in program order"
            );
            self.nodes[tail as usize].next = idx;
            self.nodes[idx as usize].prev = tail;
        }
        self.age.push(AgeRecord {
            inst,
            node: idx,
            gen,
        });
        self.len += 1;
        self.total_moved += 1;
        self.high_water = self.high_water.max(self.len);
        true
    }

    /// Notifies the SLIQ that register `trigger` has been produced at cycle
    /// `now`. Its dependents become eligible for re-insertion after the
    /// configured re-insertion delay (the delay models re-computing source
    /// availability and overlaps across triggers). A register with nothing
    /// parked on it (none ever was, or every entry was squashed) schedules
    /// no walker, so any register may be reported.
    pub fn on_trigger_ready(&mut self, trigger: PhysReg, now: u64) {
        let Some(bucket) = self.buckets.get_mut(trigger.index()) else {
            return;
        };
        if bucket.head != NIL && !bucket.pending {
            bucket.pending = true;
            self.pending_triggers.push_back(WakeupWalker {
                trigger,
                ready_at: now + self.config.reinsert_delay as u64,
            });
        }
    }

    /// Advances the wake-up machinery by one cycle, appending to `out` the
    /// entries to re-insert into the instruction queues this cycle: at most
    /// [`SLIQ_WAKE_WIDTH`] in total, each trigger's oldest first. Queue
    /// occupancy never blocks a wake-up: the engine lets a re-insertion
    /// overshoot a full queue rather than wait on it. The walk touches only
    /// the entries it re-inserts, and the caller reuses one buffer for the
    /// whole run.
    pub fn step_into(&mut self, now: u64, out: &mut Vec<IqEntry>) {
        let mut budget = SLIQ_WAKE_WIDTH;
        while budget > 0 {
            let Some(front) = self.pending_triggers.front().copied() else {
                break;
            };
            if front.ready_at > now {
                break;
            }
            // Re-insert this trigger's entries, oldest first (bucket order).
            while budget > 0 {
                let head = self.bucket(front.trigger).head;
                if head == NIL {
                    break;
                }
                budget -= 1;
                out.push(self.unlink_and_free(head));
            }
            if self.bucket(front.trigger).head != NIL {
                // Out of budget mid-walk: resume next cycle.
                break;
            }
            // Walk complete: retire the walker and let the next trigger use
            // whatever budget remains this cycle.
            self.pending_triggers.pop_front();
            self.bucket_mut(front.trigger).pending = false;
        }
    }

    /// The pending wake-up triggers (for tests and statistics).
    pub fn pending_triggers(&self) -> impl Iterator<Item = &WakeupWalker> {
        self.pending_triggers.iter()
    }

    /// The earliest cycle at which a pending wake-up walker may start
    /// re-inserting, if any. Triggers are notified with a monotonic clock,
    /// so the FIFO front is the minimum. This is the SLIQ's contribution to
    /// the pipeline's event-driven fast-forward.
    pub fn next_pending_ready_at(&self) -> Option<u64> {
        self.pending_triggers.front().map(|w| w.ready_at)
    }

    /// Removes every entry at or after trace position `from` (squash) and
    /// returns how many were removed.
    ///
    /// Cost is O(removed): the squashed entries are exactly the young suffix
    /// of the insertion-ordered age stack, so the walk stops at the first
    /// surviving entry. Stale records of already-woken nodes are dropped in
    /// passing (each is visited at most once, ever).
    pub fn squash_from(&mut self, from: InstId) -> usize {
        let mut removed = 0;
        while let Some(rec) = self.age.last().copied() {
            if self.nodes[rec.node as usize].gen != rec.gen {
                // The node was woken (or already squashed) and possibly
                // reused for an older entry; the record is dead weight.
                self.age.pop();
                continue;
            }
            if rec.inst < from {
                break;
            }
            self.age.pop();
            self.unlink_and_free(rec.node);
            removed += 1;
        }
        removed
    }
}

/// Tracks which in-flight long-latency load every logical register's value
/// (transitively) depends on: the pseudo-ROB extraction logic's dependence
/// computation (Section 3).
///
/// When a long-latency load leaves the pseudo-ROB, the paper starts a
/// forward dependence computation over a bit mask of logical registers,
/// initially only the load's destination. Every later instruction extracted
/// from the pseudo-ROB joins the dependent set (its destination joins the
/// mask) if it reads a masked register, and clears its destination bit
/// otherwise: an independent redefinition kills the dependence, the
/// reaching-definitions trick of compiler construction. Here a register is
/// in the mask exactly when it records a trigger, the load's destination
/// physical register that SLIQ entries are tagged with. The paper's mask
/// covers the 32 integer registers; we track all 64 (32 INT + 32 FP),
/// since FP codes chain through FP registers.
#[derive(Debug, Clone)]
pub struct DependenceTracker {
    trigger_of: [Option<PhysReg>; NUM_ARCH_REGS],
}

impl Default for DependenceTracker {
    fn default() -> Self {
        DependenceTracker {
            trigger_of: [None; NUM_ARCH_REGS],
        }
    }
}

impl DependenceTracker {
    /// Creates an empty tracker.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers a long-latency load: its destination becomes a dependence
    /// source, triggered by the load's destination physical register.
    pub fn add_long_latency_load(&mut self, dest: ArchReg, dest_phys: PhysReg) {
        self.trigger_of[dest.flat_index()] = Some(dest_phys);
    }

    /// Classifies an instruction extracted from the pseudo-ROB.
    ///
    /// Returns the trigger of its first source in the mask if it depends on
    /// an outstanding long-latency load (it should be moved to the SLIQ),
    /// or `None` if it is independent. Either way its destination, if any,
    /// takes that answer as its own trigger.
    pub fn classify(&mut self, inst: &Instruction) -> Option<PhysReg> {
        let trigger = inst.sources().find_map(|s| self.trigger_of[s.flat_index()]);
        if let Some(dest) = inst.dest {
            self.trigger_of[dest.flat_index()] = trigger;
        }
        trigger
    }

    /// Clears the dependence of `reg` (its long-latency producer completed
    /// before the dependents were extracted, so they are no longer "slow").
    pub fn clear_register(&mut self, reg: ArchReg) {
        self.trigger_of[reg.flat_index()] = None;
    }

    /// Clears every register currently triggered by `phys` — used at
    /// write-back so that a completing long-latency load stops poisoning the
    /// mask. That covers the load's own destination and every register that
    /// inherited the trigger through [`classify`](Self::classify); a
    /// register triggered by another load (a younger redefinition of the
    /// same logical register included) keeps its trigger. A stale inherited
    /// trigger would outlive the load: once a checkpoint commit frees
    /// `phys`, dependents classified later would be parked in the SLIQ on a
    /// register nothing writes again.
    pub fn clear_if_trigger(&mut self, phys: PhysReg) {
        for trigger in &mut self.trigger_of {
            if *trigger == Some(phys) {
                *trigger = None;
            }
        }
    }

    /// The physical register currently recorded as the long-latency trigger
    /// of `reg`, if any.
    pub fn trigger_for(&self, reg: ArchReg) -> Option<PhysReg> {
        self.trigger_of[reg.flat_index()]
    }

    /// Whether any dependence is currently tracked.
    pub fn is_empty(&self) -> bool {
        self.trigger_of.iter().all(Option::is_none)
    }

    /// Resets all tracked state (pipeline flush or rollback).
    pub fn reset(&mut self) {
        *self = Self::default();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use koc_isa::{FuClass, OpKind};

    fn iq_entry(inst: InstId) -> IqEntry {
        IqEntry {
            inst,
            srcs: koc_isa::RegList::new(),
            fu: FuClass::Fp,
        }
    }

    /// One wake-up step's re-insertions.
    fn step(s: &mut SliqBuffer, now: u64) -> Vec<IqEntry> {
        let mut out = Vec::new();
        s.step_into(now, &mut out);
        out
    }

    fn cfg(capacity: usize, delay: u32) -> SliqConfig {
        SliqConfig {
            capacity,
            reinsert_delay: delay,
        }
    }

    #[test]
    fn paper_config_uses_four_cycle_delay_and_width() {
        let c = SliqConfig::paper(1024);
        assert_eq!(c.capacity, 1024);
        assert_eq!(c.reinsert_delay, 4);
        assert_eq!(SLIQ_WAKE_WIDTH, 4);
    }

    #[test]
    fn insert_respects_capacity() {
        let mut s = SliqBuffer::new(cfg(2, 0));
        assert!(s.insert(iq_entry(0), PhysReg(1)));
        assert!(s.insert(iq_entry(1), PhysReg(1)));
        assert!(!s.insert(iq_entry(2), PhysReg(1)));
        assert_eq!(s.len(), 2);
        assert_eq!(s.total_moved(), 2);
        assert_eq!(s.high_water(), 2);
    }

    #[test]
    fn wakeup_reinserts_after_the_configured_delay() {
        let mut s = SliqBuffer::new(cfg(16, 2));
        for i in 0..3 {
            s.insert(iq_entry(i), PhysReg(7));
        }
        s.on_trigger_ready(PhysReg(7), 10);
        assert!(step(&mut s, 10).is_empty(), "delay cycle 1");
        assert!(step(&mut s, 11).is_empty(), "delay cycle 2");
        let woken = step(&mut s, 12);
        assert_eq!(woken.len(), 3);
        assert!(s.is_empty());
    }

    #[test]
    fn wakeup_is_limited_to_four_per_cycle() {
        let mut s = SliqBuffer::new(cfg(16, 0));
        for i in 0..6 {
            s.insert(iq_entry(i), PhysReg(7));
        }
        s.on_trigger_ready(PhysReg(7), 0);
        let first = step(&mut s, 0);
        assert_eq!(first.len(), 4);
        assert_eq!(first[0].inst, 0, "oldest first");
        let second = step(&mut s, 1);
        assert_eq!(second.len(), 2);
        assert_eq!(
            s.pending_triggers().count(),
            0,
            "walk completes when its entries are gone"
        );
    }

    #[test]
    fn multiple_triggers_share_the_per_cycle_budget() {
        let mut s = SliqBuffer::new(cfg(16, 0));
        s.insert(iq_entry(0), PhysReg(7));
        s.insert(iq_entry(1), PhysReg(9));
        s.on_trigger_ready(PhysReg(7), 0);
        s.on_trigger_ready(PhysReg(9), 0);
        let woken = step(&mut s, 0);
        assert_eq!(
            woken.len(),
            2,
            "both triggers' entries fit in one cycle's budget"
        );
        assert_eq!(woken[0].inst, 0);
        assert_eq!(woken[1].inst, 1);
    }

    #[test]
    fn a_register_with_nothing_parked_schedules_no_walker() {
        let mut s = SliqBuffer::new(cfg(16, 4));
        s.insert(iq_entry(0), PhysReg(9));
        // Below and beyond the highest register that ever had a bucket.
        s.on_trigger_ready(PhysReg(7), 10);
        s.on_trigger_ready(PhysReg(500), 10);
        assert_eq!(s.next_pending_ready_at(), None);
        s.on_trigger_ready(PhysReg(9), 10);
        assert_eq!(s.next_pending_ready_at(), Some(14));
    }

    #[test]
    fn a_register_whose_entries_were_squashed_schedules_no_walker() {
        let mut s = SliqBuffer::new(cfg(16, 4));
        for i in 0..3 {
            s.insert(iq_entry(i), PhysReg(7));
        }
        assert_eq!(s.squash_from(0), 3);
        s.on_trigger_ready(PhysReg(7), 10);
        assert_eq!(s.next_pending_ready_at(), None);
    }

    #[test]
    fn duplicate_trigger_notifications_are_ignored() {
        let mut s = SliqBuffer::new(cfg(16, 0));
        s.insert(iq_entry(0), PhysReg(7));
        s.on_trigger_ready(PhysReg(7), 0);
        s.on_trigger_ready(PhysReg(7), 0);
        assert_eq!(step(&mut s, 0).len(), 1);
        assert!(step(&mut s, 1).is_empty());
        assert!(step(&mut s, 2).is_empty());
    }

    #[test]
    fn squash_removes_young_entries() {
        let mut s = SliqBuffer::new(cfg(16, 0));
        for i in 0..5 {
            s.insert(iq_entry(i), PhysReg(7));
        }
        assert_eq!(s.squash_from(2), 3);
        assert_eq!(s.len(), 2);
    }

    #[test]
    fn squash_interleaves_with_wakeup_and_reinsertion() {
        // Wake some entries, squash others, insert older replacements — the
        // age stack must stay consistent through node reuse.
        let mut s = SliqBuffer::new(cfg(32, 0));
        for i in 0..8 {
            s.insert(iq_entry(i), PhysReg(7));
        }
        s.on_trigger_ready(PhysReg(7), 0);
        assert_eq!(step(&mut s, 0).len(), 4); // wakes 0..4, frees their nodes
        assert_eq!(s.squash_from(6), 2, "squashes 6 and 7");
        assert_eq!(s.len(), 2, "4 and 5 survive");
        // Re-dispatch after the squash reuses freed nodes for ids >= 6.
        assert!(s.insert(iq_entry(6), PhysReg(9)));
        assert!(s.insert(iq_entry(7), PhysReg(7)));
        assert_eq!(s.squash_from(0), 4, "everything live is squashed");
        assert!(s.is_empty());
        // A stale walker for an emptied trigger retires without output.
        assert!(step(&mut s, 1).is_empty());
        assert_eq!(s.pending_triggers().count(), 0);
    }

    #[test]
    fn trigger_can_be_renotified_after_its_walk_completes() {
        let mut s = SliqBuffer::new(cfg(16, 0));
        s.insert(iq_entry(0), PhysReg(7));
        s.on_trigger_ready(PhysReg(7), 0);
        assert_eq!(step(&mut s, 0).len(), 1);
        // A later (re-executed) producer of the same register wakes again.
        s.insert(iq_entry(1), PhysReg(7));
        s.on_trigger_ready(PhysReg(7), 5);
        assert_eq!(step(&mut s, 5).len(), 1);
        assert!(s.is_empty());
    }

    #[test]
    fn age_stack_compacts_on_churning_workloads() {
        // Insert/wake churn far past the capacity: the age stack must stay
        // bounded by occupancy, not by total_moved.
        let mut s = SliqBuffer::new(cfg(8, 0));
        for round in 0..1_000u64 {
            for k in 0..4 {
                s.insert(iq_entry((round * 4 + k) as InstId), PhysReg(7));
            }
            s.on_trigger_ready(PhysReg(7), round);
            assert_eq!(step(&mut s, round).len(), 4);
        }
        assert!(s.is_empty());
        assert_eq!(s.total_moved(), 4_000);
        assert!(
            s.age.len() <= 64,
            "age stack must compact: len {}",
            s.age.len()
        );
    }

    // --- DependenceTracker -------------------------------------------------

    #[test]
    fn tracker_tags_direct_and_transitive_dependents_with_the_load_trigger() {
        let mut t = DependenceTracker::new();
        t.add_long_latency_load(ArchReg::fp(1), PhysReg(41));
        // The masked source need not come first.
        let direct = Instruction::op(
            0,
            OpKind::FpAlu,
            Some(ArchReg::fp(2)),
            &[ArchReg::fp(5), ArchReg::fp(1)],
        );
        let transitive = Instruction::op(4, OpKind::FpAlu, Some(ArchReg::fp(3)), &[ArchReg::fp(2)]);
        assert_eq!(t.classify(&direct), Some(PhysReg(41)));
        assert_eq!(t.classify(&transitive), Some(PhysReg(41)));
        // Both destinations joined the mask.
        assert_eq!(t.trigger_for(ArchReg::fp(2)), Some(PhysReg(41)));
        assert_eq!(t.trigger_for(ArchReg::fp(3)), Some(PhysReg(41)));
    }

    #[test]
    fn tracker_distinguishes_two_loads() {
        let mut t = DependenceTracker::new();
        t.add_long_latency_load(ArchReg::fp(1), PhysReg(41));
        t.add_long_latency_load(ArchReg::fp(10), PhysReg(55));
        let a = Instruction::op(0, OpKind::FpAlu, Some(ArchReg::fp(2)), &[ArchReg::fp(1)]);
        let b = Instruction::op(4, OpKind::FpAlu, Some(ArchReg::fp(11)), &[ArchReg::fp(10)]);
        assert_eq!(t.classify(&a), Some(PhysReg(41)));
        assert_eq!(t.classify(&b), Some(PhysReg(55)));
    }

    #[test]
    fn independent_redefinition_clears_the_trigger() {
        let mut t = DependenceTracker::new();
        t.add_long_latency_load(ArchReg::fp(1), PhysReg(41));
        let redef = Instruction::op(0, OpKind::FpAlu, Some(ArchReg::fp(1)), &[ArchReg::fp(9)]);
        assert_eq!(t.classify(&redef), None);
        let reader = Instruction::op(4, OpKind::FpAlu, Some(ArchReg::fp(2)), &[ArchReg::fp(1)]);
        assert_eq!(t.classify(&reader), None);
        assert!(t.is_empty());
    }

    #[test]
    fn clear_register_stops_tracking_a_completed_load() {
        let mut t = DependenceTracker::new();
        t.add_long_latency_load(ArchReg::fp(1), PhysReg(41));
        t.add_long_latency_load(ArchReg::fp(2), PhysReg(42));
        t.clear_register(ArchReg::fp(1));
        let reader = Instruction::op(0, OpKind::FpAlu, Some(ArchReg::fp(3)), &[ArchReg::fp(1)]);
        assert_eq!(t.classify(&reader), None);
        assert_eq!(
            t.trigger_for(ArchReg::fp(2)),
            Some(PhysReg(42)),
            "only the named register is cleared"
        );
    }

    #[test]
    fn clear_if_trigger_only_clears_the_matching_load() {
        let mut t = DependenceTracker::new();
        t.add_long_latency_load(ArchReg::fp(1), PhysReg(41));
        assert_eq!(t.trigger_for(ArchReg::fp(1)), Some(PhysReg(41)));
        t.clear_if_trigger(PhysReg(99));
        assert_eq!(
            t.trigger_for(ArchReg::fp(1)),
            Some(PhysReg(41)),
            "mismatched trigger is ignored"
        );
        t.clear_if_trigger(PhysReg(41));
        assert_eq!(t.trigger_for(ArchReg::fp(1)), None);
        assert!(t.is_empty());
    }

    #[test]
    fn clear_if_trigger_clears_registers_that_inherited_the_trigger() {
        let mut t = DependenceTracker::new();
        t.add_long_latency_load(ArchReg::fp(1), PhysReg(41));
        t.add_long_latency_load(ArchReg::fp(10), PhysReg(55));
        // A loop-carried accumulator inherits the first load's trigger.
        let acc = Instruction::op(
            0,
            OpKind::FpAlu,
            Some(ArchReg::fp(28)),
            &[ArchReg::fp(28), ArchReg::fp(1)],
        );
        assert_eq!(t.classify(&acc), Some(PhysReg(41)));
        // The load's own destination is redefined before it completes.
        let redef = Instruction::op(4, OpKind::FpAlu, Some(ArchReg::fp(1)), &[ArchReg::fp(9)]);
        assert_eq!(t.classify(&redef), None);
        t.clear_if_trigger(PhysReg(41));
        assert_eq!(t.trigger_for(ArchReg::fp(28)), None);
        let reader = Instruction::op(8, OpKind::FpAlu, Some(ArchReg::fp(2)), &[ArchReg::fp(28)]);
        assert_eq!(
            t.classify(&reader),
            None,
            "the completed load triggers nothing"
        );
        assert_eq!(
            t.trigger_for(ArchReg::fp(10)),
            Some(PhysReg(55)),
            "another load's trigger survives"
        );
    }

    #[test]
    fn reset_forgets_everything() {
        let mut t = DependenceTracker::new();
        t.add_long_latency_load(ArchReg::fp(1), PhysReg(41));
        t.reset();
        assert!(t.is_empty());
    }
}
