//! Bookkeeping for instructions between dispatch and commit.
//!
//! The in-flight window is the hottest data structure in the simulator: it
//! is touched at dispatch, issue, write-back, commit and recovery.
//! [`InFlightTable`] therefore stores records in a dense slab indexed by
//! trace position instead of a tree map — the window is a contiguous band
//! of trace positions (dispatch is in program order and commit/squash trim
//! it from both ends), so slot `id - base` gives O(1) access with
//! cache-friendly linear iteration and no per-operation rebalancing. The
//! slab is a ring buffer reserved at construction for the window the
//! configuration is sized for, so a run does not regrow it. Each
//! record also keeps the [`IqSlot`] handle of its instruction-queue entry,
//! so moving a waiting instruction to the SLIQ indexes the queue directly.

use koc_core::{CheckpointId, IqSlot};
use koc_isa::{InstId, OpKind, PhysReg, RegList};
use koc_mem::MemLevel;
use serde::{Deserialize, Serialize};
use std::collections::VecDeque;

/// The execution state of an in-flight instruction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum InstState {
    /// Dispatched; waiting in an instruction queue.
    Waiting,
    /// Moved into the SLIQ, waiting for its triggering load.
    InSliq,
    /// Issued to a functional unit; its completion event is scheduled (or,
    /// for a load on the timed memory backend, announced when the data
    /// returns).
    Executing,
    /// Execution finished; waiting for commit.
    Done,
}

/// One in-flight dynamic instruction instance.
///
/// Rollback re-execution can create a new instance of the same trace
/// position, so each instance carries a unique `seq` number; stale
/// completion events are matched against it.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct InFlight {
    /// Trace position of the instruction.
    pub inst: InstId,
    /// Unique instance number (monotonic across the whole run).
    pub seq: u64,
    /// Operation kind.
    pub kind: OpKind,
    /// Renamed destination, if any.
    pub dest_phys: Option<PhysReg>,
    /// Previously mapped physical register for the destination, if any.
    pub prev_phys: Option<PhysReg>,
    /// Renamed sources (inline; never heap-allocated).
    pub src_phys: RegList,
    /// Owning checkpoint (checkpointed engine) — 0 for the baseline.
    pub ckpt: CheckpointId,
    /// Current state.
    pub state: InstState,
    /// The instruction-queue slot holding the instruction while it waits
    /// there (meaningful only in [`InstState::Waiting`]).
    pub iq_slot: IqSlot,
    /// For loads: which level served the access (known once issued).
    pub mem_level: Option<MemLevel>,
    /// Whether the branch was mispredicted (resolved against the trace).
    pub mispredicted: bool,
    /// Whether this instance raises an exception at execution.
    pub raises_exception: bool,
}

impl InFlight {
    /// Whether the instruction has finished executing.
    pub fn is_done(&self) -> bool {
        self.state == InstState::Done
    }

    /// Whether the instruction has been issued (is executing or done).
    pub fn is_issued(&self) -> bool {
        matches!(self.state, InstState::Executing | InstState::Done)
    }

    /// Whether the instruction still waits to issue (in an IQ or the SLIQ).
    pub fn is_live(&self) -> bool {
        matches!(self.state, InstState::Waiting | InstState::InSliq)
    }

    /// Whether the instruction is a load that (so far) went to main memory.
    pub fn is_long_latency_load(&self) -> bool {
        self.kind == OpKind::Load && self.mem_level == Some(MemLevel::Memory)
    }
}

/// The in-flight window: a dense slab of [`InFlight`] records keyed by trace
/// position.
///
/// Slot `i` holds the record for instruction `base + i`; the deque trims
/// empty slots off both ends as the window advances, so occupancy stays
/// proportional to the configured window, not to the trace. All point
/// operations are O(1); ordered iteration is a linear scan of the band.
/// [`with_capacity`](Self::with_capacity) reserves the band up front; it
/// grows (by doubling) only past that reservation.
#[derive(Debug, Clone, Default)]
pub struct InFlightTable {
    /// Trace position of slot 0.
    base: InstId,
    slots: VecDeque<Option<InFlight>>,
    /// Number of occupied slots.
    len: usize,
}

impl InFlightTable {
    /// An empty table.
    pub fn new() -> Self {
        Self::default()
    }

    /// An empty table with room for a band of `capacity` trace positions.
    pub fn with_capacity(capacity: usize) -> Self {
        InFlightTable {
            slots: VecDeque::with_capacity(capacity),
            ..Self::default()
        }
    }

    /// The band length the table holds without growing.
    pub fn capacity(&self) -> usize {
        self.slots.capacity()
    }

    /// Number of in-flight instructions.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether nothing is in flight.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    fn slot_index(&self, inst: InstId) -> Option<usize> {
        if self.slots.is_empty() || inst < self.base {
            return None;
        }
        let i = inst - self.base;
        (i < self.slots.len()).then_some(i)
    }

    /// Inserts the record for `inst`.
    ///
    /// # Panics
    /// Panics if `inst` is already in flight (a trace position has at most
    /// one live instance).
    pub fn insert(&mut self, inst: InstId, fl: InFlight) {
        if self.slots.is_empty() {
            self.base = inst;
            self.slots.push_back(Some(fl));
            self.len = 1;
            return;
        }
        if inst < self.base {
            // Re-dispatch below the current band (rollback past the oldest
            // live instruction): grow the front.
            for _ in 0..(self.base - inst - 1) {
                self.slots.push_front(None);
            }
            self.slots.push_front(Some(fl));
            self.base = inst;
            self.len += 1;
            return;
        }
        let i = inst - self.base;
        if i >= self.slots.len() {
            self.slots.resize_with(i + 1, || None);
        }
        let slot = &mut self.slots[i];
        assert!(slot.is_none(), "instruction {inst} is already in flight");
        *slot = Some(fl);
        self.len += 1;
    }

    /// The record for `inst`, if in flight.
    pub fn get(&self, inst: InstId) -> Option<&InFlight> {
        let i = self.slot_index(inst)?;
        self.slots[i].as_ref()
    }

    /// Mutable access to the record for `inst`, if in flight.
    pub fn get_mut(&mut self, inst: InstId) -> Option<&mut InFlight> {
        let i = self.slot_index(inst)?;
        self.slots[i].as_mut()
    }

    /// Removes and returns the record for `inst`.
    pub fn remove(&mut self, inst: InstId) -> Option<InFlight> {
        let i = self.slot_index(inst)?;
        let fl = self.slots[i].take()?;
        self.len -= 1;
        self.trim();
        Some(fl)
    }

    /// Splits the live (not yet issued) instructions into blocked-long and
    /// blocked-short, following Figure 7's definition: blocked-long means
    /// the instruction is a load that missed in L2 or (transitively)
    /// depends on one. One pass in trace order suffices — a producer always
    /// precedes its consumers. `marks[p] == epoch` flags physical register
    /// `p` as long-dependent; the caller passes a fresh `epoch` per call,
    /// so nothing is cleared between samples.
    pub fn live_breakdown(&self, marks: &mut Vec<u64>, epoch: u64) -> (usize, usize) {
        let mark = |marks: &mut Vec<u64>, p: PhysReg| {
            let i = p.index();
            if i >= marks.len() {
                marks.resize(i + 1, 0);
            }
            marks[i] = epoch;
        };
        let mut long = 0usize;
        let mut short = 0usize;
        for fl in self.values() {
            if fl.is_long_latency_load() && !fl.is_done() {
                if let Some(p) = fl.dest_phys {
                    mark(marks, p);
                }
                continue;
            }
            if !fl.is_live() {
                continue;
            }
            if fl
                .src_phys
                .iter()
                .any(|p| marks.get(p.index()) == Some(&epoch))
            {
                long += 1;
                if let Some(p) = fl.dest_phys {
                    mark(marks, p);
                }
            } else {
                short += 1;
            }
        }
        (long, short)
    }

    /// Drops empty slots from both ends of the band so occupancy tracks the
    /// live window.
    fn trim(&mut self) {
        while matches!(self.slots.front(), Some(None)) {
            self.slots.pop_front();
            self.base += 1;
        }
        while matches!(self.slots.back(), Some(None)) {
            self.slots.pop_back();
        }
    }

    /// Iterates over in-flight records in trace order.
    pub fn values(&self) -> impl Iterator<Item = &InFlight> {
        self.slots.iter().flatten()
    }

    /// The trace positions of every in-flight instruction at or after
    /// `from`, in trace order (collected so the caller can mutate while
    /// walking — the squash paths remove as they go).
    pub fn ids_at_or_after(&self, from: InstId) -> Vec<InstId> {
        let start = from.saturating_sub(self.base).min(self.slots.len());
        self.slots
            .iter()
            .enumerate()
            .skip(start)
            .filter_map(|(i, s)| s.as_ref().map(|_| self.base + i))
            // Allocates on the recovery path: collects the squash set, not
            // per cycle.
            .collect()
    }

    /// Removes every record with trace position below `frontier` and returns
    /// how many were removed. This is the commit path of the checkpointed
    /// engine — a committed checkpoint's instructions are exactly the band
    /// below the next checkpoint's first position — so the cost is
    /// O(removed), not O(window).
    pub fn drain_below(&mut self, frontier: InstId) -> usize {
        let mut removed = 0;
        while self.base < frontier {
            match self.slots.pop_front() {
                Some(Some(_)) => {
                    removed += 1;
                    self.len -= 1;
                    self.base += 1;
                }
                Some(None) => self.base += 1,
                None => break,
            }
        }
        self.trim();
        removed
    }
}

impl std::ops::Index<InstId> for InFlightTable {
    type Output = InFlight;

    fn index(&self, inst: InstId) -> &InFlight {
        self.get(inst).expect("instruction is in flight") // koc-lint: allow(panic, "Index contract: untracked ids panic like slice indexing")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn inflight(state: InstState) -> InFlight {
        InFlight {
            inst: 0,
            seq: 1,
            kind: OpKind::Load,
            dest_phys: Some(PhysReg(5)),
            prev_phys: None,
            src_phys: RegList::new(),
            ckpt: 0,
            state,
            iq_slot: 0,
            mem_level: None,
            mispredicted: false,
            raises_exception: false,
        }
    }

    fn record(inst: InstId) -> InFlight {
        InFlight {
            inst,
            ..inflight(InstState::Waiting)
        }
    }

    #[test]
    fn state_predicates_are_consistent() {
        assert!(inflight(InstState::Waiting).is_live());
        assert!(inflight(InstState::InSliq).is_live());
        assert!(!inflight(InstState::Done).is_live());
        assert!(inflight(InstState::Executing).is_issued());
        assert!(inflight(InstState::Done).is_done());
        assert!(!inflight(InstState::Waiting).is_issued());
    }

    #[test]
    fn long_latency_requires_memory_level() {
        let mut i = inflight(InstState::Executing);
        assert!(!i.is_long_latency_load());
        i.mem_level = Some(MemLevel::Memory);
        assert!(i.is_long_latency_load());
        i.mem_level = Some(MemLevel::L2);
        assert!(!i.is_long_latency_load());
    }

    #[test]
    fn table_point_operations_round_trip() {
        let mut t = InFlightTable::new();
        assert!(t.is_empty());
        for id in [10, 11, 13, 14] {
            t.insert(id, record(id));
        }
        assert_eq!(t.len(), 4);
        assert_eq!(t.get(13).map(|f| f.inst), Some(13));
        assert!(t.get(12).is_none(), "gaps are not occupied");
        assert!(t.get(9).is_none());
        assert!(t.get(15).is_none());
        t.get_mut(11).unwrap().state = InstState::Done;
        assert!(t[11].is_done());
        assert_eq!(t.remove(10).map(|f| f.inst), Some(10));
        assert!(t.remove(10).is_none(), "double remove is None");
        assert_eq!(t.len(), 3);
    }

    #[test]
    fn table_iterates_in_trace_order() {
        let mut t = InFlightTable::new();
        for id in [7, 5, 6, 9] {
            t.insert(id, record(id));
        }
        let order: Vec<InstId> = t.values().map(|f| f.inst).collect();
        assert_eq!(order, vec![5, 6, 7, 9]);
        assert_eq!(t.ids_at_or_after(6), vec![6, 7, 9]);
        assert_eq!(t.ids_at_or_after(0), vec![5, 6, 7, 9]);
        assert_eq!(t.ids_at_or_after(10), Vec::<InstId>::new());
    }

    #[test]
    fn table_trims_and_reuses_the_band() {
        let mut t = InFlightTable::new();
        for id in 0..100 {
            t.insert(id, record(id));
        }
        // Commit a prefix, then dispatch past the old end: the band slides.
        for id in 0..90 {
            t.remove(id);
        }
        for id in 100..110 {
            t.insert(id, record(id));
        }
        assert_eq!(t.len(), 20);
        assert_eq!(t.values().count(), 20);
        // A squash re-dispatch below the current base works too.
        for id in 90..95 {
            t.remove(id);
        }
        t.insert(93, record(93));
        assert_eq!(t.values().map(|f| f.inst).min(), Some(93));
    }

    #[test]
    fn live_breakdown_follows_long_latency_dependences() {
        let waiting = |inst: InstId, srcs: &[u32], dest: u32| InFlight {
            inst,
            kind: OpKind::FpAlu,
            src_phys: srcs.iter().map(|&p| PhysReg(p)).collect(),
            dest_phys: Some(PhysReg(dest)),
            ..inflight(InstState::Waiting)
        };
        let mut t = InFlightTable::new();
        // An outstanding load serviced by main memory writes p5 ...
        t.insert(
            0,
            InFlight {
                mem_level: Some(MemLevel::Memory),
                ..inflight(InstState::Executing)
            },
        );
        // ... so its consumer, and that consumer's consumer, are blocked-long;
        t.insert(1, waiting(1, &[5], 6));
        t.insert(2, waiting(2, &[6], 7));
        // an independent waiter is blocked-short; a finished one is not live.
        t.insert(3, waiting(3, &[1], 8));
        t.insert(
            4,
            InFlight {
                inst: 4,
                ..inflight(InstState::Done)
            },
        );
        let mut marks = Vec::new();
        assert_eq!(t.live_breakdown(&mut marks, 1), (2, 1));
        // Once the load returns, nothing is blocked-long; the fresh epoch
        // ignores the previous sample's marks.
        t.get_mut(0).unwrap().state = InstState::Done;
        assert_eq!(t.live_breakdown(&mut marks, 2), (0, 3));
    }
}
