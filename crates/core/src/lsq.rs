//! The Load/Store queue.
//!
//! The paper models the LSQ "pseudo-perfectly" (4096 entries, Table 1) and
//! explicitly defers its scalability to future work, so this model tracks
//! only what the commit mechanisms interact with: occupancy (entries are held
//! from dispatch until commit — checkpoint commit under out-of-order commit,
//! which is why the policy bounds stores per checkpoint) and the program
//! order of stores for draining to memory at commit time.

use koc_isa::InstId;
use std::collections::VecDeque;

/// One LSQ entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LsqEntry {
    /// The dynamic instruction.
    pub inst: InstId,
    /// Whether it is a store (otherwise a load).
    pub is_store: bool,
    /// The byte address accessed.
    pub addr: u64,
}

/// Error returned when the LSQ is full at dispatch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LsqFull;

impl std::fmt::Display for LsqFull {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("load/store queue is full")
    }
}

impl std::error::Error for LsqFull {}

/// A program-ordered load/store queue.
#[derive(Debug, Clone)]
pub struct LoadStoreQueue {
    capacity: usize,
    entries: VecDeque<LsqEntry>,
}

impl LoadStoreQueue {
    /// Creates an LSQ with `capacity` entries (4096 in Table 1), all
    /// reserved up front so dispatch never grows the queue.
    ///
    /// # Panics
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "load/store queue capacity must be non-zero");
        LoadStoreQueue {
            capacity,
            entries: VecDeque::with_capacity(capacity),
        }
    }

    /// Maximum number of entries.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// How many entries the queue holds before it would next grow; never
    /// below [`capacity`](Self::capacity).
    pub fn reserved(&self) -> usize {
        self.entries.capacity()
    }

    /// Current occupancy.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the queue is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Whether another memory instruction can be allocated.
    pub fn has_space(&self) -> bool {
        self.entries.len() < self.capacity
    }

    /// Allocates an entry at dispatch (program order).
    ///
    /// # Errors
    /// Returns [`LsqFull`] when no entry is free; dispatch stalls.
    pub fn allocate(&mut self, entry: LsqEntry) -> Result<(), LsqFull> {
        if !self.has_space() {
            return Err(LsqFull);
        }
        debug_assert!(
            self.entries
                .back()
                .map(|b| b.inst < entry.inst)
                .unwrap_or(true),
            "LSQ allocations must be in program order"
        );
        self.entries.push_back(entry);
        Ok(())
    }

    /// Releases entries older than `frontier` (exclusive) from the front:
    /// loads simply free their slot, and the first released *store* is
    /// returned so the caller can drain it to the data cache; `None` once
    /// the frontier is reached. The per-cycle commit path loops on this —
    /// one store at a time, no intermediate collection.
    pub fn pop_store_older_than(&mut self, frontier: InstId) -> Option<LsqEntry> {
        while self.entries.front().is_some_and(|e| e.inst < frontier) {
            let e = self.entries.pop_front()?;
            if e.is_store {
                return Some(e);
            }
        }
        None
    }

    /// Removes every entry at or after trace position `from` (squash).
    pub fn squash_from(&mut self, from: InstId) -> usize {
        let before = self.entries.len();
        self.entries.retain(|e| e.inst < from);
        before - self.entries.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn load(inst: InstId) -> LsqEntry {
        LsqEntry {
            inst,
            is_store: false,
            addr: 0x1000 + inst as u64 * 8,
        }
    }

    fn store(inst: InstId) -> LsqEntry {
        LsqEntry {
            inst,
            is_store: true,
            addr: 0x2000 + inst as u64 * 8,
        }
    }

    #[test]
    fn allocate_and_release_in_program_order() {
        let mut lsq = LoadStoreQueue::new(8);
        lsq.allocate(load(0)).unwrap();
        lsq.allocate(store(1)).unwrap();
        lsq.allocate(load(2)).unwrap();
        assert_eq!(lsq.len(), 3);
        let drained = lsq.pop_store_older_than(2);
        assert_eq!(
            drained.map(|e| e.inst),
            Some(1),
            "only the store is returned for draining"
        );
        assert_eq!(lsq.pop_store_older_than(2), None);
        assert_eq!(lsq.len(), 1);
    }

    #[test]
    fn full_queue_rejects_allocation() {
        let mut lsq = LoadStoreQueue::new(2);
        lsq.allocate(load(0)).unwrap();
        lsq.allocate(load(1)).unwrap();
        assert_eq!(lsq.allocate(load(2)), Err(LsqFull));
    }

    #[test]
    fn release_stops_at_the_frontier() {
        let mut lsq = LoadStoreQueue::new(8);
        for i in 0..5 {
            lsq.allocate(store(i)).unwrap();
        }
        let drained: Vec<_> =
            std::iter::from_fn(|| lsq.pop_store_older_than(3).map(|e| e.inst)).collect();
        assert_eq!(drained, vec![0, 1, 2]);
        assert_eq!(lsq.len(), 2);
    }

    #[test]
    fn squash_removes_young_entries() {
        let mut lsq = LoadStoreQueue::new(8);
        for i in 0..5 {
            lsq.allocate(if i % 2 == 0 { load(i) } else { store(i) })
                .unwrap();
        }
        let removed = lsq.squash_from(2);
        assert_eq!(removed, 3);
        assert_eq!(lsq.len(), 2);
        assert_eq!(
            lsq.pop_store_older_than(5).map(|e| e.inst),
            Some(1),
            "the older store survives the squash"
        );
        assert!(lsq.is_empty());
    }

    #[test]
    #[should_panic(expected = "non-zero")]
    fn zero_capacity_panics() {
        let _ = LoadStoreQueue::new(0);
    }
}
