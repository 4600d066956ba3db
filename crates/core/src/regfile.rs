//! Physical register file state: free list and ready bits.

use koc_isa::PhysReg;

/// Free list + ready (scoreboard) bits for a pool of physical registers.
///
/// The paper keeps the free list as one bit per physical register
/// (Figure 3); this structure does the same and adds the ready bit the issue
/// logic needs.
///
/// The free list is a two-level bitmap: 64 registers per `u64` word plus a
/// summary word per 64 words. Allocation — which runs once per dispatched
/// instruction and must find the **lowest** free index (the paper-era policy
/// every committed baseline was recorded under) — is a find-first-set over
/// the summary instead of a linear probe across the pool, so its cost no
/// longer grows with window occupancy. With Table 1's 4096 registers and a
/// kilo-instruction window in flight, the old scan walked ~4000 slots per
/// rename.
#[derive(Debug, Clone)]
pub struct PhysRegFile {
    /// Bit set = register free, 64 registers per word.
    free_words: Vec<u64>,
    /// Bit `w` of `summary[g]` set iff `free_words[g * 64 + w] != 0`.
    summary: Vec<u64>,
    ready: Vec<bool>,
    free_count: usize,
}

impl PhysRegFile {
    /// Creates a register file with `num_regs` physical registers, all free.
    ///
    /// # Panics
    /// Panics if `num_regs` is zero.
    pub fn new(num_regs: usize) -> Self {
        assert!(
            num_regs > 0,
            "register file must have at least one register"
        );
        let words = num_regs.div_ceil(64);
        let mut free_words = vec![u64::MAX; words];
        if !num_regs.is_multiple_of(64) {
            // Registers past the pool are permanently non-free.
            free_words[words - 1] = (1u64 << (num_regs % 64)) - 1;
        }
        let groups = words.div_ceil(64);
        let mut summary = vec![u64::MAX; groups];
        if !words.is_multiple_of(64) {
            summary[groups - 1] = (1u64 << (words % 64)) - 1;
        }
        PhysRegFile {
            free_words,
            summary,
            ready: vec![false; num_regs],
            free_count: num_regs,
        }
    }

    /// Number of currently free physical registers.
    pub fn free_count(&self) -> usize {
        self.free_count
    }

    fn clear_free_bit(&mut self, idx: usize) {
        let w = idx / 64;
        self.free_words[w] &= !(1u64 << (idx % 64));
        if self.free_words[w] == 0 {
            self.summary[w / 64] &= !(1u64 << (w % 64));
        }
    }

    fn set_free_bit(&mut self, idx: usize) {
        let w = idx / 64;
        self.free_words[w] |= 1u64 << (idx % 64);
        self.summary[w / 64] |= 1u64 << (w % 64);
    }

    /// Allocates the lowest-indexed free physical register, or `None` if the
    /// pool is exhausted.
    ///
    /// Newly allocated registers start *not ready* (their producer has not
    /// executed yet).
    pub fn alloc(&mut self) -> Option<PhysReg> {
        let g = self.summary.iter().position(|&s| s != 0)?;
        let w = g * 64 + self.summary[g].trailing_zeros() as usize;
        let idx = w * 64 + self.free_words[w].trailing_zeros() as usize;
        self.clear_free_bit(idx);
        self.ready[idx] = false;
        self.free_count -= 1;
        Some(PhysReg(idx as u32))
    }

    /// Returns a physical register to the free list.
    ///
    /// Freeing an already-free register is a logic error in the commit
    /// machinery and panics.
    pub fn free(&mut self, reg: PhysReg) {
        let idx = reg.index();
        assert!(!self.is_free(reg), "double free of {reg}");
        self.set_free_bit(idx);
        self.ready[idx] = false;
        self.free_count += 1;
    }

    /// Whether `reg` currently holds a produced value.
    pub fn is_ready(&self, reg: PhysReg) -> bool {
        self.ready[reg.index()]
    }

    /// Marks `reg` as produced (write-back broadcast).
    pub fn set_ready(&mut self, reg: PhysReg) {
        self.ready[reg.index()] = true;
    }

    /// Whether `reg` is currently on the free list.
    pub fn is_free(&self, reg: PhysReg) -> bool {
        let idx = reg.index();
        self.free_words[idx / 64] & (1u64 << (idx % 64)) != 0
    }

    /// Snapshot of the free list: its bit words, 64 registers per `u64`
    /// (bit set = free), the same column the paper's checkpoint copies.
    pub fn free_list_snapshot(&self) -> Vec<u64> {
        self.free_words.clone()
    }

    /// Restores the free list from a snapshot taken by
    /// [`free_list_snapshot`](Self::free_list_snapshot): the words are
    /// copied back, and the summary and free count are rebuilt from them.
    ///
    /// # Panics
    /// Panics if the snapshot was taken from a pool of another size.
    pub fn restore_free_list(&mut self, snapshot: &[u64]) {
        assert_eq!(
            snapshot.len(),
            self.free_words.len(),
            "snapshot size mismatch"
        );
        self.free_words.copy_from_slice(snapshot);
        self.summary.fill(0);
        self.free_count = 0;
        for (w, &word) in self.free_words.iter().enumerate() {
            if word != 0 {
                self.summary[w / 64] |= 1u64 << (w % 64);
                self.free_count += word.count_ones() as usize;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alloc_free_round_trip() {
        let mut rf = PhysRegFile::new(4);
        assert_eq!(rf.free_count(), 4);
        let a = rf.alloc().unwrap();
        let b = rf.alloc().unwrap();
        assert_ne!(a, b);
        assert_eq!(rf.free_count(), 2);
        rf.free(a);
        assert_eq!(rf.free_count(), 3);
        assert!(rf.is_free(a));
        assert!(!rf.is_free(b));
    }

    #[test]
    fn exhaustion_returns_none() {
        let mut rf = PhysRegFile::new(2);
        assert!(rf.alloc().is_some());
        assert!(rf.alloc().is_some());
        assert!(rf.alloc().is_none());
    }

    #[test]
    fn ready_bits_track_production() {
        let mut rf = PhysRegFile::new(4);
        let r = rf.alloc().unwrap();
        assert!(!rf.is_ready(r));
        rf.set_ready(r);
        assert!(rf.is_ready(r));
    }

    #[test]
    fn freed_register_is_not_ready_when_reallocated() {
        let mut rf = PhysRegFile::new(1);
        let r = rf.alloc().unwrap();
        rf.set_ready(r);
        rf.free(r);
        let r2 = rf.alloc().unwrap();
        assert_eq!(r, r2);
        assert!(!rf.is_ready(r2));
    }

    #[test]
    #[should_panic(expected = "double free")]
    fn double_free_panics() {
        let mut rf = PhysRegFile::new(2);
        let r = rf.alloc().unwrap();
        rf.free(r);
        rf.free(r);
    }

    #[test]
    fn snapshot_and_restore_free_list() {
        let mut rf = PhysRegFile::new(4);
        let _a = rf.alloc().unwrap();
        let snap = rf.free_list_snapshot();
        let b = rf.alloc().unwrap();
        let c = rf.alloc().unwrap();
        assert_eq!(rf.free_count(), 1);
        rf.restore_free_list(&snap);
        assert_eq!(rf.free_count(), 3);
        assert!(rf.is_free(b));
        assert!(rf.is_free(c));
    }
}
