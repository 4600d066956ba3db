//! CAM register mapping with *Future Free* bits (Figures 3–6 of the paper).
//!
//! The mapping table is indexed by **physical** register, as in the Alpha
//! 21264 and HAL Sparc renaming schemes the paper cites. Each entry holds the
//! logical register it maps, a `valid` bit (this entry is the current
//! mapping) and the paper's extension: a `future_free` bit marking registers
//! that must be returned to the free list when the *next checkpoint commits*.
//!
//! Taking a checkpoint saves the valid column and clears the future-free
//! column, whose marked registers become the previous checkpoint's
//! free-on-commit set. Rollback never reads a saved future-free column (see
//! [`CamRenameMap::restore`]), so the snapshot holds only the valid column
//! plus the free list, which the simulator copies back on rollback (a
//! simulation convenience: hardware would recompute the free list from the
//! restored columns instead of storing it).
//! Both columns are kept as one bit per physical register, 64 to a `u64`
//! word, so a snapshot is two word copies — 512 bytes each at Table 1's
//! 4096 registers — the coarse-grain bit-column copy of Figure 3.

use crate::regfile::PhysRegFile;
use koc_isa::{ArchReg, PhysReg, NUM_ARCH_REGS};
use serde::{Deserialize, Serialize};

/// The outcome of renaming one instruction's destination.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct RenamedInst {
    /// The physical register newly allocated for the destination.
    pub new_phys: PhysReg,
    /// The physical register that previously held the same logical register,
    /// if any. Under conventional (ROB) commit this is freed when the
    /// renaming instruction commits; under out-of-order commit its
    /// `future_free` bit has been set instead.
    pub prev_phys: Option<PhysReg>,
}

/// A snapshot of the rename state taken when a checkpoint is created. Both
/// columns are bit words: bit `i % 64` of word `i / 64` belongs to physical
/// register `i`.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct RenameCheckpoint {
    /// The valid column at checkpoint time.
    pub valid: Vec<u64>,
    /// The free list at checkpoint time (bit set = free).
    pub free_list: Vec<u64>,
}

/// Whether bit `i` of the bit words `words` is set.
fn bit(words: &[u64], i: usize) -> bool {
    words[i / 64] & (1u64 << (i % 64)) != 0
}

/// The CAM rename map extended with future-free bits.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct CamRenameMap {
    /// Logical register mapped by each physical register (meaningful only
    /// while `valid` or `future_free` is set, mirroring the paper's figures).
    logical: Vec<u8>,
    /// The valid column as bit words (see [`RenameCheckpoint`]).
    valid: Vec<u64>,
    future_free: Vec<bool>,
    /// Registers whose future-free bit was set since the last drain, in
    /// marking order — the drain at every checkpoint is O(marked) instead
    /// of a scan over the whole future-free column. Entries whose bit was
    /// cleared out-of-band (walk-back undo, rollback restore) go stale and
    /// are filtered against the column at drain time. Reserved for the
    /// whole register pool, and kept across drains.
    future_free_list: Vec<PhysReg>,
    /// Current mapping per logical register (the CAM lookup, kept as a
    /// direct-mapped shadow for O(1) source lookups).
    map: Vec<Option<PhysReg>>,
}

impl CamRenameMap {
    /// Creates a rename map for `num_phys` physical registers with no logical
    /// register mapped.
    pub fn new(num_phys: usize) -> Self {
        CamRenameMap {
            logical: vec![0; num_phys],
            valid: vec![0; num_phys.div_ceil(64)],
            future_free: vec![false; num_phys],
            future_free_list: Vec::with_capacity(num_phys),
            map: vec![None; NUM_ARCH_REGS],
        }
    }

    fn set_valid(&mut self, p: PhysReg, valid: bool) {
        let (w, mask) = (p.index() / 64, 1u64 << (p.index() % 64));
        if valid {
            self.valid[w] |= mask;
        } else {
            self.valid[w] &= !mask;
        }
    }

    /// The current mapping of a logical register, if any.
    pub fn lookup(&self, reg: ArchReg) -> Option<PhysReg> {
        self.map[reg.flat_index()]
    }

    /// Renames the destination of an instruction: allocates a new physical
    /// register from `regs`, marks the previous mapping of `dest` as
    /// future-free, and installs the new mapping.
    ///
    /// Returns `None` (rename stall) if no physical register is free.
    pub fn rename_dest(&mut self, dest: ArchReg, regs: &mut PhysRegFile) -> Option<RenamedInst> {
        let new_phys = regs.alloc()?;
        let prev = self.map[dest.flat_index()];
        if let Some(p) = prev {
            // The previous mapping is no longer the current one; it will be
            // freed when the next checkpoint commits (future-free), or at the
            // renaming instruction's commit under conventional ROB commit.
            // A valid mapping never carries the future-free bit, so this is
            // always a fresh mark and the list stays duplicate-free.
            debug_assert!(!self.future_free[p.index()]);
            self.set_valid(p, false);
            self.future_free[p.index()] = true;
            self.future_free_list.push(p);
        }
        let idx = new_phys.index();
        self.logical[idx] = dest.flat_index() as u8;
        self.set_valid(new_phys, true);
        self.future_free[idx] = false;
        self.map[dest.flat_index()] = Some(new_phys);
        Some(RenamedInst {
            new_phys,
            prev_phys: prev,
        })
    }

    /// Takes a checkpoint: saves the valid column and the free list, then
    /// clears the future-free column (the cleared column will accumulate the
    /// registers to free when the *new* checkpoint commits).
    ///
    /// Returns the snapshot together with the set of physical registers whose
    /// future-free bit was set — the registers to release when the checkpoint
    /// *preceding* this one commits.
    pub fn take_checkpoint(&mut self, regs: &PhysRegFile) -> (RenameCheckpoint, Vec<PhysReg>) {
        let snapshot = RenameCheckpoint {
            valid: self.valid.clone(),
            free_list: regs.free_list_snapshot(),
        };
        let to_free = self.drain_future_free();
        (snapshot, to_free)
    }

    /// Clears and returns the set of physical registers currently marked
    /// future-free. Used when closing a checkpoint window.
    pub fn drain_future_free(&mut self) -> Vec<PhysReg> {
        let future_free = &mut self.future_free;
        // Clearing the bit as each entry is visited both performs the drain
        // and drops stale duplicates (a register un-marked by a walk-back
        // undo and marked again later appears twice in the list; only its
        // first live occurrence may survive). Draining (rather than taking)
        // the list keeps its reservation for the next window.
        self.future_free_list
            .drain(..)
            .filter(|p| std::mem::replace(&mut future_free[p.index()], false))
            // Allocates once per checkpoint taken: the drained set becomes
            // the closed window's free-on-commit list.
            .collect()
    }

    /// Restores the rename state from a checkpoint snapshot (rollback), and
    /// restores the free list of `regs`.
    ///
    /// The live future-free column is cleared rather than copied from the
    /// snapshot: the registers recorded in the snapshot belong to the window
    /// *before* the checkpoint and are already attached to that older
    /// checkpoint's `free_on_commit` set, while every redefinition made after
    /// the checkpoint is being squashed.
    pub fn restore(&mut self, snapshot: &RenameCheckpoint, regs: &mut PhysRegFile) {
        assert_eq!(
            snapshot.valid.len(),
            self.valid.len(),
            "snapshot size mismatch"
        );
        self.valid.copy_from_slice(&snapshot.valid);
        self.future_free.fill(false);
        self.future_free_list.clear();
        regs.restore_free_list(&snapshot.free_list);
        // Rebuild the logical→physical shadow map from the valid column's
        // set bits, lowest register first.
        self.map.fill(None);
        for (w, &word) in self.valid.iter().enumerate() {
            let mut bits = word;
            while bits != 0 {
                let i = w * 64 + bits.trailing_zeros() as usize;
                self.map[self.logical[i] as usize] = Some(PhysReg(i as u32));
                bits &= bits - 1;
            }
        }
    }

    /// Undoes the rename of one squashed instruction (walk-back recovery for
    /// branches that are still inside the pseudo-ROB, or conventional ROB
    /// squash in the baseline). Must be applied youngest-first.
    ///
    /// The logical register comes from the CAM entry of `new_phys`: the map
    /// is indexed by physical register, and nothing overwrites that entry
    /// while the renaming instruction is in flight. The squashed
    /// instruction's destination register is returned to the free list of
    /// `regs` and the previous mapping is re-installed.
    pub fn undo_rename(
        &mut self,
        new_phys: PhysReg,
        prev_phys: Option<PhysReg>,
        regs: &mut PhysRegFile,
    ) {
        let dest = self.logical[new_phys.index()];
        self.set_valid(new_phys, false);
        self.future_free[new_phys.index()] = false;
        regs.free(new_phys);
        self.map[dest as usize] = prev_phys;
        if let Some(p) = prev_phys {
            self.set_valid(p, true);
            self.future_free[p.index()] = false;
            self.logical[p.index()] = dest;
        }
    }

    /// Number of physical registers currently holding a valid mapping.
    pub fn valid_count(&self) -> usize {
        self.valid.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Number of physical registers currently marked future-free.
    pub fn future_free_count(&self) -> usize {
        self.future_free.iter().filter(|&&v| v).count()
    }

    /// Whether physical register `p` currently holds the valid mapping of
    /// some logical register.
    pub fn is_valid(&self, p: PhysReg) -> bool {
        bit(&self.valid, p.index())
    }

    /// Whether physical register `p` is marked to be freed at the next
    /// checkpoint commit.
    pub fn is_future_free(&self, p: PhysReg) -> bool {
        self.future_free[p.index()]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn setup(num_phys: usize) -> (CamRenameMap, PhysRegFile) {
        (CamRenameMap::new(num_phys), PhysRegFile::new(num_phys))
    }

    #[test]
    fn renaming_installs_a_new_mapping() {
        let (mut map, mut regs) = setup(8);
        let r1 = ArchReg::int(1);
        let out = map.rename_dest(r1, &mut regs).unwrap();
        assert_eq!(out.prev_phys, None);
        assert_eq!(map.lookup(r1), Some(out.new_phys));
        assert!(map.is_valid(out.new_phys));
        assert_eq!(map.valid_count(), 1);
    }

    /// Re-enacts Figure 4: decoding `R1 = R2 + R3` when `R1` was mapped to
    /// physical 4 sets physical 4's future-free bit and maps `R1` to the
    /// newly allocated register.
    #[test]
    fn figure4_redefinition_sets_future_free() {
        let (mut map, mut regs) = setup(8);
        let r1 = ArchReg::int(1);
        let first = map.rename_dest(r1, &mut regs).unwrap();
        let second = map.rename_dest(r1, &mut regs).unwrap();
        assert_eq!(second.prev_phys, Some(first.new_phys));
        assert!(!map.is_valid(first.new_phys));
        assert!(map.is_future_free(first.new_phys));
        assert!(map.is_valid(second.new_phys));
        assert_eq!(map.lookup(r1), Some(second.new_phys));
    }

    /// Re-enacts Figure 5: two successive redefinitions of the same logical
    /// register leave two physical registers marked future-free, to be freed
    /// together at the next checkpoint commit.
    #[test]
    fn figure5_two_redefinitions_accumulate_future_free() {
        let (mut map, mut regs) = setup(8);
        let r1 = ArchReg::int(1);
        map.rename_dest(r1, &mut regs).unwrap();
        map.rename_dest(r1, &mut regs).unwrap();
        map.rename_dest(r1, &mut regs).unwrap();
        assert_eq!(map.future_free_count(), 2);
        assert_eq!(map.valid_count(), 1);
    }

    /// Re-enacts Figure 6: taking a checkpoint saves the valid column,
    /// hands over the future-free registers and clears that column.
    #[test]
    fn figure6_checkpoint_saves_and_clears_future_free() {
        let (mut map, mut regs) = setup(8);
        let r1 = ArchReg::int(1);
        let r4 = ArchReg::int(4);
        let first_r1 = map.rename_dest(r1, &mut regs).unwrap().new_phys;
        map.rename_dest(r1, &mut regs).unwrap();
        map.rename_dest(r4, &mut regs).unwrap();
        let (snapshot, to_free) = map.take_checkpoint(&regs);
        assert_eq!(to_free, vec![first_r1], "one register was redefined");
        assert_eq!(
            map.future_free_count(),
            0,
            "column cleared after checkpoint"
        );
        let valid_bits: u32 = snapshot.valid.iter().map(|w| w.count_ones()).sum();
        assert_eq!(valid_bits, 2);
        assert!(bit(&snapshot.valid, map.lookup(r1).unwrap().index()));
        assert!(!bit(&snapshot.valid, first_r1.index()));
    }

    #[test]
    fn rename_stalls_when_no_physical_register_is_free() {
        let (mut map, mut regs) = setup(2);
        assert!(map.rename_dest(ArchReg::int(1), &mut regs).is_some());
        assert!(map.rename_dest(ArchReg::int(2), &mut regs).is_some());
        assert!(map.rename_dest(ArchReg::int(3), &mut regs).is_none());
    }

    #[test]
    fn rollback_restores_mappings_and_free_list() {
        let (mut map, mut regs) = setup(8);
        let r1 = ArchReg::int(1);
        let r2 = ArchReg::int(2);
        let a = map.rename_dest(r1, &mut regs).unwrap().new_phys;
        let (snapshot, _) = map.take_checkpoint(&regs);
        let free_before = regs.free_count();
        // Speculative work after the checkpoint.
        map.rename_dest(r1, &mut regs).unwrap();
        map.rename_dest(r2, &mut regs).unwrap();
        assert_ne!(regs.free_count(), free_before);
        map.restore(&snapshot, &mut regs);
        assert_eq!(regs.free_count(), free_before);
        assert_eq!(map.lookup(r1), Some(a));
        assert_eq!(map.lookup(r2), None);
    }

    #[test]
    fn drain_future_free_returns_each_register_once() {
        let (mut map, mut regs) = setup(8);
        let r1 = ArchReg::int(1);
        map.rename_dest(r1, &mut regs).unwrap();
        map.rename_dest(r1, &mut regs).unwrap();
        let first = map.drain_future_free();
        let second = map.drain_future_free();
        assert_eq!(first.len(), 1);
        assert!(second.is_empty());
    }

    #[test]
    fn undo_rename_restores_the_previous_mapping_youngest_first() {
        let (mut map, mut regs) = setup(8);
        let r1 = ArchReg::int(1);
        let a = map.rename_dest(r1, &mut regs).unwrap();
        let b = map.rename_dest(r1, &mut regs).unwrap();
        let c = map.rename_dest(r1, &mut regs).unwrap();
        let free_before = regs.free_count();
        // Squash the two youngest definitions, youngest first.
        map.undo_rename(c.new_phys, c.prev_phys, &mut regs);
        map.undo_rename(b.new_phys, b.prev_phys, &mut regs);
        assert_eq!(map.lookup(r1), Some(a.new_phys));
        assert!(map.is_valid(a.new_phys));
        assert!(!map.is_future_free(a.new_phys));
        assert_eq!(regs.free_count(), free_before + 2);
    }

    #[test]
    fn undo_rename_of_first_definition_unmaps_the_register() {
        let (mut map, mut regs) = setup(4);
        let r2 = ArchReg::int(2);
        let a = map.rename_dest(r2, &mut regs).unwrap();
        map.undo_rename(a.new_phys, a.prev_phys, &mut regs);
        assert_eq!(map.lookup(r2), None);
        assert_eq!(map.valid_count(), 0);
    }

    #[test]
    fn lookup_of_unmapped_register_is_none() {
        let (map, _) = setup(4);
        assert_eq!(map.lookup(ArchReg::fp(3)), None);
    }
}
