//! Property-based tests for the core mechanisms: rename/free-list
//! consistency, checkpoint accounting, dependence tracking and SLIQ
//! conservation.

use koc_core::{
    CamRenameMap, CheckpointPolicy, CheckpointTable, DependenceTracker, InstructionQueue, IqEntry,
    PhysRegFile, SliqBuffer, SliqConfig,
};
use koc_isa::{ArchReg, FuClass, Instruction, OpKind, PhysReg, NUM_ARCH_REGS};
use proptest::prelude::*;

fn arb_reg() -> impl Strategy<Value = ArchReg> {
    (0..NUM_ARCH_REGS).prop_map(ArchReg::from_flat_index)
}

proptest! {
    /// Renaming any sequence of destinations never loses registers: the
    /// number of free + valid + future-free registers always equals the pool.
    #[test]
    fn rename_conserves_registers(dests in proptest::collection::vec(arb_reg(), 1..200)) {
        let pool = 256;
        let mut map = CamRenameMap::new(pool);
        let mut regs = PhysRegFile::new(pool);
        for d in dests {
            if map.rename_dest(d, &mut regs).is_none() {
                break;
            }
            let accounted = regs.free_count() + map.valid_count() + map.future_free_count();
            prop_assert_eq!(accounted, pool, "free + valid + future-free must cover the pool");
        }
    }

    /// Walking the rename map back over a youngest suffix — the near
    /// recovery of both engines, which reads each squashed instruction's
    /// logical register from the CAM — leaves the same mappings and the same
    /// free count as a fresh map that renamed only the surviving prefix.
    #[test]
    fn walk_back_matches_renaming_only_the_prefix(
        pool in 64usize..300,
        dests in proptest::collection::vec(arb_reg(), 1..200),
        keep in 0usize..200,
    ) {
        let mut map = CamRenameMap::new(pool);
        let mut regs = PhysRegFile::new(pool);
        let mut renamed = Vec::new();
        for d in &dests {
            match map.rename_dest(*d, &mut regs) {
                Some(r) => renamed.push((*d, r)),
                None => break,
            }
        }
        let keep = keep.min(renamed.len());
        for (_, r) in renamed[keep..].iter().rev() {
            map.undo_rename(r.new_phys, r.prev_phys, &mut regs);
        }
        let mut fresh = CamRenameMap::new(pool);
        let mut fresh_regs = PhysRegFile::new(pool);
        for (d, _) in &renamed[..keep] {
            fresh.rename_dest(*d, &mut fresh_regs).expect("the prefix fitted before");
        }
        for r in ArchReg::all() {
            prop_assert_eq!(map.lookup(r), fresh.lookup(r), "mapping of {}", r);
        }
        prop_assert_eq!(regs.free_count(), fresh_regs.free_count());
    }

    /// After a checkpoint/restore round trip, the rename map maps exactly the
    /// same registers, and exactly the same registers are free, as at
    /// checkpoint time — also for pools that end in a partial bit word.
    #[test]
    fn checkpoint_restore_round_trips(
        pool in 64usize..600,
        before in proptest::collection::vec(arb_reg(), 1..100),
        after in proptest::collection::vec(arb_reg(), 1..100),
    ) {
        let mut map = CamRenameMap::new(pool);
        let mut regs = PhysRegFile::new(pool);
        for d in &before {
            if map.rename_dest(*d, &mut regs).is_none() {
                break;
            }
        }
        let free_set = |regs: &PhysRegFile| -> Vec<bool> {
            (0..pool as u32).map(|p| regs.is_free(PhysReg(p))).collect()
        };
        let lookups_before: Vec<_> = ArchReg::all().map(|r| map.lookup(r)).collect();
        let free_before = free_set(&regs);
        let free_count_before = regs.free_count();
        let (snapshot, _) = map.take_checkpoint(&regs);
        for d in &after {
            if map.rename_dest(*d, &mut regs).is_none() {
                break;
            }
        }
        map.restore(&snapshot, &mut regs);
        let lookups_after: Vec<_> = ArchReg::all().map(|r| map.lookup(r)).collect();
        prop_assert_eq!(lookups_before, lookups_after);
        prop_assert_eq!(free_set(&regs), free_before);
        prop_assert_eq!(regs.free_count(), free_count_before);
        // The restored free list still allocates lowest-first, within the pool.
        let lowest = (0..pool as u32).map(PhysReg).find(|&p| regs.is_free(p));
        prop_assert_eq!(map.rename_dest(ArchReg::int(1), &mut regs).map(|r| r.new_phys), lowest);
    }

    /// The checkpoint policy fires iff one of its thresholds is reached.
    #[test]
    fn policy_thresholds_are_exact(insts in 0usize..1000, stores in 0usize..200, is_branch in any::<bool>()) {
        let p = CheckpointPolicy::paper();
        let expected = insts > 0
            && ((is_branch && insts >= 64) || insts >= 512 || stores >= 64);
        prop_assert_eq!(p.should_take(insts, stores, is_branch), expected);
    }

    /// Checkpoint-table pending counters never go negative and commits only
    /// happen when every associated instruction completed.
    #[test]
    fn checkpoint_accounting_is_consistent(windows in proptest::collection::vec(1usize..40, 1..10)) {
        let mut table = CheckpointTable::new(windows.len() + 1);
        let snap = koc_core::RenameCheckpoint {
            valid: vec![0],
            free_list: vec![u64::MAX],
        };
        let mut ids = Vec::new();
        let mut trace_index = 0;
        for w in &windows {
            let id = table.take(trace_index, snap.clone(), vec![]).unwrap();
            ids.push((id, *w));
            for _ in 0..*w {
                table.on_dispatch(false);
            }
            trace_index += w;
        }
        // Complete everything, oldest window first, and commit as we go.
        let total_windows = ids.len();
        for (i, (id, w)) in ids.iter().enumerate() {
            for _ in 0..*w {
                table.on_complete(*id);
            }
            let has_younger = i + 1 < total_windows;
            prop_assert_eq!(
                table.can_commit_oldest(false),
                has_younger,
                "a closed window with no pending work commits; an open one needs trace_done"
            );
            prop_assert!(table.can_commit_oldest(true));
            let c = table.commit_oldest();
            prop_assert_eq!(c.total_insts, *w);
            prop_assert_eq!(c.id, *id);
        }
        prop_assert!(table.is_empty());
    }

    /// Dependence tracking against a map of register -> trigger, fed by two
    /// long-latency loads: an instruction is dependent iff one of its
    /// sources is tracked, it is tagged with the first such source's
    /// trigger, and its destination takes that tag (or loses its own).
    #[test]
    fn dependence_mask_matches_reference(
        loads in (arb_reg(), arb_reg()),
        ops in proptest::collection::vec((arb_reg(), arb_reg(), arb_reg()), 1..100),
    ) {
        let mut tracker = DependenceTracker::new();
        let mut reference: std::collections::BTreeMap<ArchReg, PhysReg> = Default::default();
        for (dest, phys) in [(loads.0, PhysReg(100)), (loads.1, PhysReg(200))] {
            tracker.add_long_latency_load(dest, phys);
            reference.insert(dest, phys);
        }
        for (dest, s1, s2) in ops {
            let inst = Instruction::op(0, OpKind::FpAlu, Some(dest), &[s1, s2]);
            let expected = reference.get(&s1).or(reference.get(&s2)).copied();
            prop_assert_eq!(tracker.classify(&inst), expected);
            match expected {
                Some(phys) => reference.insert(dest, phys),
                None => reference.remove(&dest),
            };
            for r in ArchReg::all() {
                prop_assert_eq!(tracker.trigger_for(r), reference.get(&r).copied());
            }
        }
    }

    /// Instructions moved into the SLIQ are all eventually returned, exactly
    /// once, in program order per trigger.
    #[test]
    fn sliq_conserves_instructions(count in 1usize..200, triggers in 1u32..8) {
        let mut sliq = SliqBuffer::new(SliqConfig::paper(4096));
        for i in 0..count {
            let entry = IqEntry {
                inst: i,
                srcs: koc_isa::RegList::new(),
                fu: if i % 2 == 0 { FuClass::Fp } else { FuClass::IntAlu },
            };
            sliq.insert(entry, PhysReg(i as u32 % triggers));
        }
        for t in 0..triggers {
            sliq.on_trigger_ready(PhysReg(t), 0);
        }
        let mut woken = Vec::new();
        let mut cycle = 0u64;
        while !sliq.is_empty() && cycle < 10_000 {
            sliq.step_into(cycle, &mut woken);
            cycle += 1;
        }
        prop_assert_eq!(woken.len(), count, "every entry is returned exactly once");
        let mut seen = std::collections::BTreeSet::new();
        for w in &woken {
            prop_assert!(seen.insert(w.inst), "duplicate wake-up for {}", w.inst);
        }
    }

    /// The instruction queue issues every inserted instruction exactly once,
    /// once its sources are produced — except the ones removed by slot
    /// handle first, which never issue, and whose handles (recycled or not)
    /// then reject a second removal.
    #[test]
    fn iq_conserves_instructions(
        srcs in proptest::collection::vec(0u32..16, 1..100),
        removals in proptest::collection::vec(any::<bool>(), 100..101),
    ) {
        let mut iq = InstructionQueue::new(256);
        let mut slots = Vec::new();
        for (i, s) in srcs.iter().enumerate() {
            let entry = IqEntry {
                inst: i,
                srcs: [PhysReg(*s)].into_iter().collect(),
                fu: FuClass::IntAlu,
            };
            slots.push(iq.insert(entry, |_| false).unwrap());
        }
        // Half the wake-ups happen before the removals, so some removed
        // entries are already ready and leave stale heap records behind.
        for s in 0u32..8 {
            iq.wakeup(PhysReg(s));
        }
        let mut removed = std::collections::BTreeSet::new();
        for (i, &slot) in slots.iter().enumerate() {
            if removals[i] {
                prop_assert_eq!(iq.remove(slot, i).map(|e| e.inst), Some(i));
                prop_assert!(iq.remove(slot, i).is_none(), "a handle removes once");
                removed.insert(i);
            }
        }
        for s in 8u32..16 {
            iq.wakeup(PhysReg(s));
        }
        let mut issued = std::collections::BTreeSet::new();
        loop {
            let picked = iq.select_ready(&mut [4, 4, 4, 4], 4);
            if picked.is_empty() {
                break;
            }
            for e in picked {
                prop_assert!(!removed.contains(&e.inst), "removed entry {} issued", e.inst);
                prop_assert!(issued.insert(e.inst), "entry {} issued twice", e.inst);
            }
        }
        prop_assert_eq!(issued.len() + removed.len(), srcs.len());
        prop_assert!(iq.is_empty());
    }
}
