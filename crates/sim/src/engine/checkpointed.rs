//! The paper's commit engine: checkpointed out-of-order commit with a
//! pseudo-ROB for classification/near recovery and Slow Lane Instruction
//! Queuing for long-latency dependence chains.

use super::{CommitEngine, DispatchStall, Dispatched, EngineCtx, Writeback};
use crate::inflight::InstState;
use crate::stats::SimStats;
use koc_core::{
    CheckpointId, CheckpointPolicy, CheckpointTable, DependenceTracker, PseudoRob, RetireClass,
    SliqBuffer, SliqConfig,
};
use koc_isa::{FuClass, InstId, Instruction, OpKind};
use koc_obs::{Event, Observer};

/// Checkpointed out-of-order commit: retirement happens a whole checkpoint
/// at a time, as soon as every instruction in the checkpoint's window has
/// completed — regardless of younger work.
pub struct CheckpointedEngine {
    table: CheckpointTable,
    policy: CheckpointPolicy,
    pseudo_rob: PseudoRob,
    sliq: SliqBuffer,
    dep: DependenceTracker,
    /// Reused by [`wake`](CommitEngine::wake) so the per-cycle SLIQ walk
    /// allocates nothing.
    wake_scratch: Vec<koc_core::IqEntry>,
    /// Take a checkpoint exactly before this instruction (precise exception
    /// re-execution).
    force_checkpoint_at: Option<InstId>,
}

impl CheckpointedEngine {
    /// An engine with the given checkpoint-table size, pseudo-ROB size, SLIQ
    /// configuration and checkpoint-placement policy.
    pub fn new(
        checkpoint_entries: usize,
        pseudo_rob_size: usize,
        sliq: SliqConfig,
        policy: CheckpointPolicy,
    ) -> Self {
        CheckpointedEngine {
            table: CheckpointTable::new(checkpoint_entries),
            policy,
            pseudo_rob: PseudoRob::new(pseudo_rob_size),
            sliq: SliqBuffer::new(sliq),
            dep: DependenceTracker::new(),
            wake_scratch: Vec::new(),
            force_checkpoint_at: None,
        }
    }

    /// Classifies an instruction retiring from the pseudo-ROB (Figure 12)
    /// and moves still-waiting long-latency dependents into the SLIQ.
    fn classify_retired<O: Observer>(&mut self, inst: InstId, ctx: &mut EngineCtx<'_, '_, O>) {
        // Pseudo-ROB entries bound the replay-window release frontier (see
        // `commit`), so the instruction is still resident; copy it out to
        // keep the context borrow free.
        let trace_inst = *ctx.fetch.get(inst);
        // Update the dependence mask with this instruction regardless of its
        // class: independent redefinitions kill dependences.
        let trigger = self.dep.classify(&trace_inst);
        let fl = ctx.inflight.get(inst);
        let class = if trace_inst.is_store() {
            RetireClass::Store
        } else if trace_inst.kind == OpKind::Load {
            match fl {
                Some(fl) if fl.is_done() => RetireClass::FinishedLoad,
                Some(fl) if fl.is_issued() && fl.mem_level != Some(koc_mem::MemLevel::Memory) => {
                    RetireClass::FinishedLoad
                }
                None => RetireClass::FinishedLoad,
                Some(fl) => {
                    // Still outstanding: the paper treats it as long latency.
                    if let (Some(dest), Some(phys)) = (trace_inst.dest, fl.dest_phys) {
                        self.dep.add_long_latency_load(dest, phys);
                    }
                    RetireClass::LongLatLoad
                }
            }
        } else {
            match fl {
                Some(fl) if fl.is_done() => RetireClass::Finished,
                None => RetireClass::Finished,
                Some(_) => RetireClass::ShortLat,
            }
        };
        // Move still-waiting dependent instructions (of any kind except the
        // triggering loads themselves) from the IQ into the SLIQ. If the
        // triggering register has already been produced, the instruction will
        // issue shortly, so it stays in the queue (and moving it would leave
        // it stranded: its wake-up event has already fired).
        let mut final_class = class;
        if class != RetireClass::LongLatLoad {
            if let (Some(trigger), Some(fl)) = (trigger, ctx.inflight.get_mut(inst)) {
                if fl.state == InstState::Waiting
                    && !ctx.regs.is_ready(trigger)
                    && self.sliq.has_space()
                {
                    let queue = if trace_inst.kind.is_fp() {
                        &mut *ctx.fp_iq
                    } else {
                        &mut *ctx.int_iq
                    };
                    if let Some(iq_entry) = queue.remove(fl.iq_slot, inst) {
                        if self.sliq.insert(iq_entry, trigger) {
                            fl.state = InstState::InSliq;
                            if O::ENABLED {
                                ctx.obs.event(ctx.cycle, Event::SliqMove { inst });
                            }
                            if !trace_inst.is_store() && trace_inst.kind != OpKind::Load {
                                final_class = RetireClass::Moved;
                            }
                        } else {
                            unreachable!("space was checked");
                        }
                    }
                }
            }
        }
        ctx.stats.retire_breakdown.record(final_class);
    }

    /// Squashes everything younger than `boundary` (exclusive), walking the
    /// rename map back, and rewinds fetch after `boundary`. `boundary` is
    /// inside the pseudo-ROB, so every younger instruction is too, and none
    /// of them has committed: the walk-back over the in-flight table is
    /// exactly the band after `boundary`.
    fn squash_younger<O: Observer>(&mut self, boundary: InstId, ctx: &mut EngineCtx<'_, '_, O>) {
        let squashed = ctx.squash_younger_than(boundary);
        for fl in &squashed {
            self.table.on_squash(fl.ckpt, !fl.is_done());
        }
        self.pseudo_rob.squash_from(boundary + 1);
        ctx.squash_queues_from(boundary + 1);
        self.sliq.squash_from(boundary + 1);
        let dropped = self.table.drop_taken_at_or_after(boundary + 1);
        ctx.stats.checkpoints_squashed += dropped as u64;
        if O::ENABLED && dropped > 0 {
            ctx.obs.event(
                ctx.cycle,
                Event::CheckpointSquash {
                    count: dropped as u64,
                },
            );
        }
        // Registers that became valid mappings again must not be freed by an
        // older checkpoint's commit.
        let rename = &*ctx.rename;
        self.table.retain_free_on_commit(|p| !rename.is_valid(p));
        ctx.stats.recoveries.squashed_instructions += squashed.len() as u64;
        ctx.rewind_fetch_to(boundary + 1);
    }

    /// Rolls back to checkpoint `ckpt`: restores the rename snapshot, drops
    /// younger checkpoints, squashes every instruction from the checkpoint's
    /// trace position onwards and rewinds fetch there.
    fn rollback<O: Observer>(&mut self, ckpt: CheckpointId, ctx: &mut EngineCtx<'_, '_, O>) {
        let before = self.table.len();
        let (snapshot, trace_index) = self.table.rollback_to(ckpt);
        let dropped = (before - self.table.len()) as u64;
        ctx.stats.checkpoints_squashed += dropped;
        if O::ENABLED && dropped > 0 {
            ctx.obs
                .event(ctx.cycle, Event::CheckpointSquash { count: dropped });
        }
        ctx.rename.restore(&snapshot, ctx.regs);
        self.pseudo_rob.squash_from(trace_index);
        self.sliq.squash_from(trace_index);
        self.dep.reset();
        ctx.squash_queues_from(trace_index);
        // Remove squashed in-flight instances. Their registers come back via
        // the restored free list, not via explicit frees.
        let doomed = ctx.inflight.ids_at_or_after(trace_index);
        let mut squashed = 0u64;
        for inst in doomed {
            if ctx.forget_inflight(inst).is_some() {
                if O::ENABLED {
                    ctx.obs.event(ctx.cycle, Event::Squash { inst });
                }
                squashed += 1;
            }
        }
        ctx.stats.recoveries.squashed_instructions += squashed;
        ctx.stats.recoveries.reexecuted_instructions +=
            ctx.fetch.position().saturating_sub(trace_index) as u64;
        ctx.fetch.rewind_to(trace_index);
    }
}

impl<O: Observer> CommitEngine<O> for CheckpointedEngine {
    fn name(&self) -> &'static str {
        "checkpointed-out-of-order"
    }

    fn is_empty(&self) -> bool {
        self.table.is_empty()
    }

    fn live_checkpoints(&self) -> usize {
        self.table.len()
    }

    fn reserve(
        &mut self,
        id: InstId,
        inst: &Instruction,
        ctx: &mut EngineCtx<'_, '_, O>,
    ) -> Result<(), DispatchStall> {
        let forced_here = self.force_checkpoint_at == Some(id);
        let wants_checkpoint = self.table.is_empty()
            || forced_here
            || self
                .table
                .newest()
                .map(|n| {
                    self.policy
                        .should_take(n.total_insts, n.stores, inst.is_branch())
                })
                .unwrap_or(true);
        let mut take_checkpoint = false;
        if wants_checkpoint {
            if !self.table.is_full() {
                take_checkpoint = true;
            } else {
                // Keep extending the youngest window, unless the store bound
                // would risk exhausting the LSQ.
                let stores = self.table.newest().map(|n| n.stores).unwrap_or(0);
                if stores >= self.policy.force_after_stores.saturating_mul(2) {
                    return Err(DispatchStall::CheckpointFull);
                }
            }
        }
        if take_checkpoint {
            let (snapshot, freed) = ctx.rename.take_checkpoint(ctx.regs);
            #[expect(clippy::expect_used, reason = "take follows the capacity check above")]
            self.table
                .take(id, snapshot, freed)
                .expect("table was not full");
            ctx.stats.checkpoints_taken += 1;
            if O::ENABLED {
                if let Some(n) = self.table.newest() {
                    ctx.obs
                        .event(ctx.cycle, Event::CheckpointTake { id: n.id, at: id });
                }
            }
            if forced_here {
                self.force_checkpoint_at = None;
            }
        }
        Ok(())
    }

    fn allocate(&mut self, d: &Dispatched) -> CheckpointId {
        self.table.on_dispatch(d.is_store)
    }

    fn dispatched(&mut self, d: &Dispatched, _ckpt: CheckpointId, ctx: &mut EngineCtx<'_, '_, O>) {
        if let Some(retired) = self.pseudo_rob.push(d.id) {
            self.classify_retired(retired, ctx);
        }
    }

    fn frontend_drain(&mut self, budget: usize, ctx: &mut EngineCtx<'_, '_, O>) -> usize {
        for drained in 0..budget {
            let Some(retired) = self.pseudo_rob.pop_oldest() else {
                return drained;
            };
            self.classify_retired(retired, ctx);
        }
        budget
    }

    fn wake(&mut self, ctx: &mut EngineCtx<'_, '_, O>) -> usize {
        // Wake-ups are never blocked by queue occupancy: a re-inserted
        // instruction may transiently push a queue above its capacity
        // (bounded by the wake width). Blocking here can create a circular
        // wait — the queue would only drain once instructions still parked in
        // the SLIQ execute — so the bounded overshoot is the modelling
        // choice.
        if self
            .sliq
            .next_pending_ready_at()
            .is_none_or(|ready_at| ready_at > ctx.cycle)
        {
            return 0;
        }
        let mut woken = std::mem::take(&mut self.wake_scratch);
        woken.clear();
        self.sliq.step_into(ctx.cycle, &mut woken);
        let n = woken.len();
        for entry in woken.drain(..) {
            let inst = entry.inst;
            let queue = if entry.fu == FuClass::Fp {
                &mut *ctx.fp_iq
            } else {
                &mut *ctx.int_iq
            };
            let regs = &*ctx.regs;
            let slot = queue.insert_unbounded(entry, |p| regs.is_ready(p));
            if let Some(fl) = ctx.inflight.get_mut(inst) {
                fl.state = InstState::Waiting;
                fl.iq_slot = slot;
            }
        }
        self.wake_scratch = woken;
        n
    }

    fn next_wake(&self) -> Option<u64> {
        // The SLIQ walker FIFO is the engine's only self-scheduled work; its
        // front (minimum, by monotonicity) `ready_at` is exact, so the
        // shell's fast-forward can jump a stalled window straight to the
        // next re-insertion burst under `cooo` just as it jumps to the next
        // memory completion under the baseline. A produced register with
        // nothing parked on it schedules no walker, so every cycle reported
        // here re-inserts something unless a squash emptied the bucket.
        self.sliq.next_pending_ready_at()
    }

    fn completed(&mut self, wb: &Writeback, ctx: &mut EngineCtx<'_, '_, O>) {
        self.table.on_complete(wb.ckpt);
        if let Some(p) = wb.dest_phys {
            self.sliq.on_trigger_ready(p, ctx.cycle);
            if wb.kind == OpKind::Load {
                self.dep.clear_if_trigger(p);
            }
        }
    }

    fn commit(&mut self, ctx: &mut EngineCtx<'_, '_, O>) {
        let trace_done = ctx.fetch.at_end();
        if !self.table.can_commit_oldest(trace_done) {
            return;
        }
        let committed = self.table.commit_oldest();
        let frontier = self
            .table
            .oldest()
            .map(|c| c.trace_index)
            .unwrap_or_else(|| ctx.fetch.position());
        ctx.stats.checkpoints_committed += 1;
        ctx.stats.committed_instructions += committed.total_insts as u64;
        for p in &committed.free_on_commit {
            ctx.regs.free(*p);
        }
        // The committed checkpoint's instructions are exactly the in-flight
        // band below the surviving frontier: older checkpoints are gone, and
        // everything at or past the frontier belongs to a younger one.
        debug_assert!(ctx
            .inflight
            .values()
            .all(|fl| (fl.inst < frontier) == (fl.ckpt == committed.id)));
        if O::ENABLED {
            for fl in ctx.inflight.values() {
                if fl.inst < frontier {
                    ctx.obs.event(ctx.cycle, Event::Commit { inst: fl.inst });
                }
            }
            ctx.obs.event(
                ctx.cycle,
                Event::CheckpointCommit {
                    id: committed.id,
                    insts: committed.total_insts as u64,
                },
            );
        }
        ctx.inflight.drain_below(frontier);
        ctx.drain_stores(frontier);
        // No rollback can target anything older than the oldest live
        // checkpoint, but instructions of the committed checkpoint may still
        // sit in the pseudo-ROB awaiting classification — hold the replay
        // window until they have passed through.
        let release = self
            .pseudo_rob
            .oldest_inst()
            .map_or(frontier, |oldest| oldest.min(frontier));
        ctx.release_fetch_to(release);
    }

    fn recover_branch(&mut self, branch: InstId, ctx: &mut EngineCtx<'_, '_, O>) {
        if self.pseudo_rob.contains(branch) {
            ctx.stats.recoveries.near_recoveries += 1;
            self.squash_younger(branch, ctx);
        } else {
            ctx.stats.recoveries.checkpoint_rollbacks += 1;
            let ckpt = ctx.inflight[branch].ckpt;
            self.rollback(ckpt, ctx);
        }
    }

    fn recover_exception(&mut self, inst: InstId, ctx: &mut EngineCtx<'_, '_, O>) -> bool {
        // Roll back to the owning checkpoint and re-execute in "strict"
        // mode: a checkpoint is forced right at the excepting instruction so
        // the architectural state there is precise.
        let ckpt = ctx.inflight[inst].ckpt;
        self.force_checkpoint_at = Some(inst);
        self.rollback(ckpt, ctx);
        true
    }

    fn finalize(&mut self, stats: &mut SimStats) {
        stats.sliq_moved = self.sliq.total_moved();
        stats.sliq_high_water = self.sliq.high_water();
        // The documented checkpoint-lifecycle invariant, asserted at
        // teardown: every checkpoint ever taken either committed, was
        // squashed, or (only when a cycle budget cut the run short) is
        // still live in the table.
        debug_assert_eq!(
            stats.checkpoints_taken,
            stats.checkpoints_committed + stats.checkpoints_squashed + self.table.len() as u64,
            "checkpoint lifecycle must balance at end of run"
        );
    }
}
