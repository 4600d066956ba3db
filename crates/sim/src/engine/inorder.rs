//! The conventional commit engine: in-order retirement from a reorder
//! buffer (the Table 1 baseline).

use super::{CommitEngine, DispatchStall, Dispatched, EngineCtx, Writeback};
use crate::stats::SimStats;
use koc_core::{CheckpointId, ReorderBuffer, RobEntry};
use koc_isa::{InstId, Instruction};
use koc_obs::{Event, Observer};

/// In-order ROB commit: instructions retire strictly in program order, up to
/// the commit width per cycle, once finished.
pub struct InOrderEngine {
    rob: ReorderBuffer,
}

impl InOrderEngine {
    /// An engine with a `rob_size`-entry reorder buffer.
    pub fn new(rob_size: usize) -> Self {
        InOrderEngine {
            rob: ReorderBuffer::new(rob_size),
        }
    }

    /// Squashes everything younger than `boundary` (exclusive) by walking
    /// the ROB's rename undo records, and rewinds fetch after `boundary`.
    fn squash_younger<O: Observer>(&mut self, boundary: InstId, ctx: &mut EngineCtx<'_, '_, O>) {
        let mut undo = Vec::new(); // koc-lint: allow(hot-path-alloc, "branch-recovery squash, not per cycle")
        while let Some(e) = self.rob.pop_younger_than(boundary) {
            undo.push((e.inst, e.rename));
        }
        ctx.undo_renames(&undo);
        ctx.squash_queues_from(boundary + 1);
        ctx.stats.recoveries.squashed_instructions += undo.len() as u64;
        ctx.rewind_fetch_to(boundary + 1);
    }
}

impl<O: Observer> CommitEngine<O> for InOrderEngine {
    fn name(&self) -> &'static str {
        "in-order-rob"
    }

    fn is_empty(&self) -> bool {
        self.rob.is_empty()
    }

    fn reserve(
        &mut self,
        _id: InstId,
        _inst: &Instruction,
        _ctx: &mut EngineCtx<'_, '_, O>,
    ) -> Result<(), DispatchStall> {
        if self.rob.has_space() {
            Ok(())
        } else {
            Err(DispatchStall::RobFull)
        }
    }

    fn allocate(&mut self, d: &Dispatched) -> CheckpointId {
        self.rob
            .push(RobEntry {
                inst: d.id,
                rename: d.rename,
                is_store: d.is_store,
                is_branch: d.is_branch,
                ckpt: 0,
            })
            .expect("ROB space was reserved"); // koc-lint: allow(panic, "dispatch reserved ROB space this cycle")
        0
    }

    fn dispatched(
        &mut self,
        _d: &Dispatched,
        _ckpt: CheckpointId,
        _ctx: &mut EngineCtx<'_, '_, O>,
    ) {
    }

    fn frontend_drain(&mut self, _budget: usize, _ctx: &mut EngineCtx<'_, '_, O>) -> usize {
        0
    }

    fn wake(&mut self, _ctx: &mut EngineCtx<'_, '_, O>) -> usize {
        0
    }

    fn completed(&mut self, _wb: &Writeback, _ctx: &mut EngineCtx<'_, '_, O>) {}

    fn commit(&mut self, ctx: &mut EngineCtx<'_, '_, O>) {
        let mut committed = 0u64;
        let mut frontier = 0;
        while (committed as usize) < ctx.config.commit_width {
            // The in-flight table records completion; the ROB only orders.
            let inflight = &*ctx.inflight;
            let Some(e) = self
                .rob
                .pop_finished(|inst| inflight.get(inst).is_some_and(|fl| fl.is_done()))
            else {
                break;
            };
            if let Some((_, _, Some(prev))) = e.rename {
                ctx.regs.free(prev);
            }
            ctx.inflight.remove(e.inst);
            if O::ENABLED {
                ctx.obs.event(ctx.cycle, Event::Commit { inst: e.inst });
            }
            frontier = e.inst + 1;
            committed += 1;
        }
        if committed == 0 {
            return;
        }
        ctx.stats.committed_instructions += committed;
        ctx.drain_stores(frontier);
        // In-order retirement never revisits committed instructions: the
        // replay window can forget everything behind the commit point.
        ctx.release_fetch_to(frontier);
    }

    fn recover_branch(&mut self, branch: InstId, ctx: &mut EngineCtx<'_, '_, O>) {
        ctx.stats.recoveries.near_recoveries += 1;
        self.squash_younger(branch, ctx);
    }

    fn recover_exception(&mut self, inst: InstId, ctx: &mut EngineCtx<'_, '_, O>) -> bool {
        // The baseline delivers the exception precisely by squashing
        // everything younger; the excepting instruction completes.
        self.squash_younger(inst, ctx);
        false
    }

    fn finalize(&mut self, _stats: &mut SimStats) {}
}
