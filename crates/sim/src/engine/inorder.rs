//! The conventional commit engine: in-order retirement from a reorder
//! buffer (the Table 1 baseline).
//!
//! Under in-order commit the in-flight table holds exactly the ROB's
//! entries — both gain an instruction at dispatch and lose it at commit or
//! squash — so the engine keeps no ROB of its own: the ROB size is a
//! capacity check on the table, and commit retires from the table's head.

use super::{CommitEngine, DispatchStall, Dispatched, EngineCtx, Writeback};
use crate::config::COMMIT_WIDTH;
use crate::stats::SimStats;
use koc_core::CheckpointId;
use koc_isa::{InstId, Instruction};
use koc_obs::{Event, Observer};

/// In-order ROB commit: instructions retire strictly in program order, up to
/// the commit width per cycle, once finished.
pub struct InOrderEngine {
    rob_size: usize,
}

impl InOrderEngine {
    /// An engine with a `rob_size`-entry reorder buffer.
    pub fn new(rob_size: usize) -> Self {
        InOrderEngine { rob_size }
    }

    /// Squashes everything younger than `boundary` (exclusive), walking the
    /// rename map back, and rewinds fetch after `boundary`.
    fn squash_younger<O: Observer>(&mut self, boundary: InstId, ctx: &mut EngineCtx<'_, '_, O>) {
        let squashed = ctx.squash_younger_than(boundary);
        ctx.squash_queues_from(boundary + 1);
        ctx.stats.recoveries.squashed_instructions += squashed.len() as u64;
        ctx.rewind_fetch_to(boundary + 1);
    }
}

impl<O: Observer> CommitEngine<O> for InOrderEngine {
    fn name(&self) -> &'static str {
        "in-order-rob"
    }

    fn is_empty(&self) -> bool {
        // The ROB is the in-flight table, which the shell already checks.
        true
    }

    fn reserve(
        &mut self,
        _id: InstId,
        _inst: &Instruction,
        ctx: &mut EngineCtx<'_, '_, O>,
    ) -> Result<(), DispatchStall> {
        if ctx.inflight.len() < self.rob_size {
            Ok(())
        } else {
            Err(DispatchStall::RobFull)
        }
    }

    fn allocate(&mut self, _d: &Dispatched) -> CheckpointId {
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
        while (committed as usize) < COMMIT_WIDTH {
            let (inst, prev) = match ctx.inflight.values().next() {
                Some(head) if head.is_done() => (head.inst, head.prev_phys),
                _ => break,
            };
            if let Some(prev) = prev {
                ctx.regs.free(prev);
            }
            ctx.inflight.remove(inst);
            if O::ENABLED {
                ctx.obs.event(ctx.cycle, Event::Commit { inst });
            }
            frontier = inst + 1;
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

#[cfg(test)]
mod tests {
    use crate::config::COMMIT_WIDTH;
    use crate::{PipelineTracer, Processor, ProcessorConfig};
    use koc_isa::{ArchReg, TraceBuilder};
    use koc_obs::Event;

    /// A load that misses L2 heads the trace, so independent work piles up
    /// behind it until the ROB — the in-flight table's capacity — is full.
    #[test]
    fn commits_in_order_within_width_behind_an_l2_miss_and_fills_the_rob() {
        let rob_size = 64;
        let mut b = TraceBuilder::named("rob");
        b.load(ArchReg::fp(1), ArchReg::int(1), 0x100_0000);
        for i in 0..400 {
            b.int_alu(ArchReg::int((i % 8) as u8 + 2), &[]);
        }
        let trace = b.finish();
        let config = ProcessorConfig::baseline(rob_size, 200);
        let (stats, tracer) =
            Processor::with_observer(config, &trace, PipelineTracer::new()).run_observed();
        assert_eq!(stats.committed_instructions, trace.len() as u64);

        let mut completed_at = vec![None; trace.len()];
        let mut commits = Vec::new();
        for &(cycle, ev) in tracer.events() {
            match ev {
                Event::Complete { inst } => completed_at[inst] = Some(cycle),
                Event::Commit { inst } => commits.push((cycle, inst)),
                _ => {}
            }
        }
        assert!(
            commits.iter().map(|&(_, inst)| inst).eq(0..trace.len()),
            "commits come in strictly increasing trace order"
        );
        for &(cycle, inst) in &commits {
            assert!(
                completed_at[inst].is_some_and(|done| done <= cycle),
                "instruction {inst} committed at {cycle} before it finished"
            );
        }
        let load_done = completed_at[0].expect("the load completed");
        assert!(load_done >= 200, "the load went to memory");
        assert!(
            commits.iter().all(|&(cycle, _)| cycle >= load_done),
            "nothing passes the unfinished load at the head"
        );
        for group in commits.chunk_by(|a, b| a.0 == b.0) {
            assert!(group.len() <= COMMIT_WIDTH, "cycle {}", group[0].0);
        }
        assert_eq!(stats.peak_inflight, rob_size);
        assert!(stats.stalls.rob_full > 0, "the full window stalls dispatch");
    }
}
