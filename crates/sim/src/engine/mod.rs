//! Pluggable commit engines.
//!
//! The paper's whole contribution is a different *commit engine*: the
//! baseline retires in order from a ROB, the proposal retires whole
//! checkpoints out of order. Everything else in the pipeline — fetch,
//! rename, the issue queues, the functional units, the memory hierarchy —
//! is identical. This module makes that seam explicit: [`CommitEngine`] is
//! the trait a commit scheme implements, and the pipeline shell in
//! [`crate::pipeline`] drives whichever engine it is given without knowing
//! which variant it has.
//!
//! Engines receive an [`EngineCtx`] at every hook: mutable access to the
//! shared pipeline resources (rename map, register file, issue queues, LSQ,
//! memory, in-flight table, statistics and the fetch window). The in-flight
//! table is the only per-instruction window record: it holds every
//! dispatched, uncommitted instruction in trace order with its renamed
//! registers and owning checkpoint. [`inorder::InOrderEngine`] keeps only
//! the ROB size and commits from the table's head;
//! [`checkpointed::CheckpointedEngine`] owns the checkpoint table, the SLIQ
//! and the pseudo-ROB, which is a band of trace positions over the table.
//!
//! Adding a third engine requires implementing [`CommitEngine`] and (if it
//! should be constructible from a [`CommitConfig`]) extending
//! [`from_config`]; the pipeline shell needs no edits.

pub mod checkpointed;
pub mod inorder;

pub use checkpointed::CheckpointedEngine;
pub use inorder::InOrderEngine;

use crate::config::{CommitConfig, ProcessorConfig};
use crate::inflight::{InFlight, InFlightTable};
use crate::stats::SimStats;
use koc_core::{CamRenameMap, CheckpointId, InstructionQueue, LoadStoreQueue, PhysRegFile};
use koc_isa::{InstId, Instruction, OpKind, PhysReg, ReplayWindow};
use koc_mem::MemoryHierarchy;
use koc_obs::{Event, NullObserver, Observer};

/// Why the engine refused to accept the next instruction this cycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DispatchStall {
    /// The reorder buffer is full (in-order engine).
    RobFull,
    /// The checkpoint table is full and the open window hit its store bound
    /// (checkpointed engine).
    CheckpointFull,
}

/// What an engine learns about an instruction at dispatch; the rest of its
/// record is in the in-flight table.
#[derive(Debug, Clone, Copy)]
pub struct Dispatched {
    /// Trace position.
    pub id: InstId,
    /// Whether the instruction is a store.
    pub is_store: bool,
}

/// Everything the pipeline shell knows about an instruction at write-back.
#[derive(Debug, Clone, Copy)]
pub struct Writeback {
    /// Trace position.
    pub inst: InstId,
    /// Owning checkpoint (0 for engines without checkpoints).
    pub ckpt: CheckpointId,
    /// Operation kind.
    pub kind: OpKind,
    /// Renamed destination, if any.
    pub dest_phys: Option<PhysReg>,
}

/// Mutable views of the shared pipeline resources, passed to every engine
/// hook. The engine and the shell never alias: the shell constructs the
/// context fresh per call from its own fields.
///
/// The observer seam rides along as the generic parameter `O`
/// (monomorphized to [`NullObserver`] by default, which compiles every
/// observation away): engines report commit/squash/checkpoint lifecycle
/// through `ctx.obs`, always guarded by `O::ENABLED`.
pub struct EngineCtx<'c, 'a, O: Observer = NullObserver> {
    /// The run's configuration.
    pub config: &'c ProcessorConfig,
    /// Current cycle.
    pub cycle: u64,
    /// The fetch stream: a [`ReplayWindow`] over the run's
    /// [`InstructionSource`](koc_isa::InstructionSource). Recovery rewinds
    /// it; commit [releases](ReplayWindow::release_to) it; instructions
    /// still inside the window are looked up by stream position.
    pub fetch: &'c mut ReplayWindow<'a>,
    /// The CAM rename map with future-free bits.
    pub rename: &'c mut CamRenameMap,
    /// Physical register file / free list.
    pub regs: &'c mut PhysRegFile,
    /// Integer instruction queue.
    pub int_iq: &'c mut InstructionQueue,
    /// Floating-point instruction queue.
    pub fp_iq: &'c mut InstructionQueue,
    /// Load/store queue.
    pub lsq: &'c mut LoadStoreQueue,
    /// Memory hierarchy (committed stores drain into it).
    pub mem: &'c mut MemoryHierarchy,
    /// In-flight instruction table.
    pub inflight: &'c mut InFlightTable,
    /// Count of dispatched-but-not-issued instructions.
    pub live_count: &'c mut usize,
    /// Run statistics.
    pub stats: &'c mut SimStats,
    /// The run's observer (a no-op unless the pipeline was built with one).
    pub obs: &'c mut O,
}

impl<O: Observer> EngineCtx<'_, '_, O> {
    /// Releases committed stores older than `frontier` to the memory
    /// hierarchy (L2 misses post to the timed backend as bank writes).
    pub fn drain_stores(&mut self, frontier: InstId) {
        while let Some(s) = self.lsq.pop_store_older_than(frontier) {
            self.mem.drain_store(s.addr, self.cycle);
        }
    }

    /// Removes a squashed instruction's in-flight record, maintaining the
    /// live count, and returns it for engine-side accounting.
    pub fn forget_inflight(&mut self, inst: InstId) -> Option<InFlight> {
        let fl = self.inflight.remove(inst)?;
        if fl.is_live() {
            *self.live_count = self.live_count.saturating_sub(1);
        }
        Some(fl)
    }

    /// Squashes both issue queues and the LSQ from `boundary` (inclusive).
    pub fn squash_queues_from(&mut self, boundary: InstId) {
        self.int_iq.squash_from(boundary);
        self.fp_iq.squash_from(boundary);
        self.lsq.squash_from(boundary);
    }

    /// Rewinds fetch so it restarts at `target`, if fetch has moved past it.
    pub fn rewind_fetch_to(&mut self, target: InstId) {
        if target < self.fetch.position() {
            self.fetch.rewind_to(target);
        }
    }

    /// Declares that no recovery will ever rewind below `frontier` again
    /// (every older recovery point has retired), letting the fetch replay
    /// window drop its tail. Engines call this as commit advances; the
    /// frontier must not overtake any instruction the engine may still look
    /// up (e.g. pseudo-ROB entries awaiting classification).
    pub fn release_fetch_to(&mut self, frontier: InstId) {
        self.fetch.release_to(frontier);
    }

    /// Squashes every in-flight instruction younger than `boundary`
    /// (exclusive), youngest first: undoes its rename from the record's
    /// `dest_phys`/`prev_phys` (the walk-back recovery of a conventional
    /// ROB) and removes the record. Returns the squashed records, youngest
    /// first, for engine-side accounting.
    pub fn squash_younger_than(&mut self, boundary: InstId) -> Vec<InFlight> {
        let doomed = self.inflight.ids_at_or_after(boundary + 1);
        // Allocates on the recovery path: sized once per squash, not per
        // cycle.
        let mut squashed = Vec::with_capacity(doomed.len());
        for &inst in doomed.iter().rev() {
            let Some(fl) = self.forget_inflight(inst) else {
                continue;
            };
            if let Some(new_phys) = fl.dest_phys {
                self.rename.undo_rename(new_phys, fl.prev_phys, self.regs);
            }
            if O::ENABLED {
                self.obs.event(self.cycle, Event::Squash { inst });
            }
            squashed.push(fl);
        }
        squashed
    }
}

/// A commit engine: owns retirement order, recovery strategy and the
/// reclamation of renamed registers. Driven by the pipeline shell through
/// the hooks below, in pipeline-stage order.
///
/// `O` is the run's observer type; engines implement the trait for every
/// `O: Observer` so the same engine code serves observed and unobserved
/// runs (the default, [`NullObserver`], compiles all reporting away).
pub trait CommitEngine<O: Observer = NullObserver> {
    /// Short engine name, used in diagnostics.
    fn name(&self) -> &'static str;

    /// Whether the engine holds no uncommitted work (end-of-run condition).
    fn is_empty(&self) -> bool;

    /// Number of live checkpoints the engine currently holds (0 for
    /// engines without checkpoints). Read by the per-cycle observer sample.
    fn live_checkpoints(&self) -> usize {
        0
    }

    /// Admission control for the next instruction in fetch order, called
    /// after the shell's own resource checks (queues, LSQ, registers) pass.
    /// The engine may mutate its state (e.g. take a checkpoint through
    /// `ctx.rename`/`ctx.regs`) when it accepts.
    fn reserve(
        &mut self,
        id: InstId,
        inst: &Instruction,
        ctx: &mut EngineCtx<'_, '_, O>,
    ) -> Result<(), DispatchStall>;

    /// Allocates retirement tracking for an accepted instruction and returns
    /// the checkpoint that owns it (0 for engines without checkpoints).
    fn allocate(&mut self, d: &Dispatched) -> CheckpointId;

    /// Called after the accepted instruction entered its issue queue; the
    /// checkpointed engine advances its pseudo-ROB (and may retire/classify
    /// an older entry) here.
    fn dispatched(&mut self, d: &Dispatched, ckpt: CheckpointId, ctx: &mut EngineCtx<'_, '_, O>);

    /// Frontend-side retirement work when dispatch cannot make progress
    /// (fetch drained or the issue queues are full): lets the checkpointed
    /// engine keep classifying pseudo-ROB entries. `budget` bounds the work
    /// to the fetch width. Returns the number of entries retired, so the
    /// shell can tell a dead cycle from a draining one (fast-forward).
    fn frontend_drain(&mut self, budget: usize, ctx: &mut EngineCtx<'_, '_, O>) -> usize;

    /// Per-cycle wake-up of any secondary buffer (the SLIQ), before issue
    /// selection. Returns the number of instructions re-inserted, so the
    /// shell can tell a dead cycle from a waking one (fast-forward).
    fn wake(&mut self, ctx: &mut EngineCtx<'_, '_, O>) -> usize;

    /// The earliest future cycle at which the engine has self-scheduled
    /// work (a pending SLIQ wake-up walker), or `None` if it only reacts to
    /// pipeline events. Part of the event-driven fast-forward: a stalled
    /// shell must not skip past an engine wake-up.
    fn next_wake(&self) -> Option<u64> {
        None
    }

    /// Execution of `wb.inst` completed this cycle (its result, if any, is
    /// already broadcast to the issue queues).
    fn completed(&mut self, wb: &Writeback, ctx: &mut EngineCtx<'_, '_, O>);

    /// Retires as much as the engine's commit rules allow this cycle.
    fn commit(&mut self, ctx: &mut EngineCtx<'_, '_, O>);

    /// Recovers from a mispredicted branch that resolved at write-back. The
    /// engine squashes younger work, restores rename state and rewinds fetch
    /// (through `ctx`); the shell applies the redirect penalty afterwards.
    fn recover_branch(&mut self, branch: InstId, ctx: &mut EngineCtx<'_, '_, O>);

    /// Delivers an exception raised by `inst` at completion. Returns `true`
    /// if the excepting instruction itself was squashed (it will re-execute
    /// from an engine-internal recovery point), `false` if it survives and
    /// completes normally.
    fn recover_exception(&mut self, inst: InstId, ctx: &mut EngineCtx<'_, '_, O>) -> bool;

    /// End-of-run statistics owned by the engine (SLIQ counters and the
    /// like).
    fn finalize(&mut self, stats: &mut SimStats);
}

/// Builds the engine a [`CommitConfig`] describes.
///
/// This is the only place that maps configuration variants to engine types;
/// the pipeline shell never matches on the variant.
pub fn from_config<O: Observer>(commit: &CommitConfig) -> Box<dyn CommitEngine<O>> {
    match *commit {
        CommitConfig::InOrderRob { rob_size } => Box::new(InOrderEngine::new(rob_size)),
        CommitConfig::Checkpointed {
            checkpoint_entries,
            pseudo_rob_size,
            sliq,
            policy,
        } => Box::new(CheckpointedEngine::new(
            checkpoint_entries,
            pseudo_rob_size,
            sliq,
            policy,
        )),
    }
}
