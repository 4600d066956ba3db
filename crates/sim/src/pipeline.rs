//! The cycle-level pipeline shell: fetch/rename/dispatch, issue, execute,
//! write-back and statistics. Retirement, recovery and register reclaim are
//! delegated to a pluggable [`CommitEngine`] — the conventional in-order ROB
//! baseline or the paper's checkpointed out-of-order commit engine (or any
//! third-party implementation of the trait).
//!
//! The simulator is trace driven. Branch mispredictions use a
//! squash-and-refetch model: fetch continues past an unresolved mispredicted
//! branch (the fetched instructions stand in for wrong-path work and occupy
//! machine resources); when the branch resolves, the engine recovers —
//! selectively for nearby branches, by rolling back to a checkpoint for
//! branches that already left the pseudo-ROB, which is exactly the recovery
//! cost the paper attributes to coarse-grain checkpointing.
//!
//! # Throughput
//!
//! The hot loop is engineered for the paper's kilo-instruction windows:
//! in-flight state lives in a dense slab ([`InFlightTable`]), completion
//! events in a calendar wheel whose per-cycle FIFOs thread through one node
//! slab; both, like the queues and the LSQ, are reserved at construction,
//! so a completion allocates nothing. A rename checkpoint copies two
//! bit-word columns (see [`CamRenameMap`]). When every stage is provably stalled on the memory backend the shell
//! *fast-forwards* — it jumps straight to the next scheduled event
//! ([`koc_mem::MemoryBackend::next_event`], the engine's
//! [`CommitEngine::next_wake`], or a fetch redirect expiring) while
//! accounting per-cycle statistics exactly as if it had ticked through the
//! dead time. Results are bit-identical with
//! [`ProcessorConfig::fast_forward`] off; only wall-clock changes.

use crate::config::{BranchPredictorKind, CommitConfig, ProcessorConfig, RegisterModel};
use crate::engine::{self, CommitEngine, DispatchStall, Dispatched, EngineCtx, Writeback};
use crate::inflight::{InFlight, InFlightTable, InstState};
use crate::stats::SimStats;
use koc_core::{
    CamRenameMap, CheckpointId, InstructionQueue, IqEntry, LoadStoreQueue, LsqEntry, PhysRegFile,
    VirtualRegisterFile,
};
use koc_frontend::{BranchPredictor, GsharePredictor, PerfectPredictor};
use koc_isa::{
    ArchReg, InstId, Instruction, IntoInstructionSource, OpKind, PhysReg, RegList, ReplayWindow,
};
use koc_mem::{MemLevel, MemoryHierarchy, TimedAccess};
use koc_obs::{CycleBucket, CycleSample, Event, NullObserver, Observer};
use std::collections::{BTreeMap, BTreeSet, VecDeque};

/// Why dispatch stopped this cycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum StallReason {
    IqFull,
    LsqFull,
    RegsFull,
    Engine(DispatchStall),
}

/// What a fully stalled cycle recorded in the stall counters — replayed
/// per skipped cycle by the fast-forward path so statistics stay
/// bit-identical with per-cycle stepping.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum SkipStall {
    /// Waiting out a branch-misprediction redirect.
    Redirect,
    /// Dispatch blocked on a structural resource.
    Dispatch(StallReason),
}

/// What one [`Processor::step`] did, as far as the fast-forward logic is
/// concerned.
struct CycleActivity {
    /// Whether any externally visible state changed this cycle (an event
    /// completed, an instruction moved, a stage made progress). A `false`
    /// cycle will repeat identically until the next scheduled event.
    progressed: bool,
    /// The stall counter this (quiescent) cycle bumped, if any.
    stall: Option<SkipStall>,
}

/// Completion events in a calendar wheel: every schedulable delay is
/// bounded by the memory hierarchy's worst-case latency, so slot
/// `cycle & mask` is unambiguous within the horizon and push/take are O(1)
/// array operations instead of tree-map node churn. Each slot is a FIFO of
/// nodes threaded through one slab (vacated nodes chain onto an intrusive
/// free list), so same-cycle events come back in push order and the steady
/// state allocates nothing: the slab is reserved at construction, and
/// [`take`](Self::take) drains a slot into one reused batch `Vec`. An
/// occupancy bitmap (one bit per slot) answers `next_cycle` for the
/// fast-forward path in a scan of its words, which a count of wheel events
/// skips outright when the wheel is empty, as it mostly is while loads wait
/// on a queueing memory backend. Anything past the horizon (never hit by
/// the built-in backends) falls back to an ordered map.
struct EventQueue {
    /// First and last node of each slot's FIFO (`NIL_EVENT` when empty).
    fifo: Vec<(u32, u32)>,
    /// `(event, next)` nodes; `next` links a slot's FIFO or the free list.
    nodes: Vec<((InstId, u64), u32)>,
    /// Head of the vacated-node chain.
    free: u32,
    mask: u64,
    /// Bit per wheel slot; set iff the slot holds events. Its length is a
    /// power of two.
    occ: Vec<u64>,
    /// Events on the wheel (not counting `overflow`).
    len: usize,
    /// The buffer `take` hands out and `recycle` returns.
    batch: Vec<(InstId, u64)>,
    overflow: BTreeMap<u64, Vec<(InstId, u64)>>,
    /// The cycle of the last `take` — events are never scheduled below it.
    cur: u64,
}

/// Sentinel index for "no node" in the event slab.
const NIL_EVENT: u32 = u32::MAX;

impl EventQueue {
    /// A wheel able to schedule at least `max_delay` cycles ahead, with
    /// node slots for `reserve` pending events before its slab grows.
    fn with_horizon(max_delay: u64, reserve: usize) -> Self {
        // At least 128 slots, so the bitmap is a power of two of words.
        let slots = (max_delay + 66).next_power_of_two() as usize;
        EventQueue {
            fifo: vec![(NIL_EVENT, NIL_EVENT); slots],
            nodes: Vec::with_capacity(reserve),
            free: NIL_EVENT,
            mask: slots as u64 - 1,
            occ: vec![0; slots.div_ceil(64)],
            len: 0,
            batch: Vec::new(),
            overflow: BTreeMap::new(),
            cur: 0,
        }
    }

    fn push(&mut self, cycle: u64, event: (InstId, u64)) {
        debug_assert!(cycle >= self.cur, "event scheduled in the past");
        if cycle - self.cur > self.mask {
            self.overflow.entry(cycle).or_default().push(event);
            return;
        }
        let n = if self.free == NIL_EVENT {
            self.nodes.push((event, NIL_EVENT));
            (self.nodes.len() - 1) as u32
        } else {
            let n = self.free;
            self.free = self.nodes[n as usize].1;
            self.nodes[n as usize] = (event, NIL_EVENT);
            n
        };
        self.len += 1;
        let slot = (cycle & self.mask) as usize;
        let (head, tail) = self.fifo[slot];
        if head == NIL_EVENT {
            self.fifo[slot] = (n, n);
            self.occ[slot / 64] |= 1u64 << (slot % 64);
        } else {
            self.nodes[tail as usize].1 = n;
            self.fifo[slot].1 = n;
        }
    }

    /// Removes and returns the batch due at `cycle`, in push order (events
    /// that overflowed the horizon last); return it with
    /// [`recycle`](Self::recycle) after draining. `cycle` must advance
    /// monotonically (the shell takes once per simulated cycle and
    /// fast-forward only skips provably event-free cycles).
    fn take(&mut self, cycle: u64) -> Option<Vec<(InstId, u64)>> {
        self.cur = cycle;
        let slot = (cycle & self.mask) as usize;
        let on_wheel = self.occ[slot / 64] & (1u64 << (slot % 64)) != 0;
        let overflowed = self
            .overflow
            .first_key_value()
            .is_some_and(|(&c, _)| c == cycle);
        if !on_wheel && !overflowed {
            return None;
        }
        let mut due = std::mem::take(&mut self.batch);
        if on_wheel {
            self.occ[slot / 64] &= !(1u64 << (slot % 64));
            let (head, tail) = std::mem::replace(&mut self.fifo[slot], (NIL_EVENT, NIL_EVENT));
            let mut n = head;
            while n != NIL_EVENT {
                let (event, next) = self.nodes[n as usize];
                due.push(event);
                n = next;
            }
            // The drained chain joins the free list whole.
            self.nodes[tail as usize].1 = self.free;
            self.free = head;
            self.len -= due.len();
        }
        if overflowed {
            let mut extra = self.overflow.remove(&cycle).expect("checked key"); // koc-lint: allow(panic, "key was just matched by first_key_value")
            due.append(&mut extra);
        }
        Some(due)
    }

    fn recycle(&mut self, mut batch: Vec<(InstId, u64)>) {
        batch.clear();
        self.batch = batch;
    }

    /// The earliest cycle after `cur` with a scheduled event.
    fn next_cycle(&self) -> Option<u64> {
        let overflow = self.overflow.first_key_value().map(|(&c, _)| c);
        if self.len == 0 {
            return overflow;
        }
        let start_slot = (self.cur + 1) & self.mask;
        let words = self.occ.len();
        let mut next = None;
        // Scan the occupancy bitmap cyclically from `start_slot`'s word; the
        // first set bit in cyclic order is the soonest wheel event (every
        // scheduled event lies within one horizon of `cur`, so the cyclic
        // slot distance is exactly the cycle distance).
        for step in 0..=words {
            let wi = (start_slot as usize / 64 + step) & (words - 1);
            let mut word = self.occ[wi];
            if step == 0 {
                // Bits below the start position belong to the wrapped end of
                // the window; the final revisit of this word picks them up.
                word &= !0u64 << (start_slot % 64);
            } else if step == words {
                word &= !(!0u64 << (start_slot % 64));
            }
            if word != 0 {
                let slot = (wi * 64 + word.trailing_zeros() as usize) as u64;
                let delta = slot.wrapping_sub(start_slot) & self.mask;
                next = Some(self.cur + 1 + delta);
                break;
            }
        }
        match (next, overflow) {
            (Some(w), Some(o)) => Some(w.min(o)),
            (w, o) => w.or(o),
        }
    }
}

enum PredictorImpl {
    Gshare(Box<GsharePredictor>),
    Perfect(PerfectPredictor),
}

impl PredictorImpl {
    fn predict_and_train(
        &mut self,
        pc: u64,
        taken: bool,
        stats: &mut koc_frontend::BranchStats,
    ) -> bool {
        match self {
            PredictorImpl::Gshare(p) => p.predict_and_train(pc, taken, stats),
            PredictorImpl::Perfect(p) => p.predict_and_train(pc, taken, stats),
        }
    }
}

/// Builds an [`EngineCtx`] from the shell's fields (everything except the
/// engine itself), so engine hook calls can split the borrow.
macro_rules! engine_ctx {
    ($self:ident) => {
        EngineCtx {
            config: &$self.config,
            cycle: $self.cycle,
            fetch: &mut $self.fetch,
            rename: &mut $self.rename,
            regs: &mut $self.regs,
            int_iq: &mut $self.int_iq,
            fp_iq: &mut $self.fp_iq,
            lsq: &mut $self.lsq,
            mem: &mut $self.mem,
            inflight: &mut $self.inflight,
            live_count: &mut $self.live_count,
            stats: &mut $self.stats,
            obs: &mut $self.obs,
        }
    };
}

/// The processor: the pipeline shell plus all shared microarchitectural
/// state for one simulation run. The commit engine plugs in behind the
/// [`CommitEngine`] trait.
pub struct Processor<'a, O: Observer = NullObserver> {
    config: ProcessorConfig,
    /// The fetch stream: a replay window over the run's instruction source.
    fetch: ReplayWindow<'a>,
    cycle: u64,

    rename: CamRenameMap,
    regs: PhysRegFile,
    vregs: Option<VirtualRegisterFile>,
    int_iq: InstructionQueue,
    fp_iq: InstructionQueue,
    lsq: LoadStoreQueue,
    mem: MemoryHierarchy,
    predictor: PredictorImpl,
    engine: Box<dyn CommitEngine<O>>,
    /// The run's observer — [`NullObserver`] by default, in which case every
    /// hook monomorphizes to nothing (`O::ENABLED` is `false`).
    obs: O,

    inflight: InFlightTable,
    next_seq: u64,
    /// Completion events: cycle -> [(inst, seq)].
    events: EventQueue,
    /// Loads waiting on the timed memory backend as `(token, inst)`, sorted
    /// by request token (the instance's `seq`). Loads mostly issue and
    /// complete in age order, so inserts land near the back and removals
    /// near the front. Completions surface from the hierarchy's tick.
    mem_waiters: VecDeque<(u64, InstId)>,
    /// Scratch buffer for completed memory tokens.
    mem_completed: Vec<u64>,
    /// Scratch buffer for issue selection.
    issue_picked: Vec<IqEntry>,
    /// Fetch is stalled (misprediction redirect) until this cycle.
    fetch_stall_until: u64,
    /// Number of dispatched-but-not-issued instructions (incremental).
    live_count: usize,
    /// Exceptions already delivered (so re-execution does not re-raise).
    handled_exceptions: BTreeSet<InstId>,
    /// Scratch for the Figure-7 breakdown (computed only when
    /// `O::LIVE_BREAKDOWN`): `long_marks[p] == long_epoch` means physical
    /// register `p` carries a long-latency dependence in the current sample
    /// (epoch stamping avoids clearing between samples). Grown on first use.
    long_marks: Vec<u64>,
    long_epoch: u64,

    stats: SimStats,
}

/// The in-flight window `config` is sized for: the ROB plus one fetch group
/// for the baseline; for cooo, every checkpoint at its forced window size
/// plus the pseudo-ROB. The in-flight slab and the replay window reserve
/// this much at construction and grow (by doubling) only past it, which
/// under cooo happens only when the youngest window keeps extending while
/// the checkpoint table is full.
fn window_bound(config: &ProcessorConfig) -> usize {
    match config.commit {
        CommitConfig::InOrderRob { rob_size } => rob_size.saturating_add(config.fetch_width),
        CommitConfig::Checkpointed {
            checkpoint_entries,
            pseudo_rob_size,
            policy,
            ..
        } => checkpoint_entries
            .saturating_mul(policy.force_after_insts)
            .saturating_add(pseudo_rob_size),
    }
}

impl<'a> Processor<'a> {
    /// Builds a processor for one run over `source` — a `&Trace`, a
    /// streaming generator, or any other
    /// [`InstructionSource`](koc_isa::InstructionSource) — with the commit
    /// engine the configuration describes. The stream is pulled on demand
    /// and replayed out of an O(window) buffer, so run length is unbounded
    /// by host memory.
    ///
    /// # Panics
    /// Panics if the configuration fails [`ProcessorConfig::validate`].
    pub fn new(config: ProcessorConfig, source: impl IntoInstructionSource<'a>) -> Self {
        let engine = engine::from_config(&config.commit);
        Self::with_parts(config, source, engine, NullObserver)
    }
}

impl<'a, O: Observer> Processor<'a, O> {
    /// Builds a processor that reports pipeline activity to `obs` — the
    /// observability seam. The observer's hooks are monomorphized into the
    /// hot loop, so a [`NullObserver`] build is bit- and cycle-identical to
    /// (and as fast as) an unobserved one.
    ///
    /// # Panics
    /// Panics if the configuration fails [`ProcessorConfig::validate`].
    pub fn with_observer(
        config: ProcessorConfig,
        source: impl IntoInstructionSource<'a>,
        obs: O,
    ) -> Self {
        let engine = engine::from_config(&config.commit);
        Self::with_parts(config, source, engine, obs)
    }

    /// Builds a processor from all four seams: configuration, instruction
    /// source, commit engine and observer.
    ///
    /// # Panics
    /// Panics if the configuration fails [`ProcessorConfig::validate`].
    pub fn with_parts(
        config: ProcessorConfig,
        source: impl IntoInstructionSource<'a>,
        engine: Box<dyn CommitEngine<O>>,
        obs: O,
    ) -> Self {
        if let Err(e) = config.validate() {
            panic!("invalid processor configuration: {e}"); // koc-lint: allow(panic, "invalid configuration is a caller bug; validate() names the field")
        }
        let rename_pool = config.registers.rename_pool_size();
        let vregs = match config.registers {
            RegisterModel::Conventional { .. } => None,
            RegisterModel::Virtual { phys_regs, .. } => Some(VirtualRegisterFile::new(phys_regs)),
        };
        let predictor = match config.predictor {
            BranchPredictorKind::Gshare16k => {
                PredictorImpl::Gshare(Box::new(GsharePredictor::table1()))
            }
            BranchPredictorKind::Perfect => PredictorImpl::Perfect(PerfectPredictor::new()),
        };
        let window = window_bound(&config);
        Processor {
            fetch: ReplayWindow::with_capacity(source, window),
            cycle: 0,
            rename: CamRenameMap::new(rename_pool),
            regs: PhysRegFile::new(rename_pool),
            vregs,
            int_iq: InstructionQueue::new(config.iq_size),
            fp_iq: InstructionQueue::new(config.iq_size),
            lsq: LoadStoreQueue::new(config.lsq_size),
            mem: MemoryHierarchy::new(config.memory),
            predictor,
            engine,
            inflight: InFlightTable::with_capacity(window),
            next_seq: 0,
            events: EventQueue::with_horizon(config.memory.worst_case_latency() as u64, window),
            mem_waiters: VecDeque::new(),
            mem_completed: Vec::new(),
            issue_picked: Vec::new(),
            fetch_stall_until: 0,
            live_count: 0,
            handled_exceptions: BTreeSet::new(),
            long_marks: Vec::new(),
            long_epoch: 0,
            stats: SimStats::default(),
            config,
            obs,
        }
    }

    /// The configuration this processor was built with.
    pub fn config(&self) -> &ProcessorConfig {
        &self.config
    }

    /// The commit engine's name (for diagnostics).
    pub fn engine_name(&self) -> &'static str {
        self.engine.name()
    }

    /// Current cycle.
    pub fn cycle(&self) -> u64 {
        self.cycle
    }

    /// Statistics accumulated so far.
    pub fn stats(&self) -> &SimStats {
        &self.stats
    }

    /// The current architectural-to-physical mapping, one entry per
    /// architectural register in flat-index order. After a complete run the
    /// *shape* of this mapping (which architectural registers are mapped) is
    /// engine-independent — the conformance invariant for out-of-order
    /// commit.
    pub fn arch_mapping(&self) -> Vec<Option<PhysReg>> {
        ArchReg::all().map(|r| self.rename.lookup(r)).collect()
    }

    /// Whether the run is complete: the whole stream has been fetched,
    /// executed and committed. Takes `&mut self` because deciding the
    /// stream's end may pull one instruction of lookahead from the source.
    pub fn is_done(&mut self) -> bool {
        self.fetch.at_end() && self.inflight.is_empty() && self.engine.is_empty()
    }

    /// Runs until completion and returns the statistics.
    ///
    /// # Panics
    /// Panics if the simulation exceeds a generous cycle bound (indicating a
    /// pipeline deadlock, which is a bug).
    pub fn run(self) -> SimStats {
        self.run_capped(None)
    }

    /// Runs until completion and returns the statistics together with the
    /// observer, which now holds whatever it recorded.
    ///
    /// # Panics
    /// Panics if the simulation exceeds a generous cycle bound (indicating a
    /// pipeline deadlock, which is a bug).
    pub fn run_observed(self) -> (SimStats, O) {
        self.run_capped_observed(None)
    }

    /// Runs until completion or until the simulated cycle count reaches
    /// `max_cycles`, whichever comes first. A capped run that stops early
    /// returns partial statistics with
    /// [`SimStats::budget_exhausted`](crate::SimStats) set — the cheap way
    /// to bound an exploratory run.
    ///
    /// # Panics
    /// Panics if the simulation exceeds a generous cycle bound (indicating a
    /// pipeline deadlock, which is a bug).
    pub fn run_capped(self, max_cycles: Option<u64>) -> SimStats {
        self.run_capped_observed(max_cycles).0
    }

    /// [`run_capped`](Self::run_capped), returning the observer as well —
    /// the run loop every other entry point forwards to.
    ///
    /// # Panics
    /// Panics if the simulation exceeds a generous cycle bound (indicating a
    /// pipeline deadlock, which is a bug).
    pub fn run_capped_observed(mut self, max_cycles: Option<u64>) -> (SimStats, O) {
        let cap = max_cycles.unwrap_or(u64::MAX);
        while !self.is_done() {
            if self.cycle >= cap {
                self.stats.budget_exhausted = true;
                break;
            }
            let activity = self.step_cycle();
            // The deadlock bound scales with the stream as it is fetched
            // (the full length may not be known up front).
            let bound = self.cycle_bound();
            assert!(
                self.cycle < bound,
                "simulation exceeded {bound} cycles: likely pipeline deadlock ({} of {} fetched committed)",
                self.stats.committed_instructions,
                self.fetch.fetched()
            );
            if self.config.fast_forward && !activity.progressed {
                self.fast_forward(activity.stall, cap);
            }
        }
        self.finalize();
        (self.stats, self.obs)
    }

    fn cycle_bound(&self) -> u64 {
        let worst_inst = self.config.memory.worst_case_latency() as u64 + 64;
        // A finite MSHR file can serialise misses behind one another: scale
        // the deadlock bound (it remains a bound, not an estimate).
        let backpressure = match self.config.memory.backend {
            koc_mem::BackendKind::Flat => 1,
            koc_mem::BackendKind::Dram(_) => 2,
        };
        1_000_000 + self.fetch.fetched() as u64 * worst_inst * backpressure
    }

    fn finalize(&mut self) {
        self.stats.memory = self.mem.stats();
        self.stats.replay_window_peak = self.fetch.peak_occupancy();
        self.engine.finalize(&mut self.stats);
        if !self.stats.budget_exhausted {
            debug_assert_eq!(
                self.stats.committed_instructions as usize,
                self.fetch.fetched(),
                "every fetched instruction must commit exactly once"
            );
        }
    }

    /// Advances the machine by one cycle.
    pub fn step(&mut self) {
        self.step_cycle();
    }

    fn step_cycle(&mut self) -> CycleActivity {
        self.cycle += 1;
        self.stats.cycles = self.cycle;
        let mut progressed = false;
        self.memory_stage();
        progressed |= self.writeback_stage();
        let committed_before = self.stats.committed_instructions;
        self.engine.commit(&mut engine_ctx!(self));
        progressed |= self.stats.committed_instructions != committed_before;
        progressed |= self.engine.wake(&mut engine_ctx!(self)) > 0;
        progressed |= self.issue_stage();
        let (front_progress, stall) = self.frontend_stage();
        progressed |= front_progress;
        let inflight = self.inflight.len();
        self.stats.inflight_sum += inflight as u64;
        self.stats.peak_inflight = self.stats.peak_inflight.max(inflight);
        if O::ENABLED {
            let committed_delta = self.stats.committed_instructions - committed_before;
            let sample = self.cycle_sample(self.cycle, 1, committed_delta, stall);
            self.obs.sample(&sample);
        }
        CycleActivity { progressed, stall }
    }

    /// Builds the observer sample for the `span` cycles starting at `cycle`
    /// (1 when stepped, the gap length when fast-forwarded), attributing
    /// them to exactly one [`CycleBucket`]. Only called when an observer is
    /// attached (`O::ENABLED`); a quiescent cycle classifies identically
    /// whether it is stepped or replayed by fast-forward, because every
    /// input below is frozen while the machine is quiescent.
    fn cycle_sample(
        &mut self,
        cycle: u64,
        span: u64,
        committed_delta: u64,
        stall: Option<SkipStall>,
    ) -> CycleSample {
        let live_breakdown = (O::LIVE_BREAKDOWN && koc_obs::breakdown_points(cycle, span) > 0)
            .then(|| self.live_breakdown());
        let bucket = if committed_delta > 0 {
            CycleBucket::Committing
        } else {
            match stall {
                Some(SkipStall::Dispatch(StallReason::Engine(DispatchStall::RobFull))) => {
                    CycleBucket::WindowFull
                }
                Some(SkipStall::Dispatch(StallReason::Engine(DispatchStall::CheckpointFull))) => {
                    CycleBucket::CheckpointTableFull
                }
                Some(SkipStall::Dispatch(StallReason::IqFull))
                | Some(SkipStall::Dispatch(StallReason::LsqFull)) => CycleBucket::IqFull,
                Some(SkipStall::Dispatch(StallReason::RegsFull)) => CycleBucket::RegfileExhausted,
                Some(SkipStall::Redirect) => CycleBucket::FetchStarved,
                None => {
                    if self.mem.pending_demand_misses() > 0 {
                        CycleBucket::MshrFull
                    } else if self.mem.backend_in_flight() > 0 {
                        CycleBucket::MemoryWait
                    } else if self.fetch.at_end() {
                        CycleBucket::FetchStarved
                    } else {
                        CycleBucket::ExecuteWait
                    }
                }
            }
        };
        CycleSample {
            cycle,
            committed: self.stats.committed_instructions,
            dispatched: self.stats.dispatched_instructions,
            inflight: self.inflight.len(),
            live: self.live_count,
            live_checkpoints: self.engine.live_checkpoints(),
            mshr_inflight: self.mem.backend_in_flight(),
            pending_misses: self.mem.pending_demand_misses(),
            replay_window: self.fetch.occupancy(),
            live_breakdown,
            bucket,
        }
    }

    // ------------------------------------------------------------------
    // Event-driven fast-forward
    // ------------------------------------------------------------------

    /// Called after a cycle in which nothing progressed: every stage will
    /// repeat identically until the next scheduled event, so jump to the
    /// cycle *before* it (the next [`step_cycle`](Self::step_cycle) then
    /// lands exactly on the event) and replay the per-cycle bookkeeping for
    /// the skipped quiescent cycles.
    fn fast_forward(&mut self, stall: Option<SkipStall>, cap: u64) {
        let mut next = u64::MAX;
        if let Some(c) = self.events.next_cycle() {
            next = next.min(c);
        }
        if let Some(c) = self.mem.next_event() {
            next = next.min(c);
        }
        if let Some(c) = self.engine.next_wake() {
            next = next.min(c);
        }
        if self.cycle < self.fetch_stall_until {
            // Fetch resumes at `fetch_stall_until`; never skip past it.
            next = next.min(self.fetch_stall_until);
        }
        if next == u64::MAX {
            // No pending events at all: a genuine deadlock. Keep stepping so
            // the cycle bound trips with its diagnostic.
            return;
        }
        // Stop one short of the event and honour the cycle budget.
        let target = (next.saturating_sub(1)).min(cap);
        if target <= self.cycle {
            return;
        }
        let skipped = target - self.cycle;
        // Replay what `skipped` identical quiescent cycles would have
        // recorded: the idle memory ticks, the stall and in-flight counters,
        // and the observer samples.
        self.mem.account_idle_ticks(skipped);
        match stall {
            Some(SkipStall::Redirect) => self.stats.stalls.redirect += skipped,
            Some(SkipStall::Dispatch(reason)) => self.record_stall_n(reason, skipped),
            None => {}
        }
        self.stats.inflight_sum += self.inflight.len() as u64 * skipped;
        if O::ENABLED {
            // The machine is frozen across the gap, so one sample describes
            // every skipped cycle; observers replay it `skipped` times.
            let sample = self.cycle_sample(self.cycle + 1, skipped, 0, stall);
            self.obs.skip(&sample, skipped);
        }
        self.cycle = target;
        self.stats.cycles = target;
    }

    // ------------------------------------------------------------------
    // Memory: advance the timed backend, turn completions into events
    // ------------------------------------------------------------------

    fn memory_stage(&mut self) {
        let mut completed = std::mem::take(&mut self.mem_completed);
        completed.clear();
        self.mem.tick_obs(self.cycle, &mut completed, &mut self.obs);
        for token in completed.drain(..) {
            // The token is the load instance's `seq`; stale tokens (the
            // instance was squashed) simply no longer map to a waiter, and
            // the write-back stage re-checks `seq` anyway.
            let found = self.mem_waiters.binary_search_by_key(&token, |&(t, _)| t);
            if let Some((_, inst)) = found.ok().and_then(|at| self.mem_waiters.remove(at)) {
                self.events.push(self.cycle, (inst, token));
            }
        }
        self.mem_completed = completed;
    }

    // ------------------------------------------------------------------
    // Write-back
    // ------------------------------------------------------------------

    /// Returns whether any instruction actually completed (stale events for
    /// squashed instances do not count as progress).
    fn writeback_stage(&mut self) -> bool {
        let Some(finished) = self.events.take(self.cycle) else {
            return false;
        };
        let mut progressed = false;
        for &(inst, seq) in &finished {
            let Some(fl) = self.inflight.get(inst) else {
                continue;
            };
            if fl.seq != seq || fl.is_done() {
                continue;
            }
            // Exceptions are delivered at completion.
            if fl.raises_exception && !self.handled_exceptions.contains(&inst) {
                progressed = true;
                let squashed = self.handle_exception(inst);
                if squashed {
                    continue;
                }
            }
            // Ephemeral/virtual registers: a physical register is allocated
            // late, at write-back, and the register holding the superseded
            // value of the same logical register is recycled early, at the
            // same moment (the ephemeral-registers scheme of [19]/[9]). If no
            // physical register is free the write-back retries next cycle.
            if let Some(v) = &mut self.vregs {
                if let Some(f) = self.inflight.get(inst) {
                    if f.dest_phys.is_some() {
                        if f.prev_phys.is_some() {
                            v.try_release_physical();
                        }
                        if !v.acquire_physical() {
                            self.events.push(self.cycle + 1, (inst, seq));
                            continue;
                        }
                    }
                }
            }
            let Some(fl) = self.inflight.get_mut(inst) else {
                continue;
            };
            progressed = true;
            fl.state = InstState::Done;
            if O::ENABLED {
                self.obs.event(self.cycle, Event::Complete { inst });
            }
            let wb = Writeback {
                inst,
                ckpt: fl.ckpt,
                kind: fl.kind,
                dest_phys: fl.dest_phys,
            };
            let mispredicted = fl.mispredicted;
            if let Some(p) = wb.dest_phys {
                self.regs.set_ready(p);
                self.int_iq.wakeup(p);
                self.fp_iq.wakeup(p);
            }
            self.engine.completed(&wb, &mut engine_ctx!(self));
            if wb.kind == OpKind::Branch && mispredicted {
                self.engine.recover_branch(inst, &mut engine_ctx!(self));
                self.fetch_stall_until = self.cycle + self.config.mispredict_penalty as u64;
            }
        }
        self.events.recycle(finished);
        progressed
    }

    /// Delivers an exception raised by `inst`. Returns `true` if the
    /// excepting instruction itself was squashed (engine re-executes it from
    /// a recovery point) and `false` if it survives and should complete
    /// normally.
    fn handle_exception(&mut self, inst: InstId) -> bool {
        self.handled_exceptions.insert(inst);
        self.stats.recoveries.exceptions += 1;
        self.fetch_stall_until = self.cycle + self.config.mispredict_penalty as u64;
        self.engine.recover_exception(inst, &mut engine_ctx!(self))
    }

    // ------------------------------------------------------------------
    // Issue / execute
    // ------------------------------------------------------------------

    /// Returns whether anything issued.
    fn issue_stage(&mut self) -> bool {
        if self.int_iq.ready_count() == 0 && self.fp_iq.ready_count() == 0 {
            return false;
        }
        let mut fu = [
            self.config.int_alu_units,
            self.config.int_mul_units,
            self.config.fp_units,
            self.config.mem_ports,
        ];
        let budget = self.config.issue_width;
        // Alternate which queue gets first pick to avoid starving either.
        let int_first = self.cycle.is_multiple_of(2);
        let mut picked = std::mem::take(&mut self.issue_picked);
        picked.clear();
        if int_first {
            self.int_iq.select_ready_into(&mut fu, budget, &mut picked);
            let left = budget - picked.len();
            self.fp_iq.select_ready_into(&mut fu, left, &mut picked);
        } else {
            self.fp_iq.select_ready_into(&mut fu, budget, &mut picked);
            let left = budget - picked.len();
            self.int_iq.select_ready_into(&mut fu, left, &mut picked);
        }
        let progressed = !picked.is_empty();
        for entry in &picked {
            self.begin_execution(entry.inst);
        }
        self.issue_picked = picked;
        progressed
    }

    fn begin_execution(&mut self, inst: InstId) {
        // Issued instructions are in flight, which pins them inside the
        // replay window (release never overtakes the oldest recovery point).
        let trace_inst = *self.fetch.get(inst);
        let seq = self
            .inflight
            .get(inst)
            .expect("issued instruction is in flight") // koc-lint: allow(panic, "issue operates on in-flight instructions")
            .seq;
        // `completion` is the known finish latency, or None when the load
        // went to the timed backend and will complete via `memory_stage`.
        let (completion, level) = match trace_inst.kind {
            OpKind::Load => {
                let addr = trace_inst.mem.expect("load has address").addr; // koc-lint: allow(panic, "loads always carry a memory operand")
                match self
                    .mem
                    .access_data_timed_obs(addr, seq, self.cycle, &mut self.obs)
                {
                    TimedAccess::Ready { level, latency } => (Some(latency), Some(level)),
                    TimedAccess::InFlight => {
                        let at = self.mem_waiters.partition_point(|&(t, _)| t < seq);
                        self.mem_waiters.insert(at, (seq, inst));
                        (None, Some(MemLevel::Memory))
                    }
                }
            }
            OpKind::Store => (Some(1), None),
            kind => (Some(kind.latency().latency), None),
        };
        let fl = self
            .inflight
            .get_mut(inst)
            .expect("issued instruction is in flight"); // koc-lint: allow(panic, "issue operates on in-flight instructions")
        debug_assert!(fl.is_live(), "issuing an instruction that is not waiting");
        fl.state = InstState::Executing;
        fl.mem_level = level;
        if O::ENABLED {
            self.obs.event(self.cycle, Event::Issue { inst });
        }
        self.live_count = self.live_count.saturating_sub(1);
        // A load on the timed backend completes when the backend announces
        // it (`memory_stage`); everything else has a known latency.
        if let Some(latency) = completion {
            self.events.push(self.cycle + latency as u64, (inst, seq));
        }
    }

    // ------------------------------------------------------------------
    // Frontend: rename/dispatch, fetch (engine drains its pseudo-ROB)
    // ------------------------------------------------------------------

    /// Returns whether the frontend made progress (dispatched or drained
    /// anything) and, if it only stalled, which counter it bumped.
    fn frontend_stage(&mut self) -> (bool, Option<SkipStall>) {
        let mut progressed = false;
        // Drain the engine's frontend-side structures when fetch has
        // finished, so classification and SLIQ moves keep happening for the
        // tail of the stream.
        if self.fetch.at_end() {
            let budget = self.config.fetch_width;
            progressed |= self.engine.frontend_drain(budget, &mut engine_ctx!(self)) > 0;
        }
        if self.cycle < self.fetch_stall_until {
            self.stats.stalls.redirect += 1;
            return (progressed, Some(SkipStall::Redirect));
        }
        let mut dispatched = 0;
        let mut stall = None;
        while dispatched < self.config.fetch_width {
            let Some((id, inst)) = self.fetch.peek().map(|(id, inst)| (id, *inst)) else {
                break;
            };
            match self.try_dispatch(id, &inst) {
                Ok(()) => {
                    self.fetch.advance();
                    dispatched += 1;
                    // A taken branch ends the fetch group.
                    if inst.is_branch() && inst.branch.map(|b| b.taken).unwrap_or(false) {
                        break;
                    }
                }
                Err(reason) => {
                    self.record_stall_n(reason, 1);
                    stall = Some(SkipStall::Dispatch(reason));
                    if reason == StallReason::IqFull {
                        // Make forward progress by letting the engine
                        // classify (and possibly move to the SLIQ) its
                        // oldest pseudo-ROB entries.
                        let budget = self.config.fetch_width;
                        progressed |=
                            self.engine.frontend_drain(budget, &mut engine_ctx!(self)) > 0;
                    }
                    break;
                }
            }
        }
        (progressed || dispatched > 0, stall)
    }

    fn record_stall_n(&mut self, reason: StallReason, n: u64) {
        match reason {
            StallReason::IqFull => self.stats.stalls.iq_full += n,
            StallReason::LsqFull => self.stats.stalls.lsq_full += n,
            StallReason::RegsFull => self.stats.stalls.regs_full += n,
            StallReason::Engine(DispatchStall::RobFull) => self.stats.stalls.rob_full += n,
            StallReason::Engine(DispatchStall::CheckpointFull) => {
                self.stats.stalls.checkpoint_full += n
            }
        }
    }

    fn target_queue_is_fp(&self, inst: &Instruction) -> bool {
        // true => FP queue, false => integer queue (loads/stores/branches and
        // integer arithmetic use the integer queue).
        inst.kind.is_fp()
    }

    fn try_dispatch(&mut self, id: InstId, inst: &Instruction) -> Result<(), StallReason> {
        // --- Resource checks (no allocation yet) -------------------------
        let needs_fp_queue = self.target_queue_is_fp(inst);
        let queue_has_space = if needs_fp_queue {
            self.fp_iq.has_space()
        } else {
            self.int_iq.has_space()
        };
        if !queue_has_space {
            return Err(StallReason::IqFull);
        }
        if inst.kind.is_memory() && !self.lsq.has_space() {
            return Err(StallReason::LsqFull);
        }
        if inst.dest.is_some() && self.regs.free_count() == 0 {
            return Err(StallReason::RegsFull);
        }

        // --- Engine admission (may take a checkpoint) ---------------------
        self.engine
            .reserve(id, inst, &mut engine_ctx!(self))
            .map_err(StallReason::Engine)?;

        // --- Rename -------------------------------------------------------
        let src_phys: RegList = inst
            .sources()
            .filter_map(|s| self.rename.lookup(s))
            // RegList is a fixed inline array: this collect does not
            // heap-allocate.
            .collect();
        let renamed = match inst.dest {
            Some(dest) => Some(
                self.rename
                    .rename_dest(dest, &mut self.regs)
                    .expect("free register was checked"), // koc-lint: allow(panic, "dispatch checked a free register above")
            ),
            None => None,
        };
        let dest_phys = renamed.map(|r| r.new_phys);
        let prev_phys = renamed.and_then(|r| r.prev_phys);

        // --- Branch prediction (conditional branches only) -----------------
        let mispredicted = match inst.branch {
            Some(b) if !b.unconditional => {
                !self
                    .predictor
                    .predict_and_train(inst.pc, b.taken, &mut self.stats.branches)
            }
            _ => false,
        };

        // --- Structure allocation ------------------------------------------
        let seq = self.next_seq;
        self.next_seq += 1;
        if let Some(mem) = inst.mem {
            self.lsq
                .allocate(LsqEntry {
                    inst: id,
                    is_store: inst.is_store(),
                    addr: mem.addr,
                })
                .expect("LSQ space was checked"); // koc-lint: allow(panic, "dispatch checked LSQ space above")
        }
        let d = Dispatched {
            id,
            is_store: inst.is_store(),
        };
        let ckpt: CheckpointId = self.engine.allocate(&d);
        let iq_entry = IqEntry {
            inst: id,
            srcs: src_phys,
            fu: inst.kind.fu_class(),
        };
        let iq_slot = {
            let regs = &self.regs;
            let queue = if needs_fp_queue {
                &mut self.fp_iq
            } else {
                &mut self.int_iq
            };
            queue
                .insert(iq_entry, |p| regs.is_ready(p))
                .expect("queue space was checked") // koc-lint: allow(panic, "dispatch checked queue space above")
        };
        self.engine.dispatched(&d, ckpt, &mut engine_ctx!(self));
        self.inflight.insert(
            id,
            InFlight {
                inst: id,
                seq,
                kind: inst.kind,
                dest_phys,
                prev_phys,
                src_phys,
                ckpt,
                state: InstState::Waiting,
                iq_slot,
                mem_level: None,
                mispredicted,
                raises_exception: inst.raises_exception && !self.handled_exceptions.contains(&id),
            },
        );
        self.live_count += 1;
        self.stats.dispatched_instructions += 1;
        if O::ENABLED {
            self.obs.event(
                self.cycle,
                Event::Fetch {
                    inst: id,
                    kind: inst.kind,
                },
            );
            if renamed.is_some() {
                self.obs.event(self.cycle, Event::Rename { inst: id });
            }
            self.obs
                .event(self.cycle, Event::Dispatch { inst: id, ckpt });
        }
        Ok(())
    }

    /// Figure 7's blocked-long/blocked-short split of the live instructions
    /// (see [`InFlightTable::live_breakdown`]), with a fresh epoch for the
    /// scratch marks so nothing is cleared between samples.
    fn live_breakdown(&mut self) -> (usize, usize) {
        self.long_epoch += 1;
        self.inflight
            .live_breakdown(&mut self.long_marks, self.long_epoch)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ProcessorConfig;
    use koc_isa::{ArchReg, Trace, TraceBuilder};

    fn tiny_independent_trace(n: usize) -> Trace {
        let mut b = TraceBuilder::named("tiny");
        for i in 0..n {
            b.int_alu(ArchReg::int((i % 8) as u8 + 1), &[]);
        }
        b.finish()
    }

    #[test]
    fn baseline_commits_every_instruction() {
        let trace = tiny_independent_trace(100);
        let stats = Processor::new(ProcessorConfig::baseline(128, 100), &trace).run();
        assert_eq!(stats.committed_instructions, 100);
        assert!(stats.cycles > 0);
        assert!(stats.ipc() > 0.5);
    }

    #[test]
    fn cooo_commits_every_instruction() {
        let trace = tiny_independent_trace(100);
        let stats = Processor::new(ProcessorConfig::cooo(32, 512, 100), &trace).run();
        assert_eq!(stats.committed_instructions, 100);
        assert!(stats.checkpoints_taken >= 1);
        assert_eq!(
            stats.checkpoints_taken,
            stats.checkpoints_committed + stats.checkpoints_squashed
        );
    }

    #[test]
    fn engine_names_reflect_the_commit_config() {
        let trace = tiny_independent_trace(10);
        let baseline = Processor::new(ProcessorConfig::baseline(64, 100), &trace);
        assert_eq!(baseline.engine_name(), "in-order-rob");
        let cooo = Processor::new(ProcessorConfig::cooo(32, 512, 100), &trace);
        assert_eq!(cooo.engine_name(), "checkpointed-out-of-order");
    }

    #[test]
    fn independent_alu_instructions_approach_the_issue_width() {
        let trace = tiny_independent_trace(2000);
        let stats = Processor::new(ProcessorConfig::baseline(256, 100), &trace).run();
        // 4-wide machine, 4 integer ALUs, no memory: IPC should be close to 4.
        assert!(stats.ipc() > 2.5, "ipc = {}", stats.ipc());
    }

    #[test]
    fn a_dependent_chain_is_serialized() {
        let mut b = TraceBuilder::named("chain");
        let r = ArchReg::fp(1);
        b.fp_alu(r, &[]);
        for _ in 0..499 {
            b.fp_alu(r, &[r]);
        }
        let trace = b.finish();
        let stats = Processor::new(ProcessorConfig::baseline(128, 100), &trace).run();
        // FP latency 2, fully serial: at least ~2 cycles per instruction.
        assert!(stats.ipc() < 0.7, "ipc = {}", stats.ipc());
    }

    #[test]
    fn loads_that_miss_stall_a_small_window_machine() {
        let mut b = TraceBuilder::named("misses");
        let base = ArchReg::int(1);
        for i in 0..200u64 {
            b.load(ArchReg::fp((i % 24) as u8), base, 0x100_0000 + i * 4096);
            b.fp_alu(
                ArchReg::fp(((i % 24) + 1) as u8 % 28),
                &[ArchReg::fp((i % 24) as u8)],
            );
        }
        let trace = b.finish();
        let small = Processor::new(ProcessorConfig::baseline(32, 500), &trace).run();
        let big = Processor::new(ProcessorConfig::baseline(1024, 500), &trace).run();
        assert!(
            big.ipc() > small.ipc() * 1.5,
            "large window should overlap misses: small={} big={}",
            small.ipc(),
            big.ipc()
        );
    }

    #[test]
    fn stats_invariants_hold() {
        let trace = tiny_independent_trace(300);
        let stats = Processor::new(ProcessorConfig::cooo(32, 512, 100), &trace).run();
        assert_eq!(stats.committed_instructions, 300);
        assert!(stats.dispatched_instructions >= stats.committed_instructions);
        let (observed, window) = Processor::with_observer(
            ProcessorConfig::cooo(32, 512, 100),
            &trace,
            koc_obs::WindowStats::new(),
        )
        .run_observed();
        assert_eq!(observed, stats, "WindowStats must not perturb the run");
        assert_eq!(window.inflight.count() as u64, stats.cycles);
        assert_eq!(window.inflight.max(), stats.peak_inflight);
        assert_eq!(window.inflight.mean(), stats.avg_inflight());
        assert!(stats.peak_inflight as u64 * stats.cycles >= stats.inflight_sum);
    }

    #[test]
    fn fast_forward_does_not_change_cycle_counts() {
        let mut b = TraceBuilder::named("memory-bound");
        let base = ArchReg::int(1);
        for i in 0..150u64 {
            b.load(ArchReg::fp((i % 8) as u8), base, 0x200_0000 + i * 8192);
            b.fp_alu(ArchReg::fp(8), &[ArchReg::fp((i % 8) as u8)]);
        }
        let trace = b.finish();
        for config in [
            ProcessorConfig::baseline(64, 800),
            ProcessorConfig::cooo(32, 512, 800),
        ] {
            let fast = Processor::new(config, &trace).run();
            let slow = Processor::new(config.with_fast_forward(false), &trace).run();
            assert_eq!(fast, slow, "fast-forward must be invisible in the stats");
        }
    }

    #[test]
    fn window_structures_never_outgrow_their_construction_reservation() {
        // At the benchmark's 8k-instruction length: longer runs let the
        // youngest checkpoint window keep extending while the table is full,
        // past the forced window size, and the slab then doubles once.
        let workload =
            koc_workloads::Suite::kernel("stream_add", koc_workloads::kernels::stream_add())
                .generate(8_000)
                .remove(0);
        for config in [
            ProcessorConfig::baseline(128, 1000),
            ProcessorConfig::cooo(128, 2048, 1000),
        ] {
            let mut p = Processor::new(config, &workload.trace);
            let reserved = (
                p.inflight.capacity(),
                p.fetch.capacity(),
                p.events.nodes.capacity(),
                p.lsq.reserved(),
            );
            assert!(reserved.0 >= window_bound(&config) && reserved.1 >= window_bound(&config));
            assert!(reserved.2 >= window_bound(&config) && reserved.3 >= config.lsq_size);
            while !p.is_done() {
                p.step();
            }
            assert_eq!(
                p.stats.committed_instructions as usize,
                workload.trace.len()
            );
            assert!(
                p.stats.peak_inflight > window_bound(&config) / 2,
                "the run must fill most of the window (peak {} of {})",
                p.stats.peak_inflight,
                window_bound(&config)
            );
            assert_eq!(
                (
                    p.inflight.capacity(),
                    p.fetch.capacity(),
                    p.events.nodes.capacity(),
                    p.lsq.reserved(),
                ),
                reserved,
                "{}: the in-flight slab, replay window, event slab and LSQ must not regrow",
                p.engine_name()
            );
        }
    }

    /// Drains every event due at `cycle`, in delivery order.
    fn take_all(q: &mut EventQueue, cycle: u64) -> Vec<(InstId, u64)> {
        let Some(batch) = q.take(cycle) else {
            return Vec::new();
        };
        let out = batch.clone();
        q.recycle(batch);
        out
    }

    #[test]
    fn same_cycle_events_come_back_in_push_order_after_node_reuse() {
        let mut q = EventQueue::with_horizon(100, 4);
        for i in 0..3 {
            q.push(5, (i, 0));
        }
        q.push(7, (9, 0));
        assert_eq!(take_all(&mut q, 5), vec![(0, 0), (1, 0), (2, 0)]);
        // The freed nodes are reused, interleaved across two slots.
        for i in 10..16 {
            q.push(6 + i as u64 % 2, (i, 1));
        }
        assert_eq!(take_all(&mut q, 6), vec![(10, 1), (12, 1), (14, 1)]);
        assert_eq!(take_all(&mut q, 7), vec![(9, 0), (11, 1), (13, 1), (15, 1)]);
        assert_eq!(q.nodes.len(), 7, "the three drained nodes are reused first");
        assert!(q.take(8).is_none());
    }

    #[test]
    fn events_past_the_horizon_overflow_and_follow_the_wheel() {
        let mut q = EventQueue::with_horizon(10, 4);
        let horizon = q.mask + 1;
        let far = horizon + 3;
        q.push(far, (1, 0));
        assert!(q.overflow.contains_key(&far));
        // Advance until `far` is within the horizon, then schedule a wheel
        // event for the same cycle: it is delivered first.
        assert!(q.take(10).is_none());
        q.push(far, (2, 0));
        assert_eq!(q.next_cycle(), Some(far));
        assert_eq!(take_all(&mut q, far), vec![(2, 0), (1, 0)]);
        assert!(q.overflow.is_empty());
        assert_eq!(q.next_cycle(), None);
    }

    #[test]
    fn next_cycle_finds_the_soonest_event_across_the_wrap() {
        let mut q = EventQueue::with_horizon(100, 4);
        let horizon = q.mask + 1;
        // Move `cur` close to the end of the wheel's slot range.
        let cur = horizon - 3;
        assert!(q.take(cur).is_none());
        // The later event wraps to a low slot, which a plain scan from slot
        // 0 would find before the sooner event in the last slot.
        q.push(cur + 5, (1, 0));
        q.push(cur + 2, (2, 0));
        assert_eq!(q.next_cycle(), Some(cur + 2));
        assert_eq!(take_all(&mut q, cur + 2), vec![(2, 0)]);
        assert_eq!(q.next_cycle(), Some(cur + 5));
        q.push(cur + 4, (3, 0));
        assert_eq!(q.next_cycle(), Some(cur + 4));
    }

    proptest::proptest! {
        /// The wheel against an ordered-map reference: `next_cycle`, the
        /// batch `take` returns (wheel events in push order, then the ones
        /// that were past the horizon when pushed), and empty cycles, under
        /// random pushes that mix near events, far ones that overflow, and
        /// gaps where only overflowed events remain.
        #[test]
        fn event_queue_matches_an_ordered_map(
            ops in proptest::collection::vec((0u8..4, 1u64..700, 1usize..4), 1..300),
        ) {
            let mut q = EventQueue::with_horizon(100, 4);
            let mask = q.mask;
            // cycle -> (wheel events, overflowed events), each in push order.
            type Due = (Vec<(InstId, u64)>, Vec<(InstId, u64)>);
            let mut reference: BTreeMap<u64, Due> = BTreeMap::new();
            let mut cur = 0u64;
            let mut id = 0;
            for (op, delay, count) in ops {
                match op {
                    // Schedule `count` events `delay` cycles ahead.
                    0 | 1 => {
                        for _ in 0..count {
                            let at = cur + delay;
                            let entry = reference.entry(at).or_default();
                            if delay > mask {
                                entry.1.push((id, at));
                            } else {
                                entry.0.push((id, at));
                            }
                            q.push(at, (id, at));
                            id += 1;
                        }
                    }
                    // Step one cycle.
                    2 => {
                        cur += 1;
                        let (wheel, overflowed) = reference.remove(&cur).unwrap_or_default();
                        let expected: Vec<_> = wheel.into_iter().chain(overflowed).collect();
                        assert_eq!(take_all(&mut q, cur), expected, "step to {cur}");
                    }
                    // Jump to the next scheduled cycle.
                    _ => {
                        let expected = reference.keys().next().copied();
                        assert_eq!(q.next_cycle(), expected, "at {cur}");
                        if let Some(at) = expected {
                            cur = at;
                            let (wheel, overflowed) = reference.remove(&at).unwrap_or_default();
                            let expected: Vec<_> = wheel.into_iter().chain(overflowed).collect();
                            assert_eq!(take_all(&mut q, at), expected, "jump to {at}");
                        }
                    }
                }
            }
            assert_eq!(q.next_cycle(), reference.keys().next().copied());
        }
    }

    #[test]
    fn an_empty_wheel_answers_from_the_overflow_alone() {
        let mut q = EventQueue::with_horizon(10, 4);
        let far = q.mask + 50;
        q.push(far, (1, 0));
        q.push(3, (2, 0));
        assert_eq!(q.next_cycle(), Some(3));
        assert_eq!(take_all(&mut q, 3), vec![(2, 0)]);
        // Only the overflowed event is left.
        assert_eq!(q.next_cycle(), Some(far));
        assert!(q.take(4).is_none());
        assert_eq!(q.next_cycle(), Some(far));
        assert_eq!(take_all(&mut q, far), vec![(1, 0)]);
        assert_eq!(q.next_cycle(), None);
    }

    #[test]
    fn capped_run_stops_at_the_budget() {
        let trace = tiny_independent_trace(5_000);
        let stats =
            Processor::new(ProcessorConfig::baseline(64, 100), &trace).run_capped(Some(100));
        assert!(stats.budget_exhausted);
        assert_eq!(stats.cycles, 100);
        assert!(stats.committed_instructions < 5_000);
        let full = Processor::new(ProcessorConfig::baseline(64, 100), &trace).run_capped(None);
        assert!(!full.budget_exhausted);
        assert_eq!(full.committed_instructions, 5_000);
    }
}
