//! Tracing at the simulator's public boundaries, used only by the traced
//! run: a counting [`Observer`], a [`CommitEngine`] decorator that counts
//! every engine hook and times the once-per-cycle ones, and the clock
//! calibration that makes those times honest.
//!
//! Clock discipline: one timed region costs tens of nanoseconds, about as
//! much as a per-instruction engine hook, so timing every hook would mostly
//! measure the clock. The per-instruction hooks (`reserve`, `allocate`,
//! `dispatched`, `completed`) are therefore only counted; the per-cycle
//! hooks (`commit`, `wake`, `frontend_drain`) and the rare recovery hooks
//! are timed, and the measured cost of an empty timed region is subtracted
//! once per call.

use koc_isa::{InstId, Instruction};
use koc_sim::engine::{CommitEngine, DispatchStall, Dispatched, EngineCtx, Writeback};
use koc_sim::{CycleSample, Observer, SimStats};
use std::cell::Cell;
use std::hint::black_box;
use std::rc::Rc;
use std::time::Instant;

/// The engine hooks the decorator reports, in report order.
pub const HOOKS: [&str; 8] = [
    "reserve",
    "allocate",
    "dispatched",
    "completed",
    "commit",
    "wake",
    "frontend_drain",
    "recover",
];

/// Index of the first timed hook in [`HOOKS`]; the ones before it are
/// per-instruction hooks and are only counted.
pub const FIRST_TIMED: usize = 4;

const RESERVE: usize = 0;
const ALLOCATE: usize = 1;
const DISPATCHED: usize = 2;
const COMPLETED: usize = 3;
const COMMIT: usize = 4;
const WAKE: usize = 5;
const FRONTEND_DRAIN: usize = 6;
const RECOVER: usize = 7;

/// Counts stepped cycles, fast-forwarded cycles and fast-forward jumps
/// through the observer's `sample` / `skip` boundary.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct CycleCounter {
    /// Cycles the pipeline stepped one by one (one `sample` each).
    pub stepped: u64,
    /// Cycles fast-forward skipped (the sum of every `skip` gap).
    pub skipped: u64,
    /// Fast-forward jumps (`skip` calls).
    pub jumps: u64,
}

impl Observer for CycleCounter {
    fn sample(&mut self, _s: &CycleSample) {
        self.stepped += 1;
    }

    fn skip(&mut self, _s: &CycleSample, n: u64) {
        self.skipped += n;
        self.jumps += 1;
    }
}

/// Per-hook call counts and raw (uncalibrated) nanoseconds, shared between
/// the decorator, which the processor owns, and the benchmark, which reads
/// it after the run.
#[derive(Debug, Default)]
pub struct Probe {
    calls: [Cell<u64>; 8],
    raw_ns: [Cell<u64>; 8],
}

impl Probe {
    fn count(&self, hook: usize) {
        self.calls[hook].set(self.calls[hook].get() + 1);
    }

    fn timed<R>(&self, hook: usize, f: impl FnOnce() -> R) -> R {
        let start = Instant::now();
        let r = f();
        let ns = start.elapsed().as_nanos() as u64;
        self.raw_ns[hook].set(self.raw_ns[hook].get() + ns);
        self.count(hook);
        r
    }

    /// Call counts, in [`HOOKS`] order.
    pub fn calls(&self) -> [u64; 8] {
        self.calls.each_ref().map(Cell::get)
    }

    /// Raw timed nanoseconds, in [`HOOKS`] order (0 for counted-only hooks).
    pub fn raw_ns(&self) -> [u64; 8] {
        self.raw_ns.each_ref().map(Cell::get)
    }
}

/// Wraps the engine `engine::from_config` builds, forwarding every hook
/// unchanged (including the defaulted ones, so the simulated machine is
/// bit-identical) while recording into a shared [`Probe`].
pub struct Instrumented<O: Observer> {
    inner: Box<dyn CommitEngine<O>>,
    probe: Rc<Probe>,
}

impl<O: Observer> Instrumented<O> {
    /// Decorates `inner`, recording into `probe`.
    pub fn new(inner: Box<dyn CommitEngine<O>>, probe: Rc<Probe>) -> Self {
        Instrumented { inner, probe }
    }
}

impl<O: Observer> CommitEngine<O> for Instrumented<O> {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn is_empty(&self) -> bool {
        self.inner.is_empty()
    }

    fn live_checkpoints(&self) -> usize {
        self.inner.live_checkpoints()
    }

    fn reserve(
        &mut self,
        id: InstId,
        inst: &Instruction,
        ctx: &mut EngineCtx<'_, '_, O>,
    ) -> Result<(), DispatchStall> {
        self.probe.count(RESERVE);
        self.inner.reserve(id, inst, ctx)
    }

    fn allocate(&mut self, d: &Dispatched) -> u64 {
        self.probe.count(ALLOCATE);
        self.inner.allocate(d)
    }

    fn dispatched(&mut self, d: &Dispatched, ckpt: u64, ctx: &mut EngineCtx<'_, '_, O>) {
        self.probe.count(DISPATCHED);
        self.inner.dispatched(d, ckpt, ctx);
    }

    fn frontend_drain(&mut self, budget: usize, ctx: &mut EngineCtx<'_, '_, O>) -> usize {
        let inner = &mut self.inner;
        self.probe
            .timed(FRONTEND_DRAIN, || inner.frontend_drain(budget, ctx))
    }

    fn wake(&mut self, ctx: &mut EngineCtx<'_, '_, O>) -> usize {
        let inner = &mut self.inner;
        self.probe.timed(WAKE, || inner.wake(ctx))
    }

    fn next_wake(&self) -> Option<u64> {
        self.inner.next_wake()
    }

    fn completed(&mut self, wb: &Writeback, ctx: &mut EngineCtx<'_, '_, O>) {
        self.probe.count(COMPLETED);
        self.inner.completed(wb, ctx);
    }

    fn commit(&mut self, ctx: &mut EngineCtx<'_, '_, O>) {
        let inner = &mut self.inner;
        self.probe.timed(COMMIT, || inner.commit(ctx));
    }

    fn recover_branch(&mut self, branch: InstId, ctx: &mut EngineCtx<'_, '_, O>) {
        let inner = &mut self.inner;
        self.probe
            .timed(RECOVER, || inner.recover_branch(branch, ctx));
    }

    fn recover_exception(&mut self, inst: InstId, ctx: &mut EngineCtx<'_, '_, O>) -> bool {
        let inner = &mut self.inner;
        self.probe
            .timed(RECOVER, || inner.recover_exception(inst, ctx))
    }

    fn finalize(&mut self, stats: &mut SimStats) {
        self.inner.finalize(stats);
    }
}

/// The measured cost of the host clock.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Clock {
    /// Nanoseconds one `Instant::now()` read takes.
    pub read_ns: f64,
    /// Nanoseconds an empty timed region adds to an accumulator: the bias
    /// subtracted once per timed hook call.
    pub region_ns: f64,
}

impl Clock {
    /// Measures both costs as the median over several batches.
    pub fn calibrate() -> Clock {
        const BATCHES: usize = 15;
        const PER_BATCH: u32 = 4096;
        let mut reads = Vec::with_capacity(BATCHES);
        let mut regions = Vec::with_capacity(BATCHES);
        for _ in 0..BATCHES {
            let start = Instant::now();
            for _ in 0..PER_BATCH {
                black_box(Instant::now());
            }
            reads.push(start.elapsed().as_nanos() as f64 / f64::from(PER_BATCH));

            let mut acc = 0u64;
            for _ in 0..PER_BATCH {
                let t = Instant::now();
                acc += black_box(t.elapsed().as_nanos() as u64);
            }
            regions.push(acc as f64 / f64::from(PER_BATCH));
        }
        Clock {
            read_ns: crate::metrics::median(&reads),
            region_ns: crate::metrics::median(&regions),
        }
    }

    /// Raw hook nanoseconds minus the region bias of each timed call,
    /// floored at 0.
    pub fn calibrated(&self, raw_ns: u64, calls: u64) -> f64 {
        (raw_ns as f64 - calls as f64 * self.region_ns).max(0.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn calibration_subtracts_the_region_bias_per_call() {
        let clock = Clock {
            read_ns: 20.0,
            region_ns: 30.0,
        };
        assert_eq!(clock.calibrated(1_000, 10), 700.0);
        assert_eq!(clock.calibrated(100, 10), 0.0, "floored at zero");
    }

    #[test]
    fn measured_clock_costs_are_positive_and_finite() {
        let clock = Clock::calibrate();
        assert!(clock.read_ns > 0.0 && clock.read_ns.is_finite());
        assert!(clock.region_ns >= 0.0 && clock.region_ns.is_finite());
    }

    #[test]
    fn only_hooks_from_first_timed_on_are_timed() {
        let probe = Probe::default();
        probe.count(RESERVE);
        probe.timed(COMMIT, || {
            std::thread::sleep(std::time::Duration::from_micros(50))
        });
        assert_eq!(probe.calls()[RESERVE], 1);
        assert_eq!(probe.raw_ns()[RESERVE], 0);
        assert_eq!(probe.calls()[COMMIT], 1);
        assert!(probe.raw_ns()[COMMIT] >= 50_000);
        const { assert!(COMMIT >= FIRST_TIMED && RESERVE < FIRST_TIMED) };
    }
}
