//! The three workloads and the phases of one benchmark run: set-up
//! (repeated across the run, reported as the fastest), the timed closed loop,
//! verification cross-checks and, for `--trace 1`, the traced run that
//! yields the per-layer metrics.

use crate::adapter::{self, Input, ProcessorConfig, SimStats, Workload, WorkloadSpec};
use crate::check::{check_identical, check_stats, guarded, pinned, Fingerprint, Ledger, Pin};
use crate::layers::{Clock, CycleCounter, FIRST_TIMED, HOOKS};
use crate::metrics::{fastest, median, ratio, step_split, tail, Tail};
use std::time::{Duration, Instant};

/// Dynamic instructions per kernel: the quick harness's length, so the
/// canonical fingerprints of the shared machines equal `bench/baseline.json`.
pub const LEN: usize = 8_000;
/// Set-ups per run; `setup_s` is the fastest of them.
pub const SETUPS: usize = 25;
/// Traced repetitions per `--trace 1` run; their counts must repeat exactly.
pub const TRACED_ROUNDS: usize = 3;
/// Timed samples taken even when `--seconds` runs out first.
const MIN_ROUNDS: usize = 3;

/// A benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// The paper suite on the headline cooo machine, materialized traces.
    KiloWindow,
    /// The MLP-contrast pair under both engines on banked DRAM, streamed.
    MemoryBound,
    /// Figure 9's 11-configuration sweep over the paper suite.
    Fig9Sweep,
}

impl Kind {
    /// Every workload, in report order.
    pub const ALL: [Kind; 3] = [Kind::KiloWindow, Kind::MemoryBound, Kind::Fig9Sweep];

    /// The workload's name on the command line and in reports.
    pub fn name(self) -> &'static str {
        match self {
            Kind::KiloWindow => "kilo_window",
            Kind::MemoryBound => "memory_bound",
            Kind::Fig9Sweep => "fig9_sweep",
        }
    }

    /// Parses a workload name.
    pub fn parse(name: &str) -> Option<Kind> {
        Kind::ALL.into_iter().find(|k| k.name() == name)
    }

    fn streamed(self) -> bool {
        self == Kind::MemoryBound
    }

    /// Cycle budget per simulation: far above any seed's run, so only a
    /// runaway simulation exhausts it.
    fn budget(self) -> u64 {
        match self {
            Kind::MemoryBound => 60_000_000,
            Kind::KiloWindow | Kind::Fig9Sweep => 1_000_000,
        }
    }
}

/// What set-up produces: the kernels, their traces when materialized, and
/// the machines. Simulation `j` runs machine `j / kernels` on kernel
/// `j % kernels`.
pub struct Plan {
    kind: Kind,
    kernels: Vec<WorkloadSpec>,
    traces: Vec<Workload>,
    machines: Vec<ProcessorConfig>,
}

impl Plan {
    fn jobs(&self) -> usize {
        self.machines.len() * self.kernels.len()
    }

    fn machine(&self, j: usize) -> ProcessorConfig {
        self.machines[j / self.kernels.len()]
    }

    fn input(&self, j: usize) -> Input<'_> {
        let k = j % self.kernels.len();
        match self.traces.get(k) {
            Some(w) => Input::Trace(w),
            None => Input::Stream(&self.kernels[k]),
        }
    }

    fn trace_len(&self, j: usize) -> Option<usize> {
        self.traces
            .get(j % self.kernels.len())
            .map(|w| w.trace.len())
    }

    fn name(&self, j: usize) -> String {
        format!(
            "{} {} {}",
            self.kind.name(),
            adapter::label(&self.machine(j)),
            self.kernels[j % self.kernels.len()].name()
        )
    }
}

/// One timed sample: host time and the instructions it retired.
#[derive(Debug, Clone, Copy)]
struct Sample {
    wall_ns: u64,
    retired: u64,
}

impl Sample {
    fn ns_per_inst(self) -> f64 {
        ratio(self.wall_ns as f64, self.retired as f64)
    }
}

/// Counts and raw times summed over one traced pass of every simulation.
#[derive(Debug, Default)]
struct TracedPass {
    cycles: CycleCounter,
    buckets: adapter::CycleBuckets,
    calls: [u64; 8],
    raw_ns: [u64; 8],
    wall_ns: u64,
}

impl TracedPass {
    /// The exact part of the pass, which must repeat run after run.
    fn counts(&self) -> (CycleCounter, adapter::CycleBuckets, [u64; 8]) {
        (self.cycles, self.buckets, self.calls)
    }
}

/// A metric as printed: name, value and unit.
pub type Metric = (String, f64, &'static str);

/// Everything a finished run reports.
pub struct Outcome {
    /// End-to-end metrics (`--trace 0`) or per-layer metrics (`--trace 1`).
    pub metrics: Vec<Metric>,
    /// The tail percentile behind `ns_per_inst_tail`.
    pub tail: Option<Tail>,
    /// Timed samples behind `ns_per_inst`.
    pub samples: usize,
    /// Operations attempted and failed.
    pub ledger: Ledger,
}

/// One benchmark run of one workload.
pub struct Bench<'p> {
    kind: Kind,
    seed: u64,
    /// The canonical-seed fingerprint table (see [`crate::check::PINS`]).
    pins: &'p [Pin],
    /// Expected fingerprint per simulation: pinned on the canonical seed,
    /// learned from the first run otherwise.
    expected: Vec<Option<Fingerprint>>,
    /// The first untraced statistics of each simulation, which every later
    /// run of it (streamed, traced, sequential) must reproduce.
    reference: Vec<Option<SimStats>>,
    ledger: Ledger,
    rounds: Vec<Sample>,
    per_sim: Vec<f64>,
    construct_ns: Vec<f64>,
    model: (f64, f64),
}

impl<'p> Bench<'p> {
    /// A run of `kind` with inputs derived from `seed`, checked against
    /// `pins` on the canonical seed.
    pub fn new(kind: Kind, seed: u64, pins: &'p [Pin]) -> Self {
        Bench {
            kind,
            seed,
            pins,
            expected: Vec::new(),
            reference: Vec::new(),
            ledger: Ledger::default(),
            rounds: Vec::new(),
            per_sim: Vec::new(),
            construct_ns: Vec::new(),
            model: (0.0, 0.0),
        }
    }

    /// Generates inputs, validates every machine and runs one untimed
    /// warm-up pass. The sweep's machines are the configurations its
    /// warm-up sweep returns.
    fn setup(&mut self) -> Plan {
        let kernels = match self.kind {
            Kind::MemoryBound => adapter::mlp_kernels(self.seed, LEN),
            Kind::KiloWindow | Kind::Fig9Sweep => adapter::paper_kernels(self.seed, LEN),
        };
        let traces: Vec<Workload> = if self.kind.streamed() {
            Vec::new()
        } else {
            kernels.iter().map(adapter::materialize).collect()
        };
        let mut sweep = None;
        let machines = match self.kind {
            Kind::KiloWindow => vec![adapter::kilo_machine()],
            Kind::MemoryBound => adapter::memory_machines().to_vec(),
            Kind::Fig9Sweep => {
                let warm_up = guarded(|| adapter::fig9(&traces));
                let configs = warm_up
                    .as_ref()
                    .map_or(Vec::new(), |s| s.results.iter().map(|(c, _)| *c).collect());
                sweep = Some(warm_up);
                configs
            }
        };
        let plan = Plan {
            kind: self.kind,
            kernels,
            traces,
            machines,
        };
        for m in &plan.machines {
            let outcome = adapter::validate(m);
            self.ledger
                .record(&format!("validate {}", adapter::label(m)), outcome);
        }
        if self.expected.is_empty() {
            let canonical = self.seed == adapter::CANONICAL_SEED;
            self.expected = (0..plan.jobs())
                .map(|j| {
                    let k = plan.kernels[j % plan.kernels.len()].name();
                    let m = adapter::label(&plan.machine(j));
                    canonical.then(|| pinned(self.pins, &m, k)).flatten()
                })
                .collect();
            self.reference = vec![None; plan.jobs()];
        }
        match sweep {
            Some(warm_up) => {
                self.check_sweep(&plan, warm_up);
            }
            None => self.round(&plan, false),
        }
        plan
    }

    /// Checks one finished simulation and remembers its first statistics.
    fn check_job(&mut self, plan: &Plan, j: usize, stats: &SimStats) -> bool {
        let name = plan.name(j);
        let mut outcome = check_stats(stats, plan.trace_len(j), self.expected[j]);
        if outcome.is_ok() && self.expected[j].is_none() {
            let got = Fingerprint::of(stats);
            if self.seed == adapter::CANONICAL_SEED {
                outcome = Err(format!(
                    "no pinned fingerprint; observed (\"{}\", \"{}\", {}, {})",
                    adapter::label(&plan.machine(j)),
                    plan.kernels[j % plan.kernels.len()].name(),
                    got.cycles,
                    got.retired
                ));
            }
            self.expected[j] = Some(got);
        }
        let passed = self.ledger.record(&name, outcome);
        if passed && self.reference[j].is_none() {
            self.reference[j] = Some(stats.clone());
        }
        passed
    }

    /// Checks every simulation of one sweep; returns the instructions the
    /// sweep retired and whether all of them passed.
    fn check_sweep(&mut self, plan: &Plan, sweep: Result<adapter::Fig9, String>) -> (u64, bool) {
        let sweep = match sweep {
            Ok(sweep) => sweep,
            Err(why) => return (0, self.ledger.record("fig9_sweep sweep", Err(why))),
        };
        self.model = (sweep.pct_of_baseline_4096, sweep.gain_over_baseline_128);
        let mut retired = 0;
        let mut ok = true;
        let stats = sweep.results.into_iter().flat_map(|(_, s)| s);
        for (j, s) in stats.enumerate().take(plan.jobs()) {
            ok &= self.check_job(plan, j, &s);
            retired += s.committed_instructions;
        }
        (retired, ok)
    }

    /// One pass over every simulation: sequentially for `kilo_window` and
    /// `memory_bound`, as one sweep for `fig9_sweep`. With `timed`, records
    /// the pass as a sample unless a simulation in it failed.
    fn round(&mut self, plan: &Plan, timed: bool) {
        let start = Instant::now();
        let mut retired = 0;
        let mut ok = true;
        if plan.kind == Kind::Fig9Sweep {
            let sweep = guarded(|| adapter::fig9(&plan.traces));
            (retired, ok) = self.check_sweep(plan, sweep);
        } else {
            for j in 0..plan.jobs() {
                let budget = plan.kind.budget();
                match guarded(|| adapter::run(plan.machine(j), plan.input(j), budget)) {
                    Ok(run) => {
                        ok &= self.check_job(plan, j, &run.stats);
                        retired += run.stats.committed_instructions;
                        if timed {
                            self.per_sim.push(ratio(
                                run.wall_ns as f64,
                                run.stats.committed_instructions as f64,
                            ));
                            self.construct_ns.push(run.construct_ns as f64);
                        }
                    }
                    Err(why) => ok &= self.ledger.record(&plan.name(j), Err(why)),
                }
            }
        }
        let sample = Sample {
            wall_ns: start.elapsed().as_nanos() as u64,
            retired,
        };
        if timed && ok {
            self.rounds.push(sample);
            if plan.kind == Kind::Fig9Sweep {
                self.per_sim.push(sample.ns_per_inst());
            }
        }
    }

    /// Simulations `jobs` once more, sequentially, one `Processor` at a
    /// time through the adapter, each compared with its reference
    /// statistics. Returns the summed host time of the passing simulations.
    fn sequential_pass<'i>(
        &mut self,
        plan: &Plan,
        jobs: std::ops::Range<usize>,
        input: impl Fn(usize) -> Input<'i>,
        what: &str,
    ) -> u64 {
        let mut wall = 0;
        for j in jobs {
            let budget = plan.kind.budget();
            let input = input(j);
            let outcome =
                guarded(|| adapter::run(plan.machine(j), input, budget)).and_then(|run| {
                    check_identical(what, self.reference[j].as_ref(), &run.stats)?;
                    if let Input::Trace(w) = input {
                        check_stats(&run.stats, Some(w.trace.len()), None)?;
                    }
                    self.construct_ns.push(run.construct_ns as f64);
                    wall += run.wall_ns;
                    Ok(())
                });
            self.ledger
                .record(&format!("{} {what}", plan.name(j)), outcome);
        }
        wall
    }

    /// Cross-checks that hold for any seed, outside the timed loop. Each
    /// simulation re-run against its reference is one operation:
    /// `kilo_window` re-runs its traces streamed, `memory_bound` its streams
    /// materialized, and `fig9_sweep` every sweep configuration
    /// sequentially. Returns the sequential host time (used for
    /// `session.fanout_speedup`).
    fn verify(&mut self, plan: &Plan) -> u64 {
        let kernels = plan.kernels.len();
        let streamed = |j: usize| Input::Stream(&plan.kernels[j % kernels]);
        match plan.kind {
            Kind::KiloWindow => {
                self.sequential_pass(plan, 0..plan.jobs(), streamed, "streamed == materialized")
            }
            Kind::MemoryBound => {
                let traces: Vec<Workload> = plan.kernels.iter().map(adapter::materialize).collect();
                let materialized = |j: usize| Input::Trace(&traces[j % kernels]);
                self.sequential_pass(
                    plan,
                    0..plan.jobs(),
                    materialized,
                    "materialized == streamed",
                )
            }
            Kind::Fig9Sweep => {
                let wall = self.sequential_pass(
                    plan,
                    0..plan.jobs(),
                    |j| plan.input(j),
                    "sequential == sweep",
                );
                let largest = plan.jobs().saturating_sub(kernels)..plan.jobs();
                self.sequential_pass(plan, largest, streamed, "streamed == materialized");
                wall
            }
        }
    }

    /// One traced pass over every simulation, each checked against its
    /// untraced reference and against the cycle identities (stepped plus
    /// skipped cycles and the accounting buckets both sum to the simulated
    /// cycles).
    fn traced_pass(&mut self, plan: &Plan) -> TracedPass {
        let mut pass = TracedPass::default();
        for j in 0..plan.jobs() {
            let budget = plan.kind.budget();
            let outcome = guarded(|| adapter::run_traced(plan.machine(j), plan.input(j), budget))
                .and_then(|t| {
                    check_identical("traced", self.reference[j].as_ref(), &t.stats)?;
                    let counted = t.cycles.stepped + t.cycles.skipped;
                    if counted != t.stats.cycles || t.buckets.total() != t.stats.cycles {
                        return Err(format!(
                            "observer saw {counted} cycles and accounting {}, simulated {}",
                            t.buckets.total(),
                            t.stats.cycles
                        ));
                    }
                    pass.cycles.stepped += t.cycles.stepped;
                    pass.cycles.skipped += t.cycles.skipped;
                    pass.cycles.jumps += t.cycles.jumps;
                    add_buckets(&mut pass.buckets, &t.buckets);
                    for h in 0..HOOKS.len() {
                        pass.calls[h] += t.calls[h];
                        pass.raw_ns[h] += t.raw_ns[h];
                    }
                    pass.wall_ns += t.wall_ns;
                    Ok(())
                });
            self.ledger
                .record(&format!("{} traced", plan.name(j)), outcome);
        }
        pass
    }

    /// Runs the workload: set-up, the timed loop for `seconds`,
    /// verification, and with `traced` the per-layer measurements.
    pub fn run(mut self, process_start: Instant, seconds: u64, traced: bool) -> Outcome {
        let plan = self.setup();
        let mut setup_s = vec![process_start.elapsed().as_secs_f64()];

        // The later set-ups are spread evenly over the timed loop, so one
        // stretch of host noise cannot slow all of them.
        let budget = Duration::from_secs(seconds);
        let start = Instant::now();
        let mut attempts = 0;
        while start.elapsed() < budget || attempts < MIN_ROUNDS || setup_s.len() < SETUPS {
            if setup_s.len() < SETUPS
                && start.elapsed() >= budget * setup_s.len() as u32 / SETUPS as u32
            {
                let again = Instant::now();
                self.setup();
                setup_s.push(again.elapsed().as_secs_f64());
            }
            self.round(&plan, true);
            attempts += 1;
        }
        let peak_rss = crate::peak_rss_mib();
        let sequential_ns = self.verify(&plan);

        // Every timed sample retires the same instructions, so the fastest
        // sample is also the one with the fewest ns per instruction.
        let round_ns: Vec<f64> = self.rounds.iter().map(|s| s.wall_ns as f64).collect();
        let retired = self.rounds.first().map_or(0, |s| s.retired);
        let ns_per_inst = ratio(fastest(&round_ns), retired as f64);
        let tail = tail(&self.per_sim);
        let samples = self.rounds.len();
        let metrics = if traced {
            self.layer_metrics(&plan, fastest(&round_ns), retired, sequential_ns)
        } else {
            [
                ("ns_per_inst", ns_per_inst, "ns"),
                ("ns_per_inst_tail", tail.map_or(0.0, |t| t.value), "ns"),
                ("setup_s", fastest(&setup_s), "s"),
                ("peak_rss_mib", peak_rss, "MiB"),
            ]
            .map(|(name, v, unit)| (name.to_string(), v, unit))
            .into()
        };
        Outcome {
            metrics,
            tail,
            samples,
            ledger: self.ledger,
        }
    }

    /// The traced run's per-layer metrics. `round_ns` is the fastest
    /// untraced timed sample and `retired` its instruction count. Repeated
    /// host times (passes, drains) are reported as their fastest, like
    /// `ns_per_inst`.
    fn layer_metrics(
        &mut self,
        plan: &Plan,
        round_ns: f64,
        retired: u64,
        sequential_ns: u64,
    ) -> Vec<Metric> {
        let clock = Clock::calibrate();

        // Untraced host time of the same simulations the traced pass runs:
        // the timed rounds themselves, except for the sweep, whose
        // simulations are traced one at a time and so compare with
        // sequential untraced passes.
        let untraced_ns = if plan.kind == Kind::Fig9Sweep {
            let mut walls = vec![sequential_ns as f64];
            for _ in 1..TRACED_ROUNDS {
                walls.push(self.sequential_pass(
                    plan,
                    0..plan.jobs(),
                    |j| plan.input(j),
                    "sequential == sweep",
                ) as f64);
            }
            fastest(&walls)
        } else {
            round_ns
        };
        let passes: Vec<TracedPass> = (0..TRACED_ROUNDS).map(|_| self.traced_pass(plan)).collect();
        for (r, p) in passes.iter().enumerate().skip(1) {
            let outcome = if p.counts() == passes[0].counts() {
                Ok(())
            } else {
                Err(format!("traced pass {r} counted differently from pass 0"))
            };
            self.ledger.record(
                &format!("{} traced counts repeat", plan.kind.name()),
                outcome,
            );
        }
        // Counts repeat across passes; host times come from the fastest.
        let pass = passes
            .into_iter()
            .min_by_key(|p| p.wall_ns)
            .unwrap_or_default();
        let traced_ns = pass.wall_ns as f64;

        let mut gen_ns = Vec::new();
        let mut materialize_s = Vec::new();
        for _ in 0..SETUPS {
            let start = Instant::now();
            let n: usize = plan.kernels.iter().map(adapter::drain).sum();
            gen_ns.push(ratio(start.elapsed().as_nanos() as f64, n as f64));
            let start = Instant::now();
            let traces: Vec<Workload> = plan.kernels.iter().map(adapter::materialize).collect();
            materialize_s.push(start.elapsed().as_secs_f64());
            std::hint::black_box(traces);
        }

        let refs: Vec<&SimStats> = self.reference.iter().flatten().collect();
        let sum = |f: fn(&SimStats) -> u64| refs.iter().map(|s| f(s)).sum::<u64>() as f64;
        let max = |f: fn(&SimStats) -> usize| refs.iter().map(|s| f(s)).max().unwrap_or(0) as f64;
        let stepped = pass.cycles.stepped;
        let split = step_split(round_ns, stepped, retired);
        let calibrated: Vec<f64> = (FIRST_TIMED..HOOKS.len())
            .map(|h| clock.calibrated(pass.raw_ns[h], pass.calls[h]))
            .collect();
        let (threads, fanout) = if plan.kind == Kind::Fig9Sweep {
            let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
            (
                cores.min(plan.kernels.len()) as f64,
                ratio(untraced_ns, round_ns),
            )
        } else {
            (1.0, 0.0)
        };

        let mut m: Vec<Metric> = Vec::new();
        let mut put = |name: &str, value: f64, unit: &'static str| {
            m.push((name.to_string(), value, unit));
        };
        put("workloads.gen_ns_per_inst", fastest(&gen_ns), "ns");
        put("workloads.materialize_s", fastest(&materialize_s), "s");
        put(
            "isa.replay_window_peak",
            max(|s| s.replay_window_peak),
            "count",
        );
        put("pipeline.stepped_cycles", stepped as f64, "cycles");
        put(
            "pipeline.skipped_cycles",
            pass.cycles.skipped as f64,
            "cycles",
        );
        put("pipeline.ff_jumps", pass.cycles.jumps as f64, "count");
        let cycles = (stepped + pass.cycles.skipped) as f64;
        put(
            "pipeline.step_ratio",
            ratio(stepped as f64, cycles),
            "ratio",
        );
        put(
            "pipeline.stepped_per_inst",
            split.stepped_per_inst,
            "cycles/inst",
        );
        put(
            "pipeline.ns_per_stepped_cycle",
            split.ns_per_stepped_cycle,
            "ns",
        );
        put(
            "pipeline.construct_us",
            median(&self.construct_ns) / 1e3,
            "us",
        );
        for (h, name) in HOOKS.iter().enumerate() {
            put(
                &format!("engine.{name}.calls"),
                pass.calls[h] as f64,
                "count",
            );
        }
        for (h, name) in HOOKS.iter().enumerate().skip(FIRST_TIMED) {
            put(
                &format!("engine.{name}.ns"),
                calibrated[h - FIRST_TIMED],
                "ns",
            );
        }
        put(
            "engine.self_share",
            ratio(calibrated.iter().sum(), untraced_ns),
            "ratio",
        );
        put(
            "engine.checkpoint_squash_ratio",
            ratio(
                sum(|s| s.checkpoints_squashed),
                sum(|s| s.checkpoints_taken),
            ),
            "ratio",
        );
        put("engine.sliq_moved", sum(|s| s.sliq_moved), "count");
        put(
            "engine.sliq_high_water",
            max(|s| s.sliq_high_water),
            "count",
        );
        put(
            "frontend.mispredict_ratio",
            ratio(
                sum(|s| s.branches.mispredicted),
                sum(|s| s.branches.predicted),
            ),
            "ratio",
        );
        put(
            "recovery.reexecuted_per_inst",
            ratio(
                sum(|s| s.recoveries.reexecuted_instructions),
                sum(|s| s.committed_instructions),
            ),
            "ratio",
        );
        put(
            "mem.l2_miss_ratio",
            ratio(
                sum(|s| s.memory.l2_misses),
                sum(|s| s.memory.l2_hits + s.memory.l2_misses),
            ),
            "ratio",
        );
        put(
            "mem.mshr_full_stalls",
            sum(|s| s.memory.mshr_full_stalls),
            "count",
        );
        put(
            "mem.row_buffer_hit_ratio",
            ratio(
                sum(|s| s.memory.row_buffer_hits),
                sum(|s| {
                    s.memory.row_buffer_hits
                        + s.memory.row_buffer_misses
                        + s.memory.row_buffer_conflicts
                }),
            ),
            "ratio",
        );
        for (name, n) in pass.buckets.named() {
            put(&format!("accounting.{name}"), n as f64, "cycles");
        }
        put("session.threads", threads, "count");
        put("session.fanout_speedup", fanout, "ratio");
        put(
            "trace.overhead",
            ratio(traced_ns, untraced_ns) - 1.0,
            "ratio",
        );
        put("trace.clock_ns", clock.read_ns, "ns");
        put("model.cooo_pct_of_baseline_4096", self.model.0, "%");
        put("model.cooo_gain_over_baseline_128", self.model.1, "%");
        m
    }
}

fn add_buckets(total: &mut adapter::CycleBuckets, b: &adapter::CycleBuckets) {
    total.committing += b.committing;
    total.window_full += b.window_full;
    total.iq_full += b.iq_full;
    total.regfile_exhausted += b.regfile_exhausted;
    total.checkpoint_table_full += b.checkpoint_table_full;
    total.mshr_full += b.mshr_full;
    total.memory_wait += b.memory_wait;
    total.fetch_starved += b.fetch_starved;
    total.execute_wait += b.execute_wait;
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::check::PINS;

    fn run(kind: Kind, seed: u64, pins: &[Pin], traced: bool) -> Outcome {
        Bench::new(kind, seed, pins).run(Instant::now(), 0, traced)
    }

    #[test]
    fn canonical_seed_passes_every_operation() {
        for kind in Kind::ALL {
            let outcome = run(kind, adapter::CANONICAL_SEED, PINS, false);
            let ledger = &outcome.ledger;
            assert!(
                ledger.all_passed(),
                "{}: {:?}",
                kind.name(),
                ledger.failures
            );
            assert!(ledger.attempted > 0);
            let names: Vec<&str> = outcome.metrics.iter().map(|m| m.0.as_str()).collect();
            assert_eq!(
                names,
                ["ns_per_inst", "ns_per_inst_tail", "setup_s", "peak_rss_mib"]
            );
            assert!(
                outcome.metrics.iter().all(|m| m.1 > 0.0),
                "{:?}",
                outcome.metrics
            );
        }
    }

    #[test]
    fn other_seeds_pass_every_cross_check_traced() {
        for kind in Kind::ALL {
            let outcome = run(kind, 7, PINS, true);
            assert!(
                outcome.ledger.all_passed(),
                "{}: {:?}",
                kind.name(),
                outcome.ledger.failures
            );
            let metric = |name: &str| {
                outcome
                    .metrics
                    .iter()
                    .find(|m| m.0 == name)
                    .unwrap_or_else(|| panic!("{name} missing"))
                    .1
            };
            assert!(metric("pipeline.stepped_cycles") > 0.0);
            assert!(metric("engine.commit.calls") > 0.0);
            assert!(metric("trace.clock_ns") > 0.0);
        }
    }

    #[test]
    fn a_corrupted_fingerprint_fails_operations_not_the_process() {
        let corrupted: Vec<Pin> = PINS
            .iter()
            .map(|&(m, k, cycles, retired)| match k {
                "gather" => (m, k, cycles + 1, retired),
                _ => (m, k, cycles, retired),
            })
            .collect();
        let outcome = run(Kind::KiloWindow, adapter::CANONICAL_SEED, &corrupted, false);
        let ledger = &outcome.ledger;
        assert!(ledger.failed > 0);
        assert_eq!(ledger.exit_code(), 1);
        assert!(
            ledger.failures.iter().all(|f| f.contains("gather")),
            "{:?}",
            ledger.failures
        );
        assert!(
            ledger.failures[0].contains("fingerprint drift"),
            "{:?}",
            ledger.failures
        );
        assert_eq!(
            outcome.metrics.len(),
            4,
            "a failed operation still reports metrics"
        );
    }
}
