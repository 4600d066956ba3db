//! Smoke tests for the statistics the experiment harness relies on: the
//! figure-specific outputs exist and behave sensibly on small runs.

use koc_bench::experiments;
use koc_core::RetireClass;
use koc_obs::BREAKDOWN_INTERVAL;
use koc_sim::config::{FETCH_WIDTH, LSQ_SIZE};
use koc_sim::{Processor, ProcessorConfig, SimStats, WindowStats};
use koc_workloads::{kernels, Workload};

fn run_trace(config: ProcessorConfig, trace: &koc_isa::Trace) -> SimStats {
    Processor::new(config, trace).run()
}

fn workload() -> Workload {
    Workload::generate("stream_add", kernels::stream_add(), 5_000)
}

#[test]
fn figure7_distributions_are_recorded() {
    let w = workload();
    let config = ProcessorConfig::baseline(2048, 500);
    let (stats, window) =
        Processor::with_observer(config, &w.trace, WindowStats::new()).run_observed();
    assert_eq!(
        stats,
        run_trace(config, &w.trace),
        "observing must not perturb"
    );
    let p = window.inflight.figure7_percentiles();
    assert!(p[0] <= p[1] && p[1] <= p[2] && p[2] <= p[3] && p[3] <= p[4]);
    assert!(
        window.live.mean() <= window.inflight.mean(),
        "live instructions are a subset of in-flight"
    );
    assert_eq!(
        window.live_long.count() as u64,
        stats.cycles / BREAKDOWN_INTERVAL,
        "the long/short breakdown is sampled once per interval"
    );
    assert_eq!(window.live_short.count(), window.live_long.count());
}

/// Asserts that experiment `name`'s report at a short trace length matches
/// `tests/golden/<name>_len2000.txt` byte for byte.
fn assert_report_matches_golden(name: &str) {
    let path = format!(
        "{}/tests/golden/{name}_len2000.txt",
        env!("CARGO_MANIFEST_DIR")
    );
    let golden = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path}: {e}"));
    let report = experiments::run_by_name(name, 2_000).expect("a listed experiment");
    assert_eq!(report.render(), golden, "{name} differs from {path}");
}

/// Experiments pinned by a golden test of their own below.
const PINNED_SEPARATELY: &[&str] = &["fig7", "fig11", "fig13"];

/// Every other experiment's report, pinned byte for byte, so that no change
/// to the simulator or to how statistics are gathered can silently alter a
/// figure.
#[test]
fn every_experiment_report_matches_its_golden_text() {
    for name in experiments::ALL {
        if !PINNED_SEPARATELY.contains(name) {
            assert_report_matches_golden(name);
        }
    }
}

/// The Figure 7 and Figure 11 reports, pinned so that a change in how the
/// window statistics are gathered cannot silently alter either figure.
#[test]
fn figure7_and_figure11_reports_match_their_golden_text() {
    assert_report_matches_golden("fig7");
    assert_report_matches_golden("fig11");
}

/// The Figure 13 report, pinned byte for byte.
#[test]
fn figure13_report_matches_its_golden_text() {
    assert_report_matches_golden("fig13");
}

#[test]
fn figure11_inflight_average_tracks_window_size() {
    let w = workload();
    let small = run_trace(ProcessorConfig::baseline(128, 1000), &w.trace);
    let large = run_trace(ProcessorConfig::baseline(2048, 1000), &w.trace);
    assert!(small.avg_inflight() <= 128.0 + 1.0);
    assert!(large.avg_inflight() > small.avg_inflight());
}

#[test]
fn figure12_breakdown_covers_all_retirements() {
    let w = workload();
    let stats = run_trace(ProcessorConfig::cooo(32, 1024, 1000), &w.trace);
    let total = stats.retire_breakdown.total();
    assert!(total > 0);
    let sum: u64 = RetireClass::all()
        .iter()
        .map(|&c| stats.retire_breakdown.count(c))
        .sum();
    assert_eq!(sum, total);
    assert!(stats.retire_breakdown.count(RetireClass::Store) > 0);
}

#[test]
fn figure13_checkpoint_sweep_is_monotonicish() {
    let w = workload();
    let few = run_trace(
        ProcessorConfig::cooo(128, 2048, 500).with_checkpoints(4),
        &w.trace,
    );
    let many = run_trace(
        ProcessorConfig::cooo(128, 2048, 500).with_checkpoints(32),
        &w.trace,
    );
    assert!(many.ipc() >= few.ipc() * 0.9);
}

/// `reduction`'s loop-carried accumulators inherit a load's SLIQ trigger.
/// Completing the load must clear the inherited triggers too: left stale,
/// a checkpoint commit frees the trigger register and later dependents are
/// parked in the SLIQ on a register nothing writes again, so the run
/// deadlocks (it did at 4 and 16 checkpoints on the Figure 13 grid).
#[test]
fn reduction_completes_on_the_figure13_grid_with_few_checkpoints() {
    let w = Workload::generate("reduction", kernels::reduction(), 8_000);
    for checkpoints in [4, 16] {
        let config = ProcessorConfig::cooo(2048, 2048, 1000)
            .with_checkpoints(checkpoints)
            .with_phys_regs(2048);
        let stats = run_trace(config, &w.trace);
        assert_eq!(
            stats.committed_instructions as usize,
            w.trace.len(),
            "{checkpoints} checkpoints"
        );
    }
}

#[test]
fn figure14_register_pool_runs_and_constrains() {
    let w = workload();
    let plenty = run_trace(
        ProcessorConfig::cooo(128, 1024, 500).with_phys_regs(2048),
        &w.trace,
    );
    let scarce = run_trace(
        ProcessorConfig::cooo(128, 1024, 500).with_phys_regs(512),
        &w.trace,
    );
    assert_eq!(plenty.committed_instructions as usize, w.trace.len());
    assert_eq!(scarce.committed_instructions as usize, w.trace.len());
    assert!(
        plenty.ipc() >= scarce.ipc() * 0.95,
        "more register resources should not hurt: {} vs {}",
        plenty.ipc(),
        scarce.ipc()
    );
}

#[test]
fn table1_constructor_reports_the_paper_parameters() {
    let c = ProcessorConfig::table1();
    assert_eq!(FETCH_WIDTH, 4);
    assert_eq!(c.iq_size, 4096);
    assert_eq!(LSQ_SIZE, 4096);
    assert_eq!(c.memory.memory_latency, 1000);
}
