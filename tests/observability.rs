//! Acceptance gates for the zero-perturbation observability layer.
//!
//! The observer seam's contract has three legs, each pinned here:
//!
//! 1. **Zero perturbation** — attaching any observer (tracer, timeline,
//!    cycle accounting, or compositions) leaves every statistic bit-identical
//!    to the unobserved run, in both ingestion modes, against the committed
//!    `bench/baseline.json` cycle counts.
//! 2. **Gap-replay exactness** — the event-driven fast-forward replays
//!    observer samples for skipped cycles exactly: traces, timelines and
//!    bucket counts match the per-cycle-stepping run event for event.
//! 3. **Format stability** — the `koc-ptrace/1` and Kanata renderings of a
//!    tiny deterministic kernel are pinned as golden fixtures, and the
//!    `koc-timeline/1` JSON round-trips through the workspace parser at
//!    full u64 precision (including values above 2^53).

use koc_bench::harness::{engines, specs, QUICK_TRACE_LEN};
use koc_isa::json::{parse_json, Json};
use koc_isa::{ArchReg, TraceBuilder};
use koc_obs::{
    timeline_json, CycleAccounting, CycleBuckets, IntervalRecord, PipelineTracer, TimelineRecorder,
    WindowStats, BREAKDOWN_INTERVAL,
};
use koc_sim::{Processor, ProcessorConfig};
use proptest::prelude::*;

/// The committed harness baseline's cycle count for `(workload, engine)`.
fn baseline_cycles(workload: &str, engine: &str) -> u64 {
    let text = std::fs::read_to_string("bench/baseline.json").expect("bench/baseline.json");
    let json = parse_json(&text).expect("baseline parses");
    let Some(Json::Arr(results)) = json.get("results") else {
        panic!("baseline has no results");
    };
    results
        .iter()
        .find(|e| {
            e.get("workload").and_then(Json::as_str) == Some(workload)
                && e.get("engine").and_then(Json::as_str) == Some(engine)
        })
        .and_then(|e| e.get("cycles").and_then(Json::as_u64))
        .unwrap_or_else(|| panic!("no baseline entry for {workload}/{engine}"))
}

#[test]
fn observers_are_zero_perturbation_across_the_quick_suite() {
    for (engine, config) in engines() {
        for spec in specs(QUICK_TRACE_LEN) {
            let w = spec.materialize();
            let plain = Processor::new(config, &w.trace).run();
            assert_eq!(
                plain.cycles,
                baseline_cycles(spec.name(), engine),
                "{}/{engine}: unobserved run drifted from bench/baseline.json",
                spec.name()
            );
            // Materialized ingestion with the timeline + accounting pair.
            let obs = (TimelineRecorder::new(512), CycleAccounting::new());
            let (observed, (_, accounting)) =
                Processor::with_observer(config, &w.trace, obs).run_observed();
            assert_eq!(
                observed,
                plain,
                "{}/{engine}: observers must not perturb the run",
                spec.name()
            );
            assert_eq!(
                accounting.buckets().total(),
                observed.cycles,
                "{}/{engine}: every cycle must land in exactly one bucket",
                spec.name()
            );
            // Streamed ingestion with the event tracer attached.
            let (streamed, _tracer) =
                Processor::with_observer(config, spec.source(), PipelineTracer::new())
                    .run_observed();
            assert_eq!(
                streamed,
                plain,
                "{}/{engine}: streamed observed run must match",
                spec.name()
            );
            // Window statistics turn on the live breakdown walk.
            let (windowed, window) =
                Processor::with_observer(config, &w.trace, WindowStats::new()).run_observed();
            assert_eq!(
                windowed,
                plain,
                "{}/{engine}: the live breakdown must not perturb the run",
                spec.name()
            );
            assert_eq!(window.inflight.count() as u64, plain.cycles);
        }
    }
}

#[test]
fn fast_forward_replays_observer_streams_exactly() {
    for (engine, config) in engines() {
        let spec = specs(QUICK_TRACE_LEN)
            .into_iter()
            .find(|s| s.name() == "gather")
            .expect("gather is in the canonical suite");
        let w = spec.materialize();
        let run = |config: ProcessorConfig| {
            let obs = (
                PipelineTracer::new(),
                (
                    TimelineRecorder::new(128),
                    (CycleAccounting::new(), WindowStats::new()),
                ),
            );
            Processor::with_observer(config, &w.trace, obs).run_observed()
        };
        let (fast_stats, (fast_trace, (fast_timeline, (fast_acct, fast_window)))) = run(config);
        let (slow_stats, (slow_trace, (slow_timeline, (slow_acct, slow_window)))) =
            run(config.with_fast_forward(false));
        assert_eq!(fast_stats, slow_stats, "{engine}: stats must match");
        assert_eq!(
            fast_trace.events(),
            slow_trace.events(),
            "{engine}: fast-forward must not change the event stream"
        );
        assert_eq!(
            fast_timeline.records(),
            slow_timeline.records(),
            "{engine}: interval records must replay exactly across gaps"
        );
        assert_eq!(
            fast_acct.buckets(),
            slow_acct.buckets(),
            "{engine}: bucket counts must replay exactly across gaps"
        );
        assert_eq!(fast_acct.buckets().total(), fast_stats.cycles);
        for (name, fast, slow) in [
            ("inflight", &fast_window.inflight, &slow_window.inflight),
            ("live", &fast_window.live, &slow_window.live),
            ("live_long", &fast_window.live_long, &slow_window.live_long),
            (
                "live_short",
                &fast_window.live_short,
                &slow_window.live_short,
            ),
        ] {
            assert_eq!(
                fast, slow,
                "{engine}: the {name} histogram must replay exactly across gaps"
            );
        }
        assert_eq!(
            fast_window.live_long.count() as u64,
            fast_stats.cycles / BREAKDOWN_INTERVAL,
            "{engine}: one breakdown sample per interval, skipped or stepped"
        );
    }
}

#[test]
fn checkpoint_lifecycle_balances_on_completed_runs() {
    let spec = specs(QUICK_TRACE_LEN)
        .into_iter()
        .find(|s| s.name() == "gather")
        .expect("gather is in the canonical suite");
    let w = spec.materialize();
    let stats = Processor::new(ProcessorConfig::cooo(128, 2048, 1000), &w.trace).run();
    assert!(stats.checkpoints_taken >= 1);
    assert_eq!(
        stats.checkpoints_taken,
        stats.checkpoints_committed + stats.checkpoints_squashed,
        "every checkpoint taken must commit or squash by the end of the run"
    );
}

/// The tiny deterministic kernel behind the golden fixtures: two dependent
/// ALU ops and a cold load on the 64-entry baseline with 100-cycle memory.
fn golden_run() -> PipelineTracer {
    let mut b = TraceBuilder::named("golden");
    b.int_alu(ArchReg::int(1), &[]);
    b.int_alu(ArchReg::int(2), &[ArchReg::int(1)]);
    b.load(ArchReg::int(3), ArchReg::int(2), 0x40);
    let trace = b.finish();
    let (stats, tracer) = Processor::with_observer(
        ProcessorConfig::baseline(64, 100),
        &trace,
        PipelineTracer::new(),
    )
    .run_observed();
    assert_eq!(stats.committed_instructions, 3);
    assert_eq!(stats.cycles, 116);
    tracer
}

#[test]
fn golden_kanata_fixture_for_the_tiny_kernel() {
    let expected = "Kanata\t0004\n\
        C=\t1\n\
        I\t0\t0\t0\nL\t0\t0\t#0 int-alu\nS\t0\t0\tF\nE\t0\t0\tF\nS\t0\t0\tWa\n\
        I\t1\t1\t0\nL\t1\t0\t#1 int-alu\nS\t1\t0\tF\nE\t1\t0\tF\nS\t1\t0\tWa\n\
        I\t2\t2\t0\nL\t2\t0\t#2 load\nS\t2\t0\tF\nE\t2\t0\tF\nS\t2\t0\tWa\n\
        C\t1\n\
        E\t0\t0\tWa\nS\t0\t0\tEx\n\
        C\t1\n\
        E\t0\t0\tEx\nS\t0\t0\tCm\nE\t0\t0\tCm\nR\t0\t0\t0\n\
        E\t1\t0\tWa\nS\t1\t0\tEx\n\
        C\t1\n\
        E\t1\t0\tEx\nS\t1\t0\tCm\nE\t1\t0\tCm\nR\t1\t1\t0\n\
        E\t2\t0\tWa\nS\t2\t0\tEx\n\
        C\t112\n\
        E\t2\t0\tEx\nS\t2\t0\tCm\nE\t2\t0\tCm\nR\t2\t2\t0\n";
    assert_eq!(golden_run().to_kanata(), expected);
}

#[test]
fn golden_ptrace_fixture_for_the_tiny_kernel() {
    let json = golden_run().to_ptrace_json();
    let expected = concat!(
        r#"{"schema":"koc-ptrace/1","events":["#,
        r#"{"cycle":1,"type":"fetch","inst":0,"kind":"int-alu"},"#,
        r#"{"cycle":1,"type":"rename","inst":0},"#,
        r#"{"cycle":1,"type":"dispatch","inst":0,"ckpt":0},"#,
        r#"{"cycle":1,"type":"fetch","inst":1,"kind":"int-alu"},"#,
        r#"{"cycle":1,"type":"rename","inst":1},"#,
        r#"{"cycle":1,"type":"dispatch","inst":1,"ckpt":0},"#,
        r#"{"cycle":1,"type":"fetch","inst":2,"kind":"load"},"#,
        r#"{"cycle":1,"type":"rename","inst":2},"#,
        r#"{"cycle":1,"type":"dispatch","inst":2,"ckpt":0},"#,
        r#"{"cycle":2,"type":"issue","inst":0},"#,
        r#"{"cycle":3,"type":"complete","inst":0},"#,
        r#"{"cycle":3,"type":"commit","inst":0},"#,
        r#"{"cycle":3,"type":"issue","inst":1},"#,
        r#"{"cycle":4,"type":"complete","inst":1},"#,
        r#"{"cycle":4,"type":"commit","inst":1},"#,
        r#"{"cycle":4,"type":"issue","inst":2},"#,
        r#"{"cycle":116,"type":"complete","inst":2},"#,
        r#"{"cycle":116,"type":"commit","inst":2}]}"#,
    );
    assert_eq!(json, expected);
    // The fixture must stay parseable by the workspace JSON parser.
    let doc = parse_json(&json).expect("ptrace JSON parses");
    assert_eq!(
        doc.get("schema").and_then(Json::as_str),
        Some("koc-ptrace/1")
    );
    let Some(Json::Arr(events)) = doc.get("events") else {
        panic!("events array missing");
    };
    assert_eq!(events.len(), 18);
}

/// Reads back one named u64 field from a parsed interval record.
fn record_u64(record: &Json, key: &str) -> u64 {
    record
        .get(key)
        .and_then(Json::as_u64)
        .unwrap_or_else(|| panic!("record field {key} missing or not u64"))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// `koc-timeline/1` documents round-trip through `koc_isa::json` with
    /// exact u64 semantics — no f64 truncation above 2^53.
    #[test]
    fn timeline_json_round_trips_exact_u64(
        interval in 1u64..=u64::MAX,
        start_cycle in any::<u64>(),
        cycles in any::<u64>(),
        committed in any::<u64>(),
        inflight_sum in any::<u64>(),
        memory_wait in any::<u64>(),
        execute_wait in any::<u64>(),
    ) {
        let record = IntervalRecord {
            start_cycle,
            cycles,
            committed,
            inflight_sum,
            stall: CycleBuckets {
                memory_wait,
                execute_wait,
                ..Default::default()
            },
            ..Default::default()
        };
        let json = timeline_json(interval, &[record]);
        let doc = parse_json(&json).expect("timeline JSON parses");
        prop_assert_eq!(doc.get("schema").and_then(Json::as_str), Some("koc-timeline/1"));
        prop_assert_eq!(doc.get("interval").and_then(Json::as_u64), Some(interval));
        let Some(Json::Arr(records)) = doc.get("records") else {
            panic!("records array missing");
        };
        prop_assert_eq!(records.len(), 1);
        let r = &records[0];
        prop_assert_eq!(record_u64(r, "start_cycle"), start_cycle);
        prop_assert_eq!(record_u64(r, "cycles"), cycles);
        prop_assert_eq!(record_u64(r, "committed"), committed);
        prop_assert_eq!(record_u64(r, "inflight_sum"), inflight_sum);
        let stall = r.get("stall").expect("stall object");
        prop_assert_eq!(record_u64(stall, "memory_wait"), memory_wait);
        prop_assert_eq!(record_u64(stall, "execute_wait"), execute_wait);
    }
}

#[test]
fn timeline_json_preserves_values_beyond_f64_precision() {
    // 2^53 + 1 is the first integer an f64 cannot represent; u64::MAX is the
    // worst case. Both must survive the round trip bit-exactly.
    for value in [9_007_199_254_740_993u64, u64::MAX] {
        let record = IntervalRecord {
            committed: value,
            ..Default::default()
        };
        let json = timeline_json(1, &[record]);
        let doc = parse_json(&json).expect("parses");
        let Some(Json::Arr(records)) = doc.get("records") else {
            panic!("records array missing");
        };
        assert_eq!(record_u64(&records[0], "committed"), value);
    }
}

#[test]
fn malformed_timeline_documents_are_rejected() {
    for bad in [
        "",
        "{",
        r#"{"schema":"koc-timeline/1","records":"#,
        r#"{"schema":"koc-timeline/1"} trailing"#,
    ] {
        assert!(parse_json(bad).is_err(), "{bad:?} should not parse");
    }
}
