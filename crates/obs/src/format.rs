//! Renderers for the versioned observability formats.
//!
//! Rendering runs after the simulation completes (it allocates freely, so
//! it is deliberately *not* part of the hot path):
//!
//! - `koc-ptrace/1` — a flat JSON event stream:
//!   `{"schema":"koc-ptrace/1","events":[{"cycle":..,"type":"fetch",..},..]}`.
//!   All numbers are exact integers readable back through `koc_isa::json`.
//! - Kanata text (`Kanata\t0004`) — load the file in the Konata pipeline
//!   viewer to scroll through the run stage by stage. Stages: `F` fetch/
//!   rename/dispatch cycle, `Wa` waiting in an issue queue, `Sq` parked in
//!   the SLIQ, `Ex` executing, `Cm` completed and waiting to commit.
//! - `koc-timeline/1` — interval records:
//!   `{"schema":"koc-timeline/1","interval":N,"records":[..]}`.

use crate::observer::Event;
use crate::timeline::IntervalRecord;
use crate::trace::PipelineTracer;
use std::collections::BTreeMap;
use std::fmt::Write;

/// Schema tag of the pipeline-event JSON stream.
pub const PTRACE_SCHEMA: &str = "koc-ptrace/1";
/// Schema tag of the interval time-series JSON.
pub const TIMELINE_SCHEMA: &str = "koc-timeline/1";

/// Renders a finished time-series as versioned `koc-timeline/1` JSON.
pub fn timeline_json(interval: u64, records: &[IntervalRecord]) -> String {
    let mut out = String::with_capacity(64 + records.len() * 256);
    let _ = write!(
        out,
        "{{\"schema\":\"{TIMELINE_SCHEMA}\",\"interval\":{interval},\"records\":["
    );
    for (i, record) in records.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        write_record(&mut out, record);
    }
    out.push_str("]}");
    out
}

fn write_record(out: &mut String, record: &IntervalRecord) {
    // No `..`: a new field fails to compile until it is written here.
    let IntervalRecord {
        start_cycle,
        cycles,
        committed,
        dispatched,
        inflight_sum,
        live_sum,
        live_checkpoints_sum,
        mshr_sum,
        replay_window_sum,
        stall,
    } = record;
    let _ = write!(
        out,
        "{{\"start_cycle\":{start_cycle},\"cycles\":{cycles},\"committed\":{committed},\
         \"dispatched\":{dispatched},\"inflight_sum\":{inflight_sum},\"live_sum\":{live_sum},\
         \"live_checkpoints_sum\":{live_checkpoints_sum},\"mshr_sum\":{mshr_sum},\
         \"replay_window_sum\":{replay_window_sum},\"stall\":{{"
    );
    for (i, (name, n)) in stall.named().into_iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "\"{name}\":{n}");
    }
    out.push_str("}}");
}

fn write_event(out: &mut String, cycle: u64, ev: Event) {
    let _ = match ev {
        Event::Fetch { inst, kind } => write!(
            out,
            "{{\"cycle\":{cycle},\"type\":\"fetch\",\"inst\":{inst},\"kind\":\"{kind}\"}}"
        ),
        Event::Rename { inst } => {
            write!(
                out,
                "{{\"cycle\":{cycle},\"type\":\"rename\",\"inst\":{inst}}}"
            )
        }
        Event::Dispatch { inst, ckpt } => write!(
            out,
            "{{\"cycle\":{cycle},\"type\":\"dispatch\",\"inst\":{inst},\"ckpt\":{ckpt}}}"
        ),
        Event::Issue { inst } => {
            write!(
                out,
                "{{\"cycle\":{cycle},\"type\":\"issue\",\"inst\":{inst}}}"
            )
        }
        Event::Complete { inst } => {
            write!(
                out,
                "{{\"cycle\":{cycle},\"type\":\"complete\",\"inst\":{inst}}}"
            )
        }
        Event::Commit { inst } => {
            write!(
                out,
                "{{\"cycle\":{cycle},\"type\":\"commit\",\"inst\":{inst}}}"
            )
        }
        Event::Squash { inst } => {
            write!(
                out,
                "{{\"cycle\":{cycle},\"type\":\"squash\",\"inst\":{inst}}}"
            )
        }
        Event::SliqMove { inst } => {
            write!(
                out,
                "{{\"cycle\":{cycle},\"type\":\"sliq_move\",\"inst\":{inst}}}"
            )
        }
        Event::CheckpointTake { id, at } => write!(
            out,
            "{{\"cycle\":{cycle},\"type\":\"checkpoint_take\",\"id\":{id},\"at\":{at}}}"
        ),
        Event::CheckpointCommit { id, insts } => write!(
            out,
            "{{\"cycle\":{cycle},\"type\":\"checkpoint_commit\",\"id\":{id},\"insts\":{insts}}}"
        ),
        Event::CheckpointSquash { count } => write!(
            out,
            "{{\"cycle\":{cycle},\"type\":\"checkpoint_squash\",\"count\":{count}}}"
        ),
        Event::MshrAlloc { token, addr } => write!(
            out,
            "{{\"cycle\":{cycle},\"type\":\"mshr_alloc\",\"token\":{token},\"addr\":{addr}}}"
        ),
        Event::MshrFill { token } => {
            write!(
                out,
                "{{\"cycle\":{cycle},\"type\":\"mshr_fill\",\"token\":{token}}}"
            )
        }
    };
}

impl PipelineTracer {
    /// Renders the recorded stream as versioned `koc-ptrace/1` JSON.
    pub fn to_ptrace_json(&self) -> String {
        let mut out = String::with_capacity(64 + self.len() * 64);
        let _ = write!(out, "{{\"schema\":\"{PTRACE_SCHEMA}\",\"events\":[");
        for (i, &(cycle, ev)) in self.events().iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            write_event(&mut out, cycle, ev);
        }
        out.push_str("]}");
        out
    }

    /// Renders the recorded stream as Kanata text for the Konata pipeline
    /// viewer.
    ///
    /// Each dynamic instruction gets a fresh Kanata id; a squashed
    /// instruction is retired with flush type 1 and its re-execution (a
    /// later fetch of the same trace index) appears as a new row. Events
    /// with no per-instruction representation (checkpoint and MSHR
    /// lifecycle) are carried only by the JSON stream.
    pub fn to_kanata(&self) -> String {
        let mut out = String::with_capacity(64 + self.len() * 32);
        out.push_str("Kanata\t0004\n");
        // Trace indices repeat after rollbacks, so the active Kanata row of
        // an instruction is tracked per trace index (deterministic order:
        // BTreeMap, never a hash map).
        let mut kid_of: BTreeMap<u64, u64> = BTreeMap::new();
        let mut stage: BTreeMap<u64, &'static str> = BTreeMap::new();
        let mut next_kid = 0u64;
        let mut clock: Option<u64> = None;
        for &(cycle, ev) in self.events() {
            match clock {
                None => {
                    let _ = writeln!(out, "C=\t{cycle}");
                    clock = Some(cycle);
                }
                Some(c) if cycle > c => {
                    let _ = writeln!(out, "C\t{}", cycle - c);
                    clock = Some(cycle);
                }
                _ => {}
            }
            match ev {
                Event::Fetch { inst, kind } => {
                    let kid = next_kid;
                    next_kid += 1;
                    kid_of.insert(inst as u64, kid);
                    let _ = writeln!(out, "I\t{kid}\t{inst}\t0");
                    let _ = writeln!(out, "L\t{kid}\t0\t#{inst} {kind}");
                    let _ = writeln!(out, "S\t{kid}\t0\tF");
                    stage.insert(kid, "F");
                }
                Event::Dispatch { inst, .. } => {
                    transition(&mut out, &kid_of, &mut stage, inst, "Wa");
                }
                Event::Issue { inst } => {
                    transition(&mut out, &kid_of, &mut stage, inst, "Ex");
                }
                Event::SliqMove { inst } => {
                    transition(&mut out, &kid_of, &mut stage, inst, "Sq");
                }
                Event::Complete { inst } => {
                    transition(&mut out, &kid_of, &mut stage, inst, "Cm");
                }
                Event::Commit { inst } => {
                    retire(&mut out, &mut kid_of, &mut stage, inst, 0);
                }
                Event::Squash { inst } => {
                    retire(&mut out, &mut kid_of, &mut stage, inst, 1);
                }
                Event::Rename { .. }
                | Event::CheckpointTake { .. }
                | Event::CheckpointCommit { .. }
                | Event::CheckpointSquash { .. }
                | Event::MshrAlloc { .. }
                | Event::MshrFill { .. } => {}
            }
        }
        out
    }
}

fn transition(
    out: &mut String,
    kid_of: &BTreeMap<u64, u64>,
    stage: &mut BTreeMap<u64, &'static str>,
    inst: usize,
    next: &'static str,
) {
    if let Some(&kid) = kid_of.get(&(inst as u64)) {
        if let Some(prev) = stage.insert(kid, next) {
            let _ = writeln!(out, "E\t{kid}\t0\t{prev}");
        }
        let _ = writeln!(out, "S\t{kid}\t0\t{next}");
    }
}

fn retire(
    out: &mut String,
    kid_of: &mut BTreeMap<u64, u64>,
    stage: &mut BTreeMap<u64, &'static str>,
    inst: usize,
    flush: u32,
) {
    if let Some(kid) = kid_of.remove(&(inst as u64)) {
        if let Some(prev) = stage.remove(&kid) {
            let _ = writeln!(out, "E\t{kid}\t0\t{prev}");
        }
        let _ = writeln!(out, "R\t{kid}\t{inst}\t{flush}");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::observer::{Event, Observer};
    use koc_isa::OpKind;

    fn tiny_trace() -> PipelineTracer {
        let mut t = PipelineTracer::new();
        t.event(
            1,
            Event::Fetch {
                inst: 0,
                kind: OpKind::Load,
            },
        );
        t.event(1, Event::Rename { inst: 0 });
        t.event(1, Event::Dispatch { inst: 0, ckpt: 0 });
        t.event(2, Event::Issue { inst: 0 });
        t.event(4, Event::Complete { inst: 0 });
        t.event(5, Event::Commit { inst: 0 });
        t
    }

    #[test]
    fn ptrace_json_has_schema_and_all_events() {
        let json = tiny_trace().to_ptrace_json();
        assert!(json.starts_with("{\"schema\":\"koc-ptrace/1\",\"events\":["));
        assert!(json.contains("\"type\":\"fetch\""));
        assert!(json.contains("\"kind\":\"load\""));
        assert!(json.contains("\"type\":\"commit\""));
        assert!(json.ends_with("]}"));
    }

    #[test]
    fn kanata_lifecycle_renders_stage_by_stage() {
        let text = tiny_trace().to_kanata();
        let expected = "Kanata\t0004\n\
                        C=\t1\n\
                        I\t0\t0\t0\n\
                        L\t0\t0\t#0 load\n\
                        S\t0\t0\tF\n\
                        E\t0\t0\tF\n\
                        S\t0\t0\tWa\n\
                        C\t1\n\
                        E\t0\t0\tWa\n\
                        S\t0\t0\tEx\n\
                        C\t2\n\
                        E\t0\t0\tEx\n\
                        S\t0\t0\tCm\n\
                        C\t1\n\
                        E\t0\t0\tCm\n\
                        R\t0\t0\t0\n";
        assert_eq!(text, expected);
    }

    #[test]
    fn squash_flushes_and_refetch_gets_a_new_row() {
        let mut t = PipelineTracer::new();
        t.event(
            1,
            Event::Fetch {
                inst: 7,
                kind: OpKind::IntAlu,
            },
        );
        t.event(3, Event::Squash { inst: 7 });
        t.event(
            6,
            Event::Fetch {
                inst: 7,
                kind: OpKind::IntAlu,
            },
        );
        let text = t.to_kanata();
        assert!(text.contains("R\t0\t7\t1\n"), "flush retire: {text}");
        assert!(text.contains("I\t1\t7\t0\n"), "re-fetch row: {text}");
    }

    #[test]
    fn timeline_json_is_versioned() {
        let recs = vec![IntervalRecord {
            start_cycle: 1,
            cycles: 4,
            ..Default::default()
        }];
        let json = timeline_json(4, &recs);
        assert_eq!(
            json,
            concat!(
                r#"{"schema":"koc-timeline/1","interval":4,"records":[{"start_cycle":1,"#,
                r#""cycles":4,"committed":0,"dispatched":0,"inflight_sum":0,"live_sum":0,"#,
                r#""live_checkpoints_sum":0,"mshr_sum":0,"replay_window_sum":0,"stall":{"#,
                r#""committing":0,"window_full":0,"iq_full":0,"regfile_exhausted":0,"#,
                r#""checkpoint_table_full":0,"mshr_full":0,"memory_wait":0,"fetch_starved":0,"#,
                r#""execute_wait":0}}]}"#
            )
        );
    }

    #[test]
    fn huge_cycle_numbers_render_exactly() {
        // Past 2^53: must stay exact (the reader side is pinned in
        // tests/observability.rs via koc_isa::json).
        let mut t = PipelineTracer::new();
        t.event(9_007_199_254_740_993, Event::Issue { inst: 1 });
        assert!(t.to_ptrace_json().contains("\"cycle\":9007199254740993"));
    }
}
