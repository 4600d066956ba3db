//! The repository's cycle gate: the quick suite's simulated cycle counts,
//! pinned in one table that `tests/determinism.rs` and
//! `tests/observability.rs` both check.
//!
//! The simulator is deterministic, so any drift from these numbers means
//! simulated timing changed. When a change is meant to move timing, the
//! failure message names the measured pair: write it into [`PINNED`] with
//! the change.

use koc_sim::SimStats;

/// The quick suite (`koc_bench::harness::specs(QUICK_TRACE_LEN)`, in suite
/// order) under the two canonical engines (`koc_bench::harness::engines()`).
pub const PINNED: &[(&str, u64, u64, u64)] = &[
    // (workload, baseline cycles, cooo cycles, retired)
    ("stream_add", 47_328, 4_183, 8_004),
    ("stencil27", 61_382, 4_460, 8_100),
    ("dense_blocked", 57_208, 3_623, 8_140),
    ("reduction", 59_149, 5_608, 8_008),
    ("gather", 63_937, 4_516, 8_070),
    ("pointer_chase", 6_458_794, 6_458_795, 8_000),
    ("stream_mlp", 63_883, 3_933, 8_024),
];

/// Asserts that a run of `workload` under `engine` (`"baseline"` or
/// `"cooo"`), fed as `mode` says, took the pinned cycles and retired the
/// pinned instruction count.
#[track_caller]
pub fn assert_pinned(workload: &str, engine: &str, mode: &str, stats: &SimStats) {
    let &(_, baseline, cooo, retired) = PINNED
        .iter()
        .find(|(name, ..)| *name == workload)
        .unwrap_or_else(|| panic!("{workload} is not in the pinned quick suite"));
    let cycles = match engine {
        "baseline" => baseline,
        "cooo" => cooo,
        _ => panic!("no pinned cycles for engine '{engine}'"),
    };
    let measured = (stats.cycles, stats.committed_instructions);
    assert!(
        measured == (cycles, retired),
        "{workload}/{engine} ({mode}): measured (cycles, retired) = {measured:?}, \
         pinned ({cycles}, {retired}); if the timing change is intended, write the \
         measured pair into PINNED in tests/common/mod.rs"
    );
}
