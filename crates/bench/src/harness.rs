//! The canonical quick suite: the workloads and the two machines that
//! `koc-bench stats`, `trace` and `timeline` select from, and that the
//! tier-1 tests sweep.
//!
//! Every cycle count of a (workload, machine) pair is a pure function of
//! (configuration, workload seed). `tests/common/mod.rs` pins the quick
//! suite's 14 (cycles, retired) pairs, and `cargo test` checks them in both
//! ingestion modes: that table is the repository's cycle gate. Host speed
//! is measured by the `perfbench/` benchmark; see `perfbench/README.md`.

use koc_sim::ProcessorConfig;
use koc_workloads::{Suite, WorkloadSpec};

/// Dynamic trace length of the quick suite: the length the pinned cycle
/// counts are taken at, and the default of `stats` and `timeline`.
pub const QUICK_TRACE_LEN: usize = 8_000;

/// The two canonical machines of the quick suite: the Table 1 in-order
/// baseline and the paper's headline checkpointed configuration, both at
/// 1000-cycle memory.
pub fn engines() -> [(&'static str, ProcessorConfig); 2] {
    [
        ("baseline", ProcessorConfig::baseline(128, 1000)),
        ("cooo", ProcessorConfig::cooo(128, 2048, 1000)),
    ]
}

/// The canonical workload list as lazy specs: the paper's five-kernel suite
/// plus the MLP-contrast pair (`pointer_chase` is the memory-bound case the
/// event-driven fast-forward exists for).
pub fn specs(trace_len: usize) -> Vec<WorkloadSpec> {
    let mut all = Suite::paper().specs(trace_len);
    all.extend(Suite::mlp_contrast().specs(trace_len));
    all
}

/// The canonical workload names, for [`resolve`]'s errors.
pub fn workload_names() -> Vec<String> {
    // The names do not depend on the trace length.
    specs(QUICK_TRACE_LEN)
        .iter()
        .map(|s| s.name().to_string())
        .collect()
}

/// Resolves a `(workload, engine)` selection against the canonical suite
/// and machines: `None` picks the suite's first workload.
///
/// # Errors
/// A message naming the unknown workload or engine and listing the
/// available ones.
pub fn resolve(
    workload: Option<&str>,
    engine: &str,
    trace_len: usize,
) -> Result<(WorkloadSpec, ProcessorConfig), String> {
    let mut specs = specs(trace_len).into_iter();
    let spec = match workload {
        None => specs.next(),
        Some(name) => specs.find(|s| s.name() == name),
    }
    .ok_or_else(|| {
        format!(
            "unknown workload '{}' (available: {})",
            workload.unwrap_or_default(),
            workload_names().join(", ")
        )
    })?;
    let engines = engines();
    let (_, config) = engines
        .iter()
        .find(|(name, _)| *name == engine)
        .ok_or_else(|| {
            let names: Vec<_> = engines.iter().map(|(name, _)| *name).collect();
            format!(
                "unknown engine '{engine}' (available: {})",
                names.join(", ")
            )
        })?;
    Ok((spec, *config))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unknown_engine_filter_lists_the_engines() {
        let err = resolve(None, "vliw", QUICK_TRACE_LEN).unwrap_err();
        assert!(err.contains("unknown engine 'vliw'"), "{err}");
        assert!(err.contains("baseline"), "{err}");
        assert!(err.contains("cooo"), "{err}");
        assert!(!err.contains("Some("), "{err}");
    }

    #[test]
    fn unknown_only_filter_lists_the_workloads() {
        let err = resolve(Some("swim"), "cooo", QUICK_TRACE_LEN).unwrap_err();
        assert!(err.contains("unknown workload 'swim'"), "{err}");
        assert!(err.contains("stream_add"), "{err}");
        assert!(err.contains("pointer_chase"), "{err}");
        assert!(!err.contains("Some("), "{err}");
    }
}
