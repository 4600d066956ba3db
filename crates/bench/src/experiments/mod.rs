//! One module per table/figure of the paper's evaluation section.
//!
//! Every module exposes `run(trace_len) -> Report`; the report's rows mirror
//! the bars/lines of the corresponding figure. README "Experiments vs paper
//! figures" maps each experiment to its figure and what it reproduces.

pub mod ablation;
pub mod fig01_inflight;
pub mod fig07_live;
pub mod fig09_main;
pub mod fig10_reinsert;
pub mod fig11_inflight;
pub mod fig12_breakdown;
pub mod fig13_checkpoints;
pub mod fig14_combined;
pub mod mlp_sensitivity;
pub mod table1_params;

use crate::Report;

/// Names of all experiments, in paper order, plus the extra ablation study
/// and the memory-backend MLP-sensitivity sweep.
pub const ALL: &[&str] = &[
    "table1",
    "fig1",
    "fig7",
    "fig9",
    "fig10",
    "fig11",
    "fig12",
    "fig13",
    "fig14",
    "ablation",
    "mlp_sensitivity",
];

/// Runs one experiment by name.
///
/// # Errors
/// Returns an error string if the name is unknown.
pub fn run_by_name(name: &str, trace_len: usize) -> Result<Report, String> {
    match name {
        "table1" => Ok(table1_params::run()),
        "fig1" => Ok(fig01_inflight::run(trace_len)),
        "fig7" => Ok(fig07_live::run(trace_len)),
        "fig9" => Ok(fig09_main::run(trace_len)),
        "fig10" => Ok(fig10_reinsert::run(trace_len)),
        "fig11" => Ok(fig11_inflight::run(trace_len)),
        "fig12" => Ok(fig12_breakdown::run(trace_len)),
        "fig13" => Ok(fig13_checkpoints::run(trace_len)),
        "fig14" => Ok(fig14_combined::run(trace_len)),
        "ablation" => Ok(ablation::run(trace_len)),
        "mlp_sensitivity" => Ok(mlp_sensitivity::run(trace_len)),
        other => Err(format!(
            "unknown experiment '{other}'; expected one of {ALL:?}"
        )),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unknown_experiment_is_rejected() {
        assert!(run_by_name("fig99", 100).is_err());
    }

    #[test]
    fn table1_runs_without_simulation() {
        let r = run_by_name("table1", 0).unwrap();
        assert!(!r.rows.is_empty());
    }
}
