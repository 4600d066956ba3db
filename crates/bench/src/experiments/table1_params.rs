//! Table 1 — architectural parameters of the simulated baseline.

use crate::Report;
use koc_mem::{CacheConfig, DL1, L2};
use koc_sim::config::{
    FETCH_WIDTH, FP_UNITS, INT_ALU_UNITS, INT_MUL_UNITS, LSQ_SIZE, MEM_PORTS, MISPREDICT_PENALTY,
};
use koc_sim::{CommitConfig, ProcessorConfig};

/// A cache's size, associativity and line, as Table 1 lists them.
fn geometry(c: &CacheConfig) -> String {
    format!(
        "{} KB {}-way, {}-byte lines",
        c.size_bytes / 1024,
        c.ways,
        c.line_bytes
    )
}

/// Prints the Table 1 parameters as encoded in
/// [`ProcessorConfig::table1`], the constants of [`koc_sim::config`] and
/// the cache constants of `koc_mem`, so a reader can diff them against the
/// paper.
pub fn run() -> Report {
    let c = ProcessorConfig::table1();
    let mut r = Report::new(
        "Table 1 — architectural parameters",
        &["parameter", "value"],
    );
    let rob = match c.commit {
        CommitConfig::InOrderRob { rob_size } => rob_size,
        CommitConfig::Checkpointed { .. } => 0,
    };
    let rows: Vec<(&str, String)> = vec![
        (
            "Simulation strategy",
            "trace-driven (execution-driven in the paper)".into(),
        ),
        ("Issue policy", "out-of-order".into()),
        ("Fetch/Commit width", format!("{FETCH_WIDTH} insns/cycle")),
        ("Branch predictor", "16K-entry gshare".into()),
        (
            "Branch predictor penalty",
            format!("{MISPREDICT_PENALTY} cycles"),
        ),
        ("I-L1 size", "not modelled: fetch is trace driven".into()),
        ("I-L1 latency", "not modelled: fetch is trace driven".into()),
        ("D-L1 size", geometry(&DL1)),
        ("D-L1 latency", format!("{} cycles", DL1.latency)),
        ("L2 size", geometry(&L2)),
        ("L2 latency", format!("{} cycles", L2.latency)),
        (
            "Memory latency",
            format!("{} cycles", c.memory.memory_latency),
        ),
        ("Memory ports", format!("{MEM_PORTS}")),
        ("Physical registers", format!("{} entries", c.phys_regs)),
        ("Load/Store queue", format!("{LSQ_SIZE} entries")),
        ("Integer queue", format!("{} entries", c.iq_size)),
        ("Floating point queue", format!("{} entries", c.iq_size)),
        ("Reorder buffer", format!("{rob} entries")),
        (
            "Integer general units",
            format!("{INT_ALU_UNITS} (lat/rep 1/1)"),
        ),
        (
            "Integer mult/div units",
            format!("{INT_MUL_UNITS} (lat/rep 3/1 and 20/20)"),
        ),
        ("FP functional units", format!("{FP_UNITS} (lat/rep 2/1)")),
    ];
    for (k, v) in rows {
        r.push_row(vec![k.to_string(), v]);
    }
    r.push_note("values are asserted against the paper in crates/sim/src/config.rs unit tests");
    r
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_lists_all_paper_parameters() {
        let r = run();
        assert_eq!(r.rows.len(), 21);
        let text = r.render();
        assert!(text.contains("1000 cycles"));
        assert!(text.contains("4096 entries"));
    }
}
