//! Memory-hierarchy configuration: what a run varies about Table 1's
//! memory system. The caches are the Table 1 constants [`DL1`] and [`L2`];
//! a run sets the main-memory latency, the perfect-L2 switch and the
//! backend (flat, or the one DRAM part with a chosen MSHR count).

use crate::cache::{DL1, L2};
use crate::dram::{DramConfig, WORST_PENALTY};

/// Which timed backend models main memory (everything beyond the L2).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum BackendKind {
    /// A flat `memory_latency` with unlimited outstanding misses — exactly
    /// the paper's model and the default.
    #[default]
    Flat,
    /// The banked DRAM part ([`crate::dram`]) with a finite MSHR file.
    Dram(DramConfig),
}

/// Configuration of the data memory hierarchy. Fetch reads the trace, so
/// there is no instruction cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemoryConfig {
    /// Main-memory latency in cycles (the paper sweeps 100 / 500 / 1000).
    /// With a DRAM backend this is the row-buffer-hit access time; row
    /// management adds on top.
    pub memory_latency: u32,
    /// When set, every L2 access hits (Figure 1's "L2 Perfect" bars).
    pub perfect_l2: bool,
    /// The timed backend modelling main memory.
    pub backend: BackendKind,
}

impl MemoryConfig {
    /// The Table 1 hierarchy with the given main-memory latency.
    pub fn table1(memory_latency: u32) -> Self {
        MemoryConfig {
            memory_latency,
            perfect_l2: false,
            backend: BackendKind::Flat,
        }
    }

    /// The Table 1 hierarchy with a perfect L2 (never misses).
    pub fn table1_perfect_l2() -> Self {
        MemoryConfig {
            perfect_l2: true,
            ..MemoryConfig::table1(0)
        }
    }

    /// Sets the main-memory latency (builder style).
    pub fn with_memory_latency(mut self, latency: u32) -> Self {
        self.memory_latency = latency;
        self
    }

    /// Switches to the banked DRAM backend with the given MSHR file.
    pub fn with_dram(mut self, dram: DramConfig) -> Self {
        self.backend = BackendKind::Dram(dram);
        self
    }

    /// The worst-case latency of a single data access under this
    /// configuration, excluding queueing behind other requests (used for
    /// deadlock bounds, not for timing).
    pub fn worst_case_latency(&self) -> u32 {
        if self.perfect_l2 {
            return DL1.latency + L2.latency;
        }
        let row_penalty = match self.backend {
            BackendKind::Flat => 0,
            BackendKind::Dram(_) => WORST_PENALTY,
        };
        DL1.latency + L2.latency + self.memory_latency + row_penalty
    }

    /// Validates internal consistency.
    ///
    /// # Errors
    /// Returns a description of the first inconsistency.
    pub fn validate(&self) -> Result<(), String> {
        match self.backend {
            BackendKind::Flat => Ok(()),
            BackendKind::Dram(d) => d.validate(),
        }
    }
}

impl Default for MemoryConfig {
    /// The paper's headline configuration: 1000-cycle main memory.
    fn default() -> Self {
        MemoryConfig::table1(1000)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dram::{ACT_LATENCY, BANK_BUSY, PRECHARGE_LATENCY};

    #[test]
    fn table1_matches_the_paper() {
        assert_eq!(DL1.size_bytes, 32 * 1024);
        assert_eq!(DL1.ways, 4);
        assert_eq!(DL1.line_bytes, 32);
        assert_eq!(DL1.latency, 2);
        assert_eq!(L2.size_bytes, 512 * 1024);
        assert_eq!(L2.ways, 4);
        assert_eq!(L2.line_bytes, 64);
        assert_eq!(L2.latency, 10);
        assert!(DL1.validate().is_ok() && L2.validate().is_ok());
        let m = MemoryConfig::table1(1000);
        assert_eq!(m.memory_latency, 1000);
        assert!(!m.perfect_l2);
    }

    #[test]
    fn perfect_l2_has_no_memory_component() {
        let m = MemoryConfig::table1_perfect_l2();
        assert!(m.perfect_l2);
        assert_eq!(m.worst_case_latency(), 12);
    }

    #[test]
    fn default_is_the_1000_cycle_machine() {
        assert_eq!(MemoryConfig::default(), MemoryConfig::table1(1000));
    }

    #[test]
    fn with_memory_latency_overrides() {
        let m = MemoryConfig::table1(1000).with_memory_latency(500);
        assert_eq!(m.memory_latency, 500);
        assert_eq!(m.worst_case_latency(), 512);
    }

    #[test]
    fn backend_defaults_to_flat() {
        let m = MemoryConfig::table1(1000);
        assert_eq!(m.backend, BackendKind::Flat);
        assert!(m.validate().is_ok());
    }

    #[test]
    fn dram_worst_case_includes_row_penalties() {
        let flat = MemoryConfig::table1(1000);
        let dram = flat.with_dram(DramConfig { mshr_entries: 16 });
        assert_eq!(
            dram.worst_case_latency(),
            flat.worst_case_latency() + ACT_LATENCY + PRECHARGE_LATENCY + BANK_BUSY
        );
    }

    #[test]
    fn invalid_backend_configs_are_rejected() {
        let m = MemoryConfig::table1(100).with_dram(DramConfig { mshr_entries: 4 });
        assert!(m.validate().is_ok());
        let bad = MemoryConfig::table1(100).with_dram(DramConfig { mshr_entries: 0 });
        assert_eq!(
            bad.validate(),
            Err("DRAM backend needs at least one MSHR".into())
        );
    }
}
