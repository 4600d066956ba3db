//! Memory-hierarchy configuration (Table 1 plus the perfect-L2 variant),
//! including the timed-backend knobs.

use crate::cache::CacheConfig;
use crate::dram::DramConfig;

/// Which timed backend models main memory (everything beyond the L2).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum BackendKind {
    /// A flat `memory_latency` with unlimited outstanding misses — exactly
    /// the paper's model and the default.
    #[default]
    Flat,
    /// Banked DRAM with row buffers and a finite MSHR file.
    Dram(DramConfig),
}

impl BackendKind {
    /// The DRAM configuration, defaulting when the backend is flat (used by
    /// builder knobs that upgrade a flat backend to DRAM).
    pub fn dram_or_default(self) -> DramConfig {
        match self {
            BackendKind::Flat => DramConfig::default(),
            BackendKind::Dram(d) => d,
        }
    }
}

/// Configuration of the data memory hierarchy. Fetch reads the trace, so
/// there is no instruction cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemoryConfig {
    /// Data L1 cache.
    pub dl1: CacheConfig,
    /// Unified L2 cache.
    pub l2: CacheConfig,
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
            dl1: CacheConfig::table1_l1(),
            l2: CacheConfig::table1_l2(),
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

    /// Selects the timed memory backend (builder style).
    pub fn with_backend(mut self, backend: BackendKind) -> Self {
        self.backend = backend;
        self
    }

    /// Switches to the banked DRAM backend with the given configuration.
    pub fn with_dram(self, dram: DramConfig) -> Self {
        self.with_backend(BackendKind::Dram(dram))
    }

    /// Sets the MSHR count, upgrading a flat backend to the default DRAM
    /// part first.
    pub fn with_mshr_entries(mut self, entries: usize) -> Self {
        self.backend = BackendKind::Dram(self.backend.dram_or_default().with_mshr_entries(entries));
        self
    }

    /// Sets the DRAM bank count, upgrading a flat backend to the default
    /// DRAM part first.
    pub fn with_dram_banks(mut self, banks: usize) -> Self {
        self.backend = BackendKind::Dram(self.backend.dram_or_default().with_banks(banks));
        self
    }

    /// Sets the per-bank row-buffer size, upgrading a flat backend to the
    /// default DRAM part first.
    pub fn with_row_buffer(mut self, bytes: u64) -> Self {
        self.backend = BackendKind::Dram(self.backend.dram_or_default().with_row_bytes(bytes));
        self
    }

    /// The worst-case latency of a single data access under this
    /// configuration, excluding queueing behind other requests (used for
    /// deadlock bounds, not for timing).
    pub fn worst_case_latency(&self) -> u32 {
        if self.perfect_l2 {
            return self.dl1.latency + self.l2.latency;
        }
        let row_penalty = match self.backend {
            BackendKind::Flat => 0,
            BackendKind::Dram(d) => d.worst_row_penalty() + d.bank_busy,
        };
        self.dl1.latency + self.l2.latency + self.memory_latency + row_penalty
    }

    /// Validates internal consistency.
    ///
    /// # Errors
    /// Returns a description of the first inconsistency.
    pub fn validate(&self) -> Result<(), String> {
        self.dl1.validate().map_err(|e| format!("DL1: {e}"))?;
        self.l2.validate().map_err(|e| format!("L2: {e}"))?;
        if let BackendKind::Dram(d) = self.backend {
            d.validate()?;
        }
        Ok(())
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

    #[test]
    fn table1_matches_the_paper() {
        let m = MemoryConfig::table1(1000);
        assert_eq!(m.dl1.size_bytes, 32 * 1024);
        assert_eq!(m.dl1.ways, 4);
        assert_eq!(m.dl1.line_bytes, 32);
        assert_eq!(m.dl1.latency, 2);
        assert_eq!(m.l2.size_bytes, 512 * 1024);
        assert_eq!(m.l2.line_bytes, 64);
        assert_eq!(m.l2.latency, 10);
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
    fn mshr_knob_upgrades_a_flat_backend_to_dram() {
        let m = MemoryConfig::table1(1000).with_mshr_entries(4);
        match m.backend {
            BackendKind::Dram(d) => {
                assert_eq!(d.mshr_entries, 4);
                assert_eq!(d.banks, DramConfig::table1_like().banks);
            }
            BackendKind::Flat => panic!("expected a DRAM backend"),
        }
        // Later knobs refine the same DRAM config instead of resetting it.
        let m = m.with_dram_banks(2).with_row_buffer(8192);
        match m.backend {
            BackendKind::Dram(d) => {
                assert_eq!((d.mshr_entries, d.banks, d.row_bytes), (4, 2, 8192));
            }
            BackendKind::Flat => unreachable!(),
        }
    }

    #[test]
    fn dram_worst_case_includes_row_penalties() {
        let flat = MemoryConfig::table1(1000);
        let dram = flat.with_dram(DramConfig::table1_like());
        let d = DramConfig::table1_like();
        assert_eq!(
            dram.worst_case_latency(),
            flat.worst_case_latency() + d.act_latency + d.precharge_latency + d.bank_busy
        );
    }

    #[test]
    fn invalid_backend_configs_are_rejected() {
        let m = MemoryConfig::table1(100).with_mshr_entries(4);
        assert!(m.validate().is_ok());
        let bad = MemoryConfig::table1(100).with_dram(DramConfig {
            banks: 0,
            ..DramConfig::table1_like()
        });
        assert!(bad.validate().is_err());
    }

    #[test]
    fn invalid_cache_geometry_is_rejected() {
        let mut m = MemoryConfig::table1(100);
        m.dl1.ways = 0;
        assert_eq!(
            m.validate(),
            Err("DL1: cache geometry must be non-zero".into())
        );
        let mut m = MemoryConfig::table1(100);
        m.l2.line_bytes = 48;
        assert_eq!(
            m.validate(),
            Err("L2: line size must be a power of two".into())
        );
        let mut m = MemoryConfig::table1(100);
        m.dl1.size_bytes = 1000;
        assert_eq!(
            m.validate(),
            Err("DL1: capacity must be a whole number of sets".into())
        );
    }
}
