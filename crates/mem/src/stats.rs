//! Memory-hierarchy statistics counters.

/// Counters accumulated by a [`MemoryHierarchy`](crate::MemoryHierarchy).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MemoryStats {
    /// Total data-side accesses (loads + stores).
    pub data_accesses: u64,
    /// Data-side accesses that were stores.
    pub store_accesses: u64,
    /// Data L1 hits.
    pub dl1_hits: u64,
    /// Data L1 misses.
    pub dl1_misses: u64,
    /// L2 hits (data side).
    pub l2_hits: u64,
    /// L2 misses (data side) — long-latency accesses.
    pub l2_misses: u64,
    /// Cycles demand misses spent waiting for a free MSHR (each waiting
    /// request counts one per cycle; always 0 for the flat backend).
    pub mshr_full_stalls: u64,
    /// Main-memory accesses that hit an open DRAM row buffer.
    pub row_buffer_hits: u64,
    /// Main-memory accesses that opened a row in a precharged bank.
    pub row_buffer_misses: u64,
    /// Main-memory accesses that had to close a conflicting open row.
    pub row_buffer_conflicts: u64,
}

impl MemoryStats {
    /// L2 miss ratio relative to L2 accesses.
    pub fn l2_miss_ratio(&self) -> f64 {
        ratio(self.l2_misses, self.l2_hits + self.l2_misses)
    }

    /// Fraction of DRAM accesses that hit the open row buffer (0 when the
    /// flat backend is in use).
    pub fn row_buffer_hit_ratio(&self) -> f64 {
        ratio(
            self.row_buffer_hits,
            self.row_buffer_hits + self.row_buffer_misses + self.row_buffer_conflicts,
        )
    }
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ratios_are_zero_without_accesses() {
        let s = MemoryStats::default();
        assert_eq!(s.l2_miss_ratio(), 0.0);
    }

    #[test]
    fn ratios_compute_fractions() {
        let s = MemoryStats {
            data_accesses: 100,
            dl1_hits: 80,
            dl1_misses: 20,
            l2_hits: 10,
            l2_misses: 10,
            ..Default::default()
        };
        assert!((s.l2_miss_ratio() - 0.5).abs() < 1e-12);
    }
}
