//! Parameters describing a synthetic loop-nest kernel.

/// The memory-access pattern of a kernel's loop body.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum MemoryPattern {
    /// Unit-stride streaming over arrays much larger than L2 (swim/mgrid
    /// style). Spatial locality within a cache line, no temporal reuse.
    Streaming {
        /// Distance in bytes between consecutive elements (8 = dense doubles).
        stride_bytes: u64,
    },
    /// Blocked access that fits in the L1/L2 (galgel-style dense linear
    /// algebra working on cache-resident tiles).
    Blocked {
        /// Size of the resident tile in bytes.
        tile_bytes: u64,
    },
    /// Pseudo-random gathers over a large table (art/equake-style irregular
    /// accesses). Essentially every access misses in L2.
    Gather {
        /// Size of the table being gathered from, in bytes.
        table_bytes: u64,
    },
}

/// The dependence structure between the floating-point operations of one
/// loop iteration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DependencePattern {
    /// Each FP operation depends only on loaded values: iterations are fully
    /// independent and ILP is bounded by the window, not by dependences.
    Independent,
    /// FP operations form a chain within the iteration (depth = `fp_per_load`)
    /// but iterations are independent of each other.
    IntraIterationChain,
    /// A loop-carried reduction: every iteration depends on the previous one
    /// through an accumulator register.
    LoopCarried,
    /// A pointer chase: every load's *address* depends on the previous
    /// load's value, so at most one memory access is outstanding at a time
    /// (MLP = 1) no matter how large the instruction window is.
    AddressChain,
}

/// Full description of a synthetic kernel.
///
/// A kernel is a two-level loop nest: `iterations` executions of a body that
/// contains `unroll` copies of a basic unit; each unit performs
/// `loads_per_unit` loads, `fp_per_load * loads_per_unit` floating-point
/// operations and `stores_per_unit` stores. One conditional back-edge branch
/// terminates the body, and optionally a small number of data-dependent
/// inner branches model the (rare) unpredictable control flow of FP codes.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct KernelConfig {
    /// Number of outer-loop iterations (bodies) to emit.
    pub iterations: usize,
    /// Unroll factor: copies of the basic unit per body (controls basic-block
    /// length, and therefore checkpoint spacing under the paper's policy).
    pub unroll: usize,
    /// Loads per unrolled unit.
    pub loads_per_unit: usize,
    /// FP operations per load.
    pub fp_per_load: usize,
    /// Stores per unrolled unit.
    pub stores_per_unit: usize,
    /// Memory-access pattern.
    pub memory: MemoryPattern,
    /// Dependence structure.
    pub dependence: DependencePattern,
    /// Probability that a body contains an extra, poorly-predictable
    /// conditional branch (0.0 for pure loop code).
    pub irregular_branch_prob: f64,
    /// RNG seed for address jitter and irregular branches.
    pub seed: u64,
}

impl KernelConfig {
    /// Approximate number of dynamic instructions this configuration emits.
    pub fn approx_len(&self) -> usize {
        let per_unit = self.loads_per_unit * (1 + self.fp_per_load) + self.stores_per_unit;
        self.iterations * (self.unroll * per_unit + 4)
    }

    /// Scales `iterations` so the kernel emits at least `target` dynamic
    /// instructions.
    pub fn with_target_len(mut self, target: usize) -> Self {
        let per_iter = self.approx_len() / self.iterations.max(1);
        self.iterations = target.div_ceil(per_iter.max(1)).max(1);
        self
    }

    /// Validates the configuration.
    ///
    /// # Errors
    /// Returns a description of the first inconsistency found.
    pub fn validate(&self) -> Result<(), String> {
        if self.iterations == 0 {
            return Err("iterations must be non-zero".to_string());
        }
        if self.unroll == 0 {
            return Err("unroll must be non-zero".to_string());
        }
        if self.loads_per_unit == 0 {
            return Err("loads_per_unit must be non-zero".to_string());
        }
        if !(0.0..=1.0).contains(&self.irregular_branch_prob) {
            return Err(format!(
                "irregular_branch_prob must be a probability, got {}",
                self.irregular_branch_prob
            ));
        }
        Ok(())
    }
}

impl Default for KernelConfig {
    /// A swim-like streaming kernel of roughly 50k instructions.
    fn default() -> Self {
        KernelConfig {
            iterations: 400,
            unroll: 16,
            loads_per_unit: 2,
            fp_per_load: 2,
            stores_per_unit: 1,
            memory: MemoryPattern::Streaming { stride_bytes: 8 },
            dependence: DependencePattern::Independent,
            irregular_branch_prob: 0.0,
            seed: 0x5eed,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_config_is_valid() {
        assert!(KernelConfig::default().validate().is_ok());
    }

    #[test]
    fn zero_iterations_is_rejected() {
        let c = KernelConfig {
            iterations: 0,
            ..Default::default()
        };
        assert!(c.validate().is_err());
    }

    #[test]
    fn bad_probability_is_rejected() {
        let c = KernelConfig {
            irregular_branch_prob: 1.5,
            ..Default::default()
        };
        assert!(c.validate().is_err());
    }

    #[test]
    fn with_target_len_reaches_the_target() {
        let c = KernelConfig::default().with_target_len(200_000);
        assert!(c.approx_len() >= 200_000);
        let small = KernelConfig::default().with_target_len(100);
        assert!(small.iterations >= 1);
    }

    #[test]
    fn approx_len_counts_body_instructions() {
        let c = KernelConfig {
            iterations: 10,
            unroll: 2,
            loads_per_unit: 2,
            fp_per_load: 1,
            stores_per_unit: 1,
            ..Default::default()
        };
        // per unit: 2 loads + 2 fp + 1 store = 5; body = 10 + 4 loop overhead
        assert_eq!(c.approx_len(), 10 * (2 * 5 + 4));
    }
}
