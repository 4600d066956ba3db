//! The five SPEC2000fp-like kernels that form the evaluation suite.
//!
//! Each constructor returns a [`KernelConfig`] tuned to mimic the memory and
//! dependence behaviour of a family of SPEC2000fp benchmarks. The mapping is
//! documented per kernel. Synthetic kernels stand in for the SPEC2000fp
//! binaries the paper simulated, which are licensed and cannot be
//! redistributed; the paper's results depend on each benchmark's miss rate
//! and dependence structure, and those are what a kernel models.

use crate::config::{DependencePattern, KernelConfig, MemoryPattern};

/// `stream_add` — swim/mgrid-like unit-stride streaming.
///
/// `c[i] = a[i] + k * b[i]` over arrays far larger than L2. Iterations are
/// fully independent: performance is bound purely by memory latency and the
/// number of loop iterations the window can hold (the paper's motivating
/// case, Figure 1).
pub fn stream_add() -> KernelConfig {
    KernelConfig {
        iterations: 500,
        unroll: 16,
        loads_per_unit: 2,
        fp_per_load: 2,
        stores_per_unit: 1,
        memory: MemoryPattern::Streaming { stride_bytes: 8 },
        dependence: DependencePattern::Independent,
        irregular_branch_prob: 0.0,
        seed: 0xA11CE,
    }
}

/// `stencil27` — applu/mgrid-like stencil sweep.
///
/// Multiple loads per point with longer strides (planes of a 3-D grid), a
/// short intra-iteration FP chain and one store. Strided accesses defeat the
/// 32-byte L1 line, so most loads miss in L2.
pub fn stencil27() -> KernelConfig {
    KernelConfig {
        iterations: 350,
        unroll: 8,
        loads_per_unit: 4,
        fp_per_load: 2,
        stores_per_unit: 1,
        memory: MemoryPattern::Streaming { stride_bytes: 136 },
        dependence: DependencePattern::IntraIterationChain,
        irregular_branch_prob: 0.0,
        seed: 0x57E4C,
    }
}

/// `dense_blocked` — galgel-like cache-resident dense linear algebra.
///
/// Works on a 64 KB tile that lives in L2, with abundant independent FP work;
/// this is the suite's high-IPC member and keeps the average honest (not
/// every FP code is memory bound).
pub fn dense_blocked() -> KernelConfig {
    KernelConfig {
        iterations: 400,
        unroll: 24,
        loads_per_unit: 2,
        fp_per_load: 3,
        stores_per_unit: 1,
        memory: MemoryPattern::Blocked {
            tile_bytes: 64 * 1024,
        },
        dependence: DependencePattern::Independent,
        irregular_branch_prob: 0.0,
        seed: 0xDE45E,
    }
}

/// `reduction` — equake/lucas-like loop-carried reduction.
///
/// `s += a[i] * b[i]`: the accumulator chain serialises part of the FP work,
/// so extra in-flight instructions help less than in the streaming kernels —
/// the suite's low-ILP member.
pub fn reduction() -> KernelConfig {
    KernelConfig {
        iterations: 500,
        unroll: 12,
        loads_per_unit: 2,
        fp_per_load: 1,
        stores_per_unit: 0,
        memory: MemoryPattern::Streaming { stride_bytes: 8 },
        dependence: DependencePattern::LoopCarried,
        irregular_branch_prob: 0.0,
        seed: 0x4ED0C,
    }
}

/// `gather` — art-like irregular table lookups.
///
/// Pseudo-random gathers over a 64 MB table: essentially every access is an
/// L2 miss with no spatial locality, plus a sprinkle of data-dependent
/// branches. The hardest case for the memory system.
pub fn gather() -> KernelConfig {
    KernelConfig {
        iterations: 400,
        unroll: 10,
        loads_per_unit: 3,
        fp_per_load: 1,
        stores_per_unit: 1,
        memory: MemoryPattern::Gather {
            table_bytes: 64 * 1024 * 1024,
        },
        dependence: DependencePattern::Independent,
        irregular_branch_prob: 0.05,
        seed: 0x6A74E4,
    }
}

/// `pointer_chase` — linked-list traversal with MLP = 1.
///
/// Every load's address comes from the previous load's value, over a 64 MB
/// table: exactly one miss can be outstanding at a time, so neither a
/// kilo-instruction window nor extra MSHRs help. The control case for
/// memory-level-parallelism experiments (`mlp_sensitivity`).
pub fn pointer_chase() -> KernelConfig {
    KernelConfig {
        iterations: 400,
        unroll: 16,
        loads_per_unit: 1,
        fp_per_load: 0,
        stores_per_unit: 0,
        memory: MemoryPattern::Gather {
            table_bytes: 64 * 1024 * 1024,
        },
        dependence: DependencePattern::AddressChain,
        irregular_branch_prob: 0.0,
        seed: 0xC8A5E,
    }
}

/// `stream_mlp` — line-stride streaming with maximal MLP.
///
/// Independent loads striding one L2 line (64 bytes) per element: every
/// load is a fresh long-latency miss with no dependences between them, so
/// achievable MLP is bounded only by the window and the memory system
/// (MSHRs, banks). The contrast case to [`pointer_chase`].
pub fn stream_mlp() -> KernelConfig {
    KernelConfig {
        iterations: 400,
        unroll: 16,
        loads_per_unit: 2,
        fp_per_load: 1,
        stores_per_unit: 0,
        memory: MemoryPattern::Streaming { stride_bytes: 64 },
        dependence: DependencePattern::Independent,
        irregular_branch_prob: 0.0,
        seed: 0x51EA3,
    }
}

/// All kernel constructors with their suite names.
pub fn all() -> Vec<(&'static str, KernelConfig)> {
    vec![
        ("stream_add", stream_add()),
        ("stencil27", stencil27()),
        ("dense_blocked", dense_blocked()),
        ("reduction", reduction()),
        ("gather", gather()),
    ]
}

/// The MLP-contrast pair: a dependent pointer chase (MLP = 1) against an
/// independent streaming kernel (MLP bounded only by the machine).
pub fn mlp_contrast() -> Vec<(&'static str, KernelConfig)> {
    vec![
        ("pointer_chase", pointer_chase()),
        ("stream_mlp", stream_mlp()),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::synth::generate_kernel;
    use koc_isa::OpKind;

    #[test]
    fn every_kernel_config_is_valid() {
        for (name, c) in all().into_iter().chain(mlp_contrast()) {
            assert!(c.validate().is_ok(), "{name} invalid");
        }
    }

    #[test]
    fn kernels_have_distinct_seeds_and_patterns() {
        let kernels: Vec<_> = all().into_iter().chain(mlp_contrast()).collect();
        for (i, (_, a)) in kernels.iter().enumerate() {
            for (_, b) in &kernels[i + 1..] {
                assert_ne!(a.seed, b.seed);
            }
        }
    }

    #[test]
    fn pointer_chase_loads_form_an_address_chain() {
        let t = generate_kernel("pointer_chase", &pointer_chase().with_target_len(2_000));
        let loads: Vec<_> = t.iter().filter(|i| i.kind == OpKind::Load).collect();
        assert!(loads.len() > 10);
        for pair in loads.windows(2) {
            let prev_dest = pair[0].dest.expect("loads write a register");
            assert!(
                pair[1].sources().any(|s| s == prev_dest),
                "each load's address must come from the previous load"
            );
        }
    }

    #[test]
    fn stream_mlp_loads_are_independent_line_misses() {
        let t = generate_kernel("stream_mlp", &stream_mlp().with_target_len(2_000));
        let loads: Vec<_> = t.iter().filter(|i| i.kind == OpKind::Load).collect();
        // No load reads another load's destination: fully independent.
        let load_dests: Vec<_> = loads.iter().filter_map(|l| l.dest).collect();
        for l in &loads {
            for s in l.sources() {
                assert!(
                    !load_dests.contains(&s),
                    "streaming loads must not depend on loaded values"
                );
            }
        }
        // Each array's stream touches a fresh 64-byte line every element.
        let mut per_stream: std::collections::BTreeMap<u64, Vec<u64>> =
            std::collections::BTreeMap::new();
        for l in &loads {
            let addr = l.mem.unwrap().addr;
            per_stream.entry(addr >> 30).or_default().push(addr);
        }
        for addrs in per_stream.values() {
            for w in addrs.windows(2) {
                assert_eq!(w[1] - w[0], 64, "one L2 line per element");
            }
        }
    }

    #[test]
    fn streaming_kernels_have_long_basic_blocks() {
        // The checkpoint policy ("first branch after 64 instructions") relies
        // on FP basic blocks being long; verify the suite provides them.
        for (name, c) in [
            ("stream_add", stream_add()),
            ("dense_blocked", dense_blocked()),
        ] {
            let t = generate_kernel(name, &c.with_target_len(5_000));
            let branches = t.iter().filter(|i| i.is_branch()).count();
            let avg_block = t.len() / branches.max(1);
            assert!(avg_block >= 64, "{name}: average basic block {avg_block}");
        }
    }

    #[test]
    fn gather_kernel_is_branch_light_but_not_branch_free() {
        let t = generate_kernel("gather", &gather().with_target_len(20_000));
        let frac = t.mix().branch_fraction();
        assert!(frac > 0.0 && frac < 0.1, "branch fraction {frac}");
    }

    #[test]
    fn reduction_kernel_has_no_stores() {
        let t = generate_kernel("reduction", &reduction().with_target_len(5_000));
        assert_eq!(t.iter().filter(|i| i.kind == OpKind::Store).count(), 0);
    }

    #[test]
    fn dense_blocked_footprint_fits_in_l2() {
        let c = dense_blocked();
        match c.memory {
            MemoryPattern::Blocked { tile_bytes } => assert!(tile_bytes <= 512 * 1024),
            _ => panic!("dense_blocked must be blocked"),
        }
    }
}
