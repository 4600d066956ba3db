//! The generic loop-nest workload generator.
//!
//! Every kernel in [`crate::kernels`] is an instance of the same template: a
//! loop whose body is an unrolled sequence of *units* (loads, dependent FP
//! operations, stores), terminated by a highly-predictable back-edge branch.
//! The [`KernelConfig`] controls the memory pattern, dependence structure and
//! basic-block length.
//!
//! Generation is **streaming**: [`KernelSource`] implements
//! [`InstructionSource`] and emits the dynamic instruction stream one loop
//! body at a time, so a billion-instruction workload costs O(loop body)
//! memory. [`generate_kernel`] materializes the same stream into a [`Trace`]
//! for callers that want one — the two are identical instruction for
//! instruction, because they *are* the same generator.

use crate::config::{DependencePattern, KernelConfig, MemoryPattern};
use koc_isa::{ArchReg, Instruction, InstructionSource, Trace};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use std::collections::VecDeque;

/// Register-allocation conventions used by the generator.
///
/// * `R1` — induction variable / primary address base (loop-carried chain of
///   1-cycle adds, as in real compiled loops),
/// * `R2`–`R5` — secondary address bases, rewritten every iteration,
/// * `F0`–`F27` — rotating pool for loaded values and FP temporaries,
/// * `F28`–`F31` — accumulators for loop-carried reductions.
#[derive(Debug, Clone)]
struct RegPool {
    next_fp: u8,
}

impl RegPool {
    fn new() -> Self {
        RegPool { next_fp: 0 }
    }

    /// Next temporary FP register from the rotating pool (F0–F27).
    fn next(&mut self) -> ArchReg {
        let r = ArchReg::fp(self.next_fp);
        self.next_fp = (self.next_fp + 1) % 28;
        r
    }
}

/// A streaming kernel generator: the dynamic instruction stream described by
/// a [`KernelConfig`], produced lazily one loop iteration at a time.
///
/// Deterministic for a given configuration (including its `seed`), which
/// keeps every experiment reproducible — and bit-identical to what
/// [`generate_kernel`] materializes, since both run this generator.
#[derive(Debug, Clone)]
pub struct KernelSource {
    name: String,
    config: KernelConfig,
    rng: StdRng,
    pool: RegPool,
    /// Program counter of the next emitted instruction (advances by 4).
    pc: u64,
    /// Element cursor per array stream, advanced across the whole run.
    element: u64,
    /// For AddressChain kernels: the register holding the pointer loaded by
    /// the previous link (the next load's address base).
    chain_ptr: Option<ArchReg>,
    /// Outer-loop iterations already emitted into `buf`.
    iter: usize,
    /// Instructions of the current loop body not yet delivered.
    buf: VecDeque<Instruction>,
    /// Scratch: destinations of the current unroll unit's loads, reused
    /// across bodies (body emission runs inside the fetch stage).
    loaded: Vec<ArchReg>,
}

impl KernelSource {
    /// A streaming source for the kernel described by `config`.
    ///
    /// # Panics
    /// Panics if `config.validate()` fails; experiment code constructs
    /// configs from the vetted constructors in [`crate::kernels`].
    pub fn new(name: impl Into<String>, config: KernelConfig) -> Self {
        #[expect(
            clippy::panic,
            reason = "invalid kernel configuration is a caller bug; validate() names the field"
        )]
        config
            .validate()
            .unwrap_or_else(|e| panic!("invalid kernel configuration: {e}"));
        KernelSource {
            name: name.into(),
            rng: StdRng::seed_from_u64(config.seed),
            config,
            pool: RegPool::new(),
            pc: 0,
            element: 0,
            chain_ptr: None,
            iter: 0,
            buf: VecDeque::new(),
            loaded: Vec::new(),
        }
    }

    /// The kernel configuration this source generates from.
    pub fn config(&self) -> &KernelConfig {
        &self.config
    }

    /// Emits one whole loop body (the next outer iteration) into `buf`.
    fn emit_body(&mut self) {
        let config = &self.config;
        let last_iteration = self.iter + 1 == config.iterations;

        let induction = ArchReg::int(1);
        let addr_base = ArchReg::int(2);
        let cond = ArchReg::int(3);
        let accumulators = [
            ArchReg::fp(28),
            ArchReg::fp(29),
            ArchReg::fp(30),
            ArchReg::fp(31),
        ];

        let raw = |pc: &mut u64, buf: &mut VecDeque<Instruction>, mut inst: Instruction| {
            inst.pc = *pc;
            *pc += 4;
            buf.push_back(inst);
        };
        let pc = &mut self.pc;
        let buf = &mut self.buf;
        let loaded = &mut self.loaded;

        // Induction-variable update: a short loop-carried integer chain.
        raw(
            pc,
            buf,
            Instruction::op(0, koc_isa::OpKind::IntAlu, Some(induction), &[induction]),
        );
        raw(
            pc,
            buf,
            Instruction::op(0, koc_isa::OpKind::IntAlu, Some(addr_base), &[induction]),
        );

        for _unit in 0..config.unroll {
            loaded.clear();
            for l in 0..config.loads_per_unit {
                let addr = unit_address(config, &mut self.rng, l as u64, self.element);
                let dest = self.pool.next();
                let base = match config.dependence {
                    // Each link's address comes from the previous load.
                    DependencePattern::AddressChain => self.chain_ptr.unwrap_or(addr_base),
                    _ => addr_base,
                };
                raw(pc, buf, Instruction::load(0, dest, base, addr));
                self.chain_ptr = Some(dest);
                loaded.push(dest);
            }

            // FP work consuming the loaded values.
            let mut chain_prev: Option<ArchReg> = None;
            let mut last_result = loaded[0];
            for f in 0..(config.fp_per_load * config.loads_per_unit) {
                let dest = self.pool.next();
                let src_a = loaded[f % loaded.len()];
                let src_b = match config.dependence {
                    DependencePattern::Independent | DependencePattern::AddressChain => {
                        loaded[(f + 1) % loaded.len()]
                    }
                    DependencePattern::IntraIterationChain => chain_prev.unwrap_or(src_a),
                    DependencePattern::LoopCarried => accumulators[f % accumulators.len()],
                };
                match config.dependence {
                    DependencePattern::LoopCarried => {
                        // acc = acc + loaded: the destination *is* the accumulator,
                        // creating a cross-iteration chain.
                        let acc = accumulators[f % accumulators.len()];
                        raw(
                            pc,
                            buf,
                            Instruction::op(0, koc_isa::OpKind::FpAlu, Some(acc), &[src_a, acc]),
                        );
                        last_result = acc;
                    }
                    _ => {
                        raw(
                            pc,
                            buf,
                            Instruction::op(0, koc_isa::OpKind::FpAlu, Some(dest), &[src_a, src_b]),
                        );
                        chain_prev = Some(dest);
                        last_result = dest;
                    }
                }
            }

            for s in 0..config.stores_per_unit {
                let addr = unit_address(
                    config,
                    &mut self.rng,
                    (config.loads_per_unit + s) as u64,
                    self.element,
                );
                raw(pc, buf, Instruction::store(0, last_result, addr_base, addr));
            }
            self.element += 1;
        }

        // Occasional poorly-predictable branch inside the body (rare in FP codes).
        if config.irregular_branch_prob > 0.0 && self.rng.random_bool(config.irregular_branch_prob)
        {
            let taken = self.rng.random_bool(0.5);
            let target = *pc + 32;
            raw(pc, buf, Instruction::branch(0, cond, taken, target));
        }

        // Back-edge: taken on every iteration but the last.
        raw(
            pc,
            buf,
            Instruction::op(0, koc_isa::OpKind::IntAlu, Some(cond), &[induction]),
        );
        let target = pc.saturating_sub(64);
        raw(
            pc,
            buf,
            Instruction::branch(0, cond, !last_iteration, target),
        );

        self.iter += 1;
    }
}

impl InstructionSource for KernelSource {
    fn name(&self) -> &str {
        &self.name
    }

    fn next_inst(&mut self) -> Option<Instruction> {
        while self.buf.is_empty() {
            if self.iter >= self.config.iterations {
                return None;
            }
            self.emit_body();
        }
        self.buf.pop_front()
    }

    fn len_hint(&self) -> Option<usize> {
        // `approx_len` counts exactly what `emit_body` emits; it is only
        // "approximate" when randomly-placed irregular branches perturb the
        // per-body count, in which case no hint is given.
        if self.config.irregular_branch_prob > 0.0 {
            return None;
        }
        Some(self.config.approx_len())
    }
}

/// Generates the full dynamic trace of a kernel described by `config` —
/// [`KernelSource`] run to completion and materialized.
///
/// # Panics
/// Panics if `config.validate()` fails.
pub fn generate_kernel(name: &str, config: &KernelConfig) -> Trace {
    let mut source = KernelSource::new(name, *config);
    let mut trace = Trace::new(name);
    while let Some(inst) = source.next_inst() {
        trace.push(inst);
    }
    trace
}

/// Computes the byte address of the `slot`-th memory stream for the current
/// `element`, according to the kernel's memory pattern.
fn unit_address(config: &KernelConfig, rng: &mut StdRng, slot: u64, element: u64) -> u64 {
    const ARRAY_SPACING: u64 = 1 << 30;
    let base = 0x1000_0000 + slot * ARRAY_SPACING;
    match config.memory {
        MemoryPattern::Streaming { stride_bytes } => base + element * stride_bytes,
        MemoryPattern::Blocked { tile_bytes } => {
            // Walk within a resident tile; wrap around so the footprint stays bounded.
            base + (element * 8) % tile_bytes.max(8)
        }
        MemoryPattern::Gather { table_bytes } => {
            let idx = rng.random_range(0..table_bytes.max(8) / 8);
            base + idx * 8
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use koc_isa::OpKind;

    fn small(config: KernelConfig) -> Trace {
        generate_kernel("test", &config)
    }

    #[test]
    fn generated_length_matches_estimate() {
        let c = KernelConfig::default();
        let t = small(c);
        let est = c.approx_len();
        let err = (t.len() as f64 - est as f64).abs() / est as f64;
        assert!(err < 0.25, "len {} vs estimate {}", t.len(), est);
    }

    #[test]
    fn generation_is_deterministic() {
        let c = KernelConfig {
            iterations: 20,
            ..Default::default()
        };
        assert_eq!(small(c), small(c));
    }

    #[test]
    fn streaming_source_matches_the_materialized_trace() {
        for config in [
            KernelConfig {
                iterations: 30,
                ..Default::default()
            },
            crate::kernels::gather().with_target_len(3_000),
            crate::kernels::pointer_chase().with_target_len(2_000),
            crate::kernels::reduction().with_target_len(2_000),
        ] {
            let trace = generate_kernel("k", &config);
            let mut source = KernelSource::new("k", config);
            if let Some(hint) = source.len_hint() {
                assert_eq!(hint, trace.len(), "len_hint must be exact when given");
            }
            for id in 0..trace.len() {
                assert_eq!(source.next_inst().as_ref(), Some(&trace[id]), "inst {id}");
            }
            assert_eq!(source.next_inst(), None, "same end of stream");
        }
    }

    #[test]
    fn streaming_source_buffers_at_most_one_body() {
        let c = KernelConfig {
            iterations: 1_000,
            ..Default::default()
        };
        let per_body = c.approx_len() / c.iterations;
        let mut s = KernelSource::new("k", c);
        let mut emitted = 0usize;
        while s.next_inst().is_some() {
            emitted += 1;
            assert!(
                s.buf.len() < per_body * 2,
                "buffer holds bodies, not the stream: {} at {emitted}",
                s.buf.len()
            );
        }
        assert!(emitted >= c.approx_len() * 3 / 4);
    }

    #[test]
    fn different_seeds_differ_for_gather_kernels() {
        let base = KernelConfig {
            iterations: 20,
            memory: MemoryPattern::Gather {
                table_bytes: 1 << 24,
            },
            ..Default::default()
        };
        let a = small(KernelConfig { seed: 1, ..base });
        let b = small(KernelConfig { seed: 2, ..base });
        assert_ne!(a, b);
    }

    #[test]
    fn back_edges_are_taken_except_the_last() {
        let c = KernelConfig {
            iterations: 5,
            unroll: 2,
            irregular_branch_prob: 0.0,
            ..Default::default()
        };
        let t = small(c);
        let branches: Vec<_> = t.iter().filter(|i| i.is_branch()).collect();
        assert_eq!(branches.len(), 5);
        for b in &branches[..4] {
            assert!(b.branch.unwrap().taken);
        }
        assert!(!branches[4].branch.unwrap().taken);
    }

    #[test]
    fn streaming_addresses_advance_by_stride() {
        let c = KernelConfig {
            iterations: 2,
            unroll: 4,
            loads_per_unit: 1,
            stores_per_unit: 0,
            memory: MemoryPattern::Streaming { stride_bytes: 64 },
            ..Default::default()
        };
        let t = small(c);
        let addrs: Vec<u64> = t
            .iter()
            .filter(|i| i.kind == OpKind::Load)
            .map(|i| i.mem.unwrap().addr)
            .collect();
        for w in addrs.windows(2) {
            assert_eq!(w[1] - w[0], 64);
        }
    }

    #[test]
    fn blocked_addresses_stay_within_the_tile() {
        let tile = 4096;
        let c = KernelConfig {
            iterations: 50,
            memory: MemoryPattern::Blocked { tile_bytes: tile },
            ..Default::default()
        };
        let t = small(c);
        for i in t.iter().filter(|i| i.kind.is_memory()) {
            let a = i.mem.unwrap().addr;
            let offset = (a - 0x1000_0000) % (1 << 30);
            assert!(offset < tile, "address {a:#x} outside tile");
        }
    }

    #[test]
    fn loop_carried_kernels_write_accumulators() {
        let c = KernelConfig {
            iterations: 4,
            dependence: DependencePattern::LoopCarried,
            ..Default::default()
        };
        let t = small(c);
        let acc_writes = t
            .iter()
            .filter(|i| {
                i.kind == OpKind::FpAlu
                    && i.dest
                        .map(|d| d.number() >= 28 && d.class() == koc_isa::RegClass::Fp)
                        .unwrap_or(false)
            })
            .count();
        assert!(acc_writes > 0);
    }

    #[test]
    #[should_panic(expected = "invalid kernel configuration")]
    fn invalid_config_panics() {
        let c = KernelConfig {
            iterations: 0,
            ..Default::default()
        };
        let _ = small(c);
    }

    #[test]
    fn mix_is_fp_dominated() {
        let t = small(KernelConfig::default());
        let mix = t.mix();
        assert!(mix.fp_ops > mix.int_ops, "{mix:?}");
        assert!(mix.load_fraction() > 0.1, "{mix:?}");
        assert!(mix.branch_fraction() < 0.1, "{mix:?}");
    }
}
