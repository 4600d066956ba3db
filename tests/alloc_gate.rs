//! Allocation gate for the whole simulator. The simulator sizes its per-run
//! structures at construction, so a run's steady state should allocate
//! only when the checkpointed engine takes a checkpoint or recovers (rename
//! snapshots), never per cycle, per instruction or per memory request.
//!
//! This is the check behind "steady-state simulation does not allocate": a
//! counting global allocator sees every allocation however it is spelled,
//! in every crate the run reaches. It covers both commit engines, the flat
//! and DRAM memory backends, the no-op and cycle-accounting observers, the
//! virtual register model, exception recovery and the `&Trace` source.
//!
//! The counting allocator is process-wide, so this binary holds exactly
//! one test: no other test can run beside it and pollute the count.

use koc_bench::experiments::mlp_sensitivity;
use koc_bench::harness::{engines, specs, QUICK_TRACE_LEN};
use koc_isa::{ArchReg, Trace, TraceBuilder};
use koc_sim::{
    CycleAccounting, IntoInstructionSource, NullObserver, Observer, Processor, ProcessorConfig,
    RegisterModel, SimStats,
};
use stats_alloc::{Region, StatsAlloc};
use std::alloc::System;

#[global_allocator]
static GLOBAL: StatsAlloc<System> = StatsAlloc::system();

/// Allocations any run may make whatever its length: first-touch growth of
/// queues that are sized lazily (DRAM bank queues, the completion heap,
/// observer buffers). The baseline runs measure 15 to 59.
const PER_RUN: u64 = 128;
/// Allocations per checkpoint taken or recovery made (rename snapshots,
/// the handled-exception set). The cooo runs measure 7.7 to 14.9 per
/// event; the fewer events a run has, the more its fixed part weighs. A
/// single allocation planted in a per-cycle, per-instruction or
/// per-request function adds thousands to a run.
const PER_EVENT: u64 = 16;

/// Checkpoints taken plus recoveries of every kind.
fn events(stats: &SimStats) -> u64 {
    let r = &stats.recoveries;
    stats.checkpoints_taken + r.near_recoveries + r.checkpoint_rollbacks + r.exceptions
}

/// One counted run: `(allocations + reallocations, events)`. Only `run`
/// is counted; construction may allocate freely.
fn count<'a, O: Observer>(
    config: ProcessorConfig,
    source: impl IntoInstructionSource<'a>,
    obs: O,
) -> (u64, u64) {
    let processor = Processor::with_observer(config, source, obs);
    let region = Region::new(&GLOBAL);
    let (stats, _) = processor.run_observed();
    let change = region.change();
    (
        (change.allocations + change.reallocations) as u64,
        events(&stats),
    )
}

/// Ten exception-raising instructions, each behind a block of streaming
/// loads, so each one is recovered from with a full window behind it.
fn excepting_trace() -> Trace {
    let mut b = TraceBuilder::named("excepting");
    let base = ArchReg::int(1);
    for block in 0..10u64 {
        for i in 0..200u64 {
            let f = ArchReg::fp((i % 20) as u8);
            b.load(f, base, 0x1000_0000 + (block * 200 + i) * 512);
            b.fp_alu(ArchReg::fp(((i % 20) + 1) as u8), &[f]);
        }
        b.excepting_op(ArchReg::int(3), &[base]);
    }
    b.finish()
}

/// The quick suite (7 kernels, streamed) under both harness engines, on
/// flat memory and on 16-bank 16-MSHR DRAM, with and without cycle
/// accounting; the Figure 14 virtual-register machine on the quick suite;
/// and an excepting `&Trace` under both engines: 65 runs.
#[test]
fn dram_runs_allocate_per_checkpoint_not_per_cycle() {
    let specs = specs(QUICK_TRACE_LEN);
    let mut rows: Vec<(String, u64, u64)> = Vec::new();
    for (engine, flat) in engines() {
        let mut dram = flat;
        dram.memory = dram.memory.with_dram(mlp_sensitivity::dram(16));
        for (memory, config) in [("flat", flat), ("dram", dram)] {
            for spec in &specs {
                let label = format!("{engine}/{memory}/{}", spec.name());
                let (a, e) = count(config, spec.source(), NullObserver);
                rows.push((format!("{label}/null"), a, e));
                let (a, e) = count(config, spec.source(), CycleAccounting::new());
                rows.push((format!("{label}/accounting"), a, e));
            }
        }
    }
    let fig14 = ProcessorConfig::cooo(128, 2048, 1000).with_registers(RegisterModel::Virtual {
        virtual_tags: 2048,
        phys_regs: 256,
    });
    for spec in &specs {
        let (a, e) = count(fig14, spec.source(), NullObserver);
        rows.push((format!("fig14/{}", spec.name()), a, e));
    }
    let trace = excepting_trace();
    for (engine, config) in engines() {
        let (a, e) = count(config, &trace, NullObserver);
        rows.push((format!("{engine}/flat/excepting"), a, e));
    }

    assert_eq!(rows.len(), 65);
    let over: Vec<_> = rows
        .iter()
        .filter(|(_, allocations, events)| *allocations > PER_RUN + PER_EVENT * events)
        .collect();
    assert!(
        over.is_empty(),
        "allocations over {PER_RUN} + {PER_EVENT} x events \
         (run, allocations, events): {over:?}"
    );
}
