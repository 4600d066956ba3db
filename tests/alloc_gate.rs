//! Allocation gate for the DRAM path. The simulator sizes its per-run
//! structures at construction, so a run's steady state should allocate
//! only when the checkpointed engine takes a checkpoint or recovers (rename
//! snapshots), never per cycle or per memory request.
//!
//! The counting allocator is process-wide, so this binary holds exactly
//! one test: no other test can run beside it and pollute the count.

use koc_bench::experiments::mlp_sensitivity;
use koc_sim::{Processor, ProcessorConfig, SimStats, Suite};
use stats_alloc::{Region, StatsAlloc};
use std::alloc::System;

#[global_allocator]
static GLOBAL: StatsAlloc<System> = StatsAlloc::system();

/// Allocations any run may make whatever its length: first-touch growth of
/// queues that are sized lazily (DRAM bank queues, the completion heap).
/// The baseline runs, with one recovery each, measure 33 and 60.
const PER_RUN: u64 = 128;
/// Allocations per checkpoint taken or recovery made (rename snapshots).
/// The cooo runs measure 909 for 116 such events and 230 for 17. A
/// per-request or per-cycle allocation costs thousands per run.
const PER_EVENT: u64 = 8;

/// Checkpoints taken plus recoveries of every kind.
fn events(stats: &SimStats) -> u64 {
    let r = &stats.recoveries;
    stats.checkpoints_taken + r.near_recoveries + r.checkpoint_rollbacks + r.exceptions
}

/// The `memory_bound` benchmark's four jobs: baseline-32 and cooo 32/2048
/// on the 16-bank, 16-MSHR DRAM part at 1000-cycle memory, each running the
/// streamed `pointer_chase` and `stream_mlp` kernels at 8000 instructions.
/// Only `run()` is counted; construction may allocate freely.
#[test]
fn dram_runs_allocate_per_checkpoint_not_per_cycle() {
    let machines = [
        ProcessorConfig::baseline(32, 1000),
        ProcessorConfig::cooo(32, 2048, 1000),
    ]
    .map(|mut c| {
        c.memory = c.memory.with_dram(mlp_sensitivity::dram(16));
        c
    });
    let specs = Suite::mlp_contrast().specs(8_000);
    let mut over = Vec::new();
    for config in machines {
        for spec in &specs {
            let processor = Processor::new(config, spec.source());
            let region = Region::new(&GLOBAL);
            let stats = processor.run();
            let change = region.change();
            let allocations = (change.allocations + change.reallocations) as u64;
            let bound = PER_RUN + PER_EVENT * events(&stats);
            if allocations > bound {
                over.push((config.commit, spec.name(), allocations, bound));
            }
        }
    }
    assert!(over.is_empty(), "allocations over the bound: {over:?}");
}
