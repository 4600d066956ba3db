//! Recovery-path integration tests: branch mispredictions (near and far) and
//! exceptions leave the machine in a consistent state and the program still
//! commits completely.

use koc_isa::{ArchReg, BranchInfo, Instruction, Trace, TraceBuilder};
use koc_sim::{Processor, ProcessorConfig, SimStats};

fn run_trace(config: ProcessorConfig, trace: &Trace) -> SimStats {
    Processor::new(config, trace).run()
}

/// A loop-free trace with data-dependent (hard to predict) branches mixed
/// into FP streaming work.
fn branchy_trace(blocks: usize) -> Trace {
    let mut b = TraceBuilder::named("branchy");
    let base = ArchReg::int(1);
    let cond = ArchReg::int(2);
    for i in 0..blocks as u64 {
        b.int_alu(cond, &[base]);
        // Alternate taken / not-taken in a pattern gshare struggles with at
        // first: pseudo-random based on the block index bits.
        let taken = (i * 2654435761) % 7 < 3;
        let target = b.pc() + 64;
        b.branch_to(cond, taken, target);
        for j in 0..12u64 {
            let f = ArchReg::fp(((i + j) % 24) as u8);
            b.load(f, base, 0x4000_0000 + (i * 12 + j) * 4096);
            b.fp_alu(ArchReg::fp((((i + j) % 24) + 1) as u8 % 28), &[f]);
        }
        b.store(ArchReg::fp(0), base, 0x8000_0000 + i * 8);
    }
    b.finish()
}

/// `trace` with every branch made unconditional, keeping its outcome and
/// target. The pipeline predicts only conditional branches, so the twin
/// runs the same instructions without a single misprediction.
fn without_predicted_branches(trace: &Trace) -> Trace {
    trace
        .iter()
        .map(|&inst| match inst.branch {
            Some(b) => Instruction {
                branch: Some(BranchInfo {
                    unconditional: true,
                    ..b
                }),
                ..inst
            },
            None => inst,
        })
        .collect()
}

/// A trace with one exception-raising instruction in the middle.
fn excepting_trace() -> Trace {
    let mut b = TraceBuilder::named("excepting");
    let base = ArchReg::int(1);
    for i in 0..200u64 {
        let f = ArchReg::fp((i % 20) as u8);
        b.load(f, base, 0x1000_0000 + i * 512);
        b.fp_alu(ArchReg::fp(((i % 20) + 1) as u8), &[f]);
    }
    b.excepting_op(ArchReg::int(3), &[base]);
    for i in 0..200u64 {
        let f = ArchReg::fp((i % 20) as u8);
        b.load(f, base, 0x2000_0000 + i * 512);
        b.fp_alu(ArchReg::fp(((i % 20) + 1) as u8), &[f]);
    }
    b.finish()
}

#[test]
fn mispredictions_are_recovered_on_the_baseline() {
    let trace = branchy_trace(120);
    let stats = run_trace(ProcessorConfig::baseline(128, 500), &trace);
    assert_eq!(stats.committed_instructions as usize, trace.len());
    assert!(
        stats.branches.mispredicted > 0,
        "the pattern must cause some mispredictions"
    );
    assert!(stats.recoveries.near_recoveries > 0);
    assert_eq!(
        stats.recoveries.checkpoint_rollbacks, 0,
        "the baseline never rolls back to checkpoints"
    );
}

#[test]
fn mispredictions_are_recovered_on_the_checkpointed_machine() {
    let trace = branchy_trace(120);
    let stats = run_trace(ProcessorConfig::cooo(32, 512, 500), &trace);
    assert_eq!(stats.committed_instructions as usize, trace.len());
    assert!(stats.branches.mispredicted > 0);
    assert!(
        stats.recoveries.near_recoveries + stats.recoveries.checkpoint_rollbacks > 0,
        "mispredictions must trigger some form of recovery"
    );
}

#[test]
fn far_branch_recovery_rolls_back_to_a_checkpoint() {
    // With a memory latency of 1000 cycles and a tiny pseudo-ROB, a branch
    // that depends on a missing load resolves long after it has left the
    // pseudo-ROB, forcing a checkpoint rollback.
    let mut b = TraceBuilder::named("late-branch");
    let base = ArchReg::int(1);
    let cond = ArchReg::int(2);
    for i in 0..40u64 {
        // A load that misses in L2 feeds the branch condition.
        b.load(cond, base, 0x9000_0000 + i * 8192);
        let taken = i % 3 == 0;
        let target = b.pc() + 32;
        b.branch_to(cond, taken, target);
        // Plenty of independent work after the branch to push it out of the
        // pseudo-ROB before the load returns.
        for j in 0..64u64 {
            let f = ArchReg::fp(((i + j) % 24) as u8);
            b.fp_alu(f, &[f]);
        }
    }
    let trace = b.finish();
    let stats = run_trace(ProcessorConfig::cooo(32, 512, 1000), &trace);
    assert_eq!(stats.committed_instructions as usize, trace.len());
    assert!(
        stats.recoveries.checkpoint_rollbacks > 0,
        "late-resolving mispredicted branches must use checkpoint rollback"
    );
    assert!(
        stats.recoveries.reexecuted_instructions > 0,
        "rollback re-executes work"
    );
    assert!(stats.dispatched_instructions > stats.committed_instructions);
}

#[test]
fn exceptions_are_delivered_precisely_on_both_engines() {
    let trace = excepting_trace();
    for (name, config) in [
        ("baseline", ProcessorConfig::baseline(128, 500)),
        ("cooo", ProcessorConfig::cooo(64, 1024, 500)),
    ] {
        let stats = run_trace(config, &trace);
        assert_eq!(stats.committed_instructions as usize, trace.len(), "{name}");
        assert_eq!(
            stats.recoveries.exceptions, 1,
            "{name}: the exception fires exactly once"
        );
    }
}

#[test]
fn checkpoint_rollback_costs_performance_but_not_correctness() {
    let trace = branchy_trace(100);
    let twin = without_predicted_branches(&trace);
    let config = ProcessorConfig::cooo(32, 512, 1000);
    let mispredicting = run_trace(config, &trace);
    let unpredicted = run_trace(config, &twin);
    let recoveries =
        |s: &SimStats| s.recoveries.near_recoveries + s.recoveries.checkpoint_rollbacks;
    assert!(mispredicting.branches.mispredicted > 0 && recoveries(&mispredicting) > 0);
    assert_eq!(unpredicted.branches.predicted, 0);
    assert_eq!(recoveries(&unpredicted), 0);
    assert_eq!(mispredicting.committed_instructions as usize, trace.len());
    assert_eq!(
        mispredicting.committed_instructions,
        unpredicted.committed_instructions
    );
    assert!(
        unpredicted.ipc() >= mispredicting.ipc(),
        "misprediction recovery can only cost performance: without it {} vs with it {}",
        unpredicted.ipc(),
        mispredicting.ipc()
    );
}
