//! Repository-level tests for the public run API: a machine is a
//! `ProcessorConfig`, and `sweep` runs a grid of them over a workload slice,
//! preserving input order.

use koc_core::CheckpointPolicy;
use koc_sim::{sweep, CommitConfig, ProcessorConfig, Suite};
use koc_workloads::kernels;
use proptest::prelude::*;

#[test]
fn the_readme_quickstart_builder_chain_works() {
    let results = sweep(
        [ProcessorConfig::cooo(128, 2048, 1000)],
        &Suite::kernel("stream_add", kernels::stream_add()).generate(2_000),
    );
    let result = &results[0];
    assert_eq!(result.per_workload.len(), 1);
    assert!(result.mean_ipc() > 0.0);
    assert!(result.per_workload[0].stats.committed_instructions > 0);
}

#[test]
fn builder_overrides_land_in_the_config() {
    let c = ProcessorConfig::cooo(64, 512, 1000)
        .with_checkpoints(16)
        .with_checkpoint_policy(CheckpointPolicy::every_n(128))
        .with_memory_latency(500);
    assert_eq!(c.iq_size, 64);
    assert_eq!(c.memory.memory_latency, 500);
    match c.commit {
        CommitConfig::Checkpointed {
            checkpoint_entries,
            pseudo_rob_size,
            sliq,
            policy,
        } => {
            assert_eq!(checkpoint_entries, 16);
            assert_eq!(pseudo_rob_size, 64);
            assert_eq!(sliq.capacity, 512);
            assert_eq!(policy, CheckpointPolicy::every_n(128));
        }
        CommitConfig::InOrderRob { .. } => panic!("cooo() must build the checkpointed engine"),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// A sweep over N configurations returns exactly N results, in input
    /// order (each result carries its configuration, so order is checkable).
    #[test]
    fn sweep_preserves_arity_and_input_order(windows in proptest::collection::vec(4usize..48, 1..7)) {
        let configs: Vec<ProcessorConfig> =
            windows.iter().map(|&w| ProcessorConfig::baseline(w * 8, 100)).collect();
        let workloads = Suite::kernel("stream_add", kernels::stream_add()).generate(400);
        let results = sweep(configs.clone(), &workloads);
        prop_assert_eq!(results.len(), configs.len(), "one result per configuration");
        for (r, c) in results.iter().zip(configs.iter()) {
            prop_assert_eq!(r.config.iq_size, c.iq_size, "results must follow input order");
            prop_assert_eq!(r.per_workload.len(), 1);
            prop_assert!(r.mean_ipc() > 0.0);
        }
    }
}
