//! Property-based tests for the Table 1 gshare predictor.

use koc_sim::{BranchStats, Gshare};
use proptest::prelude::*;

proptest! {
    /// Gshare statistics are consistent: every call counts one prediction,
    /// mispredictions never exceed predictions and the rate is a valid
    /// probability.
    #[test]
    fn gshare_stats_are_consistent(
        pcs in proptest::collection::vec(0u64..4096, 1..500),
        outcomes in proptest::collection::vec(any::<bool>(), 1..500),
    ) {
        let mut p = Gshare::new();
        let mut stats = BranchStats::default();
        for (pc, taken) in pcs.iter().zip(outcomes.iter()) {
            p.predict_and_train(pc * 4, *taken, &mut stats);
        }
        prop_assert_eq!(stats.predicted, pcs.len().min(outcomes.len()) as u64);
        prop_assert!(stats.mispredicted <= stats.predicted);
        let rate = stats.misprediction_rate();
        prop_assert!((0.0..=1.0).contains(&rate));
    }

    /// A branch with a constant outcome is eventually always predicted
    /// correctly, regardless of its address.
    #[test]
    fn gshare_learns_constant_branches(pc in 0u64..1u64 << 20, taken in any::<bool>()) {
        let mut p = Gshare::new();
        let mut warmup = BranchStats::default();
        for _ in 0..8 {
            p.predict_and_train(pc, taken, &mut warmup);
        }
        let mut stats = BranchStats::default();
        for _ in 0..64 {
            p.predict_and_train(pc, taken, &mut stats);
        }
        prop_assert_eq!(stats.mispredicted, 0);
    }
}
