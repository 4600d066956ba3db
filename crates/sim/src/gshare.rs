//! The branch predictor of Table 1: a 16K-entry gshare with a 10-cycle
//! misprediction penalty (the penalty is
//! [`MISPREDICT_PENALTY`](crate::config::MISPREDICT_PENALTY)).

use crate::stats::BranchStats;

/// Two-bit counters in the table. Table 1 specifies a "16K history
/// gshare"; we use 16K counters and a 14-bit global history, the
/// conventional reading of that configuration.
const ENTRIES: usize = 16 * 1024;
/// Masks both the table index and the global history (14 bits).
const MASK: u64 = ENTRIES as u64 - 1;

/// The Table 1 gshare: 16K 2-bit saturating counters indexed by the XOR
/// of the branch pc and the global history register. The pipeline predicts
/// and trains it at dispatch, with the outcome the trace records, on
/// conditional branches only.
#[derive(Debug, Clone)]
pub struct Gshare {
    counters: Vec<u8>,
    history: u64,
}

impl Gshare {
    /// A cold predictor: every counter weakly taken, history clear.
    pub fn new() -> Self {
        Gshare {
            counters: vec![2; ENTRIES],
            history: 0,
        }
    }

    fn index(&self, pc: u64) -> usize {
        (((pc >> 2) ^ self.history) & MASK) as usize
    }

    /// Predicts the conditional branch at `pc`, trains the counter and the
    /// history with its resolved direction `taken`, and records the outcome
    /// in `stats`. Returns whether the prediction was correct.
    pub fn predict_and_train(&mut self, pc: u64, taken: bool, stats: &mut BranchStats) -> bool {
        let i = self.index(pc);
        let c = &mut self.counters[i];
        let correct = (*c >= 2) == taken;
        *c = if taken {
            (*c + 1).min(3)
        } else {
            c.saturating_sub(1)
        };
        self.history = ((self.history << 1) | taken as u64) & MASK;
        stats.predicted += 1;
        stats.mispredicted += u64::from(!correct);
        correct
    }
}

impl Default for Gshare {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_has_16k_entries() {
        assert_eq!(Gshare::new().counters.len(), 16384);
    }

    #[test]
    fn learns_a_strongly_biased_branch() {
        let mut p = Gshare::new();
        let mut stats = BranchStats::default();
        for _ in 0..1000 {
            p.predict_and_train(0x1234, true, &mut stats);
        }
        // After warm-up the loop branch is essentially always predicted.
        assert!(
            stats.misprediction_rate() < 0.01,
            "rate = {}",
            stats.misprediction_rate()
        );
    }

    #[test]
    fn learns_a_loop_exit_pattern_poorly_but_bounded() {
        // Taken 63 times then not taken once, repeatedly: classic loop branch.
        let mut p = Gshare::new();
        let mut stats = BranchStats::default();
        for _ in 0..200 {
            for i in 0..64 {
                p.predict_and_train(0x40, i != 63, &mut stats);
            }
        }
        // Mispredicts about once per loop exit at worst.
        assert!(
            stats.misprediction_rate() < 0.05,
            "rate = {}",
            stats.misprediction_rate()
        );
    }

    #[test]
    fn random_branches_mispredict_often() {
        // A fixed xorshift stream: each outcome is a fair coin.
        let mut x = 0x2545_f491_4f6c_dd1du64;
        let mut p = Gshare::new();
        let mut stats = BranchStats::default();
        for _ in 0..20_000 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            p.predict_and_train(0x80, x & 1 == 1, &mut stats);
        }
        assert!(
            stats.misprediction_rate() > 0.3,
            "rate = {}",
            stats.misprediction_rate()
        );
    }

    #[test]
    fn different_pcs_use_different_counters() {
        // With the history clear, the index is the pc's word address.
        let p = Gshare::new();
        assert_ne!(p.index(0x1000), p.index(0x2000));
    }
}
