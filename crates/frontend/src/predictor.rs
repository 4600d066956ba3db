//! The branch-predictor interface and trivial reference predictors.

/// A conditional-branch direction predictor.
///
/// The fetch stage calls [`predict`](BranchPredictor::predict) when it
/// encounters a branch and [`update`](BranchPredictor::update) when the
/// branch resolves (the paper's machine updates at resolution time, which is
/// also when mispredictions are discovered).
pub trait BranchPredictor {
    /// Predicts the direction of the branch at `pc`.
    fn predict(&mut self, pc: u64) -> bool;

    /// Trains the predictor with the resolved direction of the branch at `pc`.
    fn update(&mut self, pc: u64, taken: bool);

    /// Convenience: predict, compare against the actual outcome, train, and
    /// record the result in `stats`. Returns `true` if the prediction was
    /// correct.
    fn predict_and_train(&mut self, pc: u64, taken: bool, stats: &mut BranchStats) -> bool {
        let predicted = self.predict(pc);
        let correct = predicted == taken;
        self.update(pc, taken);
        stats.record(correct);
        correct
    }
}

/// Aggregate branch-prediction statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BranchStats {
    /// Number of predicted conditional branches.
    pub predicted: u64,
    /// Number of mispredicted conditional branches.
    pub mispredicted: u64,
}

impl BranchStats {
    /// Records one prediction outcome.
    pub fn record(&mut self, correct: bool) {
        self.predicted += 1;
        if !correct {
            self.mispredicted += 1;
        }
    }

    /// Misprediction rate in [0, 1].
    pub fn misprediction_rate(&self) -> f64 {
        if self.predicted == 0 {
            0.0
        } else {
            self.mispredicted as f64 / self.predicted as f64
        }
    }
}

/// A predictor that is always right (limit studies, Figure 1 style).
#[derive(Debug, Clone, Copy, Default)]
pub struct PerfectPredictor;

impl PerfectPredictor {
    /// Creates a perfect predictor.
    pub fn new() -> Self {
        PerfectPredictor
    }
}

impl BranchPredictor for PerfectPredictor {
    /// A perfect predictor only knows the outcome when it is given it
    /// (in [`predict_and_train`](BranchPredictor::predict_and_train)); asked
    /// blind, it answers not-taken.
    fn predict(&mut self, _pc: u64) -> bool {
        false
    }

    fn update(&mut self, _pc: u64, _taken: bool) {}

    fn predict_and_train(&mut self, _pc: u64, _taken: bool, stats: &mut BranchStats) -> bool {
        stats.record(true);
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn perfect_predictor_never_mispredicts() {
        let mut p = PerfectPredictor::new();
        let mut stats = BranchStats::default();
        for i in 0..100 {
            assert!(p.predict_and_train(0x40, i % 3 == 0, &mut stats));
        }
        assert_eq!(stats.mispredicted, 0);
        assert_eq!(stats.predicted, 100);
        assert_eq!(stats.misprediction_rate(), 0.0);
    }

    #[test]
    fn stats_rate_is_zero_with_no_branches() {
        assert_eq!(BranchStats::default().misprediction_rate(), 0.0);
    }
}
