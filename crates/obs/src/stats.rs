//! [`WindowStats`]: the in-flight window distributions behind Figure 7,
//! recorded through the observer seam so that runs which never read them
//! pay nothing for them.

use crate::observer::{CycleSample, Observer};

/// Cycle interval of the live-instruction breakdown: the split walks the
/// whole window, so it is sampled only on cycles that are a multiple of
/// this.
pub const BREAKDOWN_INTERVAL: u64 = 32;

/// How many breakdown sample points (multiples of [`BREAKDOWN_INTERVAL`])
/// fall in the `n` cycles starting at `first`.
pub fn breakdown_points(first: u64, n: u64) -> u64 {
    (first + n).div_ceil(BREAKDOWN_INTERVAL) - first.div_ceil(BREAKDOWN_INTERVAL)
}

/// A streaming distribution of per-cycle samples with percentile queries.
///
/// Stored as a histogram indexed by sample value — occupancy samples are
/// small integers bounded by the window size — so memory is O(max value)
/// instead of O(simulated cycles), recording is branch-light, and a
/// fast-forwarded gap of identical cycles records in O(1) via
/// [`record_n`](Distribution::record_n).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Distribution {
    /// `counts[v]` = number of samples with value `v`.
    counts: Vec<u64>,
    total: u64,
    sum: u64,
}

impl Distribution {
    /// Creates an empty distribution.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one per-cycle sample.
    pub fn record(&mut self, value: usize) {
        self.record_n(value, 1);
    }

    /// Records `n` consecutive samples of the same value (a skipped gap
    /// records one per skipped cycle).
    pub fn record_n(&mut self, value: usize, n: u64) {
        if n == 0 {
            return;
        }
        if value >= self.counts.len() {
            self.counts.resize(value + 1, 0);
        }
        self.counts[value] += n;
        self.total += n;
        self.sum += value as u64 * n;
    }

    /// Number of samples recorded.
    pub fn count(&self) -> usize {
        self.total as usize
    }

    /// Arithmetic mean of the samples (0 if empty).
    pub fn mean(&self) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            self.sum as f64 / self.total as f64
        }
    }

    /// The maximum sample (0 if empty).
    pub fn max(&self) -> usize {
        self.counts.iter().rposition(|&c| c > 0).unwrap_or(0)
    }

    /// The `p`-th percentile (0.0–1.0) of the samples, 0 if empty.
    ///
    /// Defined as element `round((count - 1) * p)` of the sorted sample
    /// list, read off the histogram's cumulative counts.
    pub fn percentile(&self, p: f64) -> usize {
        if self.total == 0 {
            return 0;
        }
        let rank = ((self.total - 1) as f64 * p.clamp(0.0, 1.0)).round() as u64;
        let mut seen = 0u64;
        for (value, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen > rank {
                return value;
            }
        }
        self.max()
    }

    /// The percentiles reported by Figure 7: 10 / 25 / 50 / 75 / 90.
    pub fn figure7_percentiles(&self) -> [usize; 5] {
        [
            self.percentile(0.10),
            self.percentile(0.25),
            self.percentile(0.50),
            self.percentile(0.75),
            self.percentile(0.90),
        ]
    }
}

/// Figure 7's window distributions: in-flight and live instructions every
/// cycle, and the live instructions split into blocked-long and
/// blocked-short every [`BREAKDOWN_INTERVAL`] cycles.
///
/// Sets [`Observer::LIVE_BREAKDOWN`], so the pipeline computes the split
/// (a walk over the whole window) only for runs this observer is attached
/// to.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct WindowStats {
    /// Per-cycle number of in-flight (dispatched, not committed) instructions.
    pub inflight: Distribution,
    /// Per-cycle number of live (dispatched, not yet issued) instructions.
    pub live: Distribution,
    /// Live instructions blocked on long-latency loads, per sample point.
    pub live_long: Distribution,
    /// Live instructions waiting on short-latency work, per sample point.
    pub live_short: Distribution,
}

impl WindowStats {
    /// Empty distributions.
    pub fn new() -> Self {
        Self::default()
    }
}

impl Observer for WindowStats {
    const LIVE_BREAKDOWN: bool = true;

    fn sample(&mut self, s: &CycleSample) {
        self.skip(s, 1);
    }

    fn skip(&mut self, s: &CycleSample, n: u64) {
        self.inflight.record_n(s.inflight, n);
        self.live.record_n(s.live, n);
        if let Some((long, short)) = s.live_breakdown {
            let points = breakdown_points(s.cycle, n);
            self.live_long.record_n(long, points);
            self.live_short.record_n(short, points);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::observer::CycleBucket;

    #[test]
    fn distribution_mean_and_percentiles() {
        let mut d = Distribution::new();
        for v in 1..=100 {
            d.record(v);
        }
        assert_eq!(d.count(), 100);
        assert!((d.mean() - 50.5).abs() < 1e-9);
        assert_eq!(d.percentile(0.0), 1);
        assert_eq!(d.percentile(1.0), 100);
        assert_eq!(d.percentile(0.5), 51);
        assert_eq!(d.max(), 100);
        let p = d.figure7_percentiles();
        assert!(p[0] < p[2] && p[2] < p[4]);
    }

    #[test]
    fn empty_distribution_is_zero() {
        let d = Distribution::new();
        assert_eq!(d.mean(), 0.0);
        assert_eq!(d.percentile(0.5), 0);
        assert_eq!(d.max(), 0);
    }

    #[test]
    fn record_n_equals_repeated_record() {
        let mut bulk = Distribution::new();
        let mut single = Distribution::new();
        bulk.record_n(7, 120);
        bulk.record_n(3, 5);
        for _ in 0..120 {
            single.record(7);
        }
        for _ in 0..5 {
            single.record(3);
        }
        assert_eq!(bulk, single);
        assert_eq!(bulk.count(), 125);
        assert_eq!(bulk.max(), 7);
        assert_eq!(bulk.percentile(0.0), 3);
        assert_eq!(bulk.percentile(1.0), 7);
    }

    #[test]
    fn breakdown_points_count_interval_multiples_in_the_gap() {
        assert_eq!(breakdown_points(1, 31), 0);
        assert_eq!(breakdown_points(1, 32), 1);
        assert_eq!(breakdown_points(32, 1), 1);
        assert_eq!(breakdown_points(33, 31), 0);
        assert_eq!(breakdown_points(33, 32), 1);
        assert_eq!(breakdown_points(5, 100), 3);
        assert_eq!(breakdown_points(7, 0), 0);
    }

    #[test]
    fn a_skipped_gap_records_like_stepped_samples() {
        let sample = |cycle| CycleSample {
            cycle,
            committed: 0,
            dispatched: 0,
            inflight: 40,
            live: 9,
            live_checkpoints: 0,
            mshr_inflight: 0,
            pending_misses: 0,
            replay_window: 0,
            live_breakdown: Some((6, 3)),
            bucket: CycleBucket::MemoryWait,
        };
        let mut skipped = WindowStats::new();
        skipped.skip(&sample(10), 100);
        let mut stepped = WindowStats::new();
        for cycle in 10..110 {
            let mut s = sample(cycle);
            if !cycle.is_multiple_of(BREAKDOWN_INTERVAL) {
                s.live_breakdown = None;
            }
            stepped.sample(&s);
        }
        assert_eq!(skipped, stepped);
        assert_eq!(skipped.inflight.count(), 100);
        assert_eq!(skipped.live_long.count(), 3, "cycles 32, 64 and 96");
    }
}
