//! Metric arithmetic: the fastest sample, medians, the tail percentile,
//! safe ratios and the `ns_per_inst` split.
//!
//! Everything here is pure so the tests can pin it exactly.

/// A ratio that reads 0 when the denominator is 0, so a layer that did no
/// work (no branches, no DRAM accesses, no skipped cycles) reports 0
/// instead of NaN, which JSON cannot carry.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// The median of `values` (mean of the middle pair for even counts), 0
/// for an empty slice.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    match n {
        0 => 0.0,
        _ if n % 2 == 1 => v[n / 2],
        _ => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// The fastest (smallest) of `values`, 0 for an empty slice.
///
/// Host time on a shared machine only ever gets slower than the code's own
/// cost: other tenants add phases of roughly doubled time lasting about a
/// second, so the median of a run's samples flips between the fast and the
/// slow level from run to run, while the fastest sample does not.
pub fn fastest(values: &[f64]) -> f64 {
    values.iter().copied().reduce(f64::min).unwrap_or(0.0)
}

/// How many samples must lie beyond a reported tail percentile.
pub const TAIL_BEYOND: usize = 10;

/// The highest percentile that still has [`TAIL_BEYOND`] samples beyond it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// The sample at that percentile.
    pub value: f64,
    /// The percentile, by nearest rank: `100 * (n - beyond) / n`.
    pub percentile: f64,
    /// Number of samples the percentile was taken over.
    pub samples: usize,
    /// Number of samples strictly above the reported one in sorted order.
    pub beyond: usize,
}

/// The `TAIL_BEYOND + 1`-th largest sample and its nearest-rank percentile.
/// With too few samples for ten to lie beyond any of them, reports the
/// smallest, the sample with the most beyond it; `None` only when empty.
pub fn tail(values: &[f64]) -> Option<Tail> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n == 0 {
        return None;
    }
    let beyond = TAIL_BEYOND.min(n - 1);
    Some(Tail {
        value: v[n - 1 - beyond],
        percentile: 100.0 * (n - beyond) as f64 / n as f64,
        samples: n,
        beyond,
    })
}

/// The per-layer split of the end-to-end cost: `ns_per_inst` equals
/// `ns_per_stepped_cycle * stepped_per_inst` by construction, so a change
/// shows up as fewer stepped cycles, cheaper ones, or both.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StepSplit {
    /// Host nanoseconds per retired instruction.
    pub ns_per_inst: f64,
    /// Host nanoseconds per stepped (not fast-forwarded) cycle.
    pub ns_per_stepped_cycle: f64,
    /// Stepped cycles per retired instruction.
    pub stepped_per_inst: f64,
}

/// Splits `wall_ns` of untraced host time over `retired` instructions and
/// `stepped` cycles.
pub fn step_split(wall_ns: f64, stepped: u64, retired: u64) -> StepSplit {
    StepSplit {
        ns_per_inst: ratio(wall_ns, retired as f64),
        ns_per_stepped_cycle: ratio(wall_ns, stepped as f64),
        stepped_per_inst: ratio(stepped as f64, retired as f64),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ratio_with_zero_denominator_is_zero() {
        assert_eq!(ratio(5.0, 0.0), 0.0);
        assert_eq!(ratio(0.0, 0.0), 0.0);
        assert_eq!(ratio(3.0, 4.0), 0.75);
    }

    #[test]
    fn median_of_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn fastest_is_the_minimum() {
        assert_eq!(fastest(&[3.0, 1.5, 2.0]), 1.5);
        assert_eq!(fastest(&[]), 0.0);
    }

    #[test]
    fn tail_leaves_ten_samples_beyond() {
        let values: Vec<f64> = (1..=100).map(f64::from).collect();
        let t = tail(&values).unwrap();
        assert_eq!(t.value, 90.0);
        assert_eq!(t.samples, 100);
        assert_eq!(t.beyond, 10);
        assert_eq!(t.percentile, 90.0);
        assert_eq!(values.iter().filter(|&&v| v > t.value).count(), 10);

        let t = tail(&(1..=240).map(f64::from).rev().collect::<Vec<_>>()).unwrap();
        assert_eq!(t.value, 230.0, "input order must not matter");
        assert!((t.percentile - 100.0 * 230.0 / 240.0).abs() < 1e-12);
    }

    #[test]
    fn tail_of_few_samples_is_the_smallest() {
        let t = tail(&[2.0, 7.0, 5.0]).unwrap();
        assert_eq!(t.value, 2.0);
        assert!((t.percentile - 100.0 / 3.0).abs() < 1e-12);
        assert_eq!((t.samples, t.beyond), (3, 2));
        // Eleven samples is the first count with a true ten-beyond tail.
        let t = tail(&(0..11).map(f64::from).collect::<Vec<_>>()).unwrap();
        assert_eq!((t.value, t.beyond), (0.0, 10));
        assert!(tail(&[]).is_none());
    }

    #[test]
    fn ns_per_inst_identity_holds() {
        for &(wall, stepped, retired) in &[
            (41_234_567.0, 22_480u64, 40_330u64),
            (65_000_001.0, 191_235, 32_048),
            (1.0, 3, 7),
        ] {
            let s = step_split(wall, stepped, retired);
            let product = s.ns_per_stepped_cycle * s.stepped_per_inst;
            assert!(
                (product - s.ns_per_inst).abs() <= 1e-12 * s.ns_per_inst,
                "{product} vs {}",
                s.ns_per_inst
            );
        }
    }

    #[test]
    fn step_split_with_nothing_retired_or_stepped_is_zero() {
        let s = step_split(1e6, 0, 0);
        assert_eq!(s.ns_per_inst, 0.0);
        assert_eq!(s.ns_per_stepped_cycle, 0.0);
        assert_eq!(s.stepped_per_inst, 0.0);
    }
}
