//! Interval time-series: per-N-cycle deltas over a run.

use crate::accounting::CycleBuckets;
use crate::observer::{CycleSample, Observer};

/// One interval of the time-series. All fields are exact integers so the
/// `koc-timeline/1` JSON round-trips losslessly through `koc_isa::json`
/// (averages are left to consumers: `inflight_sum / cycles` etc.).
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct IntervalRecord {
    /// First cycle of the interval.
    pub start_cycle: u64,
    /// Number of cycles covered (equal to the configured interval except
    /// possibly for the final, partial record).
    pub cycles: u64,
    /// Instructions committed during the interval (IPC = committed/cycles).
    pub committed: u64,
    /// Instructions dispatched during the interval.
    pub dispatched: u64,
    /// Sum over the interval of the in-flight instruction count.
    pub inflight_sum: u64,
    /// Sum over the interval of the live (dispatched, not executed) count.
    pub live_sum: u64,
    /// Sum over the interval of live checkpoints in the checkpoint table.
    pub live_checkpoints_sum: u64,
    /// Sum over the interval of memory-backend (MSHR) occupancy.
    pub mshr_sum: u64,
    /// Sum over the interval of replay-window occupancy.
    pub replay_window_sum: u64,
    /// Cycle-accounting deltas for the interval (stall-cause breakdown).
    pub stall: CycleBuckets,
}

/// The interval time-series observer: folds per-cycle samples into
/// [`IntervalRecord`]s of a fixed length, splitting fast-forwarded gaps
/// across interval boundaries exactly as a cycle-by-cycle run would.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TimelineRecorder {
    interval: u64,
    records: Vec<IntervalRecord>,
    cur: IntervalRecord,
    prev_committed: u64,
    prev_dispatched: u64,
}

impl TimelineRecorder {
    /// Creates a recorder with the given interval length in cycles
    /// (clamped to at least 1).
    pub fn new(interval: u64) -> Self {
        TimelineRecorder {
            interval: interval.max(1),
            records: Vec::with_capacity(64),
            cur: IntervalRecord::default(),
            prev_committed: 0,
            prev_dispatched: 0,
        }
    }

    /// The configured interval length in cycles.
    pub fn interval(&self) -> u64 {
        self.interval
    }

    /// The completed intervals so far (excludes the in-progress one).
    pub fn records(&self) -> &[IntervalRecord] {
        &self.records
    }

    /// Finishes the series, flushing any partial final interval.
    pub fn into_records(mut self) -> Vec<IntervalRecord> {
        if self.cur.cycles > 0 {
            self.records.push(self.cur);
        }
        self.records
    }

    #[inline]
    fn flush_if_full(&mut self) {
        if self.cur.cycles == self.interval {
            self.records.push(core::mem::take(&mut self.cur));
        }
    }

    /// Accounts `n` cycles of the (constant) state in `s` starting at
    /// `cycle`, without touching the cumulative counters.
    #[inline]
    fn accumulate(&mut self, s: &CycleSample, cycle: u64, n: u64) {
        self.flush_if_full();
        if self.cur.cycles == 0 {
            self.cur.start_cycle = cycle;
        }
        self.cur.cycles += n;
        self.cur.inflight_sum += s.inflight as u64 * n;
        self.cur.live_sum += s.live as u64 * n;
        self.cur.live_checkpoints_sum += s.live_checkpoints as u64 * n;
        self.cur.mshr_sum += s.mshr_inflight as u64 * n;
        self.cur.replay_window_sum += s.replay_window as u64 * n;
        self.cur.stall.record(s.bucket, n);
    }
}

impl Observer for TimelineRecorder {
    fn sample(&mut self, s: &CycleSample) {
        self.accumulate(s, s.cycle, 1);
        self.cur.committed += s.committed - self.prev_committed;
        self.cur.dispatched += s.dispatched - self.prev_dispatched;
        self.prev_committed = s.committed;
        self.prev_dispatched = s.dispatched;
    }

    fn skip(&mut self, s: &CycleSample, n: u64) {
        // A gap's cumulative counters are constant (nothing progresses), so
        // only occupancy sums and stall attribution accrue; the chunking
        // reproduces the interval boundaries a stepped run would hit.
        let mut done = 0;
        while done < n {
            let room = self.interval - (self.cur.cycles % self.interval);
            let take = room.min(n - done);
            self.accumulate(s, s.cycle + done, take);
            done += take;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::observer::CycleBucket;

    fn sample(cycle: u64, committed: u64, inflight: usize, bucket: CycleBucket) -> CycleSample {
        CycleSample {
            cycle,
            committed,
            dispatched: committed + 1,
            inflight,
            live: inflight / 2,
            live_checkpoints: 1,
            mshr_inflight: 2,
            pending_misses: 0,
            replay_window: 3,
            live_breakdown: None,
            bucket,
        }
    }

    #[test]
    fn samples_fold_into_fixed_intervals() {
        let mut t = TimelineRecorder::new(4);
        for c in 1..=10 {
            t.sample(&sample(c, c, 8, CycleBucket::Committing));
        }
        let recs = t.into_records();
        assert_eq!(recs.len(), 3);
        assert_eq!(recs[0].start_cycle, 1);
        assert_eq!(recs[0].cycles, 4);
        assert_eq!(recs[0].committed, 4);
        assert_eq!(recs[0].inflight_sum, 32);
        assert_eq!(recs[1].start_cycle, 5);
        assert_eq!(recs[2].cycles, 2, "final interval is partial");
        assert_eq!(recs.iter().map(|r| r.committed).sum::<u64>(), 10);
        assert_eq!(recs.iter().map(|r| r.stall.total()).sum::<u64>(), 10);
    }

    #[test]
    fn skip_is_identical_to_stepping_the_same_gap() {
        // A 13-cycle idle gap starting mid-interval, constant state.
        let stepped = {
            let mut t = TimelineRecorder::new(4);
            t.sample(&sample(1, 1, 4, CycleBucket::Committing));
            t.sample(&sample(2, 1, 4, CycleBucket::Committing));
            for c in 3..=15 {
                t.sample(&sample(c, 1, 4, CycleBucket::MemoryWait));
            }
            t.into_records()
        };
        let skipped = {
            let mut t = TimelineRecorder::new(4);
            t.sample(&sample(1, 1, 4, CycleBucket::Committing));
            t.sample(&sample(2, 1, 4, CycleBucket::Committing));
            t.skip(&sample(3, 1, 4, CycleBucket::MemoryWait), 13);
            t.into_records()
        };
        assert_eq!(stepped, skipped, "skip must replay interval boundaries");
    }

    #[test]
    fn skip_longer_than_an_interval_splits_correctly() {
        let mut t = TimelineRecorder::new(4);
        t.skip(&sample(1, 0, 1, CycleBucket::FetchStarved), 11);
        let recs = t.into_records();
        assert_eq!(recs.len(), 3);
        assert_eq!(
            recs.iter().map(|r| r.cycles).collect::<Vec<_>>(),
            vec![4, 4, 3]
        );
        assert_eq!(recs[1].start_cycle, 5);
        assert_eq!(recs[2].start_cycle, 9);
        assert_eq!(recs[2].stall.fetch_starved, 3);
    }

    #[test]
    fn zero_interval_is_clamped() {
        let t = TimelineRecorder::new(0);
        assert_eq!(t.interval(), 1);
    }
}
