//! Top-down cycle accounting: where did every cycle go?

use crate::observer::{CycleBucket, CycleSample, Observer};

/// Per-bucket cycle totals. The pipeline attributes every simulated cycle
/// to exactly one [`CycleBucket`], so [`CycleBuckets::total`] equals
/// `SimStats::cycles` for any completed run — a hard invariant the test
/// suite and CI assert.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct CycleBuckets {
    /// Cycles in which at least one instruction committed.
    pub committing: u64,
    /// Dispatch stalled on a full ROB / pseudo-ROB window.
    pub window_full: u64,
    /// Dispatch stalled on a full instruction or load/store queue.
    pub iq_full: u64,
    /// Dispatch stalled on an exhausted rename register pool.
    pub regfile_exhausted: u64,
    /// Dispatch stalled on a full checkpoint table.
    pub checkpoint_table_full: u64,
    /// Demand misses queued for backend admission (MSHR pressure).
    pub mshr_full: u64,
    /// Waiting on outstanding memory requests.
    pub memory_wait: u64,
    /// The front end had nothing to dispatch (redirect or end of trace).
    pub fetch_starved: u64,
    /// Waiting on execution latencies or operand dependences.
    pub execute_wait: u64,
}

impl CycleBuckets {
    /// Adds `n` cycles to the given bucket.
    #[inline]
    pub fn record(&mut self, bucket: CycleBucket, n: u64) {
        match bucket {
            CycleBucket::Committing => self.committing += n,
            CycleBucket::WindowFull => self.window_full += n,
            CycleBucket::IqFull => self.iq_full += n,
            CycleBucket::RegfileExhausted => self.regfile_exhausted += n,
            CycleBucket::CheckpointTableFull => self.checkpoint_table_full += n,
            CycleBucket::MshrFull => self.mshr_full += n,
            CycleBucket::MemoryWait => self.memory_wait += n,
            CycleBucket::FetchStarved => self.fetch_starved += n,
            CycleBucket::ExecuteWait => self.execute_wait += n,
        }
    }

    /// Total cycles across all buckets. Equals `SimStats::cycles` for a run
    /// observed end to end.
    pub fn total(&self) -> u64 {
        self.committing
            + self.window_full
            + self.iq_full
            + self.regfile_exhausted
            + self.checkpoint_table_full
            + self.mshr_full
            + self.memory_wait
            + self.fetch_starved
            + self.execute_wait
    }

    /// `(name, cycles)` pairs in declaration order, for reports.
    pub fn named(&self) -> [(&'static str, u64); 9] {
        [
            ("committing", self.committing),
            ("window_full", self.window_full),
            ("iq_full", self.iq_full),
            ("regfile_exhausted", self.regfile_exhausted),
            ("checkpoint_table_full", self.checkpoint_table_full),
            ("mshr_full", self.mshr_full),
            ("memory_wait", self.memory_wait),
            ("fetch_starved", self.fetch_starved),
            ("execute_wait", self.execute_wait),
        ]
    }
}

/// The cycle-accounting observer: folds every per-cycle sample (and every
/// fast-forwarded gap) into [`CycleBuckets`].
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct CycleAccounting {
    buckets: CycleBuckets,
}

impl CycleAccounting {
    /// Creates an empty accounting observer.
    pub fn new() -> Self {
        Self::default()
    }

    /// The buckets accumulated so far.
    pub fn buckets(&self) -> &CycleBuckets {
        &self.buckets
    }

    /// Consumes the observer, returning the final buckets.
    pub fn into_buckets(self) -> CycleBuckets {
        self.buckets
    }
}

impl Observer for CycleAccounting {
    #[inline]
    fn sample(&mut self, s: &CycleSample) {
        self.buckets.record(s.bucket, 1);
    }

    #[inline]
    fn skip(&mut self, s: &CycleSample, n: u64) {
        self.buckets.record(s.bucket, n);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(bucket: CycleBucket) -> CycleSample {
        CycleSample {
            cycle: 1,
            committed: 0,
            dispatched: 0,
            inflight: 0,
            live: 0,
            live_checkpoints: 0,
            mshr_inflight: 0,
            pending_misses: 0,
            replay_window: 0,
            live_breakdown: None,
            bucket,
        }
    }

    #[test]
    fn every_bucket_lands_in_its_own_counter_and_sums() {
        let mut acct = CycleAccounting::new();
        let all = [
            CycleBucket::Committing,
            CycleBucket::WindowFull,
            CycleBucket::IqFull,
            CycleBucket::RegfileExhausted,
            CycleBucket::CheckpointTableFull,
            CycleBucket::MshrFull,
            CycleBucket::MemoryWait,
            CycleBucket::FetchStarved,
            CycleBucket::ExecuteWait,
        ];
        for (i, &b) in all.iter().enumerate() {
            let s = sample(b);
            acct.sample(&s);
            acct.skip(&s, i as u64);
        }
        let buckets = acct.into_buckets();
        // sample + skip(i) per bucket: 1 + i cycles each.
        let expected: u64 = (0..all.len() as u64).map(|i| 1 + i).sum();
        assert_eq!(buckets.total(), expected);
        let named = buckets.named();
        assert_eq!(named.len(), all.len());
        for (i, (_, v)) in named.iter().enumerate() {
            assert_eq!(*v, 1 + i as u64);
        }
    }

    #[test]
    fn named_covers_every_field_exactly_once() {
        let b = CycleBuckets {
            committing: 1,
            window_full: 2,
            iq_full: 3,
            regfile_exhausted: 4,
            checkpoint_table_full: 5,
            mshr_full: 6,
            memory_wait: 7,
            fetch_starved: 8,
            execute_wait: 9,
        };
        assert_eq!(b.total(), 45);
        assert_eq!(b.named().iter().map(|&(_, v)| v).sum::<u64>(), 45);
    }
}
