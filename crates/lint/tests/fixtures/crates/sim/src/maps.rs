//! determinism fixture: hash-map point use (warning), iteration (error),
//! a suppressed type mention, and the wall-clock / rand bans.

use std::collections::HashMap; // koc-lint: allow(determinism, "re-export for downstream compat")
use std::time::Instant;

pub struct Tracker {
    // Point use: warning nudging toward a BTreeMap.
    waiting: HashMap<u64, u64>,
}

impl Tracker {
    /// Error: iterating a hash map in storage order.
    pub fn sum(&self) -> u64 {
        let mut total = 0;
        for (_, v) in &self.waiting {
            total += v;
        }
        total
    }

    /// Error: method-based iteration.
    pub fn max(&self) -> u64 {
        self.waiting.values().copied().max().unwrap_or(0)
    }

    /// Point lookups alone are not iteration: no extra finding here.
    pub fn get(&self, k: u64) -> Option<u64> {
        self.waiting.get(&k).copied()
    }

    /// Error: wall-clock time in a simulation crate.
    pub fn stamp(&self) -> Instant {
        Instant::now()
    }

    /// Error: unseeded randomness in a simulation crate.
    pub fn entropy(&self) -> u64 {
        rand::random()
    }
}
