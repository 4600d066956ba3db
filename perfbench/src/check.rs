//! Correctness: every simulation the benchmark runs is one operation, and
//! an operation fails on a panic (the simulator's deadlock bound is an
//! assertion), an exhausted cycle budget, an unbalanced checkpoint
//! lifecycle, a wrong retired count, or a fingerprint that drifted. A
//! failure is counted and reported; it never stops the benchmark.

use crate::adapter::SimStats;
use std::panic::{catch_unwind, AssertUnwindSafe};

/// What identifies a simulation's outcome: simulated cycles and retired
/// instructions. Speed-only changes must leave both bit-identical.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fingerprint {
    /// Simulated cycles.
    pub cycles: u64,
    /// Retired (committed) instructions.
    pub retired: u64,
}

impl Fingerprint {
    /// The fingerprint of a finished simulation.
    pub fn of(stats: &SimStats) -> Self {
        Fingerprint {
            cycles: stats.cycles,
            retired: stats.committed_instructions,
        }
    }
}

/// Operations attempted and failed, with the first few failure messages.
#[derive(Debug, Default)]
pub struct Ledger {
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that failed.
    pub failed: u64,
    /// The first [`Ledger::KEPT`] failure messages.
    pub failures: Vec<String>,
}

impl Ledger {
    /// How many failure messages are kept for the report.
    pub const KEPT: usize = 100;

    /// Records one operation's outcome; returns whether it passed.
    pub fn record(&mut self, op: &str, outcome: Result<(), String>) -> bool {
        self.attempted += 1;
        match outcome {
            Ok(()) => true,
            Err(why) => {
                self.failed += 1;
                if self.failures.len() < Self::KEPT {
                    self.failures.push(format!("{op}: {why}"));
                }
                false
            }
        }
    }

    /// Whether every operation passed.
    pub fn all_passed(&self) -> bool {
        self.failed == 0
    }

    /// The process exit code: 0 when every operation passed, 1 otherwise.
    pub fn exit_code(&self) -> i32 {
        if self.all_passed() {
            0
        } else {
            1
        }
    }
}

/// Runs `f`, turning a panic into an error message instead of unwinding
/// through the benchmark.
pub fn guarded<T>(f: impl FnOnce() -> T) -> Result<T, String> {
    catch_unwind(AssertUnwindSafe(f)).map_err(|payload| {
        let msg = payload
            .downcast_ref::<String>()
            .map(String::as_str)
            .or_else(|| payload.downcast_ref::<&str>().copied())
            .unwrap_or("non-string panic payload");
        format!("panicked: {msg}")
    })
}

/// The checks every finished simulation must pass, for any seed: it ran to
/// completion within its budget, its checkpoint lifecycle balances
/// (`taken == committed + squashed`), it retired exactly `len`
/// instructions when the length is known, and it matches `expected`, the
/// pinned fingerprint on the canonical seed or, on any other seed, the
/// first run of the same simulation in this process.
pub fn check_stats(
    stats: &SimStats,
    len: Option<usize>,
    expected: Option<Fingerprint>,
) -> Result<(), String> {
    if stats.budget_exhausted {
        return Err(format!("cycle budget exhausted at cycle {}", stats.cycles));
    }
    if stats.checkpoints_taken != stats.checkpoints_committed + stats.checkpoints_squashed {
        return Err(format!(
            "unbalanced checkpoint lifecycle: taken {} != committed {} + squashed {}",
            stats.checkpoints_taken, stats.checkpoints_committed, stats.checkpoints_squashed
        ));
    }
    if let Some(len) = len {
        if stats.committed_instructions != len as u64 {
            return Err(format!(
                "retired {} of {len} instructions",
                stats.committed_instructions
            ));
        }
    }
    let got = Fingerprint::of(stats);
    match expected {
        Some(want) if want != got => Err(format!(
            "fingerprint drift: cycles {} retired {}, expected cycles {} retired {}",
            got.cycles, got.retired, want.cycles, want.retired
        )),
        _ => Ok(()),
    }
}

/// Two runs of the same simulation must agree on every statistic.
pub fn check_identical(
    what: &str,
    reference: Option<&SimStats>,
    got: &SimStats,
) -> Result<(), String> {
    match reference {
        None => Err("no reference run to compare against".to_string()),
        Some(r) if r != got => Err(format!(
            "{what} differs: cycles {} vs {}, retired {} vs {}",
            got.cycles, r.cycles, got.committed_instructions, r.committed_instructions
        )),
        Some(_) => Ok(()),
    }
}

/// A pinned fingerprint: `(machine, kernel, cycles, retired)`. A
/// fingerprint depends only on the machine and the kernel, so a simulation
/// that two workloads share has one row.
pub type Pin = (&'static str, &'static str, u64, u64);

/// Canonical-seed fingerprints. The baseline-128 and cooo-128/2048 rows are
/// the baseline and cooo rows of `bench/baseline.json` (same kernels,
/// machines and 8000-instruction length). A drifted fingerprint is reported
/// with its new value; after an intended timing change, copy the reported
/// values here.
pub const PINS: &[Pin] = &[
    ("cooo-128/2048", "stream_add", 4183, 8004),
    ("cooo-128/2048", "stencil27", 4460, 8100),
    ("cooo-128/2048", "dense_blocked", 3623, 8140),
    ("cooo-128/2048", "reduction", 5608, 8008),
    ("cooo-128/2048", "gather", 4516, 8070),
    ("baseline-32+dram", "pointer_chase", 6967994, 8000),
    ("baseline-32+dram", "stream_mlp", 241649, 8024),
    ("cooo-32/2048+dram", "pointer_chase", 6967995, 8000),
    ("cooo-32/2048+dram", "stream_mlp", 236581, 8024),
    ("baseline-128", "stream_add", 47328, 8004),
    ("baseline-128", "stencil27", 61382, 8100),
    ("baseline-128", "dense_blocked", 57208, 8140),
    ("baseline-128", "reduction", 59149, 8008),
    ("baseline-128", "gather", 63937, 8070),
    ("baseline-4096", "stream_add", 3203, 8004),
    ("baseline-4096", "stencil27", 3186, 8100),
    ("baseline-4096", "dense_blocked", 3164, 8140),
    ("baseline-4096", "reduction", 4713, 8008),
    ("baseline-4096", "gather", 3285, 8070),
    ("cooo-32/512", "stream_add", 4303, 8004),
    ("cooo-32/512", "stencil27", 12123, 8100),
    ("cooo-32/512", "dense_blocked", 3665, 8140),
    ("cooo-32/512", "reduction", 10634, 8008),
    ("cooo-32/512", "gather", 10072, 8070),
    ("cooo-64/512", "stream_add", 4200, 8004),
    ("cooo-64/512", "stencil27", 12001, 8100),
    ("cooo-64/512", "dense_blocked", 3616, 8140),
    ("cooo-64/512", "reduction", 10442, 8008),
    ("cooo-64/512", "gather", 9929, 8070),
    ("cooo-128/512", "stream_add", 4183, 8004),
    ("cooo-128/512", "stencil27", 10797, 8100),
    ("cooo-128/512", "dense_blocked", 3623, 8140),
    ("cooo-128/512", "reduction", 9166, 8008),
    ("cooo-128/512", "gather", 8719, 8070),
    ("cooo-32/1024", "stream_add", 4303, 8004),
    ("cooo-32/1024", "stencil27", 8096, 8100),
    ("cooo-32/1024", "dense_blocked", 3665, 8140),
    ("cooo-32/1024", "reduction", 7676, 8008),
    ("cooo-32/1024", "gather", 6490, 8070),
    ("cooo-64/1024", "stream_add", 4200, 8004),
    ("cooo-64/1024", "stencil27", 7033, 8100),
    ("cooo-64/1024", "dense_blocked", 3616, 8140),
    ("cooo-64/1024", "reduction", 7586, 8008),
    ("cooo-64/1024", "gather", 6424, 8070),
    ("cooo-128/1024", "stream_add", 4183, 8004),
    ("cooo-128/1024", "stencil27", 6925, 8100),
    ("cooo-128/1024", "dense_blocked", 3623, 8140),
    ("cooo-128/1024", "reduction", 7388, 8008),
    ("cooo-128/1024", "gather", 6319, 8070),
    ("cooo-32/2048", "stream_add", 4303, 8004),
    ("cooo-32/2048", "stencil27", 4709, 8100),
    ("cooo-32/2048", "dense_blocked", 3665, 8140),
    ("cooo-32/2048", "reduction", 5705, 8008),
    ("cooo-32/2048", "gather", 4603, 8070),
    ("cooo-64/2048", "stream_add", 4200, 8004),
    ("cooo-64/2048", "stencil27", 4513, 8100),
    ("cooo-64/2048", "dense_blocked", 3616, 8140),
    ("cooo-64/2048", "reduction", 5672, 8008),
    ("cooo-64/2048", "gather", 4552, 8070),
];

/// The fingerprint `pins` holds for one simulation, if any.
pub fn pinned(pins: &[Pin], machine: &str, kernel: &str) -> Option<Fingerprint> {
    pins.iter()
        .find(|&&(m, k, _, _)| m == machine && k == kernel)
        .map(|&(_, _, cycles, retired)| Fingerprint { cycles, retired })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn finished(cycles: u64, retired: u64) -> SimStats {
        SimStats {
            cycles,
            committed_instructions: retired,
            checkpoints_taken: 5,
            checkpoints_committed: 4,
            checkpoints_squashed: 1,
            ..Default::default()
        }
    }

    #[test]
    fn a_matching_run_passes() {
        let s = finished(100, 50);
        assert_eq!(check_stats(&s, Some(50), Some(Fingerprint::of(&s))), Ok(()));
        assert_eq!(check_stats(&s, None, None), Ok(()));
    }

    #[test]
    fn each_broken_invariant_fails() {
        let good = finished(100, 50);
        let pin = Some(Fingerprint::of(&good));
        let exhausted = SimStats {
            budget_exhausted: true,
            ..good.clone()
        };
        assert!(check_stats(&exhausted, Some(50), pin).is_err());
        let unbalanced = SimStats {
            checkpoints_squashed: 0,
            ..good.clone()
        };
        assert!(check_stats(&unbalanced, Some(50), pin).is_err());
        assert!(check_stats(&good, Some(51), pin).is_err());
        let drift = Some(Fingerprint {
            cycles: 101,
            retired: 50,
        });
        assert!(check_stats(&good, Some(50), drift)
            .unwrap_err()
            .contains("fingerprint drift"));
    }

    #[test]
    fn panics_become_failed_operations() {
        let mut ledger = Ledger::default();
        let outcome = guarded(|| -> u32 { panic!("simulated deadlock") });
        let err = outcome.unwrap_err();
        assert!(err.contains("simulated deadlock"), "{err}");
        assert!(!ledger.record("op", Err(err)));
        assert!(ledger.record("op", Ok(())));
        assert_eq!((ledger.attempted, ledger.failed), (2, 1));
        assert_eq!(ledger.exit_code(), 1);
        assert_eq!(Ledger::default().exit_code(), 0);
    }

    #[test]
    fn identity_needs_a_reference_and_equal_stats() {
        let a = finished(100, 50);
        assert_eq!(check_identical("traced", Some(&a), &a), Ok(()));
        assert!(check_identical("traced", None, &a).is_err());
        assert!(check_identical("traced", Some(&finished(101, 50)), &a).is_err());
    }

    #[test]
    fn pins_are_unique() {
        for (i, a) in PINS.iter().enumerate() {
            for b in &PINS[i + 1..] {
                assert!((a.0, a.1) != (b.0, b.1), "duplicate pin {a:?}");
            }
        }
    }
}
