//! # koc-frontend
//!
//! Branch prediction for the *Out-of-Order Commit Processors* reproduction.
//!
//! Table 1 of the paper specifies a 16K-entry gshare predictor with a
//! 10-cycle misprediction penalty. This crate provides:
//!
//! * [`GsharePredictor`] — the Table 1 predictor (16K two-bit counters,
//!   global history XOR pc),
//! * [`PerfectPredictor`] — used for limit studies,
//! * the [`BranchPredictor`] trait that the fetch stage of `koc-sim` drives.
//!
//! ```
//! use koc_frontend::{BranchPredictor, GsharePredictor};
//!
//! let mut p = GsharePredictor::table1();
//! // A strongly biased branch is learnt after a couple of occurrences.
//! for _ in 0..4 { p.update(0x40, true); }
//! assert!(p.predict(0x40));
//! ```

#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
#![warn(missing_docs)]

pub mod gshare;
pub mod predictor;

pub use gshare::GsharePredictor;
pub use predictor::{BranchPredictor, BranchStats, PerfectPredictor};
