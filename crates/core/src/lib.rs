//! # koc-core
//!
//! The microarchitectural mechanisms proposed by *Out-of-Order Commit
//! Processors* (HPCA 2004), plus the window structures they replace:
//!
//! **The paper's contribution**
//! * [`rename::CamRenameMap`] — CAM register mapping extended with the
//!   *Future Free* bit column (Figures 3–6),
//! * [`checkpoint`] — the checkpoint table and the taking/committing/rollback
//!   logic that replaces in-order ROB commit (Figure 2),
//! * [`pseudo_rob::PseudoRob`] — the small FIFO that delays the
//!   long-latency-instruction decision and recovers nearby branches, kept
//!   as a band of trace positions over the pipeline's in-flight table,
//! * [`sliq`] — Slow Lane Instruction Queuing: the dependence tracker (the
//!   Section 3 register mask, each entry naming its load) and the secondary
//!   buffer with its wake-up walker (Figure 8).
//!
//! **Conventional structures** (shared by both machines):
//! [`iq::InstructionQueue`], [`lsq::LoadStoreQueue`],
//! [`regfile::PhysRegFile`]. The baseline's reorder buffer has no structure
//! of its own: in-order commit retires from the pipeline's in-flight table,
//! and the ROB size is a capacity check on that table.
//!
//! All structures are plain data structures driven one cycle at a time by the
//! pipeline in `koc-sim`; they own no global state and are directly unit- and
//! property-testable.

#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
#![warn(missing_docs)]

pub mod checkpoint;
mod depmask;
pub mod iq;
pub mod lsq;
pub mod pseudo_rob;
pub mod regfile;
pub mod rename;
pub mod sliq;

pub use checkpoint::{Checkpoint, CheckpointId, CheckpointPolicy, CheckpointTable};
pub use iq::{InstructionQueue, IqEntry, IqFull, IqSlot};
pub use lsq::{LoadStoreQueue, LsqEntry, LsqFull};
pub use pseudo_rob::{PseudoRob, RetireClass};
pub use regfile::PhysRegFile;
pub use rename::{CamRenameMap, RenameCheckpoint, RenamedInst};
pub use sliq::{DependenceTracker, SliqBuffer, SliqConfig, WakeupWalker, SLIQ_WAKE_WIDTH};
