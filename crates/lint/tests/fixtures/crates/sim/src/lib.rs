//! Fixture crate root that carries the required attribute: no
//! unsafe-policy finding for this file.

#![forbid(unsafe_code)]

pub mod maps;
pub mod panics;
pub mod stats;
