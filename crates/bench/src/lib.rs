//! # bench-suite — experiment regeneration harness
//!
//! One binary per table/figure of the paper plus shared sweep utilities.
//! The Criterion benches measure the hot paths behind each artefact.

#![warn(missing_docs)]
#![forbid(unsafe_code)]
#![warn(rust_2018_idioms)]

pub mod experiments;
pub mod summary;
pub mod sweep;

pub use sweep::{energy_grid, EnergyGrid, GridPoint};
