//! # simnode — analytic simulator of a Taurus Haswell-EP compute node
//!
//! The paper's experiments ran on the `haswell` partition of the Bull
//! cluster Taurus: dual-socket Intel Xeon E5-2680v3 nodes (2 × 12 cores,
//! Hyper-Threading and Turbo Boost disabled), per-core DVFS from 1.2 to
//! 2.5 GHz, per-socket uncore frequency scaling (UFS) from 1.3 to 3.0 GHz,
//! HDEEM FPGA energy instrumentation and RAPL. None of that hardware is
//! available here, so this crate reproduces the *mechanisms* the paper
//! relies on:
//!
//! * [`freq`] — discrete DVFS/UFS frequency domains with the measured
//!   transition latencies (21 µs per core, 20 µs per socket),
//! * [`volt`] — voltage/frequency operating points,
//! * [`power`] — a component power model (core, uncore, DRAM, blade) with
//!   per-node variability, the effect Figures 2–3 of the paper illustrate,
//! * [`character`] — frequency-invariant workload characterisation from
//!   which PAPI counter values derive,
//! * [`papi`] — the 56 standardized PAPI preset counters with hardware
//!   multiplexing limits,
//! * [`exec`] — the roofline/overlap execution engine mapping (workload,
//!   configuration, node) to time, counters and energy,
//! * [`hdeem`] — the node-level FPGA energy sensor of Section V (the
//!   RAPL CPU energy is each [`RegionRun`]'s `cpu_energy_j`, the package
//!   share of its power),
//! * [`msr`] — an `x86_adapt`-style register interface through which
//!   frequency changes are applied,
//! * [`node`] / [`cluster`] — node instances with power variability.
//!
//! The simulator is deterministic given node seeds. All quantities carry
//! SI-ish units in their names (`_s`, `_j`, `_w`, `_mhz`).

#![warn(missing_docs)]
#![forbid(unsafe_code)]
#![warn(rust_2018_idioms)]

pub mod character;
pub mod cluster;
pub mod config;
pub mod exec;
pub mod freq;
pub mod hdeem;
pub mod msr;
pub mod node;
pub mod papi;
pub mod power;
pub mod topology;
pub mod volt;

pub use character::RegionCharacter;
pub use cluster::Cluster;
pub use config::SystemConfig;
pub use exec::{ExecutionEngine, RegionRun};
pub use freq::{CoreFreq, FreqDomain, UncoreFreq};
pub use hdeem::HdeemSensor;
pub use msr::MsrBank;
pub use node::Node;
pub use papi::{CounterSet, CounterValues, PapiCounter};
pub use power::{PowerBreakdown, PowerModel};
pub use topology::Topology;
