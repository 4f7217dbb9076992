//! # dvfs-ufs-tuning — facade crate
//!
//! Re-exports the whole reproduction stack of *"Modelling DVFS and UFS for
//! Region-Based Energy Aware Tuning of HPC Applications"* (Chadha & Gerndt,
//! 2019). See the README for the architecture and the `examples/`
//! directory for end-to-end walkthroughs of the public API.
//!
//! The one-minute tour — the staged `TuningSession` lifecycle:
//!
//! ```no_run
//! use dvfs_ufs_tuning::ptf::{EnergyModel, TuningSession};
//! use dvfs_ufs_tuning::simnode::Node;
//!
//! # fn main() -> Result<(), dvfs_ufs_tuning::ptf::TuningError> {
//! let node = Node::new(0, 42);
//! // Train the 9-5-5-1 energy model on the 14 training benchmarks.
//! let model = EnergyModel::train_paper(&dvfs_ufs_tuning::kernels::training_set(), &node);
//! // Drive the staged lifecycle on an unseen application. Each stage is
//! // its own type; stages out of order do not compile, and every
//! // transition returns Result instead of panicking.
//! let bench = dvfs_ufs_tuning::kernels::benchmark("Lulesh").unwrap();
//! let advice = TuningSession::builder(&node)
//!     .with_model(&model)
//!     .preprocess(&bench)?   // Score-P + readex-dyn-detect
//!     .tune_threads()?       // tuning step 1: OpenMP threads
//!     .analyze()?            // PAPI counter rates
//!     .tune_frequencies()?   // tuning step 2 + verification
//!     .advice();             // scenarios + tuning model
//! println!("{}", advice.tuning_model.to_json());
//! # Ok(())
//! # }
//! ```
//!
//! Batches of applications share a memoising experiment cache through
//! `SessionBuilder::with_cache`, and the frequency search is pluggable via
//! `ptf::SearchStrategy` (model-based, exhaustive, random).

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub use enermodel;
pub use kernels;
pub use obskit;
pub use ptf;
pub use rrl;
pub use scorep_lite;
pub use simnode;
