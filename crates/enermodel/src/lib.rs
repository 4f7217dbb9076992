//! # enermodel — energy models for DVFS/UFS tuning
//!
//! This crate implements the modelling methodology of Section IV of the paper
//! *"Modelling DVFS and UFS for Region-Based Energy Aware Tuning of HPC
//! Applications"*:
//!
//! * a small dense [`linalg`] layer (no external BLAS) sized for the
//!   counter-selection and network workloads of the paper,
//! * ordinary least squares [`regress`]ion with R² diagnostics,
//! * the Variance Inflation Factor ([`vif`]) multicollinearity heuristic,
//! * the stepwise PAPI counter [`select`]ion algorithm of Chadha et al.
//!   (IPDPSW'17) that the paper reuses for its energy model inputs,
//! * feature standardisation ([`scaler`]),
//! * a fully-connected feed-forward neural [`nn`]work (9–5–5–1, ReLU, He
//!   initialisation) trained with the [`adam`] optimiser on mean squared
//!   error ([`mod@train`]),
//! * Leave-One-Out Cross-Validation and MAPE reporting ([`loocv`],
//!   [`metrics`]), and
//! * the regression-based power/time model of the authors' earlier work,
//!   used as the comparison [`baseline`] in Section V-B.
//!
//! Everything is deterministic given a seed; no global RNG state is used.

#![warn(missing_docs)]
#![forbid(unsafe_code)]
#![warn(rust_2018_idioms)]

pub mod adam;
pub mod baseline;
pub mod linalg;
pub mod loocv;
pub mod metrics;
pub mod nn;
pub mod regress;
pub mod scaler;
pub mod select;
pub mod train;
pub mod vif;

pub use adam::Adam;
pub use linalg::{Matrix, Vector};
pub use loocv::{loocv_mape, LoocvReport};
pub use metrics::{mape, mean_absolute_error, mse, r_squared};
pub use nn::{Activation, EnergyNet, Layer, NetConfig, Workspace};
pub use regress::{ols, OlsFit};
pub use scaler::StandardScaler;
pub use select::{select_counters, SelectionConfig, SelectionResult};
pub use train::{train, train_scaled, Dataset, TrainConfig, TrainReport};
pub use vif::{mean_vif, vif_all, vif_for};
