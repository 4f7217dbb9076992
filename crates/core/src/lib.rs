//! # ptf — the Periscope Tuning Framework analog and the paper's tuning
//! plugin
//!
//! This crate is the paper's primary contribution: a model-based tuning
//! plugin that selects, per *significant region*, the energy-optimal
//! configuration of OpenMP threads, core frequency (DVFS) and uncore
//! frequency (UFS), and emits a *tuning model* for the runtime library.
//!
//! ## The staged session API
//!
//! The one design-time entry point is [`session::TuningSession`], a typestate
//! machine mirroring the Tuning Plugin Interface lifecycle. Each stage is
//! a distinct type, so calling stages out of order — e.g. asking for
//! advice before the frequencies are tuned — is a compile error, and
//! every transition returns `Result<_, `[`session::TuningError`]`>`
//! instead of panicking:
//!
//! | Stage | Type | What happens |
//! |-------|------|--------------|
//! | build | [`session::SessionBuilder`] | node, model, objective, [`session::SearchStrategy`] |
//! | pre-process | [`session::Preprocessed`] | Score-P profiling, autofilter, `readex-dyn-detect` |
//! | tuning step 1 | [`session::ThreadsTuned`] | exhaustive OpenMP thread search |
//! | analysis | [`session::Analyzed`] | phase PAPI counter rates |
//! | tuning step 2 | [`session::FrequencyTuned`] | strategy-driven frequency search + verification |
//! | advice | [`session::Advice`] | scenarios + tuning model for the RRL |
//!
//! Three search strategies ship behind the
//! [`session::SearchStrategy`] trait: the paper's
//! [`session::ModelBasedNeighbourhood`] (neural-network prediction,
//! neighbourhood verification), the Sourouri-style
//! [`session::ExhaustiveSearch`] baseline and the
//! [`session::RandomSearch`] subset baseline. A strategy only plans: it
//! turns the analysis results ([`session::ExplorationInputs`]) into an
//! [`session::ExplorationPlan`]. The one [`plan::TuningPlan`] sequences
//! the whole procedure around it — thread sweep, analysis, phase search,
//! verification — and measures nothing itself: the session answers its
//! steps from the experiments engine, and the runtime's online tuner
//! from live phase iterations.
//!
//! Sessions built [`with_cache`](session::SessionBuilder::with_cache)
//! tune many applications over one shared, memoising
//! [`session::ExperimentCache`] keyed by `(region character,
//! SystemConfig)`: overlapping grids, shared library kernels and repeated
//! submissions are simulated once, bit-identically to the uncached path.
//!
//! ## Supporting modules
//!
//! [`modeldata`] implements the Section IV-A data-acquisition pipeline
//! (traces → counter rates + normalised energies), [`freqpred`] the
//! neural-network energy model of tuning step 2, [`plan`] the tuning
//! procedure design time and online calibration share, [`experiments`]
//! the (optionally cached) experiments engine, [`objectives`] the tuning
//! objectives (energy, EDP, ED²P, TCO), [`scenario`]/[`tuning_model`] the
//! system-scenario grouping and the serialisable artefact the RRL
//! consumes, [`exhaustive`] the static exhaustive search and the Section
//! V-C tuning-time cost model.

#![warn(missing_docs)]
#![forbid(unsafe_code)]
#![warn(rust_2018_idioms)]

pub mod exhaustive;
pub mod experiments;
pub mod freqpred;
pub mod modeldata;
pub mod objectives;
pub mod plan;
pub mod scenario;
pub mod search;
pub mod session;
pub mod tuning_model;

pub use freqpred::EnergyModel;
pub use modeldata::{build_dataset, features_from_rates, phase_counter_rates, FEATURE_COUNT};
pub use objectives::TuningObjective;
pub use scenario::{Scenario, ScenarioClassifier};
pub use search::SearchSpace;
pub use session::{
    Advice, ExhaustiveSearch, ExperimentCache, ExplorationInputs, ExplorationPlan,
    ModelBasedNeighbourhood, RandomSearch, SearchStrategy, TuningError, TuningSession,
    VerificationRule,
};
pub use tuning_model::TuningModel;
