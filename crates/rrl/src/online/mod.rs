//! Online adaptation: calibrate on repository miss, detect drift, write
//! the learned model back.
//!
//! The paper splits tuning into a design-time analysis and a runtime that
//! merely *replays* stored tuning models — so a cold
//! [`TuningModelRepository`](crate::TuningModelRepository) degrades every
//! unseen workload to a static fallback and leaves all dynamic savings on
//! the table. This subsystem closes the loop at runtime:
//!
//! * [`tuner`] — the [`OnlineTuner`]: wraps a
//!   [`RuntimeSession`](crate::RuntimeSession) behind the same event
//!   protocol. On a repository **miss** it *calibrates*: the job's early
//!   phase iterations become an exploration budget, candidate
//!   configurations are generated by the design-time
//!   [`SearchStrategy`](ptf::SearchStrategy) machinery
//!   (model-based neighbourhood by default; exhaustive/random
//!   selectable), measured through the session's live region accounting,
//!   and each significant region converges to its best configuration on a
//!   deterministic, job-seeded explore schedule. On `finish` the
//!   converged assignments form a `TuningModel` ready for
//!   [`publish_online`](crate::TuningModelRepository::publish_online) —
//!   in a cluster run, the first job of a new workload calibrates and
//!   every subsequent job hits: same-workload jobs wait behind the
//!   leading calibration and are admitted as hits once it publishes.
//! * [`drift`] — the [`DriftDetector`]: on a repository **hit**, an EWMA
//!   of observed vs. model-predicted region energy flags stale served
//!   models; under [`DriftPolicy::Recalibrate`] the flagged region
//!   re-explores its configuration neighbourhood in place and the patched
//!   model is re-published with a bumped version.
//! * `schedule` (internal) — the calibration stage machine (thread sweep
//!   → analysis → phase search → verification → exploit), surfaced as
//!   [`ConvergedModel`].
//!
//! ```text
//! match repo.serve_stored(&bench)? {
//!     Some(served) => OnlineTuner::monitor("job", &bench, &node, served, cfg)?,
//!     None => OnlineTuner::calibrate("job", &bench, &node, &strategy, model, cfg)?,
//! }
//! // ... drive events, then:
//! let outcome = tuner.finish()?;
//! if let Some(p) = outcome.publication {
//!     repo.publish_online(&bench, &p.model, p.expected);
//! }
//! ```

pub mod drift;
pub(crate) mod schedule;
pub mod tuner;

pub use drift::{DriftConfig, DriftDetector, DriftEvent, DriftPolicy};
pub use schedule::ConvergedModel;
pub use tuner::{ModelPublication, OnlineOutcome, OnlineTuner};

use ptf::TuningObjective;
use simnode::SystemConfig;

/// Stable ordering key for a configuration (threads, core MHz, uncore
/// MHz) — the deterministic, exploration-order-independent tie-break
/// every online argmin uses.
pub(crate) fn cfg_key(cfg: SystemConfig) -> (u32, u32, u32) {
    (cfg.threads, cfg.core.mhz(), cfg.uncore.mhz())
}

/// Settings for online calibration and drift handling.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OnlineConfig {
    /// Objective the online search minimises (default: energy, matching
    /// the design-time default).
    pub objective: TuningObjective,
    /// Configuration a calibrating job launches at and falls back to
    /// between scheduled candidates (default: the platform default).
    pub launch: SystemConfig,
    /// Lower bound of the OpenMP thread sweep ladder (paper: 12).
    pub thread_lower_bound: u32,
    /// Step of the thread sweep ladder (paper: 4).
    pub thread_step: u32,
    /// A region whose observed time in the analysis iteration exceeds
    /// this threshold gets its own scenario — the `readex-dyn-detect`
    /// significance rule (paper: 100 ms).
    pub significance_threshold_s: f64,
    /// Neighbourhood radius a drift-flagged region re-explores around its
    /// current configuration.
    pub recalibration_radius: u32,
    /// EWMA parameters for drift detection.
    pub drift: DriftConfig,
    /// What to do when drift fires.
    pub drift_policy: DriftPolicy,
}

impl Default for OnlineConfig {
    fn default() -> Self {
        Self {
            objective: TuningObjective::Energy,
            launch: SystemConfig::taurus_default(),
            thread_lower_bound: 12,
            thread_step: 4,
            significance_threshold_s: scorep_lite::dyn_detect::SIGNIFICANCE_THRESHOLD_S,
            recalibration_radius: 1,
            drift: DriftConfig::default(),
            drift_policy: DriftPolicy::Recalibrate,
        }
    }
}

impl OnlineConfig {
    /// Builder form: set the objective.
    #[must_use]
    pub fn with_objective(mut self, objective: TuningObjective) -> Self {
        self.objective = objective;
        self
    }

    /// Builder form: set the drift parameters.
    #[must_use]
    pub fn with_drift(mut self, drift: DriftConfig) -> Self {
        self.drift = drift;
        self
    }

    /// Builder form: set the drift policy.
    #[must_use]
    pub fn with_drift_policy(mut self, policy: DriftPolicy) -> Self {
        self.drift_policy = policy;
        self
    }
}
