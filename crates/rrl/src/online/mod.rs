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
//! * [`drift`] — the [`DriftDetector`]: on a repository **hit**, one
//!   watch per region keeps an EWMA of observed vs. model-predicted
//!   region energy and flags stale served models; the flagged region
//!   re-explores its configuration neighbourhood in place and the patched
//!   model is re-published with a bumped version. Monitor mode keeps one
//!   slot per region, indexed like the session's regions, holding the
//!   region's adaptation state and its watch; the served expectations
//!   resolve to slots once, when the job starts, and names appear again
//!   only in the [`DriftEvent`]s and the re-publication.
//! * `schedule` (internal) — the calibration stage machine (thread sweep
//!   → analysis → phase search → verification → exploit), whose
//!   converged model is the calibration's [`ModelPublication`].
//!
//! Every measured choice — the thread sweep, the phase search, each
//! region's verification and a drift-flagged region's re-calibration — is
//! ranked by [`TuningObjective::best`], the rule the design-time session
//! ranks by, so ties go to the smaller configuration on both paths. The
//! candidates measured one per visit run through one `Sweep` (internal).
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

pub use drift::{DriftDetector, DriftEvent};
pub use tuner::{ModelPublication, OnlineOutcome, OnlineTuner};

use ptf::experiments::Measurement;
use ptf::TuningObjective;
use simnode::SystemConfig;

/// Candidate configurations measured one after another, one measurement
/// each, and ranked by [`TuningObjective::best`] once all are measured.
struct Sweep {
    candidates: Vec<SystemConfig>,
    measured: Vec<(SystemConfig, Measurement)>,
}

impl Sweep {
    /// A sweep over `candidates`, which must not be empty.
    fn new(candidates: Vec<SystemConfig>) -> Self {
        Self {
            measured: Vec::with_capacity(candidates.len()),
            candidates,
        }
    }

    /// The candidate the next measurement runs under.
    fn current(&self) -> SystemConfig {
        self.candidates[self.measured.len()]
    }

    /// Record the current candidate's measurement; once every candidate
    /// is measured, the best of them under `objective`.
    fn record(
        &mut self,
        measurement: Measurement,
        objective: TuningObjective,
    ) -> Option<(SystemConfig, Measurement)> {
        self.measured.push((self.current(), measurement));
        if self.measured.len() < self.candidates.len() {
            return None;
        }
        objective.best(self.measured.iter().copied())
    }
}

/// Settings for online calibration.
///
/// Everything else an online job does is the paper's fixed calibration:
/// a calibrating job launches at the platform default configuration,
/// sweeps threads from 12 in steps of 4, and gives a region its own
/// scenario when it runs longer than the `readex-dyn-detect`
/// significance threshold
/// ([`SIGNIFICANCE_THRESHOLD_S`](scorep_lite::dyn_detect::SIGNIFICANCE_THRESHOLD_S)).
/// Monitoring uses the drift watch's fixed EWMA band, and a fired drift event
/// always re-explores the region's radius-1 configuration neighbourhood.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct OnlineConfig {
    /// Objective the online search minimises — the design-time
    /// [`TuningObjective`] the served advice was tuned under (default:
    /// energy).
    pub objective: TuningObjective,
}
