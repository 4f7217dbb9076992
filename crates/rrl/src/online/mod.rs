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
//!   phase iterations answer the steps of the design-time
//!   [`TuningPlan`](ptf::plan::TuningPlan) (any
//!   [`SearchStrategy`](ptf::SearchStrategy); model-based neighbourhood
//!   by default) through the session's live region accounting, on a
//!   deterministic, job-seeded explore schedule (internal `schedule`).
//!   On `finish` the converged model is ready for
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
//!
//! Every measured choice, the plan's and a drift-flagged region's
//! re-calibration (one [`Sweep`](ptf::plan::Sweep)), is ranked by
//! [`TuningObjective::best`], as at design time.
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

use ptf::TuningObjective;

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
