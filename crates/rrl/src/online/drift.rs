//! Staleness detection for served tuning models.
//!
//! A stored tuning model encodes *expectations*: the per-region node
//! energy the calibration measured at each region's chosen configuration
//! (kept in the repository's
//! [`ModelProvenance`](crate::ModelProvenance)). When the workload
//! evolves — a new input deck, a data-dependent hot loop, a model served
//! at application level for a changed fingerprint — those expectations go
//! stale, and the served configurations may no longer be optimal.
//!
//! A [`DriftDetector`] is the drift watch of one region: it keeps an EWMA
//! of the observed/expected energy ratio of the region's live
//! measurements, and once the smoothed ratio leaves the band
//! after a warm-up it fires (latched: once per region until
//! [`rebase`](DriftDetector::rebase)). The
//! [`OnlineTuner`](crate::OnlineTuner) keeps one watch per watched region
//! in its per-region slot table, indexed like the session's regions,
//! records each firing as a named [`DriftEvent`] and re-calibrates the
//! region in place.
//!
//! The threshold is 15 %: comfortably above the simulated cluster's
//! node-to-node power variability (±2.5 % σ) and the ≤ 4 % residual
//! instrumentation stretch, and comfortably below any workload shift
//! worth re-tuning for.

/// EWMA smoothing factor in `(0, 1]`: the weight of the newest
/// observation.
const ALPHA: f64 = 0.35;
/// Relative deviation of the smoothed observed/expected ratio from 1.0
/// that flags drift.
const THRESHOLD: f64 = 0.15;
/// Observations of a region before its ratio is trusted (no event can
/// fire earlier).
const WARMUP: u32 = 3;

/// One region whose observed energy drifted away from the served model's
/// expectation.
#[derive(Debug, Clone, PartialEq)]
pub struct DriftEvent {
    /// The drifted region.
    pub region: String,
    /// The smoothed observed/expected energy ratio at fire time.
    pub ratio: f64,
    /// Phase iteration in which the detector fired.
    pub at_iteration: u32,
}

/// The drift watch of one region: an EWMA of observed vs. expected
/// energy that fires, latched, when the smoothed ratio leaves the
/// threshold band.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DriftDetector {
    expected_j: f64,
    ewma: f64,
    observations: u32,
    latched: bool,
}

impl DriftDetector {
    /// A watch against `expected_j` joules per region instance; `None`
    /// when the expectation is not finite and positive (such a region is
    /// never watched).
    pub fn new(expected_j: f64) -> Option<Self> {
        (expected_j.is_finite() && expected_j > 0.0).then_some(Self {
            expected_j,
            ewma: 1.0,
            observations: 0,
            latched: false,
        })
    }

    /// Feed one measured region instance. Returns the smoothed ratio when
    /// this observation pushes it out of the band for the first time.
    pub fn observe(&mut self, observed_j: f64) -> Option<f64> {
        let ratio = observed_j / self.expected_j;
        self.ewma = if self.observations == 0 {
            ratio
        } else {
            ALPHA * ratio + (1.0 - ALPHA) * self.ewma
        };
        self.observations += 1;
        if self.latched || self.observations < WARMUP || (self.ewma - 1.0).abs() <= THRESHOLD {
            return None;
        }
        self.latched = true;
        Some(self.ewma)
    }

    /// Replace the expectation (after a re-calibration converged) and
    /// reset the watch: the EWMA, the latch and the observation count, so
    /// the warm-up applies again.
    pub fn rebase(&mut self, expected_j: f64) {
        *self = Self {
            expected_j,
            ewma: 1.0,
            observations: 0,
            latched: false,
        };
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stationary_observations_never_fire() {
        let mut hot = DriftDetector::new(100.0).unwrap();
        let mut cold = DriftDetector::new(50.0).unwrap();
        for _ in 0..20 {
            assert!(hot.observe(101.0).is_none());
            assert!(cold.observe(49.5).is_none());
        }
        assert!((hot.ewma - 1.01).abs() < 1e-9);
    }

    #[test]
    fn shifted_region_fires_once_after_warmup() {
        let mut hot = DriftDetector::new(100.0).unwrap();
        for _ in 1..WARMUP {
            assert!(hot.observe(140.0).is_none(), "warm-up");
        }
        let ratio = hot.observe(140.0).expect("EWMA of 1.4 is out of band");
        assert!(ratio > 1.15);
        // Latched: further drifted observations do not re-fire.
        assert!(hot.observe(150.0).is_none());
        assert!(hot.latched);
    }

    #[test]
    fn rebase_resets_and_rearms() {
        let mut hot = DriftDetector::new(100.0).unwrap();
        for _ in 0..WARMUP {
            hot.observe(140.0);
        }
        assert!(hot.latched);
        hot.rebase(140.0);
        assert!(!hot.latched);
        assert_eq!(hot.expected_j, 140.0);
        // The rebase also reset the observation count: inside the renewed
        // warm-up even a far-out-of-band observation does not fire.
        assert!(hot.observe(1400.0).is_none(), "warm-up applies again");
        hot.rebase(140.0);
        for _ in 0..8 {
            assert!(hot.observe(140.0).is_none(), "rebased to the new level");
        }
        // A second genuine shift fires again — at once, because the eight
        // observations since the rebase completed its warm-up.
        assert!(
            hot.observe(210.0).is_some(),
            "re-armed region fires on a second shift"
        );
    }

    #[test]
    fn nonpositive_expectations_are_not_monitored() {
        for e in [0.0, -1.0, f64::NAN, f64::INFINITY] {
            assert!(DriftDetector::new(e).is_none(), "{e}");
        }
        assert!(DriftDetector::new(10.0).is_some());
    }
}
