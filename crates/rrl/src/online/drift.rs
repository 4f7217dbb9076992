//! Staleness detection for served tuning models.
//!
//! A stored tuning model encodes *expectations*: the per-region node
//! energy the calibration measured at each region's chosen configuration
//! (kept in the repository's
//! [`ModelProvenance`](crate::ModelProvenance)). When the workload
//! evolves — a new input deck, a data-dependent hot loop, a model served
//! at application level for a changed fingerprint — those expectations go
//! stale, and the served configurations may no longer be optimal. The
//! [`DriftDetector`] watches the live per-region measurements flowing
//! through a [`RuntimeSession`](crate::RuntimeSession) and maintains an
//! EWMA of the observed/expected energy ratio per region; once the
//! smoothed ratio leaves the configured band after a warm-up, the region
//! is flagged with a [`DriftEvent`] (latched: one event per region per
//! job) and the [`OnlineTuner`](crate::OnlineTuner) can re-calibrate the
//! region in place.
//!
//! Thresholds default to 15 %: comfortably above the simulated cluster's
//! node-to-node power variability (±2.5 % σ) and the ≤ 4 % residual
//! instrumentation stretch, and comfortably below any workload shift
//! worth re-tuning for.

use std::collections::BTreeMap;

/// EWMA parameters for drift detection.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DriftConfig {
    /// EWMA smoothing factor in `(0, 1]` — the weight of the newest
    /// observation.
    pub alpha: f64,
    /// Relative deviation of the smoothed observed/expected ratio from
    /// 1.0 that flags drift.
    pub threshold: f64,
    /// Observations of a region before its ratio is trusted (no event can
    /// fire earlier).
    pub warmup: u32,
}

impl Default for DriftConfig {
    fn default() -> Self {
        Self {
            alpha: 0.35,
            threshold: 0.15,
            warmup: 3,
        }
    }
}

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

#[derive(Debug)]
struct RegionState {
    expected_j: f64,
    ewma: f64,
    observations: u32,
    latched: bool,
}

/// Per-region EWMA of observed vs. expected energy; fires a latched
/// [`DriftEvent`] when a region's smoothed ratio leaves the threshold
/// band.
#[derive(Debug)]
pub struct DriftDetector {
    cfg: DriftConfig,
    regions: BTreeMap<String, RegionState>,
    events: Vec<DriftEvent>,
}

impl DriftDetector {
    /// A detector over the given `(region, expected energy)` pairs.
    /// Regions without an expectation (and expectations that are not
    /// finite and positive) are never monitored.
    pub fn new(cfg: DriftConfig, expected: &[(String, f64)]) -> Self {
        let regions = expected
            .iter()
            .filter(|(_, e)| e.is_finite() && *e > 0.0)
            .map(|(name, e)| {
                (
                    name.clone(),
                    RegionState {
                        expected_j: *e,
                        ewma: 1.0,
                        observations: 0,
                        latched: false,
                    },
                )
            })
            .collect();
        Self {
            cfg,
            regions,
            events: Vec::new(),
        }
    }

    /// Number of monitored regions.
    pub fn monitored(&self) -> usize {
        self.regions.len()
    }

    /// The expectation a region is compared against, when monitored.
    pub fn expected(&self, region: &str) -> Option<f64> {
        self.regions.get(region).map(|s| s.expected_j)
    }

    /// The current smoothed observed/expected ratio of a region.
    pub fn ratio(&self, region: &str) -> Option<f64> {
        self.regions.get(region).map(|s| s.ewma)
    }

    /// Whether a region has already fired (events are latched).
    pub fn is_latched(&self, region: &str) -> bool {
        self.regions.get(region).is_some_and(|s| s.latched)
    }

    /// Feed one measured region instance. Returns the drift event when
    /// this observation pushes the region's smoothed ratio out of the
    /// band for the first time.
    pub fn observe(&mut self, region: &str, observed_j: f64, iteration: u32) -> Option<DriftEvent> {
        let state = self.regions.get_mut(region)?;
        let ratio = observed_j / state.expected_j;
        state.ewma = if state.observations == 0 {
            ratio
        } else {
            self.cfg.alpha * ratio + (1.0 - self.cfg.alpha) * state.ewma
        };
        state.observations += 1;
        if state.latched
            || state.observations < self.cfg.warmup
            || (state.ewma - 1.0).abs() <= self.cfg.threshold
        {
            return None;
        }
        state.latched = true;
        let event = DriftEvent {
            region: region.to_string(),
            ratio: state.ewma,
            at_iteration: iteration,
        };
        self.events.push(event.clone());
        Some(event)
    }

    /// Replace a region's expectation (after a re-calibration converged)
    /// and reset its EWMA state so the region is monitored afresh.
    pub fn rebase(&mut self, region: &str, expected_j: f64) {
        if let Some(state) = self.regions.get_mut(region) {
            state.expected_j = expected_j;
            state.ewma = 1.0;
            state.observations = 0;
            state.latched = false;
        }
    }

    /// All events fired so far, in fire order.
    pub fn events(&self) -> &[DriftEvent] {
        &self.events
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn detector(threshold: f64) -> DriftDetector {
        DriftDetector::new(
            DriftConfig {
                alpha: 0.5,
                threshold,
                warmup: 2,
            },
            &[("hot".into(), 100.0), ("cold".into(), 50.0)],
        )
    }

    #[test]
    fn stationary_observations_never_fire() {
        let mut d = detector(0.15);
        for i in 0..20 {
            assert!(d.observe("hot", 101.0, i).is_none());
            assert!(d.observe("cold", 49.5, i).is_none());
        }
        assert!(d.events().is_empty());
        assert!((d.ratio("hot").unwrap() - 1.01).abs() < 1e-9);
    }

    #[test]
    fn shifted_region_fires_once_after_warmup() {
        let mut d = detector(0.15);
        assert!(d.observe("hot", 140.0, 0).is_none(), "warm-up");
        let fired = d.observe("hot", 140.0, 1);
        let event = fired.expect("EWMA of 1.4 ratio is out of band");
        assert_eq!(event.region, "hot");
        assert!(event.ratio > 1.15);
        assert_eq!(event.at_iteration, 1);
        // Latched: further drifted observations do not re-fire.
        assert!(d.observe("hot", 150.0, 2).is_none());
        assert!(d.is_latched("hot"));
        assert_eq!(d.events().len(), 1);
        // The other region is unaffected.
        assert!(!d.is_latched("cold"));
    }

    #[test]
    fn unmonitored_regions_are_ignored() {
        let mut d = detector(0.15);
        assert!(d.observe("unknown", 9999.0, 0).is_none());
        assert_eq!(d.monitored(), 2);
        assert_eq!(d.expected("unknown"), None);
    }

    #[test]
    fn rebase_resets_and_rearms() {
        let mut d = detector(0.15);
        d.observe("hot", 140.0, 0);
        d.observe("hot", 140.0, 1);
        assert!(d.is_latched("hot"));
        d.rebase("hot", 140.0);
        assert!(!d.is_latched("hot"));
        assert_eq!(d.expected("hot"), Some(140.0));
        for i in 2..10 {
            assert!(
                d.observe("hot", 140.0, i).is_none(),
                "rebased to the new level"
            );
        }
        // A second genuine shift fires again — immediately, because the
        // region is past its warm-up and the rebase only reset the level.
        let fired = d.observe("hot", 200.0, 10);
        assert!(fired.is_some(), "re-armed region fires on a second shift");
        assert_eq!(fired.unwrap().at_iteration, 10);
    }

    #[test]
    fn nonpositive_expectations_are_not_monitored() {
        let d = DriftDetector::new(
            DriftConfig::default(),
            &[
                ("a".into(), 0.0),
                ("b".into(), f64::NAN),
                ("c".into(), 10.0),
            ],
        );
        assert_eq!(d.monitored(), 1);
    }
}
