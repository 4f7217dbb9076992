//! `readex-dyn-detect` — significant-region detection.
//!
//! "A region qualifies as a significant region if it has a mean execution
//! time of greater than 100 ms. Since energy measurement and application of
//! core and uncore frequencies has a certain delay, a threshold of 100 ms
//! is selected to ensure that the right execution time influenced by
//! setting the frequencies is measured." (Section III-A.)
//!
//! The tool also characterises each significant region's dynamism
//! (compute- vs memory-intensity here) and emits the configuration file the
//! tuning plugin takes as input. The OpenMP thread ladder the plugin sweeps
//! is the paper's fixed 12:4:max ([`thread_ladder`]).

use serde::{Deserialize, Serialize};

use crate::profile::CallTreeProfile;

/// The significance threshold from the paper: 100 ms mean execution time.
pub const SIGNIFICANCE_THRESHOLD_S: f64 = 0.100;

/// Lower bound of the OpenMP thread ladder (Section V-C uses 12).
const THREAD_LOWER_BOUND: u32 = 12;

/// Step of the OpenMP thread ladder (Section V-C uses 4).
const THREAD_STEP: usize = 4;

/// Detection settings.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct DynDetectConfig {
    /// Mean-time significance threshold, seconds.
    pub threshold_s: f64,
}

impl Default for DynDetectConfig {
    fn default() -> Self {
        Self {
            threshold_s: SIGNIFICANCE_THRESHOLD_S,
        }
    }
}

/// Intensity classification of a significant region.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Intensity {
    /// Dominated by core execution — prefers high CF, tolerates low UCF.
    ComputeBound,
    /// Dominated by memory/bandwidth — prefers high UCF, tolerates low CF.
    MemoryBound,
    /// In between.
    Mixed,
}

/// One detected significant region.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SignificantRegion {
    /// Region name.
    pub name: String,
    /// Mean execution time per instance, seconds.
    pub mean_time_s: f64,
    /// Fraction of total instrumented time this region covers.
    pub weight: f64,
    /// Intensity classification.
    pub intensity: Intensity,
    /// Intra-phase temporal dynamism `(max − min)/mean` of the region's
    /// instance times. High values indicate the region's workload changes
    /// across phase iterations — extra head-room for dynamic tuning.
    pub time_dynamism: f64,
}

/// The configuration file `readex-dyn-detect` writes for the tuning plugin.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TuningConfigFile {
    /// Benchmark/application name.
    pub application: String,
    /// Detected significant regions, heaviest first.
    pub significant_regions: Vec<SignificantRegion>,
    /// Phase iterations observed in the profiling run.
    pub phase_iterations: u64,
}

impl TuningConfigFile {
    /// Region names in weight order.
    pub fn region_names(&self) -> Vec<&str> {
        self.significant_regions
            .iter()
            .map(|r| r.name.as_str())
            .collect()
    }

    /// Does the application exhibit dynamism worth tuning dynamically?
    /// `readex-dyn-detect` answers this with two signals: *inter-region*
    /// dynamism (significant regions with different intensities, hence
    /// different optimal configurations) and *intra-phase* dynamism
    /// (regions whose instance times vary across iterations).
    pub fn has_dynamism(&self) -> bool {
        let intensities: Vec<Intensity> = self
            .significant_regions
            .iter()
            .map(|r| r.intensity)
            .collect();
        let inter = intensities.windows(2).any(|w| w[0] != w[1]);
        let intra = self
            .significant_regions
            .iter()
            .any(|r| r.time_dynamism > 0.10);
        inter || intra
    }
}

/// The OpenMP thread ladder 12, 16, 20, … up to `max` (the paper's
/// 12:4:24 on a Taurus node). A node below the lower bound sweeps `[max]`
/// alone, so the ladder is never empty.
pub fn thread_ladder(max: u32) -> Vec<u32> {
    (THREAD_LOWER_BOUND.min(max)..=max)
        .step_by(THREAD_STEP)
        .collect()
}

/// Run detection over a profiling run.
pub fn detect(
    application: &str,
    profile: &CallTreeProfile,
    cfg: &DynDetectConfig,
) -> TuningConfigFile {
    let total = profile.total_region_time_s().max(f64::MIN_POSITIVE);
    let mut significant: Vec<SignificantRegion> = profile
        .regions
        .iter()
        .filter(|r| r.mean_time_s() > cfg.threshold_s)
        .map(|r| SignificantRegion {
            name: r.name.clone(),
            mean_time_s: r.mean_time_s(),
            weight: r.total_time_s / total,
            intensity: if r.memory_boundness > 0.66 {
                Intensity::MemoryBound
            } else if r.memory_boundness < 0.33 {
                Intensity::ComputeBound
            } else {
                Intensity::Mixed
            },
            time_dynamism: r.time_dynamism(),
        })
        .collect();
    significant.sort_by(|a, b| b.weight.total_cmp(&a.weight));
    TuningConfigFile {
        application: application.to_string(),
        significant_regions: significant,
        phase_iterations: profile.phase_iterations,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::instrument::{InstrumentationConfig, InstrumentedApp, StaticHook};
    use crate::region::RegionKind;
    use simnode::{Node, SystemConfig};

    #[test]
    fn threshold_excludes_fast_regions() {
        let mut p = CallTreeProfile::new();
        p.record("slow", RegionKind::Function, 0.5, 100.0, 0.1);
        p.record("fast", RegionKind::Function, 0.02, 5.0, 0.1);
        let cf = detect("app", &p, &DynDetectConfig::default());
        assert_eq!(cf.region_names(), vec!["slow"]);
    }

    #[test]
    fn lulesh_detects_its_five_significant_regions() {
        let bench = kernels::benchmark("Lulesh").unwrap();
        let node = Node::exact(0);
        let app = InstrumentedApp::new(&bench, &node, InstrumentationConfig::scorep_defaults());
        let report = app.run(&mut StaticHook(SystemConfig::taurus_default()));
        let cf = detect("Lulesh", &report.profile, &DynDetectConfig::default());
        assert_eq!(cf.significant_regions.len(), 5, "{:?}", cf.region_names());
        for name in [
            "IntegrateStressForElems",
            "CalcFBHourglassForceForElems",
            "CalcKinematicsForElems",
            "CalcQForElems",
            "ApplyMaterialPropertiesForElems",
        ] {
            assert!(cf.region_names().contains(&name), "missing {name}");
        }
    }

    #[test]
    fn mcb_detects_five_and_classifies_memory_bound() {
        let bench = kernels::benchmark("Mcbenchmark").unwrap();
        let node = Node::exact(0);
        let app = InstrumentedApp::new(&bench, &node, InstrumentationConfig::scorep_defaults());
        let report = app.run(&mut StaticHook(SystemConfig::taurus_default()));
        let cf = detect("Mcbenchmark", &report.profile, &DynDetectConfig::default());
        assert_eq!(cf.significant_regions.len(), 5, "{:?}", cf.region_names());
        assert!(
            cf.significant_regions
                .iter()
                .all(|r| r.intensity == Intensity::MemoryBound),
            "{:?}",
            cf.significant_regions
        );
    }

    #[test]
    fn weights_sum_to_at_most_one_and_sorted() {
        let bench = kernels::benchmark("Lulesh").unwrap();
        let node = Node::exact(0);
        let app = InstrumentedApp::new(&bench, &node, InstrumentationConfig::scorep_defaults());
        let report = app.run(&mut StaticHook(SystemConfig::taurus_default()));
        let cf = detect("Lulesh", &report.profile, &DynDetectConfig::default());
        let total: f64 = cf.significant_regions.iter().map(|r| r.weight).sum();
        assert!(total <= 1.0 + 1e-9);
        assert!(total > 0.9, "significant regions should dominate: {total}");
        for w in cf.significant_regions.windows(2) {
            assert!(w[0].weight >= w[1].weight);
        }
    }

    #[test]
    fn dynamism_detected_for_varying_regions() {
        let bench = kernels::benchmark("Lulesh").unwrap();
        let node = Node::exact(0);
        let app = InstrumentedApp::new(&bench, &node, InstrumentationConfig::scorep_defaults());
        let report = app.run(&mut StaticHook(SystemConfig::taurus_default()));
        let cf = detect("Lulesh", &report.profile, &DynDetectConfig::default());
        let calc_q = cf
            .significant_regions
            .iter()
            .find(|r| r.name == "CalcQForElems")
            .expect("CalcQForElems significant");
        // CalcQForElems carries a 15 % work variation across phase
        // iterations -> (max-min)/mean ≈ 0.3.
        assert!(
            calc_q.time_dynamism > 0.15,
            "dynamism {}",
            calc_q.time_dynamism
        );
        let stress = cf
            .significant_regions
            .iter()
            .find(|r| r.name == "IntegrateStressForElems")
            .expect("significant");
        assert!(
            stress.time_dynamism < 0.05,
            "steady region: {}",
            stress.time_dynamism
        );
        assert!(cf.has_dynamism());
    }

    #[test]
    fn thread_candidates_from_paper_bounds() {
        assert_eq!(thread_ladder(24), vec![12, 16, 20, 24]);
        assert_eq!(thread_ladder(13), vec![12]);
        assert_eq!(thread_ladder(8), vec![8], "clamped to the node");
        let cf = TuningConfigFile {
            application: "x".into(),
            significant_regions: vec![],
            phase_iterations: 1,
        };
        assert!(!cf.has_dynamism(), "no regions -> no dynamism");
    }
}
