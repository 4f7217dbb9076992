//! The legacy one-shot Design-Time Analysis driver.
//!
//! [`DesignTimeAnalysis`] predates the staged
//! [`TuningSession`] API and survives as a
//! thin compatibility shim over it, so existing [`DtaReport`] consumers
//! keep compiling. New code should drive the session directly: it
//! exposes every stage, returns `Result` instead of panicking, supports
//! pluggable search strategies and can share a batch experiment cache.

use kernels::BenchmarkSpec;
use scorep_lite::dyn_detect::DynDetectConfig;
use scorep_lite::TuningConfigFile;
use simnode::{CoreFreq, Node, SystemConfig, UncoreFreq};

use crate::freqpred::EnergyModel;
use crate::objectives::TuningObjective;
use crate::session::{ModelBasedNeighbourhood, TuningError, TuningSession};
use crate::threads::ThreadTuning;
use crate::tuning_model::TuningModel;

/// The one-shot DTA driver (compatibility shim over the staged session).
pub struct DesignTimeAnalysis<'a> {
    node: &'a Node,
    model: &'a EnergyModel,
    /// Tuning objective (energy in the paper).
    pub objective: TuningObjective,
    /// Significant-region detection settings.
    pub dyn_detect: DynDetectConfig,
    /// Frequency-neighbourhood radius for verification (the paper uses the
    /// immediate neighbours: radius 1 → a 3×3 grid).
    pub neighbourhood_radius: u32,
    /// Also try one thread step below the phase optimum during region
    /// verification (Table III's 20-thread row for
    /// `ApplyMaterialPropertiesForElems` shows region thread counts can
    /// deviate from the phase optimum). Off by default: the thread/energy
    /// landscape is flat to <1 %, so such picks trade large time penalties
    /// for marginal energy and inflate the dynamic run's slowdown.
    pub explore_thread_neighbourhood: bool,
}

/// Everything the DTA produces.
#[derive(Debug, Clone)]
pub struct DtaReport {
    /// The generated tuning model (the plugin's final artefact).
    pub tuning_model: TuningModel,
    /// The `readex-dyn-detect` configuration file from pre-processing.
    pub config_file: TuningConfigFile,
    /// Tuning step 1 outcome.
    pub thread_tuning: ThreadTuning,
    /// Phase counter rates measured in the analysis step.
    pub phase_rates: [f64; 7],
    /// The model-predicted global frequency pair.
    pub predicted_global: (CoreFreq, UncoreFreq),
    /// Best configuration found for the phase region (predicted global
    /// pair verified against its neighbourhood).
    pub phase_best: SystemConfig,
    /// Per significant region: `(name, best config, node energy of one
    /// instance)`.
    pub region_best: Vec<(String, SystemConfig, f64)>,
    /// Total experiments consumed, in phase-iteration equivalents — the
    /// `(k + 1 + 9)` count of the Section V-C cost analysis.
    pub experiments: u64,
}

impl<'a> DesignTimeAnalysis<'a> {
    /// New DTA on `node` using the trained energy `model`.
    pub fn new(node: &'a Node, model: &'a EnergyModel) -> Self {
        Self {
            node,
            model,
            objective: TuningObjective::Energy,
            dyn_detect: DynDetectConfig::default(),
            neighbourhood_radius: 1,
            explore_thread_neighbourhood: false,
        }
    }

    /// Select a different tuning objective.
    #[must_use]
    pub fn with_objective(mut self, objective: TuningObjective) -> Self {
        self.objective = objective;
        self
    }

    /// Run the full DTA for `bench` through the staged session.
    pub fn try_run(&self, bench: &BenchmarkSpec) -> Result<DtaReport, TuningError> {
        let strategy = ModelBasedNeighbourhood {
            radius: self.neighbourhood_radius,
            recentre_extra: 2,
        };
        let advice = TuningSession::builder(self.node)
            .with_model(self.model)
            .with_objective(self.objective)
            .with_strategy(&strategy)
            .with_dyn_detect(self.dyn_detect.clone())
            .with_thread_neighbourhood(self.explore_thread_neighbourhood)
            .run(bench)?;
        Ok(advice.into_report())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn trained_model(node: &Node) -> EnergyModel {
        EnergyModel::train_paper(&kernels::training_set(), node)
    }

    #[test]
    fn lulesh_dta_end_to_end() {
        let node = Node::exact(0);
        let model = trained_model(&node);
        let dta = DesignTimeAnalysis::new(&node, &model);
        let report = dta.try_run(&kernels::benchmark("Lulesh").unwrap()).unwrap();

        assert_eq!(report.thread_tuning.best_threads, 24);
        assert_eq!(report.config_file.significant_regions.len(), 5);
        assert_eq!(report.region_best.len(), 5);

        // The predicted global pair must have the compute-bound shape:
        // high core frequency, low-to-mid uncore frequency.
        let (cf, ucf) = report.predicted_global;
        assert!(cf.mhz() >= 2200, "predicted CF {cf}");
        assert!(ucf.mhz() <= 2400, "predicted UCF {ucf}");

        // Every region config lies inside the verified neighbourhood:
        // recentring (radius 3) plus region radius 1 → at most 4 steps
        // from the predicted global pair.
        for (name, cfg, _) in &report.region_best {
            assert!(
                (cfg.core.mhz() as i64 - cf.mhz() as i64).abs() <= 400,
                "{name} CF {} too far from global {cf}",
                cfg.core
            );
            assert!(
                (cfg.uncore.mhz() as i64 - ucf.mhz() as i64).abs() <= 400,
                "{name} UCF {} too far from global {ucf}",
                cfg.uncore
            );
        }

        // Tuning model groups the five regions into few scenarios.
        assert!(report.tuning_model.scenario_count() <= 5);
        assert!(report.tuning_model.scenario_count() >= 1);

        // Cost accounting: k (4 thread candidates) + 1 analysis +
        // recentring grid (≤ 49) + ≤ 2×3×3 verification configs.
        assert!(report.experiments >= 4 + 1 + 6);
        assert!(report.experiments <= 4 + 1 + 49 + 18);
    }

    #[test]
    fn mcb_dta_finds_memory_bound_shape() {
        let node = Node::exact(0);
        let model = trained_model(&node);
        let dta = DesignTimeAnalysis::new(&node, &model);
        let report = dta
            .try_run(&kernels::benchmark("Mcbenchmark").unwrap())
            .unwrap();

        // 16 or 20: the calibration-point thread landscape is flat (see
        // threads::tests::mcb_prefers_reduced_threads).
        assert!(
            report.thread_tuning.best_threads == 16 || report.thread_tuning.best_threads == 20,
            "threads {}",
            report.thread_tuning.best_threads
        );
        assert_eq!(report.config_file.significant_regions.len(), 5);
        // With 16 threads from step 1 the per-core work share rises, so
        // the optimal core frequency sits a little higher than the paper's
        // 20-thread 1.6 GHz — but the memory-bound shape (low CF, high
        // UCF relative to the compute-bound codes) must hold.
        let (cf, ucf) = report.predicted_global;
        assert!(cf.mhz() <= 2200, "predicted CF {cf} should be low");
        assert!(ucf.mhz() >= 1900, "predicted UCF {ucf} should be high");
    }
}
