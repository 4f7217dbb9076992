//! The staged tuning API.
//!
//! PTF's Tuning Plugin Interface drives a plugin through an explicit
//! lifecycle — `initialize`, `createScenarios`, `prepareScenarios`,
//! `defineExperiments`, `getAdvice`. [`TuningSession`] models that
//! lifecycle as a typestate machine: every stage is its own type, so the
//! stages can only run in order and skipping one is a *compile* error,
//! not a runtime panic.
//!
//! ```text
//! TuningSession::builder(&node)
//!     .with_model(&model)            // optional for exhaustive/random
//!     .with_objective(objective)     // default: energy
//!     .with_strategy(&strategy)      // default: model-based neighbourhood
//!     .preprocess(&bench)?           // -> Preprocessed   (Score-P + dyn-detect)
//!     .tune_threads()?               // -> ThreadsTuned   (tuning step 1)
//!     .analyze()?                    // -> Analyzed       (PAPI counter rates)
//!     .tune_frequencies()?           // -> FrequencyTuned (step 2 + verification)
//!     .advice()                      // -> Advice         (the tuning model)
//! ```
//!
//! Every transition returns `Result<_, TuningError>`; nothing on this
//! path panics. Sessions built [`with_cache`](SessionBuilder::with_cache)
//! over one shared [`ExperimentCache`] simulate repeated region
//! evaluations once, bit-identically to the uncached path.

mod cache;
mod error;
mod strategy;

pub use cache::{CacheStats, ExperimentCache};
pub use error::TuningError;
pub use strategy::{
    ExhaustiveSearch, ExplorationInputs, ExplorationPlan, ModelBasedNeighbourhood, RandomSearch,
    SearchStrategy, VerificationRule,
};

use std::cell::RefCell;

use kernels::BenchmarkSpec;
use scorep_lite::dyn_detect::{detect, DynDetectConfig};
use scorep_lite::filter::{autofilter, DEFAULT_FILTER_THRESHOLD_S};
use scorep_lite::instrument::StaticHook;
use scorep_lite::{InstrumentationConfig, InstrumentedApp, TuningConfigFile};
use simnode::{CoreFreq, Node, SystemConfig, UncoreFreq};

use crate::experiments::ExperimentsEngine;
use crate::freqpred::EnergyModel;
use crate::modeldata::phase_counter_rates;
use crate::objectives::TuningObjective;
use crate::threads::ThreadTuning;
use crate::tuning_model::TuningModel;

static DEFAULT_STRATEGY: ModelBasedNeighbourhood = ModelBasedNeighbourhood::paper();

/// Entry point for the staged tuning lifecycle.
pub struct TuningSession;

impl TuningSession {
    /// Start building a session on `node`.
    pub fn builder(node: &Node) -> SessionBuilder<'_> {
        SessionBuilder {
            node,
            model: None,
            objective: TuningObjective::Energy,
            strategy: &DEFAULT_STRATEGY,
            dyn_detect: DynDetectConfig::default(),
            cache: None,
        }
    }
}

/// Configures a [`TuningSession`] before pre-processing starts.
pub struct SessionBuilder<'a> {
    node: &'a Node,
    model: Option<&'a EnergyModel>,
    objective: TuningObjective,
    strategy: &'a dyn SearchStrategy,
    dyn_detect: DynDetectConfig,
    cache: Option<&'a RefCell<ExperimentCache>>,
}

impl<'a> SessionBuilder<'a> {
    /// Attach a trained energy model (required by the model-based
    /// strategy, ignored by exhaustive/random search).
    #[must_use]
    pub fn with_model(mut self, model: &'a EnergyModel) -> Self {
        self.model = Some(model);
        self
    }

    /// Select a tuning objective (default: plain energy).
    #[must_use]
    pub fn with_objective(mut self, objective: TuningObjective) -> Self {
        self.objective = objective;
        self
    }

    /// Select the frequency-search strategy (default:
    /// [`ModelBasedNeighbourhood::paper`]).
    #[must_use]
    pub fn with_strategy(mut self, strategy: &'a dyn SearchStrategy) -> Self {
        self.strategy = strategy;
        self
    }

    /// Override the significant-region detection settings.
    #[must_use]
    pub fn with_dyn_detect(mut self, cfg: DynDetectConfig) -> Self {
        self.dyn_detect = cfg;
        self
    }

    /// Share an experiment cache with other sessions: a queue of
    /// applications tuned over one cache simulates each repeated
    /// `(region character, configuration)` evaluation once.
    #[must_use]
    pub fn with_cache(mut self, cache: &'a RefCell<ExperimentCache>) -> Self {
        self.cache = Some(cache);
        self
    }

    /// Stage 0 → 1: profiling run, `scorep-autofilter`, filtered run,
    /// `readex-dyn-detect` significant-region detection.
    pub fn preprocess(self, bench: &BenchmarkSpec) -> Result<Preprocessed<'a>, TuningError> {
        let profile_run =
            InstrumentedApp::new(bench, self.node, InstrumentationConfig::scorep_defaults())
                .run(&mut StaticHook(SystemConfig::calibration()));
        let filter = autofilter(&profile_run.profile, DEFAULT_FILTER_THRESHOLD_S);
        let filtered_run = InstrumentedApp::new(
            bench,
            self.node,
            InstrumentationConfig::scorep_defaults().with_filter(filter),
        )
        .run(&mut StaticHook(SystemConfig::calibration()));
        let config_file = detect(&bench.name, &filtered_run.profile, &self.dyn_detect);

        // Every significant region must resolve in the benchmark spec
        // now, so later stages cannot fail on an unknown region.
        for sig in &config_file.significant_regions {
            if bench.region(&sig.name).is_none() {
                return Err(TuningError::UnknownRegion {
                    application: bench.name.clone(),
                    region: sig.name.clone(),
                });
            }
        }

        let engine = match self.cache {
            Some(cache) => ExperimentsEngine::with_cache(self.node, cache),
            None => ExperimentsEngine::new(self.node),
        };
        Ok(Preprocessed {
            core: SessionCore {
                node: self.node,
                model: self.model,
                objective: self.objective,
                strategy: self.strategy,
                engine,
                bench: bench.clone(),
            },
            config_file,
        })
    }

    /// Run the whole lifecycle in one call.
    pub fn run(self, bench: &BenchmarkSpec) -> Result<Advice, TuningError> {
        Ok(self
            .preprocess(bench)?
            .tune_threads()?
            .analyze()?
            .tune_frequencies()?
            .advice())
    }
}

/// State shared by all stages.
struct SessionCore<'a> {
    node: &'a Node,
    model: Option<&'a EnergyModel>,
    objective: TuningObjective,
    strategy: &'a dyn SearchStrategy,
    engine: ExperimentsEngine<'a>,
    bench: BenchmarkSpec,
}

/// Stage 1: pre-processing done, significant regions known.
pub struct Preprocessed<'a> {
    core: SessionCore<'a>,
    config_file: TuningConfigFile,
}

impl<'a> Preprocessed<'a> {
    /// The `readex-dyn-detect` configuration file.
    pub fn config_file(&self) -> &TuningConfigFile {
        &self.config_file
    }

    /// Stage 1 → 2: exhaustive OpenMP thread search for the phase region
    /// (Section III-B). MPI-only applications pin to the full core count.
    pub fn tune_threads(mut self) -> Result<ThreadsTuned<'a>, TuningError> {
        let max_threads = self.core.node.topology().max_threads();
        let candidates = self.config_file.thread_candidates(max_threads);
        let thread_tuning = crate::threads::tune_threads_with(
            &mut self.core.engine,
            &self.core.bench,
            self.core.node,
            &candidates,
            self.core.objective,
        )?;
        Ok(ThreadsTuned {
            core: self.core,
            config_file: self.config_file,
            thread_tuning,
        })
    }
}

/// Stage 2: optimal thread count known.
pub struct ThreadsTuned<'a> {
    core: SessionCore<'a>,
    config_file: TuningConfigFile,
    thread_tuning: ThreadTuning,
}

impl<'a> ThreadsTuned<'a> {
    /// Tuning step 1 outcome.
    pub fn thread_tuning(&self) -> &ThreadTuning {
        &self.thread_tuning
    }

    /// Stage 2 → 3: one instrumented analysis run at the calibration
    /// frequencies measuring the phase PAPI counter rates (Section IV-A).
    pub fn analyze(self) -> Result<Analyzed<'a>, TuningError> {
        let calib = SystemConfig::calibration().with_threads(self.thread_tuning.best_threads);
        let phase_rates = phase_counter_rates(&self.core.bench, self.core.node, calib);
        Ok(Analyzed {
            core: self.core,
            config_file: self.config_file,
            thread_tuning: self.thread_tuning,
            phase_rates,
        })
    }
}

/// Stage 3: phase counter rates measured.
pub struct Analyzed<'a> {
    core: SessionCore<'a>,
    config_file: TuningConfigFile,
    thread_tuning: ThreadTuning,
    phase_rates: [f64; 7],
}

impl<'a> Analyzed<'a> {
    /// The measured phase counter rates.
    pub fn phase_rates(&self) -> &[f64; 7] {
        &self.phase_rates
    }

    /// Stage 3 → 4: the selected [`SearchStrategy`] plans the phase
    /// search, the phase-best configuration is measured among its
    /// candidates, then every significant region is verified against the
    /// verification set the plan derives from that phase best.
    pub fn tune_frequencies(mut self) -> Result<FrequencyTuned<'a>, TuningError> {
        // A session verifies regions at the step-1 optimum only.
        let best_threads = self.thread_tuning.best_threads;
        let rates = self.phase_rates;
        let phase_character = self.core.bench.phase_character();
        let plan = self.core.strategy.exploration(&ExplorationInputs {
            model: self.core.model,
            phase_rates: &|| rates,
            best_threads,
        })?;
        if plan.phase_candidates.is_empty() {
            return Err(TuningError::EmptyCandidates {
                stage: "phase frequency search",
            });
        }
        let (phase_best, _) = self.core.engine.try_best_for_region(
            &phase_character,
            &plan.phase_candidates,
            self.core.objective,
        )?;
        let verification = plan.verification_for(phase_best);

        // Per-region verification: all significant regions are evaluated
        // within the same experiment runs (one phase iteration evaluates
        // every region), so experiments are counted per configuration,
        // not per region × configuration.
        let mut region_best = Vec::new();
        for sig in &self.config_file.significant_regions {
            let region =
                self.core
                    .bench
                    .region(&sig.name)
                    .ok_or_else(|| TuningError::UnknownRegion {
                        application: self.core.bench.name.clone(),
                        region: sig.name.clone(),
                    })?;
            let (cfg, m) = self.core.engine.try_best_for_region(
                &region.character,
                &verification,
                self.core.objective,
            )?;
            region_best.push((sig.name.clone(), cfg, m.node_energy_j));
        }

        Ok(FrequencyTuned {
            core: self.core,
            config_file: self.config_file,
            thread_tuning: self.thread_tuning,
            phase_rates: self.phase_rates,
            predicted_global: plan.predicted_global,
            phase_best,
            search_experiments: (plan.phase_candidates.len() + verification.len()) as u64,
            region_best,
        })
    }
}

/// Stage 4: frequencies tuned, regions verified.
pub struct FrequencyTuned<'a> {
    core: SessionCore<'a>,
    config_file: TuningConfigFile,
    thread_tuning: ThreadTuning,
    phase_rates: [f64; 7],
    predicted_global: Option<(CoreFreq, UncoreFreq)>,
    phase_best: SystemConfig,
    /// Phase candidates plus verification configurations, in
    /// phase-iteration equivalents (the Section V-C accounting).
    search_experiments: u64,
    region_best: Vec<(String, SystemConfig, f64)>,
}

impl FrequencyTuned<'_> {
    /// The verified best phase configuration.
    pub fn phase_best(&self) -> SystemConfig {
        self.phase_best
    }

    /// Per-region best configurations found so far.
    pub fn region_best(&self) -> &[(String, SystemConfig, f64)] {
        &self.region_best
    }

    /// Stage 4 → 5: group regions into scenarios and emit the tuning
    /// model (the `getAdvice` step).
    #[must_use]
    pub fn advice(self) -> Advice {
        let benchmark_fingerprint = self.core.bench.fingerprint();
        let tuning_model = TuningModel::new(
            &self.core.bench.name,
            &self
                .region_best
                .iter()
                .map(|(n, c, _)| (n.clone(), *c))
                .collect::<Vec<_>>(),
            self.phase_best,
        );
        // Experiments in application-run equivalents: thread sweep (k) +
        // one analysis run + phase search + one per verification
        // configuration — the `(k + 1 + 9)` accounting of Section V-C.
        let experiments = self.thread_tuning.experiments + 1 + self.search_experiments;
        Advice {
            tuning_model,
            benchmark_fingerprint,
            config_file: self.config_file,
            thread_tuning: self.thread_tuning,
            phase_rates: self.phase_rates,
            predicted_global: self.predicted_global,
            phase_best: self.phase_best,
            region_best: self.region_best,
            experiments,
            engine_runs: self.core.engine.region_runs(),
            engine_requests: self.core.engine.requests(),
            strategy: self.core.strategy.name(),
            objective: self.core.objective,
        }
    }
}

/// Stage 5: everything the session produced.
#[derive(Debug, Clone)]
pub struct Advice {
    /// The generated tuning model (the plugin's final artefact).
    pub tuning_model: TuningModel,
    /// Workload fingerprint of the tuned benchmark
    /// (`BenchmarkSpec::fingerprint`). Together with the application name
    /// this is the key under which the runtime's tuning-model repository
    /// stores the model, so design-time advice hands off to runtime
    /// serving without re-deriving the workload identity.
    pub benchmark_fingerprint: u64,
    /// The `readex-dyn-detect` configuration file from pre-processing.
    pub config_file: TuningConfigFile,
    /// Tuning step 1 outcome.
    pub thread_tuning: ThreadTuning,
    /// Phase counter rates measured in the analysis step.
    pub phase_rates: [f64; 7],
    /// The model-predicted global frequency pair (strategies without a
    /// model prediction report `None`).
    pub predicted_global: Option<(CoreFreq, UncoreFreq)>,
    /// Best configuration found for the phase region.
    pub phase_best: SystemConfig,
    /// Per significant region: `(name, best config, node energy of one
    /// instance)`.
    pub region_best: Vec<(String, SystemConfig, f64)>,
    /// Experiments requested in phase-iteration equivalents — the
    /// `(k + 1 + 9)` count of the Section V-C cost analysis. Counted per
    /// requested configuration, independent of cache hits, so the figure
    /// is comparable across cached and uncached sessions; see
    /// [`Advice::engine_runs`] for the simulations that actually ran.
    pub experiments: u64,
    /// Individual region simulations that actually ran on the execution
    /// engine (cache hits excluded) — the quantity the batch cache saves.
    pub engine_runs: u64,
    /// Evaluation requests issued to the engine (cache hits included).
    pub engine_requests: u64,
    /// Name of the search strategy that produced this advice.
    pub strategy: &'static str,
    /// Objective the session tuned for.
    pub objective: TuningObjective,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn model(node: &Node) -> EnergyModel {
        EnergyModel::train_paper(&kernels::training_set(), node)
    }

    #[test]
    fn staged_lifecycle_matches_one_shot_run() {
        let node = Node::exact(0);
        let model = model(&node);
        let bench = kernels::benchmark("miniMD").unwrap();

        let staged = TuningSession::builder(&node)
            .with_model(&model)
            .preprocess(&bench)
            .unwrap()
            .tune_threads()
            .unwrap()
            .analyze()
            .unwrap()
            .tune_frequencies()
            .unwrap()
            .advice();
        let one_shot = TuningSession::builder(&node)
            .with_model(&model)
            .run(&bench)
            .unwrap();
        assert_eq!(staged.tuning_model, one_shot.tuning_model);
        assert_eq!(staged.experiments, one_shot.experiments);
        assert_eq!(staged.strategy, "model-based-neighbourhood");
    }

    #[test]
    fn stage_accessors_expose_intermediate_state() {
        let node = Node::exact(0);
        let model = model(&node);
        let bench = kernels::benchmark("Lulesh").unwrap();
        let pre = TuningSession::builder(&node)
            .with_model(&model)
            .preprocess(&bench)
            .unwrap();
        assert_eq!(pre.config_file().significant_regions.len(), 5);
        let threads = pre.tune_threads().unwrap();
        assert_eq!(threads.thread_tuning().best_threads, 24);
        let analyzed = threads.analyze().unwrap();
        assert!(analyzed.phase_rates().iter().all(|&r| r > 0.0));
        let tuned = analyzed.tune_frequencies().unwrap();
        assert_eq!(tuned.region_best().len(), 5);
        let advice = tuned.advice();
        assert_eq!(advice.tuning_model.application, "Lulesh");
        assert_eq!(advice.benchmark_fingerprint, bench.fingerprint());
        assert!(advice.engine_runs <= advice.engine_requests);
    }

    #[test]
    fn exhaustive_and_random_strategies_need_no_model() {
        let node = Node::exact(0);
        let bench = kernels::benchmark("miniMD").unwrap();
        let exhaustive = TuningSession::builder(&node)
            .with_strategy(&ExhaustiveSearch)
            .run(&bench)
            .unwrap();
        assert_eq!(exhaustive.strategy, "exhaustive");
        assert!(exhaustive.predicted_global.is_none());

        let random = RandomSearch::new(20, 3);
        let sampled = TuningSession::builder(&node)
            .with_strategy(&random)
            .run(&bench)
            .unwrap();
        assert_eq!(sampled.strategy, "random");
        // Random search can only be as good as exhaustive on the shared
        // objective, and both produce a usable tuning model.
        let e_score = exhaustive
            .region_best
            .iter()
            .map(|(_, _, e)| e)
            .sum::<f64>();
        let r_score = sampled.region_best.iter().map(|(_, _, e)| e).sum::<f64>();
        assert!(
            r_score >= e_score - 1e-9,
            "exhaustive {e_score} vs random {r_score}"
        );
        assert!(sampled.experiments < exhaustive.experiments);
    }

    #[test]
    fn model_based_without_model_errors_at_frequency_stage() {
        let node = Node::exact(0);
        let bench = kernels::benchmark("miniMD").unwrap();
        let err = TuningSession::builder(&node).run(&bench).unwrap_err();
        assert!(matches!(err, TuningError::MissingModel { .. }));
    }

    #[test]
    fn lulesh_session_end_to_end() {
        let node = Node::exact(0);
        let model = model(&node);
        let advice = TuningSession::builder(&node)
            .with_model(&model)
            .run(&kernels::benchmark("Lulesh").unwrap())
            .unwrap();

        assert_eq!(advice.thread_tuning.best_threads, 24);
        assert_eq!(advice.config_file.significant_regions.len(), 5);
        assert_eq!(advice.region_best.len(), 5);

        // The predicted global pair must have the compute-bound shape:
        // high core frequency, low-to-mid uncore frequency.
        let (cf, ucf) = advice.predicted_global.unwrap();
        assert!(cf.mhz() >= 2200, "predicted CF {cf}");
        assert!(ucf.mhz() <= 2400, "predicted UCF {ucf}");

        // Every region config lies inside the verified neighbourhood:
        // recentring (radius 3) plus region radius 1 → at most 4 steps
        // from the predicted global pair.
        for (name, cfg, _) in &advice.region_best {
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
        assert!(advice.tuning_model.scenario_count() <= 5);
        assert!(advice.tuning_model.scenario_count() >= 1);

        // Cost accounting: k (4 thread candidates) + 1 analysis +
        // recentring grid (≤ 49) + ≤ 2×3×3 verification configs.
        assert!(advice.experiments >= 4 + 1 + 6);
        assert!(advice.experiments <= 4 + 1 + 49 + 18);
    }

    #[test]
    fn mcb_session_finds_memory_bound_shape() {
        let node = Node::exact(0);
        let model = model(&node);
        let advice = TuningSession::builder(&node)
            .with_model(&model)
            .run(&kernels::benchmark("Mcbenchmark").unwrap())
            .unwrap();

        // 16 or 20: the calibration-point thread landscape is flat (see
        // threads::tests::mcb_prefers_reduced_threads).
        assert!(
            advice.thread_tuning.best_threads == 16 || advice.thread_tuning.best_threads == 20,
            "threads {}",
            advice.thread_tuning.best_threads
        );
        assert_eq!(advice.config_file.significant_regions.len(), 5);
        // With 16 threads from step 1 the per-core work share rises, so
        // the optimal core frequency sits a little higher than the paper's
        // 20-thread 1.6 GHz — but the memory-bound shape (low CF, high
        // UCF relative to the compute-bound codes) must hold.
        let (cf, ucf) = advice.predicted_global.unwrap();
        assert!(cf.mhz() <= 2200, "predicted CF {cf} should be low");
        assert!(ucf.mhz() >= 1900, "predicted UCF {ucf} should be high");
    }

    /// Two different applications sharing one library kernel (the common
    /// production case: the same halo exchange / BLAS call linked into
    /// many codes). The shared region's evaluations must be simulated
    /// once across the batch.
    fn shared_kernel_apps() -> [BenchmarkSpec; 2] {
        use kernels::{ProgrammingModel, RegionSpec, Suite};
        use simnode::RegionCharacter;
        let halo = RegionCharacter::builder(4e9)
            .ipc(0.9)
            .parallel(0.96)
            .dram_bytes(4.5 * 4e9)
            .stalls(0.7)
            .build();
        let flux = RegionCharacter::builder(2.5e10)
            .ipc(1.9)
            .parallel(0.995)
            .dram_bytes(0.8 * 2.5e10)
            .build();
        let solver = RegionCharacter::builder(1.2e10)
            .ipc(1.4)
            .parallel(0.99)
            .dram_bytes(2.0 * 1.2e10)
            .stalls(0.5)
            .build();
        [
            BenchmarkSpec::new(
                "cfd-app",
                Suite::Other,
                ProgrammingModel::Hybrid,
                20,
                vec![
                    RegionSpec::new("halo_exchange", halo.clone()),
                    RegionSpec::new("compute_fluxes", flux),
                ],
            ),
            BenchmarkSpec::new(
                "structural-app",
                Suite::Other,
                ProgrammingModel::Hybrid,
                20,
                vec![
                    RegionSpec::new("halo_exchange", halo),
                    RegionSpec::new("implicit_solver", solver),
                ],
            ),
        ]
    }

    #[test]
    fn batch_reduces_engine_evaluations_versus_independent_runs() {
        let node = Node::exact(0);
        let model = model(&node);
        let apps = shared_kernel_apps();

        // Two independent (uncached) sessions.
        let independent_runs: u64 = apps
            .iter()
            .map(|b| {
                TuningSession::builder(&node)
                    .with_model(&model)
                    .run(b)
                    .unwrap()
                    .engine_runs
            })
            .sum();

        // The same two applications over one shared cache.
        let cache = RefCell::new(ExperimentCache::new());
        let batch_runs: u64 = apps
            .iter()
            .map(|b| {
                TuningSession::builder(&node)
                    .with_model(&model)
                    .with_cache(&cache)
                    .run(b)
                    .unwrap()
                    .engine_runs
            })
            .sum();

        let stats = cache.borrow().stats();
        assert!(stats.hits > 0, "batch must hit the shared cache: {stats:?}");
        assert!(
            batch_runs < independent_runs,
            "batch {batch_runs} runs vs independent {independent_runs}"
        );
        assert_eq!(
            stats.misses, batch_runs,
            "every miss is exactly one engine run"
        );
    }

    #[test]
    fn cached_advice_is_bit_identical_to_uncached() {
        let node = Node::exact(0);
        let model = model(&node);
        let apps = [
            kernels::benchmark("Lulesh").unwrap(),
            kernels::benchmark("Mcbenchmark").unwrap(),
        ];
        let cache = RefCell::new(ExperimentCache::new());
        let tune = |bench: &BenchmarkSpec| {
            TuningSession::builder(&node)
                .with_model(&model)
                .with_cache(&cache)
                .run(bench)
                .unwrap()
        };
        for bench in &apps {
            let uncached = TuningSession::builder(&node)
                .with_model(&model)
                .run(bench)
                .unwrap();
            let cached = tune(bench);
            assert_eq!(uncached.tuning_model, cached.tuning_model);
            assert_eq!(uncached.phase_best, cached.phase_best);
            for ((na, ca, ea), (nb, cb, eb)) in uncached.region_best.iter().zip(&cached.region_best)
            {
                assert_eq!(na, nb);
                assert_eq!(ca, cb);
                assert_eq!(ea.to_bits(), eb.to_bits(), "region {na} energy differs");
            }
        }
        // Re-tuning an already-seen application is almost free.
        let before = cache.borrow().stats();
        let again = tune(&apps[0]);
        assert_eq!(again.engine_runs, 0, "full cache hit on re-tune");
        assert!(cache.borrow().stats().hits > before.hits);
    }

    #[test]
    fn batch_works_with_model_free_strategies() {
        let node = Node::exact(0);
        let strategy = RandomSearch::new(12, 9);
        let cache = RefCell::new(ExperimentCache::new());
        let apps = [
            kernels::benchmark("miniMD").unwrap(),
            kernels::benchmark("miniMD").unwrap(),
        ];
        let advices: Vec<Advice> = apps
            .iter()
            .map(|b| {
                TuningSession::builder(&node)
                    .with_strategy(&strategy)
                    .with_cache(&cache)
                    .run(b)
                    .unwrap()
            })
            .collect();
        assert_eq!(advices.len(), 2);
        assert_eq!(
            advices[1].engine_runs, 0,
            "identical app re-tune is fully cached"
        );
        assert_eq!(advices[0].tuning_model, advices[1].tuning_model);
    }
}
