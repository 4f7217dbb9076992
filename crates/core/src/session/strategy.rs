//! Pluggable search strategies for the frequency-tuning stage.
//!
//! The paper's plugin predicts a global frequency pair with the energy
//! model and verifies only its neighbourhood; Sourouri et al. (SC'17)
//! search exhaustively; random subset search is the classic cheap
//! baseline in between. All three sit behind [`SearchStrategy`], selected
//! when the [`TuningSession`](crate::session::TuningSession) is built, so
//! the rest of the lifecycle (thread tuning, analysis, verification,
//! advice) is shared.

use simnode::{CoreFreq, FreqDomain, Node, RegionCharacter, SystemConfig, UncoreFreq};

use crate::experiments::{ExperimentsEngine, Measurement};
use crate::freqpred::EnergyModel;
use crate::objectives::TuningObjective;
use crate::search::SearchSpace;
use crate::session::TuningError;

/// Everything a strategy may consult while planning the frequency search
/// for one application, plus the experiment engine for measurements.
pub struct SearchContext<'s, 'a> {
    pub(crate) node: &'a Node,
    pub(crate) model: Option<&'a EnergyModel>,
    pub(crate) objective: TuningObjective,
    pub(crate) phase_character: &'s RegionCharacter,
    pub(crate) phase_rates: &'s [f64; 7],
    pub(crate) best_threads: u32,
    pub(crate) engine: &'s mut ExperimentsEngine<'a>,
}

impl<'s, 'a> SearchContext<'s, 'a> {
    /// The node experiments run on.
    pub fn node(&self) -> &'a Node {
        self.node
    }

    /// The trained energy model, when the session has one.
    pub fn model(&self) -> Option<&'a EnergyModel> {
        self.model
    }

    /// The session's tuning objective.
    pub fn objective(&self) -> TuningObjective {
        self.objective
    }

    /// Aggregate character of the phase region.
    pub fn phase_character(&self) -> &RegionCharacter {
        self.phase_character
    }

    /// Counter rates measured in the analysis stage.
    pub fn phase_rates(&self) -> &[f64; 7] {
        self.phase_rates
    }

    /// Optimal thread count from tuning step 1.
    pub fn best_threads(&self) -> u32 {
        self.best_threads
    }

    /// Measure one region character under a configuration (cached when
    /// the session shares an experiment cache).
    pub fn evaluate(&mut self, c: &RegionCharacter, cfg: &SystemConfig) -> Measurement {
        self.engine.evaluate(c, cfg)
    }

    /// The configuration minimising the session objective on the phase
    /// region among `configs`.
    pub fn best_phase_config(
        &mut self,
        configs: &[SystemConfig],
    ) -> Result<(SystemConfig, Measurement), TuningError> {
        if configs.is_empty() {
            return Err(TuningError::EmptyCandidates {
                stage: "phase frequency search",
            });
        }
        self.engine
            .try_best_for_region(self.phase_character, configs, self.objective)
    }
}

/// What a strategy decided for one application.
#[derive(Debug, Clone)]
pub struct SearchOutcome {
    /// The model-predicted global frequency pair, for strategies that
    /// predict one (`None` for exhaustive and random search).
    pub predicted_global: Option<(CoreFreq, UncoreFreq)>,
    /// The experimentally-verified best phase configuration.
    pub phase_best: SystemConfig,
    /// Configurations each significant region is verified against.
    pub verification: Vec<SystemConfig>,
    /// Configurations evaluated during the phase search, in
    /// phase-iteration equivalents (the Section V-C accounting).
    pub phase_search_configs: u64,
}

/// The analysis results a strategy consults when generating candidates —
/// the measurement-free subset of [`SearchContext`], so consumers that
/// supply their own measurements (the runtime's online tuner) can drive
/// the same candidate generation the design-time session uses.
#[derive(Clone, Copy)]
pub struct ExplorationInputs<'a> {
    /// The trained energy model, when one is available.
    pub model: Option<&'a EnergyModel>,
    /// Source of the phase PAPI counter rates of the analysis stage.
    /// Measuring them is an instrumented, counter-recording run of the
    /// phase loop, so the source is evaluated lazily: a strategy calls it
    /// only when it reads the rates (the model-based strategy, once;
    /// exhaustive and random search never do). The design-time session
    /// passes its already measured rates; the online tuner measures on
    /// call, advancing the node's counter-noise stream only then.
    pub phase_rates: &'a dyn Fn() -> [f64; 7],
    /// Optimal thread count from tuning step 1.
    pub best_threads: u32,
    /// Thread candidates for region verification.
    pub thread_candidates: &'a [u32],
}

impl std::fmt::Debug for ExplorationInputs<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ExplorationInputs")
            .field("model", &self.model)
            .field("best_threads", &self.best_threads)
            .field("thread_candidates", &self.thread_candidates)
            .finish_non_exhaustive()
    }
}

/// How a strategy derives the per-region verification set once the phase
/// best is measured.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum VerificationRule {
    /// Verify regions against the immediate neighbourhood of the measured
    /// phase best (the paper's Section III-C reduction).
    Neighbourhood {
        /// Verification radius around the measured phase best.
        radius: u32,
        /// Thread candidates spanned by the verification grid.
        threads: Vec<u32>,
    },
    /// Verify regions against the phase candidates themselves (exhaustive
    /// and random search measure one pool for both purposes).
    ReusePhaseCandidates,
}

/// A strategy's search decomposed into its two measurement stages: the
/// phase candidates to measure first, and the rule producing the
/// verification set from the measured phase best. [`SearchStrategy::plan`]
/// drives this plan through the experiments engine; the runtime's online
/// tuner drives it through live region measurements instead.
#[derive(Debug, Clone)]
pub struct ExplorationPlan {
    /// Model-predicted global frequency pair, when the strategy has one.
    pub predicted_global: Option<(CoreFreq, UncoreFreq)>,
    /// Stage 1: candidates among which the phase best is measured.
    pub phase_candidates: Vec<SystemConfig>,
    /// Stage 2: how the verification set follows from the phase best.
    pub verification: VerificationRule,
}

impl ExplorationPlan {
    /// The verification set for a measured phase best.
    pub fn verification_for(&self, phase_best: SystemConfig) -> Vec<SystemConfig> {
        match &self.verification {
            VerificationRule::Neighbourhood { radius, threads } => {
                SearchSpace::neighbourhood(phase_best, *radius, threads.clone()).configs()
            }
            VerificationRule::ReusePhaseCandidates => self.phase_candidates.clone(),
        }
    }

    /// Upper bound on the number of verification configurations *not*
    /// already among the phase candidates — what a measurement-budgeted
    /// consumer must reserve before the phase best is known.
    pub fn max_extra_verification(&self) -> usize {
        match &self.verification {
            VerificationRule::Neighbourhood { radius, threads } => {
                let side = (2 * *radius + 1) as usize;
                side * side * threads.len()
            }
            VerificationRule::ReusePhaseCandidates => 0,
        }
    }
}

/// A frequency-search strategy: given the analysis results, find the
/// phase-best configuration and the per-region verification set.
///
/// Strategies must be `Sync`, so a `&dyn SearchStrategy` and the
/// configurations that borrow one (the runtime's `OnlineTuning`) can be
/// shared between threads that run independent sessions or schedulers
/// (every bundled strategy is plain data, so this costs nothing).
pub trait SearchStrategy: std::fmt::Debug + Sync {
    /// Strategy name (used in reports and error messages).
    fn name(&self) -> &'static str;

    /// Generate the candidate plan from the analysis results alone, with
    /// no measurements taken. Both the design-time session (through the
    /// default [`SearchStrategy::plan`]) and the runtime's online tuner
    /// execute this same plan, so the two paths explore identical
    /// configurations.
    fn exploration(&self, inputs: &ExplorationInputs<'_>) -> Result<ExplorationPlan, TuningError>;

    /// Plan and execute the phase-level frequency search on the
    /// experiments engine. The provided implementation measures the
    /// [`SearchStrategy::exploration`] plan; strategies normally only
    /// implement `exploration`.
    fn plan(&self, ctx: &mut SearchContext<'_, '_>) -> Result<SearchOutcome, TuningError> {
        // A session verifies regions at the step-1 optimum only.
        let best_threads = ctx.best_threads();
        let rates = *ctx.phase_rates();
        let plan = self.exploration(&ExplorationInputs {
            model: ctx.model(),
            phase_rates: &|| rates,
            best_threads,
            thread_candidates: &[best_threads],
        })?;
        let (phase_best, _) = ctx.best_phase_config(&plan.phase_candidates)?;
        Ok(SearchOutcome {
            predicted_global: plan.predicted_global,
            phase_best,
            phase_search_configs: plan.phase_candidates.len() as u64,
            verification: plan.verification_for(phase_best),
        })
    }
}

// ----------------------------------------------------------- model-based

/// The paper's strategy (Section III-C): the neural-network energy model
/// predicts the global frequency pair in one shot; only its immediate
/// neighbourhood is verified experimentally.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ModelBasedNeighbourhood {
    /// Verification radius around the recentred optimum (the paper uses
    /// the immediate neighbours: radius 1 → a 3×3 grid).
    pub radius: u32,
    /// Extra radius for the recentring stage: the model's arg-min
    /// scatters across the flat near-optimal plateau, so the phase is
    /// first verified on a slightly wider grid around the predicted pair
    /// and the measured best becomes the centre for region verification.
    pub recentre_extra: u32,
}

impl ModelBasedNeighbourhood {
    /// The paper's configuration: radius 1, recentring on radius 3.
    pub const fn paper() -> Self {
        Self {
            radius: 1,
            recentre_extra: 2,
        }
    }
}

impl Default for ModelBasedNeighbourhood {
    fn default() -> Self {
        Self::paper()
    }
}

impl SearchStrategy for ModelBasedNeighbourhood {
    fn name(&self) -> &'static str {
        "model-based-neighbourhood"
    }

    fn exploration(&self, inputs: &ExplorationInputs<'_>) -> Result<ExplorationPlan, TuningError> {
        let model = inputs.model.ok_or(TuningError::MissingModel {
            strategy: self.name(),
        })?;
        let core = FreqDomain::haswell_core();
        let uncore = FreqDomain::haswell_uncore();
        let rates = (inputs.phase_rates)();
        let (g_cf, g_ucf) = model.best_frequencies(&rates, &core, &uncore);
        let global = SystemConfig::new(inputs.best_threads, g_cf.mhz(), g_ucf.mhz());

        // Stage 1 — recentre on a wider grid around the predicted pair.
        // Stage 2 — the immediate neighbourhood of the recentred best is
        // what every significant region gets verified against.
        let recentre = SearchSpace::neighbourhood(
            global,
            self.radius + self.recentre_extra,
            vec![inputs.best_threads],
        );
        Ok(ExplorationPlan {
            predicted_global: Some((g_cf, g_ucf)),
            phase_candidates: recentre.configs(),
            verification: VerificationRule::Neighbourhood {
                radius: self.radius,
                threads: inputs.thread_candidates.to_vec(),
            },
        })
    }
}

// ------------------------------------------------------------ exhaustive

/// The Sourouri-et-al.-style baseline: every thread/core/uncore
/// combination is measured, for the phase and for every region. Needs no
/// energy model; costs `n·k·l·m` experiments (Section V-C).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ExhaustiveSearch;

impl SearchStrategy for ExhaustiveSearch {
    fn name(&self) -> &'static str {
        "exhaustive"
    }

    fn exploration(&self, inputs: &ExplorationInputs<'_>) -> Result<ExplorationPlan, TuningError> {
        let space = SearchSpace::full(inputs.thread_candidates.to_vec());
        Ok(ExplorationPlan {
            predicted_global: None,
            phase_candidates: space.configs(),
            verification: VerificationRule::ReusePhaseCandidates,
        })
    }
}

// ---------------------------------------------------------------- random

/// Random-subset search: a seeded sample of the full space, evaluated for
/// the phase and reused for region verification. The classic cheap
/// baseline between the model and exhaustive search; needs no model.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RandomSearch {
    /// How many configurations to sample (clamped to the space size).
    pub samples: usize,
    /// Seed for the deterministic sampler.
    pub seed: u64,
}

impl RandomSearch {
    /// A sampler with the given budget and seed.
    pub fn new(samples: usize, seed: u64) -> Self {
        Self { samples, seed }
    }
}

impl Default for RandomSearch {
    fn default() -> Self {
        Self {
            samples: 24,
            seed: 0x5EED,
        }
    }
}

/// SplitMix64 step — a self-contained deterministic stream so the
/// strategy needs no RNG dependency.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl SearchStrategy for RandomSearch {
    fn name(&self) -> &'static str {
        "random"
    }

    fn exploration(&self, inputs: &ExplorationInputs<'_>) -> Result<ExplorationPlan, TuningError> {
        let space = SearchSpace::full(inputs.thread_candidates.to_vec());
        let mut pool = space.configs();
        if pool.is_empty() {
            return Err(TuningError::EmptyCandidates {
                stage: "random frequency search",
            });
        }
        // Partial Fisher–Yates: the first `n` slots become the sample.
        let n = self.samples.clamp(1, pool.len());
        let mut state = self.seed;
        for i in 0..n {
            let j = i + (splitmix64(&mut state) % (pool.len() - i) as u64) as usize;
            pool.swap(i, j);
        }
        pool.truncate(n);
        Ok(ExplorationPlan {
            predicted_global: None,
            phase_candidates: pool,
            verification: VerificationRule::ReusePhaseCandidates,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::modeldata::phase_counter_rates;

    fn context_fixture() -> (Node, kernels::BenchmarkSpec, [f64; 7]) {
        let node = Node::exact(0);
        let bench = kernels::benchmark("Lulesh").unwrap();
        let rates = phase_counter_rates(&bench, &node, SystemConfig::calibration());
        (node, bench, rates)
    }

    #[test]
    fn model_based_without_model_is_an_error() {
        let (node, bench, rates) = context_fixture();
        let phase = bench.phase_character();
        let mut engine = ExperimentsEngine::new(&node);
        let mut ctx = SearchContext {
            node: &node,
            model: None,
            objective: TuningObjective::Energy,
            phase_character: &phase,
            phase_rates: &rates,
            best_threads: 24,
            engine: &mut engine,
        };
        let err = ModelBasedNeighbourhood::paper().plan(&mut ctx).unwrap_err();
        assert!(matches!(err, TuningError::MissingModel { .. }));
    }

    #[test]
    fn exhaustive_covers_the_full_space() {
        let (node, bench, rates) = context_fixture();
        let phase = bench.phase_character();
        let mut engine = ExperimentsEngine::new(&node);
        let mut ctx = SearchContext {
            node: &node,
            model: None,
            objective: TuningObjective::Energy,
            phase_character: &phase,
            phase_rates: &rates,
            best_threads: 24,
            engine: &mut engine,
        };
        let outcome = ExhaustiveSearch.plan(&mut ctx).unwrap();
        assert_eq!(outcome.verification.len(), 14 * 18);
        assert_eq!(outcome.phase_search_configs, 14 * 18);
        assert!(outcome.predicted_global.is_none());
        // Compute-bound Lulesh: exhaustive phase best has the Fig. 6 shape.
        assert!(outcome.phase_best.core.mhz() >= 2300);
        assert!(outcome.phase_best.uncore.mhz() <= 1900);
    }

    #[test]
    fn random_search_is_deterministic_and_bounded() {
        let (node, bench, rates) = context_fixture();
        let phase = bench.phase_character();
        let strategy = RandomSearch::new(16, 7);
        fn run(
            strategy: &RandomSearch,
            node: &Node,
            phase: &RegionCharacter,
            rates: &[f64; 7],
        ) -> SearchOutcome {
            let mut engine = ExperimentsEngine::new(node);
            let mut ctx = SearchContext {
                node,
                model: None,
                objective: TuningObjective::Energy,
                phase_character: phase,
                phase_rates: rates,
                best_threads: 24,
                engine: &mut engine,
            };
            strategy.plan(&mut ctx).unwrap()
        }
        let a = run(&strategy, &node, &phase, &rates);
        let b = run(&strategy, &node, &phase, &rates);
        assert_eq!(a.verification, b.verification, "same seed, same sample");
        assert_eq!(a.phase_best, b.phase_best);
        assert_eq!(a.verification.len(), 16);
        let mut dedup = a.verification.clone();
        dedup.sort_by_key(|c| (c.threads, c.core.mhz(), c.uncore.mhz()));
        dedup.dedup();
        assert_eq!(dedup.len(), 16, "sample must be without replacement");
    }

    #[test]
    fn exploration_plan_matches_engine_driven_plan() {
        // The engine-driven `plan` is defined as "measure the exploration
        // plan", so the candidate sets of the two paths must be identical —
        // this is what lets the runtime's online tuner reproduce the
        // design-time search from live measurements.
        let (node, bench, rates) = context_fixture();
        let phase = bench.phase_character();
        let strategy = RandomSearch::new(16, 7);
        let inputs = ExplorationInputs {
            model: None,
            phase_rates: &|| rates,
            best_threads: 24,
            thread_candidates: &[24],
        };
        let plan = strategy.exploration(&inputs).unwrap();
        assert_eq!(plan.max_extra_verification(), 0, "pool is reused");

        let mut engine = ExperimentsEngine::new(&node);
        let mut ctx = SearchContext {
            node: &node,
            model: None,
            objective: TuningObjective::Energy,
            phase_character: &phase,
            phase_rates: &rates,
            best_threads: 24,
            engine: &mut engine,
        };
        let outcome = strategy.plan(&mut ctx).unwrap();
        assert_eq!(outcome.verification, plan.phase_candidates);
        assert_eq!(
            outcome.verification,
            plan.verification_for(outcome.phase_best)
        );
        assert!(plan.phase_candidates.contains(&outcome.phase_best));
    }

    #[test]
    fn neighbourhood_rule_bounds_extra_verification() {
        let plan = ExplorationPlan {
            predicted_global: None,
            phase_candidates: vec![SystemConfig::new(24, 2400, 1700)],
            verification: VerificationRule::Neighbourhood {
                radius: 1,
                threads: vec![24],
            },
        };
        assert_eq!(plan.max_extra_verification(), 9);
        let verify = plan.verification_for(SystemConfig::new(24, 2400, 1700));
        assert!(verify.len() <= 9);
        assert!(verify.contains(&SystemConfig::new(24, 2400, 1700)));
    }

    #[test]
    fn random_search_oversized_budget_clamps_to_space() {
        let (node, bench, rates) = context_fixture();
        let phase = bench.phase_character();
        let mut engine = ExperimentsEngine::new(&node);
        let mut ctx = SearchContext {
            node: &node,
            model: None,
            objective: TuningObjective::Energy,
            phase_character: &phase,
            phase_rates: &rates,
            best_threads: 24,
            engine: &mut engine,
        };
        let outcome = RandomSearch::new(10_000, 1).plan(&mut ctx).unwrap();
        assert_eq!(outcome.verification.len(), 14 * 18);
    }
}
