//! Pluggable search strategies for the frequency-tuning stage.
//!
//! The paper's plugin predicts a global frequency pair with the energy
//! model and verifies only its neighbourhood; Sourouri et al. (SC'17)
//! search exhaustively; random subset search is the classic cheap
//! baseline in between. All three sit behind [`SearchStrategy`], selected
//! when the [`TuningSession`](crate::session::TuningSession) is built, so
//! the rest of the lifecycle (thread tuning, analysis, verification,
//! advice) is shared.
//!
//! A strategy only plans: [`SearchStrategy::exploration`] turns the
//! analysis results into an [`ExplorationPlan`] (phase candidates plus a
//! [`VerificationRule`]) without measuring anything. The one
//! [`TuningPlan`](crate::plan::TuningPlan) calls it at its analysis step,
//! keeps the candidates the node supports and ranks what its caller
//! measures: the session from its experiments engine, the runtime's
//! online tuner from live phase iterations.

use kernels::splitmix64;
use simnode::{CoreFreq, FreqDomain, SystemConfig, UncoreFreq};

use crate::freqpred::EnergyModel;
use crate::search::SearchSpace;
use crate::session::TuningError;

/// The analysis results a strategy consults when generating candidates.
/// They carry no measurements: the [`TuningPlan`](crate::plan::TuningPlan)
/// passes them in at its analysis step.
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
    /// Optimal thread count from tuning step 1: the one thread count every
    /// strategy's candidates run at.
    pub best_threads: u32,
}

impl std::fmt::Debug for ExplorationInputs<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ExplorationInputs")
            .field("model", &self.model)
            .field("best_threads", &self.best_threads)
            .finish_non_exhaustive()
    }
}

/// How a strategy derives the per-region verification set once the phase
/// best is measured.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum VerificationRule {
    /// Verify regions against the immediate neighbourhood of the measured
    /// phase best, at its thread count (the paper's Section III-C
    /// reduction).
    Neighbourhood {
        /// Verification radius around the measured phase best.
        radius: u32,
    },
    /// Verify regions against the phase candidates themselves (exhaustive
    /// and random search measure one pool for both purposes).
    ReusePhaseCandidates,
}

/// A strategy's search decomposed into its two measurement stages: the
/// phase candidates to measure first, and the rule producing the
/// verification set from the measured phase best. The
/// [`TuningPlan`](crate::plan::TuningPlan) sequences both stages for the
/// design-time session and the runtime's online tuner alike.
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
            VerificationRule::Neighbourhood { radius } => {
                SearchSpace::neighbourhood(phase_best, *radius, vec![phase_best.threads]).configs()
            }
            VerificationRule::ReusePhaseCandidates => self.phase_candidates.clone(),
        }
    }

    /// Upper bound on the number of verification configurations *not*
    /// already among the phase candidates — what a measurement-budgeted
    /// consumer must reserve before the phase best is known.
    pub fn max_extra_verification(&self) -> usize {
        match &self.verification {
            VerificationRule::Neighbourhood { radius } => {
                let side = (2 * *radius + 1) as usize;
                side * side
            }
            VerificationRule::ReusePhaseCandidates => 0,
        }
    }
}

/// A frequency-search strategy: given the analysis results, plan the
/// phase candidates and the per-region verification rule. Strategies only
/// plan; the [`TuningPlan`](crate::plan::TuningPlan) filters, sequences
/// and ranks, and its caller measures.
///
/// Strategies must be `Sync`, so a `&dyn SearchStrategy` and the
/// configurations that borrow one (the runtime's `OnlineTuning`) can be
/// shared between threads that run independent sessions or schedulers
/// (every bundled strategy is plain data, so this costs nothing).
pub trait SearchStrategy: std::fmt::Debug + Sync {
    /// Strategy name (used in reports and error messages).
    fn name(&self) -> &'static str;

    /// Generate the candidate plan from the analysis results alone, with
    /// no measurements taken. The design-time session and the runtime's
    /// online tuner run it through the same
    /// [`TuningPlan`](crate::plan::TuningPlan), so the two paths explore
    /// identical configurations.
    fn exploration(&self, inputs: &ExplorationInputs<'_>) -> Result<ExplorationPlan, TuningError>;
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
        let space = SearchSpace::full(vec![inputs.best_threads]);
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

impl SearchStrategy for RandomSearch {
    fn name(&self) -> &'static str {
        "random"
    }

    fn exploration(&self, inputs: &ExplorationInputs<'_>) -> Result<ExplorationPlan, TuningError> {
        let space = SearchSpace::full(vec![inputs.best_threads]);
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
    use crate::experiments::ExperimentsEngine;
    use crate::modeldata::phase_counter_rates;
    use crate::objectives::TuningObjective;
    use simnode::Node;

    /// `strategy`'s plan for Lulesh at 24 threads, from the counter rates
    /// a session's analysis stage measures.
    fn plan(
        strategy: &dyn SearchStrategy,
        model: Option<&EnergyModel>,
    ) -> Result<ExplorationPlan, TuningError> {
        let node = Node::exact(0);
        let bench = kernels::benchmark("Lulesh").unwrap();
        let rates = phase_counter_rates(&bench, &node, SystemConfig::calibration());
        strategy.exploration(&ExplorationInputs {
            model,
            phase_rates: &|| rates,
            best_threads: 24,
        })
    }

    /// The phase best among `candidates`, measured on Lulesh's phase
    /// region as the design-time session measures it.
    fn phase_best(candidates: &[SystemConfig]) -> SystemConfig {
        let node = Node::exact(0);
        let phase = kernels::benchmark("Lulesh").unwrap().phase_character();
        ExperimentsEngine::new(&node)
            .try_best_for_region(&phase, candidates, TuningObjective::Energy)
            .unwrap()
            .0
    }

    #[test]
    fn model_based_without_model_is_an_error() {
        let err = plan(&ModelBasedNeighbourhood::paper(), None).unwrap_err();
        assert!(matches!(err, TuningError::MissingModel { .. }));
    }

    #[test]
    fn exhaustive_covers_the_full_space() {
        let plan = plan(&ExhaustiveSearch, None).unwrap();
        assert_eq!(plan.phase_candidates.len(), 14 * 18);
        assert!(plan.predicted_global.is_none());
        let best = phase_best(&plan.phase_candidates);
        assert_eq!(plan.verification_for(best).len(), 14 * 18);
        // Compute-bound Lulesh: exhaustive phase best has the Fig. 6 shape.
        assert!(best.core.mhz() >= 2300);
        assert!(best.uncore.mhz() <= 1900);
    }

    #[test]
    fn random_search_is_deterministic_and_bounded() {
        let strategy = RandomSearch::new(16, 7);
        let a = plan(&strategy, None).unwrap();
        let b = plan(&strategy, None).unwrap();
        assert_eq!(
            a.phase_candidates, b.phase_candidates,
            "same seed, same sample"
        );
        assert_eq!(a.phase_candidates.len(), 16);
        let mut dedup = a.phase_candidates.clone();
        dedup.sort_by_key(|c| (c.threads, c.core.mhz(), c.uncore.mhz()));
        dedup.dedup();
        assert_eq!(dedup.len(), 16, "sample must be without replacement");
        // The sample is measured once for both purposes: the phase best is
        // one of its members and the verification set is the sample.
        assert_eq!(a.max_extra_verification(), 0, "pool is reused");
        let best = phase_best(&a.phase_candidates);
        assert!(a.phase_candidates.contains(&best));
        assert_eq!(a.verification_for(best), a.phase_candidates);
    }

    #[test]
    fn neighbourhood_rule_bounds_extra_verification() {
        let plan = ExplorationPlan {
            predicted_global: None,
            phase_candidates: vec![SystemConfig::new(24, 2400, 1700)],
            verification: VerificationRule::Neighbourhood { radius: 1 },
        };
        assert_eq!(plan.max_extra_verification(), 9);
        let verify = plan.verification_for(SystemConfig::new(24, 2400, 1700));
        assert!(verify.len() <= 9);
        assert!(verify.contains(&SystemConfig::new(24, 2400, 1700)));
    }

    #[test]
    fn random_search_oversized_budget_clamps_to_space() {
        let plan = plan(&RandomSearch::new(10_000, 1), None).unwrap();
        assert_eq!(plan.phase_candidates.len(), 14 * 18);
    }
}
