//! The calibration schedule: how a cold job's phase iterations become an
//! exploration budget.
//!
//! Design time runs the search on the experiments engine; an online
//! calibration runs the *same* [`ExplorationPlan`](ptf::ExplorationPlan)
//! against live region measurements, one candidate configuration per
//! phase iteration:
//!
//! | stage | iterations | mirrors |
//! |-------|------------|---------|
//! | thread sweep | one per thread candidate | tuning step 1 |
//! | analysis | 1 (calibration frequencies, best threads) | significant regions; PAPI counter rates for strategies that read them |
//! | phase search | one per phase candidate | strategy stage 1 |
//! | verification | one per *extra* verification config | strategy stage 2 |
//! | exploit | the rest | production serving |
//!
//! Verification configurations already measured during the phase search
//! are reused, so the verification stage only pays for the set
//! difference. Candidate order within the phase search is rotated by the
//! job seed — the deterministic, job-seeded explore schedule — which
//! never changes *what* converges on a stationary workload, only *when*
//! each candidate is measured.
//!
//! Convergence picks, per significant region (observed mean time above
//! the `readex-dyn-detect` threshold in the analysis iteration), the
//! verification configuration [`TuningObjective::best`] ranks first on
//! that region's own measurements. Ties go to the smaller configuration,
//! as at design time, so the result is independent of exploration order.
//! On the energy objective this selects exactly the configurations the
//! design-time analysis selects for the same strategy, pool and seed (the
//! measurement bases differ only by the uniform per-region
//! instrumentation stretch, which preserves per-region ordering); the
//! *phase* configuration may sit a grid step from the design-time one
//! because the runtime can only measure the phase as the sum of its
//! regions, not as the aggregate phase character.
//!
//! Each exploring stage is one `Sweep` over its candidates, ranked by the
//! same rule on whole-iteration totals: the thread sweep picks the best
//! thread count and the phase search the phase best.

use std::collections::BTreeMap;

use kernels::{splitmix64, BenchmarkSpec};
use ptf::experiments::Measurement;
use ptf::threads::thread_sweep;
use ptf::{
    EnergyModel, ExplorationInputs, ExplorationPlan, SearchStrategy, TuningModel, TuningObjective,
};
use scorep_lite::dyn_detect::{thread_ladder, DynDetectConfig, SIGNIFICANCE_THRESHOLD_S};
use simnode::{Node, SystemConfig};

use crate::error::RuntimeError;
use crate::online::{ModelPublication, Sweep};
use crate::session::RegionExit;

enum Stage {
    Threads(Sweep),
    Analysis,
    /// The phase search, with the plan its verification set follows from.
    Phase(Sweep, ExplorationPlan),
    Verify(Sweep),
    Exploit,
    /// Exploration planning failed (budget exhausted or the strategy
    /// rejected the analysis inputs). Terminal: the job keeps running at
    /// the analysis configuration and nothing is published.
    Abandoned,
}

/// The per-job calibration state machine (see the module docs).
pub(crate) struct CalibrationSchedule<'a> {
    strategy: &'a dyn SearchStrategy,
    energy_model: Option<&'a EnergyModel>,
    objective: TuningObjective,
    seed: u64,
    stage: Stage,
    explored_iterations: u32,
    best_threads: u32,
    /// Per-region measurements from the analysis iteration.
    analysis: Vec<Measurement>,
    phase_best: SystemConfig,
    verification: Vec<SystemConfig>,
    /// Per-(region, config) accumulated measurements of the phase search
    /// and the verification.
    observations: BTreeMap<(usize, SystemConfig), Measurement>,
    /// Running total of the current iteration.
    iteration: Measurement,
    converged: Option<ModelPublication>,
    /// The converged model's configuration per region, by region index.
    exploit: Vec<SystemConfig>,
}

impl<'a> CalibrationSchedule<'a> {
    /// Plan a calibration for `bench`. Fails fast when even the thread
    /// sweep, the analysis iteration and a single exploration iteration
    /// would not fit the job's phase loop.
    pub(crate) fn new(
        bench: &BenchmarkSpec,
        node: &Node,
        strategy: &'a dyn SearchStrategy,
        energy_model: Option<&'a EnergyModel>,
        objective: TuningObjective,
        seed: u64,
    ) -> Result<Self, RuntimeError> {
        // The design-time ladder (`readex-dyn-detect`'s default bounds),
        // through the design-time thread-sweep rule.
        let bounds = DynDetectConfig::default();
        let ladder = thread_ladder(
            bounds.thread_lower_bound,
            bounds.thread_step,
            node.topology().max_threads(),
        );
        let threads: Vec<SystemConfig> = thread_sweep(bench, node, &ladder)
            .into_iter()
            .map(|t| SystemConfig::calibration().with_threads(t))
            .collect();
        let needed = threads.len() as u32 + 2;
        if needed > bench.phase_iterations {
            return Err(RuntimeError::ExplorationBudget {
                application: bench.name.clone(),
                needed,
                available: bench.phase_iterations,
            });
        }
        Ok(Self {
            strategy,
            energy_model,
            objective,
            seed,
            stage: Stage::Threads(Sweep::new(threads)),
            explored_iterations: 0,
            best_threads: 0,
            analysis: vec![Measurement::default(); bench.regions.len()],
            phase_best: SystemConfig::taurus_default(),
            verification: Vec::new(),
            observations: BTreeMap::new(),
            iteration: Measurement::default(),
            converged: None,
            exploit: Vec::new(),
        })
    }

    /// Stage name for progress reporting.
    pub(crate) fn stage_name(&self) -> &'static str {
        match self.stage {
            Stage::Threads(_) => "thread-sweep",
            Stage::Analysis => "analysis",
            Stage::Phase(..) => "phase-search",
            Stage::Verify(_) => "verification",
            Stage::Exploit => "exploit",
            Stage::Abandoned => "abandoned",
        }
    }

    /// Whether the schedule is still exploring.
    pub(crate) fn is_exploring(&self) -> bool {
        !matches!(self.stage, Stage::Exploit | Stage::Abandoned)
    }

    /// Iterations spent exploring so far.
    pub(crate) fn explored_iterations(&self) -> u32 {
        self.explored_iterations
    }

    /// The converged model, once the exploit stage is reached.
    pub(crate) fn converged(&self) -> Option<&ModelPublication> {
        self.converged.as_ref()
    }

    /// The configuration region `idx` must execute under in the current
    /// iteration.
    pub(crate) fn config_for(&self, idx: usize) -> SystemConfig {
        match &self.stage {
            Stage::Threads(sweep) | Stage::Phase(sweep, _) | Stage::Verify(sweep) => {
                sweep.current()
            }
            Stage::Exploit => self.exploit[idx],
            // The analysis configuration; a failed plan degrades to a
            // static run there (a safe, node-supported operating point).
            Stage::Analysis | Stage::Abandoned => {
                SystemConfig::calibration().with_threads(self.best_threads)
            }
        }
    }

    /// Account one region exit to the current iteration. Filtered regions
    /// did not run under the scheduled configuration and are skipped.
    pub(crate) fn record(&mut self, region_idx: usize, exit: &RegionExit) {
        if exit.filtered {
            return;
        }
        let measurement = Measurement::from(exit);
        self.iteration += measurement;
        match &self.stage {
            Stage::Analysis => self.analysis[region_idx] += measurement,
            Stage::Phase(sweep, _) | Stage::Verify(sweep) => {
                *self
                    .observations
                    .entry((region_idx, sweep.current()))
                    .or_default() += measurement;
            }
            Stage::Threads(_) | Stage::Exploit | Stage::Abandoned => {}
        }
    }

    /// Advance the stage machine at a phase-complete event.
    pub(crate) fn phase_completed(
        &mut self,
        bench: &BenchmarkSpec,
        node: &Node,
    ) -> Result<(), RuntimeError> {
        let total = std::mem::take(&mut self.iteration);
        if self.is_exploring() {
            self.explored_iterations += 1;
        }
        let objective = self.objective;
        self.stage = match std::mem::replace(&mut self.stage, Stage::Exploit) {
            Stage::Threads(mut sweep) => match sweep.record(total, objective) {
                Some((best, _)) => {
                    self.best_threads = best.threads;
                    Stage::Analysis
                }
                None => Stage::Threads(sweep),
            },
            // A planning failure must not corrupt the machine: the
            // schedule transitions to the terminal `Abandoned` stage, the
            // error surfaces once, and the session stays fully drivable
            // (panic-free) as a degraded static run.
            Stage::Analysis => match self.phase_search(bench, node) {
                Ok((sweep, plan)) => Stage::Phase(sweep, plan),
                Err(e) => {
                    self.stage = Stage::Abandoned;
                    return Err(e);
                }
            },
            Stage::Phase(mut sweep, plan) => match sweep.record(total, objective) {
                Some((best, _)) => {
                    self.phase_best = best;
                    self.verify(bench, node, &plan, &sweep.candidates)
                }
                None => Stage::Phase(sweep, plan),
            },
            Stage::Verify(mut sweep) => match sweep.record(total, objective) {
                Some(_) => self.converge(bench),
                None => Stage::Verify(sweep),
            },
            stage @ (Stage::Exploit | Stage::Abandoned) => stage,
        };
        Ok(())
    }

    /// Analysis iteration finished: ask the strategy for its exploration
    /// plan, and check the budget against the worst-case remaining
    /// exploration cost. The phase counter rates are measured only if the
    /// strategy reads them.
    fn phase_search(
        &self,
        bench: &BenchmarkSpec,
        node: &Node,
    ) -> Result<(Sweep, ExplorationPlan), RuntimeError> {
        let analysis_cfg = SystemConfig::calibration().with_threads(self.best_threads);
        let rates = || ptf::phase_counter_rates(bench, node, analysis_cfg);
        let plan = self
            .strategy
            .exploration(&ExplorationInputs {
                model: self.energy_model,
                phase_rates: &rates,
                best_threads: self.best_threads,
            })
            .map_err(RuntimeError::Planning)?;

        let mut candidates: Vec<SystemConfig> = plan
            .phase_candidates
            .iter()
            .copied()
            .filter(|c| node.supports(c))
            .collect();
        if candidates.is_empty() {
            return Err(RuntimeError::Planning(ptf::TuningError::EmptyCandidates {
                stage: "online phase exploration",
            }));
        }
        // Worst case: every verification configuration is new.
        let needed = self.explored_iterations
            + candidates.len() as u32
            + plan.max_extra_verification() as u32;
        if needed > bench.phase_iterations {
            return Err(RuntimeError::ExplorationBudget {
                application: bench.name.clone(),
                needed,
                available: bench.phase_iterations,
            });
        }
        // Job-seeded exploration order: rotate the candidate list. The
        // rotation is a pure reordering — the explored set, and therefore
        // the converged model on a stationary workload, is unchanged.
        let mut state = self.seed;
        let offset = (splitmix64(&mut state) % candidates.len() as u64) as usize;
        candidates.rotate_left(offset);
        Ok((Sweep::new(candidates), plan))
    }

    /// Phase search finished at `self.phase_best`: derive the verification
    /// set and sweep the configurations the phase search did not already
    /// measure, or converge at once when there are none.
    fn verify(
        &mut self,
        bench: &BenchmarkSpec,
        node: &Node,
        plan: &ExplorationPlan,
        measured: &[SystemConfig],
    ) -> Stage {
        self.verification = plan
            .verification_for(self.phase_best)
            .into_iter()
            .filter(|c| node.supports(c))
            .collect();
        let extras: Vec<SystemConfig> = self
            .verification
            .iter()
            .copied()
            .filter(|c| !measured.contains(c))
            .collect();
        if extras.is_empty() {
            self.converge(bench)
        } else {
            Stage::Verify(Sweep::new(extras))
        }
    }

    /// All verification configurations measured: converge each
    /// significant region to its best configuration, build the model and
    /// enter the exploit stage.
    fn converge(&mut self, bench: &BenchmarkSpec) -> Stage {
        // Significant regions in observed-weight order, heaviest first —
        // the same ordering `readex-dyn-detect` hands the design-time
        // session.
        let mut significant: Vec<usize> = (0..bench.regions.len())
            .filter(|&i| self.analysis[i].duration_s > SIGNIFICANCE_THRESHOLD_S)
            .collect();
        significant.sort_by(|&a, &b| {
            self.analysis[b]
                .duration_s
                .total_cmp(&self.analysis[a].duration_s)
        });

        let mut pairs = Vec::with_capacity(significant.len());
        let mut expected = Vec::with_capacity(significant.len());
        for &i in &significant {
            let measured = self
                .verification
                .iter()
                .filter_map(|c| self.observations.get(&(i, *c)).map(|m| (*c, *m)));
            if let Some((cfg, m)) = self.objective.best(measured) {
                pairs.push((bench.regions[i].name.clone(), cfg));
                expected.push((bench.regions[i].name.clone(), m.node_energy_j));
            }
        }
        let model = TuningModel::new(&bench.name, &pairs, self.phase_best);
        self.exploit = bench
            .regions
            .iter()
            .map(|r| model.lookup(&r.name))
            .collect();
        self.converged = Some(ModelPublication { model, expected });
        Stage::Exploit
    }
}
