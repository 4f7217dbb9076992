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
//! verification configuration minimising the tuning objective on that
//! region's own measurements. Ties break on the configuration key, so the
//! result is independent of exploration order. On the energy objective
//! this selects exactly the configurations the design-time analysis
//! selects for the same strategy, pool and seed (the measurement bases
//! differ only by the uniform per-region instrumentation stretch, which
//! preserves per-region ordering); the *phase* configuration may sit a
//! grid step from the design-time one because the runtime can only
//! measure the phase as the sum of its regions, not as the aggregate
//! phase character.

use std::collections::BTreeMap;

use kernels::{splitmix64, BenchmarkSpec};
use ptf::{
    EnergyModel, ExplorationInputs, ExplorationPlan, SearchStrategy, TuningModel, TuningObjective,
};
use scorep_lite::dyn_detect::SIGNIFICANCE_THRESHOLD_S;
use simnode::{Node, SystemConfig};

use crate::error::RuntimeError;
use crate::online::cfg_key as key;
use crate::session::RegionExit;

/// Lower bound of the OpenMP thread sweep ladder (paper: 12).
const THREAD_LOWER_BOUND: u32 = 12;

/// Step of the thread sweep ladder (paper: 4).
const THREAD_STEP: u32 = 4;

/// Stable per-config map key — see [`crate::online::cfg_key`].
type CfgKey = (u32, u32, u32);

/// Accumulated measurement of one region under one configuration.
#[derive(Debug, Clone, Copy, Default)]
struct Observation {
    energy_j: f64,
    duration_s: f64,
}

/// What a finished calibration hands back for publication.
#[derive(Debug, Clone)]
pub struct ConvergedModel {
    /// The converged tuning model.
    pub model: TuningModel,
    /// Per significant region: measured node energy per instance at the
    /// converged configuration — the drift expectations for future jobs.
    pub expected: Vec<(String, f64)>,
}

#[derive(Debug)]
enum Stage {
    Threads {
        idx: usize,
    },
    Analysis,
    Phase {
        idx: usize,
    },
    Verify {
        idx: usize,
    },
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
    thread_candidates: Vec<u32>,
    /// `(threads, phase energy, phase duration)` per sweep point.
    thread_sweep: Vec<(u32, f64, f64)>,
    best_threads: u32,
    /// Per-region measurements from the analysis iteration.
    analysis: Vec<Observation>,
    plan: Option<ExplorationPlan>,
    phase_candidates: Vec<SystemConfig>,
    /// `(energy, duration)` totals per phase candidate.
    phase_totals: Vec<(f64, f64)>,
    phase_best: SystemConfig,
    verification: Vec<SystemConfig>,
    extras: Vec<SystemConfig>,
    /// Per-(region, config) accumulated measurements.
    observations: BTreeMap<(usize, CfgKey), Observation>,
    /// Running totals of the current iteration.
    iter_energy_j: f64,
    iter_duration_s: f64,
    converged: Option<ConvergedModel>,
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
        let thread_candidates: Vec<u32> = if bench.model.tunable_threads() {
            let max = node.topology().max_threads();
            let mut t = THREAD_LOWER_BOUND;
            let mut out = Vec::new();
            while t <= max {
                out.push(t);
                t += THREAD_STEP;
            }
            if out.is_empty() {
                out.push(max);
            }
            out
        } else {
            vec![node.topology().max_threads()]
        };
        let needed = thread_candidates.len() as u32 + 2;
        if needed > bench.phase_iterations {
            return Err(RuntimeError::ExplorationBudget {
                application: bench.name.clone(),
                needed,
                available: bench.phase_iterations,
            });
        }
        let regions = bench.regions.len();
        Ok(Self {
            strategy,
            energy_model,
            objective,
            seed,
            stage: Stage::Threads { idx: 0 },
            explored_iterations: 0,
            thread_candidates,
            thread_sweep: Vec::new(),
            best_threads: 0,
            analysis: vec![Observation::default(); regions],
            plan: None,
            phase_candidates: Vec::new(),
            phase_totals: Vec::new(),
            phase_best: SystemConfig::taurus_default(),
            verification: Vec::new(),
            extras: Vec::new(),
            observations: BTreeMap::new(),
            iter_energy_j: 0.0,
            iter_duration_s: 0.0,
            converged: None,
            exploit: Vec::new(),
        })
    }

    /// Stage name for progress reporting.
    pub(crate) fn stage_name(&self) -> &'static str {
        match self.stage {
            Stage::Threads { .. } => "thread-sweep",
            Stage::Analysis => "analysis",
            Stage::Phase { .. } => "phase-search",
            Stage::Verify { .. } => "verification",
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
    pub(crate) fn converged(&self) -> Option<&ConvergedModel> {
        self.converged.as_ref()
    }

    /// The configuration region `idx` must execute under in the current
    /// iteration.
    pub(crate) fn config_for(&self, idx: usize) -> SystemConfig {
        match &self.stage {
            Stage::Threads { idx: t } => {
                SystemConfig::calibration().with_threads(self.thread_candidates[*t])
            }
            Stage::Analysis => SystemConfig::calibration().with_threads(self.best_threads),
            Stage::Phase { idx: c } => self.phase_candidates[*c],
            Stage::Verify { idx: c } => self.extras[*c],
            Stage::Exploit => self.exploit[idx],
            // Planning failed: degrade to a static run at the analysis
            // configuration (a safe, node-supported operating point).
            Stage::Abandoned => SystemConfig::calibration().with_threads(self.best_threads),
        }
    }

    /// Account one region exit to the current iteration. Filtered regions
    /// did not run under the scheduled configuration and are skipped.
    pub(crate) fn record(&mut self, region_idx: usize, exit: &RegionExit) {
        if exit.filtered {
            return;
        }
        self.iter_energy_j += exit.node_energy_j;
        self.iter_duration_s += exit.duration_s;
        let under = match &self.stage {
            Stage::Analysis => {
                let obs = &mut self.analysis[region_idx];
                obs.energy_j += exit.node_energy_j;
                obs.duration_s += exit.duration_s;
                return;
            }
            Stage::Phase { idx } => self.phase_candidates[*idx],
            Stage::Verify { idx } => self.extras[*idx],
            Stage::Threads { .. } | Stage::Exploit | Stage::Abandoned => return,
        };
        let obs = self
            .observations
            .entry((region_idx, key(under)))
            .or_default();
        obs.energy_j += exit.node_energy_j;
        obs.duration_s += exit.duration_s;
    }

    /// Advance the stage machine at a phase-complete event.
    pub(crate) fn phase_completed(
        &mut self,
        bench: &BenchmarkSpec,
        node: &Node,
    ) -> Result<(), RuntimeError> {
        let (iter_e, iter_d) = (self.iter_energy_j, self.iter_duration_s);
        self.iter_energy_j = 0.0;
        self.iter_duration_s = 0.0;
        if self.is_exploring() {
            self.explored_iterations += 1;
        }
        self.stage = match std::mem::replace(&mut self.stage, Stage::Exploit) {
            Stage::Threads { mut idx } => {
                self.thread_sweep
                    .push((self.thread_candidates[idx], iter_e, iter_d));
                idx += 1;
                if idx == self.thread_candidates.len() {
                    let objective = self.objective;
                    self.best_threads = self
                        .thread_sweep
                        .iter()
                        .min_by(|a, b| {
                            objective
                                .score(a.1, a.2)
                                .total_cmp(&objective.score(b.1, b.2))
                        })
                        .expect("thread sweep is nonempty")
                        .0;
                    Stage::Analysis
                } else {
                    Stage::Threads { idx }
                }
            }
            // A planning failure must not corrupt the machine: the
            // schedule transitions to the terminal `Abandoned` stage, the
            // error surfaces once, and the session stays fully drivable
            // (panic-free) as a degraded static run.
            Stage::Analysis => match self.enter_phase_search(bench, node) {
                Ok(()) => Stage::Phase { idx: 0 },
                Err(e) => {
                    self.stage = Stage::Abandoned;
                    return Err(e);
                }
            },
            Stage::Phase { mut idx } => {
                self.phase_totals.push((iter_e, iter_d));
                idx += 1;
                if idx == self.phase_candidates.len() {
                    self.enter_verification(node);
                    if self.extras.is_empty() {
                        self.converge(bench);
                        Stage::Exploit
                    } else {
                        Stage::Verify { idx: 0 }
                    }
                } else {
                    Stage::Phase { idx }
                }
            }
            Stage::Verify { mut idx } => {
                idx += 1;
                if idx == self.extras.len() {
                    self.converge(bench);
                    Stage::Exploit
                } else {
                    Stage::Verify { idx }
                }
            }
            Stage::Exploit => Stage::Exploit,
            Stage::Abandoned => Stage::Abandoned,
        };
        Ok(())
    }

    /// Analysis iteration finished: ask the strategy for its exploration
    /// plan, and check the budget against the worst-case remaining
    /// exploration cost. The phase counter rates are measured only if the
    /// strategy reads them.
    fn enter_phase_search(
        &mut self,
        bench: &BenchmarkSpec,
        node: &Node,
    ) -> Result<(), RuntimeError> {
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
        self.plan = Some(plan);
        self.phase_candidates = candidates;
        Ok(())
    }

    /// Phase search finished: pick the phase best and derive the extra
    /// verification configurations that still need measuring.
    fn enter_verification(&mut self, node: &Node) {
        let objective = self.objective;
        self.phase_best = self
            .phase_candidates
            .iter()
            .zip(&self.phase_totals)
            .min_by(|(ca, (ea, da)), (cb, (eb, db))| {
                objective
                    .score(*ea, *da)
                    .total_cmp(&objective.score(*eb, *db))
                    .then_with(|| key(**ca).cmp(&key(**cb)))
            })
            .map(|(c, _)| *c)
            .expect("phase candidates are nonempty");
        let plan = self.plan.as_ref().expect("plan built before phase search");
        self.verification = plan
            .verification_for(self.phase_best)
            .into_iter()
            .filter(|c| node.supports(c))
            .collect();
        let measured: Vec<CfgKey> = self.phase_candidates.iter().map(|c| key(*c)).collect();
        self.extras = self
            .verification
            .iter()
            .copied()
            .filter(|c| !measured.contains(&key(*c)))
            .collect();
    }

    /// All verification configurations measured: converge each
    /// significant region to its best configuration and build the model.
    fn converge(&mut self, bench: &BenchmarkSpec) {
        let objective = self.objective;
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
            let best = self
                .verification
                .iter()
                .filter_map(|c| {
                    self.observations
                        .get(&(i, key(*c)))
                        .map(|obs| (*c, obs.energy_j, obs.duration_s))
                })
                .min_by(|(ca, ea, da), (cb, eb, db)| {
                    objective
                        .score(*ea, *da)
                        .total_cmp(&objective.score(*eb, *db))
                        .then_with(|| key(*ca).cmp(&key(*cb)))
                });
            if let Some((cfg, energy, _)) = best {
                pairs.push((bench.regions[i].name.clone(), cfg));
                expected.push((bench.regions[i].name.clone(), energy));
            }
        }
        let model = TuningModel::new(&bench.name, &pairs, self.phase_best);
        self.exploit = bench
            .regions
            .iter()
            .map(|r| model.lookup(&r.name))
            .collect();
        self.converged = Some(ConvergedModel { model, expected });
    }
}
