//! The calibration schedule: a cold job's phase iterations answer the
//! design-time [`TuningPlan`], one step per iteration.
//!
//! | plan step | iterations | the schedule adds |
//! |-----------|------------|-------------------|
//! | thread sweep | one per thread candidate | the launch budget check |
//! | analysis | 1 | significant regions: time above the `readex-dyn-detect` threshold, heaviest first |
//! | phase search | one per supported phase candidate | the worst-case budget check; the job-seeded order |
//! | verification | one per verification config the phase search did not measure | — |
//! | done | the rest (exploit) | the converged model per region |
//!
//! The job-seeded rotation changes only *when* a phase candidate is
//! measured, never what converges. On a stationary workload the regions
//! converge as at design time for the same strategy, pool and seed; the
//! *phase* configuration may sit a grid step away, since the runtime
//! measures the phase as the sum of its regions, not as the aggregate
//! phase character.

use kernels::{splitmix64, BenchmarkSpec};
use ptf::experiments::Measurement;
use ptf::plan::{Stage, Step, TuningPlan};
use ptf::{EnergyModel, SearchStrategy, TuningObjective};
use scorep_lite::dyn_detect::SIGNIFICANCE_THRESHOLD_S;
use simnode::{Node, SystemConfig};

use crate::error::RuntimeError;
use crate::online::ModelPublication;
use crate::session::RegionExit;

/// One job's calibration (see the module docs).
pub(crate) struct CalibrationSchedule<'a> {
    plan: TuningPlan<'a>,
    seed: u64,
    /// Planning failed (budget or strategy). Terminal: the job runs on at
    /// the analysis configuration and nothing is published.
    abandoned: bool,
    /// Per-region measurements from the analysis iteration.
    analysis: Vec<Measurement>,
    /// Running total of the current iteration.
    iteration: Measurement,
    converged: Option<ModelPublication>,
    /// The converged model's configuration per region, by region index.
    exploit: Vec<SystemConfig>,
}

impl<'a> CalibrationSchedule<'a> {
    /// Plan a calibration for `bench`. Fails fast when the thread sweep,
    /// the analysis and one phase candidate do not fit the phase loop.
    pub(crate) fn new(
        bench: &BenchmarkSpec,
        node: &'a Node,
        strategy: &'a dyn SearchStrategy,
        energy_model: Option<&'a EnergyModel>,
        objective: TuningObjective,
        seed: u64,
    ) -> Result<Self, RuntimeError> {
        let plan = TuningPlan::new(bench, node, strategy, energy_model, objective);
        check_budget(bench, plan.worst_case_experiments() + 2)?;
        Ok(Self {
            plan,
            seed,
            abandoned: false,
            analysis: vec![Measurement::default(); bench.regions.len()],
            iteration: Measurement::default(),
            converged: None,
            exploit: Vec::new(),
        })
    }

    /// Stage name for progress reporting.
    pub(crate) fn stage_name(&self) -> &'static str {
        match self.plan.next() {
            _ if self.abandoned => "abandoned",
            Step::Measure(Stage::Threads, _) => "thread-sweep",
            Step::Analyse(_) => "analysis",
            Step::Measure(Stage::Phase, _) => "phase-search",
            Step::Measure(Stage::Verification, _) => "verification",
            Step::Done => "exploit",
        }
    }

    /// Whether the schedule is still exploring.
    pub(crate) fn is_exploring(&self) -> bool {
        !self.abandoned && self.plan.next() != Step::Done
    }

    /// Iterations spent exploring so far: the plan's experiments.
    pub(crate) fn explored_iterations(&self) -> u32 {
        self.plan.experiments() as u32
    }

    /// The converged model, once the exploit stage is reached.
    pub(crate) fn converged(&self) -> Option<&ModelPublication> {
        self.converged.as_ref()
    }

    /// The configuration region `idx` must execute under in the current
    /// iteration.
    pub(crate) fn config_for(&self, idx: usize) -> SystemConfig {
        match self.plan.next() {
            // A safe, node-supported operating point for a static run.
            _ if self.abandoned => self.plan.analysis_config(),
            Step::Measure(_, cfg) | Step::Analyse(cfg) => cfg,
            Step::Done => self.exploit[idx],
        }
    }

    /// Account one region exit to the current iteration. Filtered regions
    /// did not run under the scheduled configuration and are skipped.
    pub(crate) fn record(&mut self, region_idx: usize, exit: &RegionExit) {
        if exit.filtered || self.abandoned {
            return;
        }
        let measurement = Measurement::from(exit);
        self.iteration += measurement;
        match self.plan.next() {
            Step::Analyse(_) => self.analysis[region_idx] += measurement,
            _ => self.plan.record(region_idx, measurement),
        }
    }

    /// Answer the plan's step at a phase-complete event. A planning
    /// failure abandons the calibration: the error surfaces once, and the
    /// session stays drivable (panic-free) as a degraded static run.
    pub(crate) fn phase_completed(
        &mut self,
        bench: &BenchmarkSpec,
        node: &Node,
    ) -> Result<(), RuntimeError> {
        let total = std::mem::take(&mut self.iteration);
        if !self.is_exploring() {
            return Ok(());
        }
        if let Step::Analyse(_) = self.plan.next() {
            let planned = self.plan_phase_search(bench, node);
            self.abandoned = planned.is_err();
            planned?;
        } else {
            self.plan.complete(total);
        }
        if self.plan.next() == Step::Done {
            self.converge(bench);
        }
        Ok(())
    }

    /// Analysis iteration finished: plan the phase search, check the
    /// worst-case budget and rotate the candidates by the job seed.
    fn plan_phase_search(
        &mut self,
        bench: &BenchmarkSpec,
        node: &Node,
    ) -> Result<(), RuntimeError> {
        let analysis = &self.analysis;
        let mut significant: Vec<usize> = (0..bench.regions.len())
            .filter(|&i| analysis[i].duration_s > SIGNIFICANCE_THRESHOLD_S)
            .collect();
        significant.sort_by(|&a, &b| analysis[b].duration_s.total_cmp(&analysis[a].duration_s));
        let analysis_cfg = self.plan.analysis_config();
        let rates = || ptf::phase_counter_rates(bench, node, analysis_cfg);
        self.plan
            .analysed(&significant, &rates)
            .map_err(RuntimeError::Planning)?;
        check_budget(bench, self.plan.worst_case_experiments())?;
        let candidates = self.plan.phase_candidates_mut();
        let mut state = self.seed;
        let offset = (splitmix64(&mut state) % candidates.len() as u64) as usize;
        candidates.rotate_left(offset);
        Ok(())
    }

    /// The plan is done: publish its model and exploit it.
    fn converge(&mut self, bench: &BenchmarkSpec) {
        let model = self.plan.tuning_model(bench);
        let regions = bench.regions.iter();
        self.exploit = regions.map(|r| model.lookup(&r.name)).collect();
        let best = self.plan.region_best().iter();
        let expected = best
            .map(|&(i, _, m)| (bench.regions[i].name.clone(), m.node_energy_j))
            .collect();
        self.converged = Some(ModelPublication { model, expected });
    }
}

/// Errors unless `needed` phase iterations fit the job's phase loop.
fn check_budget(bench: &BenchmarkSpec, needed: u64) -> Result<(), RuntimeError> {
    if needed <= u64::from(bench.phase_iterations) {
        return Ok(());
    }
    Err(RuntimeError::ExplorationBudget {
        application: bench.name.clone(),
        needed: u32::try_from(needed).unwrap_or(u32::MAX),
        available: bench.phase_iterations,
    })
}
