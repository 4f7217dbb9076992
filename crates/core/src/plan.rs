//! The tuning plan: the paper's tuning procedure as steps, measuring
//! nothing itself.
//!
//! Design time and online calibration run one procedure: the Section
//! III-B thread sweep, one analysis, the Section III-C phase search and
//! the per-region verification, `(k + 1 + 9)` experiments in Section V-C.
//! Like a PPP IPCP state machine, whose handlers return an action and
//! leave the sending to the session, a [`TuningPlan`] returns the next
//! [`Step`] and takes back what its caller measured. The design-time
//! session measures the phase search on the aggregate phase character,
//! so it has no per-region data there and measures every verification
//! configuration; online calibration records every region and skips
//! those. Both drop configurations the node cannot run, and every choice
//! is ranked by [`TuningObjective::best`], ties to the smaller
//! configuration, so the order of measuring does not matter.

use std::collections::BTreeMap;

use kernels::BenchmarkSpec;
use scorep_lite::dyn_detect::thread_ladder;
use simnode::{CoreFreq, Node, SystemConfig, UncoreFreq};

use crate::experiments::Measurement;
use crate::freqpred::EnergyModel;
use crate::objectives::TuningObjective;
use crate::session::{ExplorationInputs, ExplorationPlan, SearchStrategy, TuningError};
use crate::tuning_model::TuningModel;

/// What a [`Step::Measure`] measures.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Stage {
    /// Tuning step 1: the thread sweep at the calibration frequencies.
    Threads,
    /// Tuning step 2: the strategy's phase candidates.
    Phase,
    /// The per-region verification set derived from the phase best.
    Verification,
}

/// What the plan asks of its caller next.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Step {
    /// Measure one phase iteration at this configuration:
    /// [`TuningPlan::record`] per region, then [`TuningPlan::complete`].
    Measure(Stage, SystemConfig),
    /// Run the analysis at this configuration, then
    /// [`TuningPlan::analysed`].
    Analyse(SystemConfig),
    /// Every step is answered.
    Done,
}

/// Result of the thread sweep (tuning step 1).
#[derive(Debug, Clone, Default)]
pub struct ThreadTuning {
    /// Optimal thread count for the phase region.
    pub best_threads: u32,
    /// `(threads, objective score)` for every candidate, in sweep order.
    pub sweep: Vec<(u32, f64)>,
}

/// Candidate configurations measured one after another, one measurement
/// each, and ranked by [`TuningObjective::best`] once all are measured:
/// each measuring stage of a [`TuningPlan`], and the online monitor's
/// re-calibration of a drifted region.
#[derive(Debug, Clone)]
pub struct Sweep {
    candidates: Vec<SystemConfig>,
    measured: Vec<(SystemConfig, Measurement)>,
}

impl Sweep {
    /// A sweep over `candidates`, which must not be empty.
    pub fn new(candidates: Vec<SystemConfig>) -> Self {
        Self {
            measured: Vec::with_capacity(candidates.len()),
            candidates,
        }
    }

    /// The candidate the next measurement runs under.
    #[inline]
    pub fn current(&self) -> SystemConfig {
        self.candidates[self.measured.len()]
    }

    /// Record the current candidate's measurement; once every candidate
    /// is measured, the best of them under `objective`.
    pub fn record(
        &mut self,
        measurement: Measurement,
        objective: TuningObjective,
    ) -> Option<(SystemConfig, Measurement)> {
        self.measured.push((self.current(), measurement));
        if self.measured.len() < self.candidates.len() {
            return None;
        }
        objective.best(self.measured.iter().copied())
    }
}

enum State {
    Threads(Sweep),
    Analysis,
    /// The phase search, with the plan its verification set follows from.
    Phase(Sweep, ExplorationPlan),
    /// The sweep of what is unmeasured, with the whole verification set.
    Verification(Sweep, Vec<SystemConfig>),
    Done,
}

/// The tuning procedure of one application on one node.
pub struct TuningPlan<'a> {
    node: &'a Node,
    strategy: &'a dyn SearchStrategy,
    model: Option<&'a EnergyModel>,
    objective: TuningObjective,
    state: State,
    experiments: u64,
    thread_tuning: ThreadTuning,
    predicted_global: Option<(CoreFreq, UncoreFreq)>,
    phase_best: SystemConfig,
    significant: Vec<usize>,
    /// Per-region measurements of the phase search and the verification.
    observations: BTreeMap<(SystemConfig, usize), Measurement>,
    region_best: Vec<(usize, SystemConfig, Measurement)>,
}

impl<'a> TuningPlan<'a> {
    /// Plan the tuning of `bench` on `node` under `strategy`, ranked by
    /// `objective`. The thread sweep is the 12:4:max ladder, or the full
    /// core count alone for an MPI-only (not thread-tunable) benchmark.
    pub fn new(
        bench: &BenchmarkSpec,
        node: &'a Node,
        strategy: &'a dyn SearchStrategy,
        model: Option<&'a EnergyModel>,
        objective: TuningObjective,
    ) -> Self {
        let max = node.topology().max_threads();
        let threads = if bench.model.tunable_threads() {
            thread_ladder(max)
        } else {
            vec![max]
        };
        let calibration = SystemConfig::calibration();
        let threads = threads.iter().map(|&t| calibration.with_threads(t));
        Self {
            node,
            strategy,
            model,
            objective,
            state: State::Threads(Sweep::new(threads.collect())),
            experiments: 0,
            thread_tuning: ThreadTuning::default(),
            predicted_global: None,
            phase_best: SystemConfig::taurus_default(),
            significant: Vec::new(),
            observations: BTreeMap::new(),
            region_best: Vec::new(),
        }
    }

    /// The next step.
    #[inline]
    pub fn next(&self) -> Step {
        match &self.state {
            State::Threads(sweep) => Step::Measure(Stage::Threads, sweep.current()),
            State::Analysis => Step::Analyse(self.analysis_config()),
            State::Phase(sweep, _) => Step::Measure(Stage::Phase, sweep.current()),
            State::Verification(sweep, _) => Step::Measure(Stage::Verification, sweep.current()),
            State::Done => Step::Done,
        }
    }

    /// The calibration frequencies at the thread sweep's best count.
    #[inline]
    pub fn analysis_config(&self) -> SystemConfig {
        SystemConfig::calibration().with_threads(self.thread_tuning.best_threads)
    }

    /// Region `region` (an index into the benchmark's regions) measured
    /// `m` in the current measure step; measurements of one region add
    /// up. Kept in the phase search and the verification only.
    #[inline]
    pub fn record(&mut self, region: usize, m: Measurement) {
        if let State::Phase(sweep, _) | State::Verification(sweep, _) = &self.state {
            let key = (sweep.current(), region);
            *self.observations.entry(key).or_default() += m;
        }
    }

    /// Finish the current measure step with the whole iteration's
    /// measurement `total`, which ranks the thread sweep and the phase
    /// search (the verification ranks each region on its own records).
    /// Does nothing at other steps.
    pub fn complete(&mut self, total: Measurement) {
        let (State::Threads(sweep) | State::Phase(sweep, _) | State::Verification(sweep, _)) =
            &mut self.state
        else {
            return;
        };
        self.experiments += 1;
        let Some((best, _)) = sweep.record(total, self.objective) else {
            return;
        };
        self.state = match std::mem::replace(&mut self.state, State::Done) {
            State::Threads(sweep) => {
                let sweep = sweep.measured.iter();
                let sweep = sweep.map(|(c, m)| (c.threads, m.score(self.objective)));
                self.thread_tuning = ThreadTuning {
                    best_threads: best.threads,
                    sweep: sweep.collect(),
                };
                State::Analysis
            }
            State::Phase(_, plan) => self.verify(best, &plan),
            State::Verification(_, verification) => self.converge(&verification),
            State::Analysis | State::Done => unreachable!("a sweep finished"),
        };
    }

    /// Answer the analysis with the significant regions (indices into the
    /// benchmark's regions, in reporting order) and the phase counter-rate
    /// source. Errors when the strategy rejects the inputs or the node
    /// supports none of its phase candidates.
    pub fn analysed(
        &mut self,
        significant: &[usize],
        phase_rates: &dyn Fn() -> [f64; 7],
    ) -> Result<(), TuningError> {
        if !matches!(self.state, State::Analysis) {
            return Ok(());
        }
        self.experiments += 1;
        let plan = self.strategy.exploration(&ExplorationInputs {
            model: self.model,
            phase_rates,
            best_threads: self.thread_tuning.best_threads,
        })?;
        let candidates = self.supported(&plan.phase_candidates);
        if candidates.is_empty() {
            return Err(TuningError::EmptyCandidates {
                stage: "phase frequency search",
            });
        }
        self.significant = significant.to_vec();
        self.predicted_global = plan.predicted_global;
        self.state = State::Phase(Sweep::new(candidates), plan);
        Ok(())
    }

    /// The phase candidates not measured yet, to reorder: that changes
    /// when each is measured, not what the plan converges to.
    pub fn phase_candidates_mut(&mut self) -> &mut [SystemConfig] {
        match &mut self.state {
            State::Phase(sweep, _) => &mut sweep.candidates[sweep.measured.len()..],
            _ => &mut [],
        }
    }

    /// The experiments taken plus the most the current stage can still
    /// take: its unmeasured candidates and, in the phase search, every
    /// verification configuration it may leave unmeasured.
    pub fn worst_case_experiments(&self) -> u64 {
        let (sweep, verification) = match &self.state {
            State::Threads(sweep) | State::Verification(sweep, _) => (sweep, 0),
            State::Phase(sweep, plan) => (sweep, plan.max_extra_verification()),
            State::Analysis | State::Done => return self.experiments,
        };
        let pending = sweep.candidates.len() - sweep.measured.len();
        self.experiments + (pending + verification) as u64
    }

    /// Experiments taken, in phase-iteration equivalents: one per
    /// measured configuration plus the analysis.
    pub fn experiments(&self) -> u64 {
        self.experiments
    }

    /// The thread sweep's outcome (empty until the sweep is done).
    pub fn thread_tuning(&self) -> &ThreadTuning {
        &self.thread_tuning
    }

    /// The strategy's model-predicted global frequency pair, if any.
    pub fn predicted_global(&self) -> Option<(CoreFreq, UncoreFreq)> {
        self.predicted_global
    }

    /// The best phase configuration, once the phase search is done.
    pub fn phase_best(&self) -> SystemConfig {
        self.phase_best
    }

    /// Once done, per significant region in [`Self::analysed`] order:
    /// `(region index, best verification configuration, measurement)`.
    pub fn region_best(&self) -> &[(usize, SystemConfig, Measurement)] {
        &self.region_best
    }

    /// The tuning model of the outcome: each significant region at its
    /// best configuration, everything else at the phase best.
    pub fn tuning_model(&self, bench: &BenchmarkSpec) -> TuningModel {
        let regions = self.region_best.iter();
        let pairs: Vec<_> = regions
            .map(|&(i, cfg, _)| (bench.regions[i].name.clone(), cfg))
            .collect();
        TuningModel::new(&bench.name, &pairs, self.phase_best)
    }

    fn supported(&self, configs: &[SystemConfig]) -> Vec<SystemConfig> {
        let supported = configs.iter().filter(|c| self.node.supports(c));
        supported.copied().collect()
    }

    /// The phase search found `phase_best`: sweep the verification
    /// configurations with no per-region measurement yet, if any.
    fn verify(&mut self, phase_best: SystemConfig, plan: &ExplorationPlan) -> State {
        self.phase_best = phase_best;
        let verification = self.supported(&plan.verification_for(phase_best));
        let seen = |c: SystemConfig| self.observations.range((c, 0)..=(c, usize::MAX)).next();
        let unmeasured = verification.iter().copied();
        let unmeasured: Vec<_> = unmeasured.filter(|&c| seen(c).is_none()).collect();
        if unmeasured.is_empty() {
            self.converge(&verification)
        } else {
            State::Verification(Sweep::new(unmeasured), verification)
        }
    }

    /// Each significant region takes the verification configuration it
    /// ranks best on its own measurements.
    fn converge(&mut self, verification: &[SystemConfig]) -> State {
        let best = |&region: &usize| {
            let verification = verification.iter();
            let measured =
                verification.filter_map(|&c| Some((c, *self.observations.get(&(c, region))?)));
            let (cfg, m) = self.objective.best(measured)?;
            Some((region, cfg, m))
        };
        self.region_best = self.significant.iter().filter_map(best).collect();
        State::Done
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::ExperimentsEngine;
    use crate::session::ExhaustiveSearch;

    /// The plan after its thread sweep of `bench`, answered on the
    /// experiments engine as the design-time session answers it.
    fn tune<'a>(bench: &BenchmarkSpec, node: &'a Node) -> TuningPlan<'a> {
        let mut plan = TuningPlan::new(
            bench,
            node,
            &ExhaustiveSearch,
            None,
            TuningObjective::Energy,
        );
        let mut engine = ExperimentsEngine::new(node);
        while let Step::Measure(Stage::Threads, cfg) = plan.next() {
            plan.complete(engine.evaluate_phase(bench, &cfg));
        }
        assert_eq!(plan.next(), Step::Analyse(plan.analysis_config()));
        plan
    }

    #[test]
    fn lulesh_prefers_24_threads() {
        let node = Node::exact(0);
        let bench = kernels::benchmark("Lulesh").unwrap();
        let plan = tune(&bench, &node);
        let t = plan.thread_tuning();
        assert_eq!(t.best_threads, 24, "sweep: {:?}", t.sweep);
        assert_eq!(t.sweep.len(), 4);
        assert_eq!(plan.experiments(), 4);
    }

    #[test]
    fn amg_prefers_16_threads() {
        let node = Node::exact(0);
        let bench = kernels::benchmark("Amg2013").unwrap();
        let plan = tune(&bench, &node);
        let t = plan.thread_tuning();
        assert_eq!(t.best_threads, 16, "sweep: {:?}", t.sweep);
    }

    #[test]
    fn mcb_prefers_reduced_threads() {
        // The paper reports 20 threads for Mcbenchmark. In the simulator
        // the thread/energy landscape at the calibration frequencies is
        // flat to < 1 % between 16 and 24 threads and the optimum lands at
        // 16 — same qualitative story (memory-bound: fewer than all 24
        // threads), one step off. See EXPERIMENTS.md.
        let node = Node::exact(0);
        let bench = kernels::benchmark("Mcbenchmark").unwrap();
        let plan = tune(&bench, &node);
        let t = plan.thread_tuning();
        assert!(
            t.best_threads == 16 || t.best_threads == 20,
            "sweep: {:?}",
            t.sweep
        );
        // The landscape must indeed be flat: best and 24-thread scores
        // within 5 %.
        let best = t
            .sweep
            .iter()
            .map(|&(_, s)| s)
            .fold(f64::INFINITY, f64::min);
        let at24 = t.sweep.iter().find(|&&(n, _)| n == 24).unwrap().1;
        assert!((at24 - best) / best < 0.05);
    }

    #[test]
    fn mpi_only_benchmark_pins_to_full_cores() {
        let node = Node::exact(0);
        let bench = kernels::benchmark("Kripke").unwrap();
        let plan = tune(&bench, &node);
        let t = plan.thread_tuning();
        assert_eq!(t.best_threads, 24);
        assert_eq!(t.sweep.len(), 1);
    }
}
