//! The online tuner: a drop-in event-protocol wrapper around
//! [`RuntimeSession`] that either *calibrates* (repository miss: explore,
//! converge, publish) or *monitors* (repository hit: serve the stored
//! model, watch for drift, re-calibrate drifted regions in place).

use kernels::BenchmarkSpec;
use ptf::experiments::Measurement;
use ptf::plan::Sweep;
use ptf::{EnergyModel, SearchSpace, SearchStrategy, TuningModel, TuningObjective};
use simnode::{Node, SystemConfig};

use crate::error::RuntimeError;
use crate::inject::FaultInjector;
use crate::online::drift::{DriftDetector, DriftEvent};
use crate::online::schedule::CalibrationSchedule;
use crate::online::OnlineConfig;
use crate::repository::{ModelSource, ServedModel};
use crate::sacct::{JobAccounting, OnlineActivity};
use crate::session::{RegionExit, RuntimeSession};

/// Neighbourhood radius a drift-flagged region re-explores around its
/// current configuration.
const RECALIBRATION_RADIUS: u32 = 1;

/// A learned model ready for
/// [`TuningModelRepository::publish_online`](crate::TuningModelRepository::publish_online):
/// a calibration's converged model, or a served model with re-calibrated
/// regions patched in.
#[derive(Debug, Clone)]
pub struct ModelPublication {
    /// The model to store.
    pub model: TuningModel,
    /// Per-region drift expectations: measured node energy per instance at
    /// the converged configurations.
    pub expected: Vec<(String, f64)>,
}

/// Everything an online job produced: the ordinary accounting plus the
/// adaptation results.
#[derive(Debug, Clone)]
pub struct OnlineOutcome {
    /// The job's `sacct`-style accounting
    /// ([`JobAccounting::online`](crate::JobAccounting) is populated).
    pub accounting: JobAccounting,
    /// The model to publish back to the repository: the calibration's
    /// converged model, or the served model with re-calibrated regions
    /// patched in. `None` when nothing new was learned.
    pub publication: Option<ModelPublication>,
    /// Drift events fired during the run, in fire order.
    pub drift_events: Vec<DriftEvent>,
    /// Drift-triggered re-calibrations that were refused for lack of
    /// remaining budget.
    pub refusals: u32,
}

/// A region's in-place adaptation state in monitor mode.
enum RegionAdapt {
    /// The region runs the served model's configuration.
    Serving,
    /// Scoped re-exploration in progress: the region's next visits run
    /// the candidate neighbourhood in order.
    Recalibrating(Sweep),
    /// Re-exploration done: the region runs (and is published at) the new
    /// configuration.
    Converged {
        config: SystemConfig,
        expected_j: f64,
    },
}

/// One region's monitor-mode state: its adaptation and, when the served
/// model carried a valid expectation for it, its drift watch.
struct RegionSlot {
    adapt: RegionAdapt,
    watch: Option<DriftDetector>,
}

struct MonitorState {
    /// One slot per benchmark region, indexed by
    /// [`RuntimeSession::region_of`]: a later region of a repeated name
    /// leaves its own slot unused.
    slots: Vec<RegionSlot>,
    /// The served expectations as published, re-published with
    /// re-calibrated regions patched in.
    expected: Vec<(String, f64)>,
    events: Vec<DriftEvent>,
    refusals: u32,
    recalibrated: u32,
    /// What a re-calibration minimises.
    objective: TuningObjective,
}

enum Mode<'a> {
    Calibrate(Box<CalibrationSchedule<'a>>),
    Monitor(Box<MonitorState>),
}

/// In-situ tuning for jobs the repository cannot (fully) serve.
///
/// The tuner exposes the exact event protocol of [`RuntimeSession`]
/// (`region_enter` / `region_exit` / `phase_complete` / `finish`), so a
/// driver — the [`ClusterScheduler`](crate::ClusterScheduler) or a hand
///-written loop — treats adaptive jobs like any other. Accounting flows
/// through the wrapped session unchanged and stays deterministic and
/// interleaving-independent: the exploration schedule is a pure function
/// of the job identity and its own observations, so two interleaved
/// online jobs calibrate bit-identically to solo runs.
pub struct OnlineTuner<'a> {
    session: RuntimeSession<'a>,
    mode: Mode<'a>,
    faults: Option<&'a dyn FaultInjector>,
}

impl<'a> OnlineTuner<'a> {
    /// Calibration mode — the repository-miss path. The job launches at
    /// the platform default configuration, spends its early phase
    /// iterations exploring the strategy's candidate configurations
    /// against live region measurements, converges, and exploits the
    /// converged model for the rest of the run. [`OnlineTuner::finish`]
    /// then carries the model for publication.
    ///
    /// `energy_model` is consulted by model-predicting strategies
    /// (`ModelBasedNeighbourhood`); pool strategies ignore it.
    pub fn calibrate(
        job: impl Into<String>,
        bench: &'a BenchmarkSpec,
        node: &'a Node,
        strategy: &'a dyn SearchStrategy,
        energy_model: Option<&'a EnergyModel>,
        config: OnlineConfig,
    ) -> Result<Self, RuntimeError> {
        let fingerprint = bench.fingerprint();
        Self::calibrate_keyed(
            job,
            bench,
            fingerprint,
            node,
            strategy,
            energy_model,
            config,
            None,
        )
    }

    /// [`Self::calibrate`] for a caller that already holds the workload's
    /// fingerprint, with its fault injector (if any) attached as
    /// [`Self::with_faults`] would.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn calibrate_keyed(
        job: impl Into<String>,
        bench: &'a BenchmarkSpec,
        fingerprint: u64,
        node: &'a Node,
        strategy: &'a dyn SearchStrategy,
        energy_model: Option<&'a EnergyModel>,
        config: OnlineConfig,
        faults: Option<&'a dyn FaultInjector>,
    ) -> Result<Self, RuntimeError> {
        let launch = SystemConfig::taurus_default();
        let served = ServedModel {
            model: TuningModel::new(&bench.name, &[], launch),
            source: ModelSource::Online,
            provenance: None,
        };
        let session = RuntimeSession::open(job, bench, fingerprint, node, served, launch)?;
        let schedule = CalibrationSchedule::new(
            bench,
            node,
            strategy,
            energy_model,
            config.objective,
            session.seed(),
        )?;
        Ok(Self {
            session,
            mode: Mode::Calibrate(Box::new(schedule)),
            faults,
        })
    }

    /// Monitor mode — the repository-hit path. The served model resolves
    /// scenarios as in a plain session; each region the serve carried a
    /// drift expectation for gets a [`DriftDetector`] that compares it
    /// against the region's live measurements, and a fired region
    /// re-explores its configuration neighbourhood over its next visits
    /// and converges to a fresh optimum.
    ///
    /// Expectations resolve against the benchmark's regions once, here:
    /// names the benchmark lacks and values that are not finite and
    /// positive are ignored, and of a repeated name the last valid value
    /// counts.
    pub fn monitor(
        job: impl Into<String>,
        bench: &'a BenchmarkSpec,
        node: &'a Node,
        served: ServedModel,
        config: OnlineConfig,
    ) -> Result<Self, RuntimeError> {
        Self::monitor_keyed(job, bench, bench.fingerprint(), node, served, config, None)
    }

    /// [`Self::monitor`] for a caller that already holds the workload's
    /// fingerprint, with its fault injector (if any) attached as
    /// [`Self::with_faults`] would.
    pub(crate) fn monitor_keyed(
        job: impl Into<String>,
        bench: &'a BenchmarkSpec,
        fingerprint: u64,
        node: &'a Node,
        mut served: ServedModel,
        config: OnlineConfig,
        faults: Option<&'a dyn FaultInjector>,
    ) -> Result<Self, RuntimeError> {
        let expected = served
            .provenance
            .take()
            .map(|p| p.expected)
            .unwrap_or_default();
        let mut slots: Vec<RegionSlot> = bench
            .regions
            .iter()
            .map(|_| RegionSlot {
                adapt: RegionAdapt::Serving,
                watch: None,
            })
            .collect();
        for (region, expected_j) in &expected {
            let idx = bench.regions.iter().position(|r| r.name == *region);
            if let (Some(idx), Some(watch)) = (idx, DriftDetector::new(*expected_j)) {
                slots[idx].watch = Some(watch);
            }
        }
        let launch = SystemConfig::taurus_default();
        let session = RuntimeSession::open(job, bench, fingerprint, node, served, launch)?;
        Ok(Self {
            session,
            mode: Mode::Monitor(Box::new(MonitorState {
                slots,
                expected,
                events: Vec::new(),
                refusals: 0,
                recalibrated: 0,
                objective: config.objective,
            })),
            faults,
        })
    }

    /// Attach a deterministic [`FaultInjector`] (builder form). The only
    /// hook the tuner itself consults is
    /// [`drift_scale`](FaultInjector::drift_scale) — the factor applied
    /// to the region energy a *monitoring* session feeds a region's drift
    /// watch, simulating a mid-run workload shift; it is asked only for
    /// the measurements a watch reads. Accounting is unaffected;
    /// abort/calibration faults are the scheduler's to honor.
    #[must_use]
    pub fn with_faults(mut self, faults: &'a dyn FaultInjector) -> Self {
        self.faults = Some(faults);
        self
    }

    /// The job name this tuner accounts under.
    pub fn job(&self) -> &str {
        self.session.job()
    }

    /// The wrapped session (read-only).
    pub fn session(&self) -> &RuntimeSession<'a> {
        &self.session
    }

    /// Phase iteration the next region event executes in.
    pub fn phase_iteration(&self) -> u32 {
        self.session.phase_iteration()
    }

    /// Current stage: one of `thread-sweep`, `analysis`, `phase-search`,
    /// `verification`, `exploit` (calibration) or `monitor`.
    pub fn stage(&self) -> &'static str {
        match &self.mode {
            Mode::Calibrate(schedule) => schedule.stage_name(),
            Mode::Monitor(_) => "monitor",
        }
    }

    /// Whether the tuner is still spending iterations on exploration.
    pub fn is_exploring(&self) -> bool {
        match &self.mode {
            Mode::Calibrate(schedule) => schedule.is_exploring(),
            Mode::Monitor(state) => state
                .slots
                .iter()
                .any(|s| matches!(s.adapt, RegionAdapt::Recalibrating(_))),
        }
    }

    /// The calibration's converged model, once the exploit stage is
    /// reached (`None` in monitor mode).
    pub fn converged_model(&self) -> Option<&TuningModel> {
        match &self.mode {
            Mode::Calibrate(schedule) => schedule.converged().map(|c| &c.model),
            Mode::Monitor(_) => None,
        }
    }

    /// Drift events fired so far.
    pub fn drift_events(&self) -> &[DriftEvent] {
        match &self.mode {
            Mode::Monitor(state) => &state.events,
            Mode::Calibrate(_) => &[],
        }
    }

    /// Region-enter event: like [`RuntimeSession::region_enter`], except
    /// the applied configuration is the tuner's — an exploration
    /// candidate, a re-calibration candidate, a converged assignment, or
    /// the served model's lookup.
    pub fn region_enter(&mut self, region: &str) -> Result<SystemConfig, RuntimeError> {
        let idx = self.session.resolve_enter(region)?;
        self.region_enter_idx(idx)
    }

    /// [`Self::region_enter`] of `bench.regions[idx]`, for a driver that
    /// walks the benchmark's regions by index.
    pub(crate) fn region_enter_idx(&mut self, idx: usize) -> Result<SystemConfig, RuntimeError> {
        let explicit = match &self.mode {
            Mode::Calibrate(schedule) => Some(schedule.config_for(idx)),
            Mode::Monitor(state) => match &state.slots[self.session.region_of(idx)].adapt {
                RegionAdapt::Serving => None,
                RegionAdapt::Recalibrating(sweep) => Some(sweep.current()),
                RegionAdapt::Converged { config, .. } => Some(*config),
            },
        };
        self.session.region_enter_idx(idx, explicit)
    }

    /// Region-exit event: execute and account through the session, then
    /// feed the measurement to the calibration schedule or the drift
    /// detector.
    pub fn region_exit(&mut self, region: &str) -> Result<RegionExit, RuntimeError> {
        let idx = self.session.resolve_exit(region)?;
        self.region_exit_idx(idx)
    }

    /// [`Self::region_exit`] of `bench.regions[idx]`.
    pub(crate) fn region_exit_idx(&mut self, idx: usize) -> Result<RegionExit, RuntimeError> {
        let exit = self.session.region_exit_idx(idx)?;
        let idx = self.session.region_of(idx);
        let iteration = self.session.phase_iteration();
        let bench = self.session.bench();
        match &mut self.mode {
            Mode::Calibrate(schedule) => schedule.record(idx, &exit),
            Mode::Monitor(state) => {
                // An injected drift shift scales only the energy the
                // watch sees — the job's own ledger stays truthful.
                let (faults, job) = (self.faults, self.session.job());
                let drift_scale = || {
                    faults.map_or(1.0, |f| {
                        f.drift_scale(job, &bench.regions[idx].name, iteration)
                    })
                };
                state.observe(
                    idx,
                    &exit,
                    drift_scale,
                    iteration,
                    bench,
                    self.session.node(),
                    self.session.model(),
                );
            }
        }
        Ok(exit)
    }

    /// Phase-complete event: advances the session's phase loop and the
    /// calibration stage machine. Calibration planning failures (budget
    /// exhaustion, strategy errors) surface here, at the analysis → phase
    /// -search transition.
    pub fn phase_complete(&mut self) -> Result<u32, RuntimeError> {
        let iter = self.session.phase_complete()?;
        if let Mode::Calibrate(schedule) = &mut self.mode {
            let bench = self.session.bench();
            let node = self.session.node();
            schedule.phase_completed(bench, node)?;
        }
        Ok(iter)
    }

    /// Drive the remaining phase iterations through the event protocol.
    pub fn run_to_completion(&mut self) -> Result<(), RuntimeError> {
        let bench = self.session.bench();
        while self.session.phase_iteration() < bench.phase_iterations {
            for idx in 0..bench.regions.len() {
                self.region_enter_idx(idx)?;
                self.region_exit_idx(idx)?;
            }
            self.phase_complete()?;
        }
        Ok(())
    }

    /// Explicitly request a scoped re-calibration of one region (what a
    /// fired drift event does automatically). Errors with
    /// [`RuntimeError::RecalibrationRefused`] when the job has too few
    /// remaining visits of the region to measure its neighbourhood, and
    /// when the session is a calibration (it is already exploring).
    /// Returns the number of candidate configurations the region will
    /// re-explore (0 when a re-calibration is already in flight or done).
    pub fn recalibrate_region(&mut self, region: &str) -> Result<usize, RuntimeError> {
        let bench = self.session.bench();
        let Some(idx) = bench.regions.iter().position(|r| r.name == region) else {
            return Err(RuntimeError::UnknownRegion {
                application: bench.name.clone(),
                region: region.to_string(),
            });
        };
        let iteration = self.session.phase_iteration();
        match &mut self.mode {
            Mode::Calibrate(_) => Err(RuntimeError::RecalibrationRefused {
                application: bench.name.clone(),
                region: region.to_string(),
                needed: 0,
                remaining: 0,
            }),
            Mode::Monitor(state) => {
                if !matches!(state.slots[idx].adapt, RegionAdapt::Serving) {
                    return Ok(0);
                }
                let current = self.session.model().lookup(region);
                state.begin_recalibration(idx, current, iteration, bench, self.session.node())
            }
        }
    }

    /// Finish the job: the session's accounting (with
    /// [`OnlineActivity`] attached) plus whatever the tuner learned — the
    /// calibration's converged model, or the served model with
    /// re-calibrated regions patched in.
    pub fn finish(self) -> Result<OnlineOutcome, RuntimeError> {
        let (activity, publication, drift_events, refusals) = match self.mode {
            Mode::Calibrate(schedule) => {
                let publication = schedule.converged().cloned();
                (
                    OnlineActivity {
                        explored_iterations: schedule.explored_iterations(),
                        drift_events: 0,
                        recalibrated_regions: 0,
                        publishable: publication.is_some(),
                    },
                    publication,
                    Vec::new(),
                    0,
                )
            }
            Mode::Monitor(mut state) => {
                let publication = (state.recalibrated > 0)
                    .then(|| state.republication(self.session.model(), self.session.bench()));
                let MonitorState {
                    events: drift_events,
                    refusals,
                    recalibrated,
                    ..
                } = *state;
                (
                    OnlineActivity {
                        explored_iterations: 0,
                        drift_events: drift_events.len() as u32,
                        recalibrated_regions: recalibrated,
                        publishable: publication.is_some(),
                    },
                    publication,
                    drift_events,
                    refusals,
                )
            }
        };
        let mut accounting = self.session.finish()?;
        accounting.online = Some(activity);
        Ok(OnlineOutcome {
            accounting,
            publication,
            drift_events,
            refusals,
        })
    }
}

impl MonitorState {
    /// Feed one region measurement: advance an in-flight re-calibration,
    /// or feed the region's drift watch and possibly start one.
    /// `drift_scale` is the factor the watched energy is scaled by (an
    /// injected drift shift), asked only when a watch reads it;
    /// re-calibration measurements always use the true `exit` values.
    #[allow(clippy::too_many_arguments)]
    fn observe(
        &mut self,
        idx: usize,
        exit: &RegionExit,
        drift_scale: impl FnOnce() -> f64,
        iteration: u32,
        bench: &BenchmarkSpec,
        node: &Node,
        model: &TuningModel,
    ) {
        if exit.filtered {
            return;
        }
        let slot = &mut self.slots[idx];
        if let RegionAdapt::Recalibrating(sweep) = &mut slot.adapt {
            if let Some((config, best)) = sweep.record(Measurement::from(exit), self.objective) {
                slot.adapt = RegionAdapt::Converged {
                    config,
                    expected_j: best.node_energy_j,
                };
                self.recalibrated += 1;
                if let Some(watch) = &mut slot.watch {
                    watch.rebase(best.node_energy_j);
                }
            }
            return;
        }
        // Post-recalibration observations keep flowing into the (rebased)
        // watch, so a second genuine shift can fire again.
        let Some(watch) = &mut slot.watch else {
            return;
        };
        let Some(ratio) = watch.observe(exit.node_energy_j * drift_scale()) else {
            return;
        };
        let region = &bench.regions[idx].name;
        self.events.push(DriftEvent {
            region: region.clone(),
            ratio,
            at_iteration: iteration,
        });
        let current = match slot.adapt {
            RegionAdapt::Converged { config, .. } => config,
            _ => model.lookup(region),
        };
        if self
            .begin_recalibration(idx, current, iteration, bench, node)
            .is_err()
        {
            self.refusals += 1;
        }
    }

    /// Start a scoped re-exploration of region `idx` around `current`, if
    /// the job's remaining iterations can fit it.
    fn begin_recalibration(
        &mut self,
        idx: usize,
        current: SystemConfig,
        iteration: u32,
        bench: &BenchmarkSpec,
        node: &Node,
    ) -> Result<usize, RuntimeError> {
        let candidates: Vec<SystemConfig> =
            SearchSpace::neighbourhood(current, RECALIBRATION_RADIUS, vec![current.threads])
                .configs()
                .into_iter()
                .filter(|c| node.supports(c))
                .collect();
        let needed = candidates.len();
        // The region's remaining visits after the current iteration: one
        // per remaining full phase iteration.
        let remaining = bench.phase_iterations.saturating_sub(iteration + 1) as usize;
        if candidates.is_empty() || remaining < needed {
            return Err(RuntimeError::RecalibrationRefused {
                application: bench.name.clone(),
                region: bench.regions[idx].name.clone(),
                needed: needed as u32,
                remaining: remaining as u32,
            });
        }
        self.slots[idx].adapt = RegionAdapt::Recalibrating(Sweep::new(candidates));
        Ok(needed)
    }

    /// The served model with converged re-calibrations patched in, plus
    /// the served expectations (taken from the state) with each converged
    /// region's entry updated, or appended in region-name order when the
    /// serve carried none. Of a name the list repeats, the *last* entry
    /// is updated: [`OnlineTuner::monitor`] watches the last valid value
    /// of a name, so the next job served this list compares against the
    /// fresh one.
    fn republication(&mut self, model: &TuningModel, bench: &BenchmarkSpec) -> ModelPublication {
        let mut converged: Vec<(&str, SystemConfig, f64)> = self
            .slots
            .iter()
            .zip(&bench.regions)
            .filter_map(|(slot, region)| match slot.adapt {
                RegionAdapt::Converged { config, expected_j } => {
                    Some((region.name.as_str(), config, expected_j))
                }
                _ => None,
            })
            .collect();
        converged.sort_unstable_by(|a, b| a.0.cmp(b.0));
        let mut pairs: Vec<(String, SystemConfig)> = Vec::new();
        for scenario in &model.scenarios {
            for region in &scenario.regions {
                let cfg = converged
                    .iter()
                    .find(|c| c.0 == region)
                    .map_or(scenario.config, |c| c.1);
                pairs.push((region.clone(), cfg));
            }
        }
        let mut expected = std::mem::take(&mut self.expected);
        for &(region, _, expected_j) in &converged {
            match expected.iter_mut().rev().find(|(r, _)| r == region) {
                Some(entry) => entry.1 = expected_j,
                None => expected.push((region.to_string(), expected_j)),
            }
        }
        ModelPublication {
            model: TuningModel::new(&model.application, &pairs, model.phase_config),
            expected,
        }
    }
}
