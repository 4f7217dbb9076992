//! Cluster-scale job scheduling atop `simnode::cluster`.
//!
//! The [`ClusterScheduler`] multiplexes many concurrent
//! [`RuntimeSession`]s across the nodes of a [`Cluster`]: jobs are placed
//! round-robin, served their tuning model from a repository, and then
//! driven *interleaved* — each event-loop sweep advances every active
//! session by one region event — exactly as a cluster full of
//! independently-running RRL instances would progress. Because session
//! accounting is interleaving-independent (see [`crate::session`]),
//! every job's result is bit-identical to running its session alone.
//!
//! Two event loops drive the same job-state machine and take every
//! admission decision from the same routine, `AdmissionGate::admit` (plain
//! serve, wait behind an in-flight calibration, monitor a hit, or report a
//! cold workload) followed by `AdmissionGate::lead` for a cold workload's
//! calibration leader. A job whose node cannot apply its model or launch
//! configuration degrades to a static run in one place. The loops differ
//! only in how a job waits:
//!
//! * [`ClusterScheduler::run`] — the sweep loop: every queued job is
//!   admitted in submission order, and each sweep advances every active
//!   session by one event. It serves from any [`RepositoryHandle`] — a
//!   [`TuningModelRepository`](crate::TuningModelRepository) or one
//!   replica of a [`ReplicaSet`](crate::ReplicaSet) — and is the
//!   reference the service loop is checked against. A waiting job is
//!   rescanned every pass.
//! * [`ClusterScheduler::run_service`] — the discrete-event loop of
//!   [`crate::service`]: timestamped arrivals, bounded node slots and
//!   node churn in virtual time. A waiting job parks until its
//!   calibration resolves, and a replicated run tries a read-repair
//!   before a cold workload's calibration.
//!
//! Both produce a [`ClusterReport`] with per-job outcomes in submission
//! order. Accounting depends only on the job's identity and its served
//! model, never on the order in which the loop advanced the sessions, so
//! the same admissions give bit-identical per-job [`JobAccounting`].
//!
//! The run produces per-job `sacct`-style accounting, per-job savings
//! against a default-configuration run of the same job on the same node,
//! and an aggregate cluster savings report.

use std::collections::{BTreeMap, BTreeSet};

use kernels::BenchmarkSpec;
use obskit::{NoopRecorder, Recorder};
use ptf::{EnergyModel, SearchStrategy, TuningModel};
use simnode::{Cluster, Node, SystemConfig};

use crate::baseline::BaselineMemo;
use crate::error::RuntimeError;
use crate::inject::FaultInjector;
use crate::online::{DriftEvent, OnlineConfig, OnlineTuner};
use crate::repository::{ModelKey, RepositoryHandle, RepositoryStats, ServedModel};
use crate::sacct::{JobAccounting, JobRecord};
use crate::savings::Savings;
use crate::session::RuntimeSession;

/// Online adaptation for a scheduler run: when attached via
/// [`ClusterScheduler::with_online`], repository misses no longer pin the
/// static fallback — the first job of each unseen workload calibrates
/// in-situ through an [`OnlineTuner`] (same-workload jobs queue behind it
/// so the cluster calibrates each workload once), the converged model is
/// published back, and every subsequent job serves it as a
/// [`ModelSource::Online`](crate::ModelSource) hit. Repository hits run
/// in monitor mode: drift-flagged regions re-calibrate in place and bump
/// the stored model's version.
#[derive(Clone, Copy)]
pub struct OnlineTuning<'a> {
    /// Candidate-generation strategy for calibrations (the design-time
    /// `SearchStrategy` machinery).
    pub strategy: &'a dyn SearchStrategy,
    /// Trained energy model for model-predicting strategies (`None` is
    /// fine for exhaustive/random search).
    pub energy_model: Option<&'a EnergyModel>,
    /// Online settings: the objective calibrations minimise.
    pub config: OnlineConfig,
}

impl std::fmt::Debug for OnlineTuning<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("OnlineTuning")
            .field("strategy", &self.strategy.name())
            .field("has_model", &self.energy_model.is_some())
            .field("config", &self.config)
            .finish()
    }
}

/// Record of a capability-gap rejection the scheduler *degraded* instead
/// of aborting the run: the job's served tuning model (or its launch
/// configuration) carried a configuration its placed node cannot apply
/// ([`Node::supports`] said no), so the job ran untuned at the
/// node-clamped default instead. Carries the job and node identity so
/// scenario reports and shrinker output can name the culprit placement.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JobRejection {
    /// The job whose model/launch was rejected.
    pub job: String,
    /// The node that rejected it.
    pub node_id: u32,
    /// The configuration the node could not apply.
    pub config: SystemConfig,
}

/// One job's outcome after a scheduler run.
#[derive(Debug, Clone)]
pub struct JobOutcome {
    /// Job name.
    pub job: String,
    /// Benchmark the job ran.
    pub benchmark: String,
    /// Node the job was placed on.
    pub node_id: u32,
    /// Full accounting of the tuned run.
    pub accounting: JobAccounting,
    /// Accounting record of the same job at the platform default
    /// configuration on the same node (the savings baseline).
    pub default: JobRecord,
    /// Per-job dynamic savings versus the default run.
    pub savings: Savings,
    /// Version assigned when this job's calibration/re-calibration was
    /// published back to the repository.
    pub published_version: Option<u32>,
    /// Drift events this job fired.
    pub drift: Vec<DriftEvent>,
    /// Set when the job's served model or launch configuration was
    /// rejected by its node's capabilities and the job degraded to a
    /// static run at the node-clamped default.
    pub rejection: Option<JobRejection>,
    /// Set when an injected fault truncated the job: the phase iteration
    /// it stopped at (its baseline is truncated to match).
    pub aborted_at: Option<u32>,
}

/// Aggregate result of one scheduler run.
#[derive(Debug, Clone)]
pub struct ClusterReport {
    /// Per-job outcomes, in submission order.
    pub jobs: Vec<JobOutcome>,
    /// Sums of the default-run records across all jobs.
    pub total_default: JobRecord,
    /// Sums of the tuned-run records across all jobs.
    pub total_tuned: JobRecord,
    /// Cluster-wide savings (computed on the summed records).
    pub aggregate: Savings,
    /// Repository statistics after serving this run.
    pub repository: RepositoryStats,
    /// Distinct nodes that executed at least one job.
    pub nodes_used: usize,
    /// Virtual-time service metrics — present only for
    /// [`ClusterScheduler::run_service`] runs (the sweep loop has no
    /// timeline to measure latency on).
    pub service: Option<crate::service::ServiceSummary>,
}

/// Aggregate online-adaptation activity of one scheduler run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct OnlineSummary {
    /// Jobs that calibrated a cold workload in-situ.
    pub calibrations: usize,
    /// Models published back to the repository (calibrations plus
    /// drift-triggered re-publications).
    pub publications: usize,
    /// Drift events fired across all jobs.
    pub drift_events: u64,
    /// Regions re-calibrated in place across all jobs.
    pub recalibrated_regions: u64,
}

impl ClusterReport {
    /// Aggregate online-adaptation activity (all zeros when the run had
    /// no online tuning attached).
    pub fn online_summary(&self) -> OnlineSummary {
        let mut summary = OnlineSummary::default();
        for job in &self.jobs {
            if let Some(online) = &job.accounting.online {
                if online.explored_iterations > 0 {
                    summary.calibrations += 1;
                }
                summary.drift_events += u64::from(online.drift_events);
                summary.recalibrated_regions += u64::from(online.recalibrated_regions);
            }
            if job.published_version.is_some() {
                summary.publications += 1;
            }
        }
        summary
    }

    /// Human-readable cluster report: one line per job plus the
    /// aggregate savings and repository hit rate.
    pub fn format_report(&self) -> String {
        use std::fmt::Write;
        // Not reserved up front: reserving ~1 MB per 10k-job report made
        // svcbench's allocation-heavy `tiny_hit` trace generation, run
        // after it, ~10 % slower. Growing by doubling costs ~20 reallocs.
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{:<18} {:<13} {:>5} {:>10} {:>9} {:>9} {:>9} {:>9}",
            "job", "benchmark", "node", "source", "job[%]", "cpu[%]", "time[%]", "switches"
        );
        for j in &self.jobs {
            let _ = writeln!(
                out,
                "{:<18} {:<13} {:>5} {:>10} {:>9.2} {:>9.2} {:>9.2} {:>9}",
                j.job,
                j.benchmark,
                j.node_id,
                j.accounting.source.name(),
                j.savings.job_energy_pct,
                j.savings.cpu_energy_pct,
                j.savings.time_pct,
                j.accounting.switches,
            );
        }
        let _ = writeln!(
            out,
            "\n{} jobs over {} nodes — aggregate savings: job {:.2}%  cpu {:.2}%  time {:.2}%",
            self.jobs.len(),
            self.nodes_used,
            self.aggregate.job_energy_pct,
            self.aggregate.cpu_energy_pct,
            self.aggregate.time_pct,
        );
        let _ = writeln!(
            out,
            "repository: {} hits / {} misses ({} fallback, {} evicted) — hit rate {:.0}%",
            self.repository.hits,
            self.repository.misses,
            self.repository.fallbacks,
            self.repository.evictions,
            100.0 * self.repository.hit_rate(),
        );
        let online = self.online_summary();
        if online != OnlineSummary::default() {
            let _ = writeln!(
                out,
                "online: {} calibrations, {} publications, {} drift events, \
                 {} regions re-calibrated",
                online.calibrations,
                online.publications,
                online.drift_events,
                online.recalibrated_regions,
            );
        }
        if let Some(service) = &self.service {
            out.push_str(&service.format_lines());
        }
        let aborted = self.jobs.iter().filter(|j| j.aborted_at.is_some()).count();
        let rejected = self.jobs.iter().filter_map(|j| j.rejection.as_ref());
        let degraded = rejected.clone().count();
        if aborted > 0 || degraded > 0 {
            let _ = write!(
                out,
                "faults: {aborted} job{} aborted, {degraded} degraded by capability gaps",
                if aborted == 1 { "" } else { "s" },
            );
            for r in rejected {
                let _ = write!(out, " [{} on node {}]", r.job, r.node_id);
            }
            out.push('\n');
        }
        out
    }
}

pub(crate) struct QueuedJob {
    pub(crate) name: String,
    pub(crate) bench: BenchmarkSpec,
    /// `bench.fingerprint()`, taken once at submission: admission,
    /// settlement, the baseline memo and the session seed all reuse it.
    pub(crate) fingerprint: u64,
    pub(crate) node_idx: usize,
}

impl QueuedJob {
    pub(crate) fn new(name: String, bench: BenchmarkSpec, node_idx: usize) -> Self {
        Self {
            fingerprint: bench.fingerprint(),
            name,
            bench,
            node_idx,
        }
    }

    /// The workload's repository key, without fingerprinting again.
    pub(crate) fn key(&self) -> ModelKey {
        ModelKey {
            application: self.bench.name.clone(),
            fingerprint: self.fingerprint,
        }
    }
}

/// The per-job execution state both event loops drive.
pub(crate) enum State<'b> {
    /// Not yet admitted (not yet arrived, queued, or waiting behind a
    /// calibration).
    Waiting,
    /// An ordinary model-serving session.
    Plain(Box<RuntimeSession<'b>>),
    /// An online calibration or monitor session.
    Online(Box<OnlineTuner<'b>>),
    /// Finished; the accounting has been collected.
    Done,
}

/// What [`JobDriver::advance`] observed.
pub(crate) enum EventOutcome {
    /// The session advanced by one event.
    Advanced,
    /// An online calibration abandoned itself (exploration budget or
    /// planning failure discovered at a phase boundary); the session
    /// keeps running as a degraded static job, and same-workload waiters
    /// must be released to the fallback path.
    Abandoned,
}

/// One job's driver: its state machine plus everything the final report
/// needs. The sweep and the service loops share this completely — only
/// when each job is admitted and advanced differs.
pub(crate) struct JobDriver<'b> {
    pub(crate) state: State<'b>,
    region_idx: usize,
    /// Phase iterations this job will actually run: the benchmark's
    /// count, or an injected abort point (clamped to ≥ 1).
    pub(crate) iterations: u32,
    accounting: Option<JobAccounting>,
    default: Option<JobRecord>,
    pub(crate) published_version: Option<u32>,
    drift: Vec<DriftEvent>,
    pub(crate) rejection: Option<JobRejection>,
}

impl<'b> JobDriver<'b> {
    /// A driver for `job`, with any injected abort already resolved into
    /// the effective iteration count — a pure function of the job name,
    /// so both event loops (and both runs of a replay) truncate
    /// identically.
    pub(crate) fn new(job: &QueuedJob, faults: Option<&dyn FaultInjector>) -> Self {
        let iterations = faults
            .and_then(|f| f.abort_phase(&job.name))
            .map_or(job.bench.phase_iterations, |k| {
                k.max(1).min(job.bench.phase_iterations)
            });
        Self {
            state: State::Waiting,
            region_idx: 0,
            iterations,
            accounting: None,
            default: None,
            published_version: None,
            drift: Vec::new(),
            rejection: None,
        }
    }

    pub(crate) fn is_active(&self) -> bool {
        matches!(self.state, State::Plain(_) | State::Online(_))
    }

    /// Whether the job's phase loop has run out of iterations (its next
    /// event must be the finish).
    pub(crate) fn finished_iterations(&self) -> bool {
        match &self.state {
            State::Plain(session) => session.phase_iteration() >= self.iterations,
            State::Online(tuner) => tuner.phase_iteration() >= self.iterations,
            State::Waiting | State::Done => false,
        }
    }

    /// The phase iteration an active session is currently in (0 when not
    /// active). The discrete-event service uses this to truncate jobs on
    /// a failed node at their next phase boundary.
    pub(crate) fn phase_iteration(&self) -> u32 {
        match &self.state {
            State::Plain(session) => session.phase_iteration(),
            State::Online(tuner) => tuner.phase_iteration(),
            State::Waiting | State::Done => 0,
        }
    }

    /// Virtual wall time the active session has accumulated so far (0
    /// when not active). The discrete-event service reads this after
    /// every event to place the next one on the virtual timeline.
    pub(crate) fn elapsed_s(&self) -> f64 {
        match &self.state {
            State::Plain(session) => session.elapsed_s(),
            State::Online(tuner) => tuner.session().elapsed_s(),
            State::Waiting | State::Done => 0.0,
        }
    }

    /// Advance an active, unfinished job by one event: the next region's
    /// enter/exit pair, or — once the phase's regions are exhausted — the
    /// phase-complete.
    pub(crate) fn advance(&mut self, bench: &BenchmarkSpec) -> Result<EventOutcome, RuntimeError> {
        if self.region_idx < bench.regions.len() {
            let idx = self.region_idx;
            match &mut self.state {
                State::Plain(session) => {
                    session.region_enter_idx(idx, None)?;
                    session.region_exit_idx(idx)?;
                }
                State::Online(tuner) => {
                    tuner.region_enter_idx(idx)?;
                    tuner.region_exit_idx(idx)?;
                }
                State::Waiting | State::Done => unreachable!("advance requires an active driver"),
            }
            self.region_idx += 1;
            return Ok(EventOutcome::Advanced);
        }
        self.region_idx = 0;
        match &mut self.state {
            State::Plain(session) => {
                session.phase_complete()?;
                Ok(EventOutcome::Advanced)
            }
            State::Online(tuner) => match tuner.phase_complete() {
                Ok(_) => Ok(EventOutcome::Advanced),
                // The calibration abandoned itself (budget/planning
                // discovered at the planning point); the tuner keeps
                // running as a degraded static job.
                Err(RuntimeError::ExplorationBudget { .. } | RuntimeError::Planning(_)) => {
                    Ok(EventOutcome::Abandoned)
                }
                Err(other) => Err(other),
            },
            State::Waiting | State::Done => unreachable!("advance requires an active driver"),
        }
    }

    /// Advance an active, unfinished job through the *rest of its
    /// current phase* in one call: drain the phase's remaining
    /// contiguous region enter/exit events back to back, then take the
    /// phase-complete, and return that boundary event's outcome. One
    /// repository/accounting pass per session sweep instead of
    /// per-event dispatch — the batched twin of [`JobDriver::advance`]
    /// used by the discrete-event loop (the sweep loop keeps
    /// single-event `advance` as the reference implementation). Per-job
    /// accounting is interleaving-independent, so batching granularity
    /// is unobservable in the report.
    pub(crate) fn advance_phase(
        &mut self,
        bench: &BenchmarkSpec,
    ) -> Result<EventOutcome, RuntimeError> {
        loop {
            let at_boundary = self.region_idx >= bench.regions.len();
            let outcome = self.advance(bench)?;
            if at_boundary || !matches!(outcome, EventOutcome::Advanced) {
                return Ok(outcome);
            }
        }
    }

    /// Finish an active job whose iterations are exhausted: collect its
    /// accounting, publish any converged model to `repo`, and take the
    /// default-configuration baseline for the savings comparison from
    /// the loop's `baselines` memo. The baseline runs at the
    /// node-clamped default (identical to the platform default on a
    /// full-capability node) and — for an aborted job — over the same
    /// truncated phase count, so the savings compare like with like.
    pub(crate) fn finish(
        &mut self,
        job: &QueuedJob,
        node_idx: usize,
        baselines: &mut BaselineMemo<'_>,
        repo: &mut dyn RepositoryHandle,
    ) -> Result<(), RuntimeError> {
        match std::mem::replace(&mut self.state, State::Done) {
            State::Plain(session) => {
                self.accounting = Some(session.finish()?);
            }
            State::Online(tuner) => {
                let outcome = tuner.finish()?;
                self.accounting = Some(outcome.accounting);
                self.drift = outcome.drift_events;
                if let Some(publication) = outcome.publication {
                    self.published_version = Some(repo.publish_online(
                        &job.bench,
                        &publication.model,
                        publication.expected,
                    ));
                }
            }
            State::Waiting | State::Done => unreachable!("finish requires an active driver"),
        }
        self.default = Some(baselines.record(
            &job.name,
            &job.bench,
            job.fingerprint,
            self.iterations,
            node_idx,
        )?);
        Ok(())
    }
}

/// The platform default clamped to what `node` can actually run — the
/// launch/baseline configuration for jobs on capability-gapped nodes.
/// Identical to [`SystemConfig::taurus_default`] on a full node.
pub(crate) fn node_default(node: &Node) -> SystemConfig {
    let default = SystemConfig::taurus_default();
    default.with_threads(default.threads.min(node.topology().max_threads()))
}

/// Open a plain serving session for an already-served model, launched at
/// the platform default.
fn plain<'b>(
    job: &'b QueuedJob,
    node: &'b Node,
    served: ServedModel,
) -> Result<State<'b>, RuntimeError> {
    let launch = SystemConfig::taurus_default();
    RuntimeSession::open(&job.name, &job.bench, job.fingerprint, node, served, launch)
        .map(|session| State::Plain(Box::new(session)))
}

/// Start a job from its `opened` session. A capability-gap rejection —
/// the node cannot apply the served model or the launch configuration —
/// degrades the job to an untuned static session at the node-clamped
/// default, with the rejection recorded for the report; when even that
/// cannot run, the job fails with the distinct
/// [`RuntimeError::JobRejected`], naming the job and the node.
fn started<'b>(
    job: &'b QueuedJob,
    node: &'b Node,
    opened: Result<State<'b>, RuntimeError>,
) -> Result<(State<'b>, Option<JobRejection>), RuntimeError> {
    let rejected = match opened {
        Ok(state) => return Ok((state, None)),
        Err(
            RuntimeError::UnsupportedConfig { config, .. }
            | RuntimeError::UnsupportedInitial { config },
        ) => config,
        Err(other) => return Err(other),
    };
    let config = node_default(node);
    let served = ServedModel::fallback(TuningModel::new(&job.bench.name, &[], config));
    match RuntimeSession::open(&job.name, &job.bench, job.fingerprint, node, served, config) {
        Ok(session) => Ok((
            State::Plain(Box::new(session)),
            Some(JobRejection {
                job: job.name.clone(),
                node_id: node.id(),
                config: rejected,
            }),
        )),
        Err(RuntimeError::UnsupportedConfig { .. } | RuntimeError::UnsupportedInitial { .. }) => {
            Err(RuntimeError::JobRejected {
                job: job.name.clone(),
                node_id: node.id(),
                application: job.bench.name.clone(),
                config: rejected,
            })
        }
        Err(other) => Err(other),
    }
}

/// Fold finished drivers into the aggregate report (submission order, so
/// the floating-point totals are identical no matter which event loop
/// produced the drivers). `placements` gives each job's final node
/// index: the sweep loop passes the submission-time placement verbatim,
/// the discrete-event service passes its live placements (which churn
/// re-placement may have moved).
pub(crate) fn assemble_report(
    cluster: &Cluster,
    jobs: &[QueuedJob],
    placements: &[usize],
    drivers: Vec<JobDriver<'_>>,
    repository: RepositoryStats,
) -> ClusterReport {
    let mut outcomes = Vec::with_capacity(jobs.len());
    let mut total_default = JobRecord {
        job_energy_j: 0.0,
        cpu_energy_j: 0.0,
        elapsed_s: 0.0,
    };
    let mut total_tuned = total_default;
    let mut nodes_used = vec![false; cluster.len()];
    for ((driver, job), &node_idx) in drivers.into_iter().zip(jobs).zip(placements) {
        let aborted_at =
            (driver.iterations < job.bench.phase_iterations).then_some(driver.iterations);
        let accounting = driver.accounting.expect("all jobs finished");
        let default = driver.default.expect("baseline computed at finish");
        total_default.job_energy_j += default.job_energy_j;
        total_default.cpu_energy_j += default.cpu_energy_j;
        total_default.elapsed_s += default.elapsed_s;
        total_tuned.job_energy_j += accounting.record.job_energy_j;
        total_tuned.cpu_energy_j += accounting.record.cpu_energy_j;
        total_tuned.elapsed_s += accounting.record.elapsed_s;
        nodes_used[node_idx] = true;
        outcomes.push(JobOutcome {
            job: job.name.clone(),
            benchmark: job.bench.name.clone(),
            node_id: cluster.node(node_idx).id(),
            savings: Savings::between(&default, &accounting.record),
            accounting,
            default,
            published_version: driver.published_version,
            drift: driver.drift,
            rejection: driver.rejection,
            aborted_at,
        });
    }
    ClusterReport {
        aggregate: Savings::between(&total_default, &total_tuned),
        jobs: outcomes,
        total_default,
        total_tuned,
        repository,
        nodes_used: nodes_used.iter().filter(|&&used| used).count(),
        service: None,
    }
}

/// What [`AdmissionGate::admit`] decided for a job.
pub(crate) enum Admission<'b> {
    /// Start the job in this state; the rejection is set when a
    /// capability gap degraded it to an untuned static run.
    Start(State<'b>, Option<JobRejection>),
    /// A calibration of the workload is in flight: wait for it.
    Wait,
    /// The repository missed on a workload nobody calibrates: the job may
    /// [`lead`](AdmissionGate::lead) its calibration with these online
    /// settings.
    Cold(OnlineTuning<'b>),
}

/// The admission policy both event loops share: how each job starts,
/// which workloads have a calibration in flight, which job leads each,
/// and which workloads failed to calibrate. The loops keep only their own
/// way of waiting — the sweep rescans its waiting jobs every pass, the
/// service parks them and schedules their release (and first tries a
/// read-repair for a cold workload).
#[derive(Debug, Default)]
pub(crate) struct AdmissionGate {
    /// Workloads with a calibration in flight → the leading job's index.
    calibrating: BTreeMap<ModelKey, usize>,
    /// Workloads whose calibration failed (budget, planning, fault, or a
    /// leader that finished without converging): the rest of the run
    /// serves them plainly instead of re-attempting.
    failed: BTreeSet<ModelKey>,
}

impl AdmissionGate {
    /// Admit `job` on `node`, serving from `repo`. Without online tuning,
    /// and for a workload whose calibration failed, the job serves the
    /// stored model or the fallback plainly. Otherwise it waits behind an
    /// in-flight calibration, monitors a repository hit, or reports the
    /// miss as [`Admission::Cold`].
    pub(crate) fn admit<'b>(
        &self,
        job: &'b QueuedJob,
        node: &'b Node,
        online: Option<&OnlineTuning<'b>>,
        faults: Option<&'b dyn FaultInjector>,
        repo: &mut dyn RepositoryHandle,
    ) -> Result<Admission<'b>, RuntimeError> {
        let opened = match online {
            None => plain(job, node, repo.serve(&job.bench)?),
            Some(online) => {
                let key = job.key();
                if self.failed.contains(&key) {
                    plain(job, node, repo.serve(&job.bench)?)
                } else if self.calibrating.contains_key(&key) {
                    return Ok(Admission::Wait);
                } else {
                    let Some(served) = repo.serve_stored(&job.bench)? else {
                        return Ok(Admission::Cold(*online));
                    };
                    OnlineTuner::monitor_keyed(
                        &job.name,
                        &job.bench,
                        job.fingerprint,
                        node,
                        served,
                        online.config,
                        faults,
                    )
                    .map(|tuner| State::Online(Box::new(tuner)))
                }
            }
        };
        let (state, rejection) = started(job, node, opened)?;
        Ok(Admission::Start(state, rejection))
    }

    /// Start job `i` (`job`), which found its workload cold, as the
    /// workload's calibration leader. Calibration refusals — an injected
    /// fault, an exploration-budget failure, a planning failure, or a
    /// capability-gap rejection of the calibration launch — fail the
    /// workload's calibration instead of erroring: the job runs on
    /// `repo`'s fallback, or degraded at the node-clamped default.
    pub(crate) fn lead<'b>(
        &mut self,
        job: &'b QueuedJob,
        i: usize,
        node: &'b Node,
        online: &OnlineTuning<'b>,
        faults: Option<&'b dyn FaultInjector>,
        repo: &mut dyn RepositoryHandle,
    ) -> Result<(State<'b>, Option<JobRejection>), RuntimeError> {
        let calibration = (!faults.is_some_and(|f| f.fail_calibration(&job.name))).then(|| {
            OnlineTuner::calibrate_keyed(
                &job.name,
                &job.bench,
                job.fingerprint,
                node,
                online.strategy,
                online.energy_model,
                online.config,
                faults,
            )
        });
        let opened = match calibration {
            Some(Ok(tuner)) => {
                self.calibrating.insert(job.key(), i);
                return Ok((State::Online(Box::new(tuner)), None));
            }
            // The workload cannot calibrate: serve the fallback (the miss
            // was already recorded).
            None
            | Some(Err(RuntimeError::ExplorationBudget { .. } | RuntimeError::Planning(_))) => {
                plain(job, node, repo.serve_fallback(&job.bench)?)
            }
            // A capability gap of the calibration launch degrades in
            // `started`; anything else is an error.
            Some(Err(other)) => Err(other),
        };
        self.failed.insert(job.key());
        started(job, node, opened)
    }

    /// Online job `job` of `key` finished, or abandoned its calibration
    /// (`published` is then `false`). Returns whether `job` leads the
    /// workload's in-flight calibration; only then is the calibration
    /// settled — failed unless it published — and the caller must let
    /// the waiters through and call [`AdmissionGate::release`]. Any other
    /// job, such as a drift monitor still running after its entry was
    /// evicted and re-calibrated by a new leader, leaves it alone.
    pub(crate) fn settle(&mut self, key: &ModelKey, job: usize, published: bool) -> bool {
        if self.calibrating.get(key) != Some(&job) {
            return false;
        }
        if !published {
            self.failed.insert(key.clone());
        }
        true
    }

    /// The settled calibration of `key` no longer holds jobs back: new
    /// jobs of the workload look it up (or fall back) instead of waiting.
    pub(crate) fn release(&mut self, key: &ModelKey) {
        self.calibrating.remove(key);
    }
}

/// Schedules and drives many concurrent runtime sessions over a cluster.
pub struct ClusterScheduler<'a> {
    cluster: &'a Cluster,
    online: Option<OnlineTuning<'a>>,
    faults: Option<&'a dyn FaultInjector>,
    recorder: Option<&'a dyn Recorder>,
    rr_next: usize,
    queue: Vec<QueuedJob>,
}

/// The recorder handed to runs when none is attached: recording off.
static NOOP_RECORDER: NoopRecorder = NoopRecorder;

impl<'a> ClusterScheduler<'a> {
    /// Scheduler over `cluster` with round-robin placement.
    pub fn new(cluster: &'a Cluster) -> Result<Self, RuntimeError> {
        if cluster.is_empty() {
            return Err(RuntimeError::EmptyCluster);
        }
        Ok(Self {
            cluster,
            online: None,
            faults: None,
            recorder: None,
            rr_next: 0,
            queue: Vec::new(),
        })
    }

    /// Attach online adaptation: repository misses calibrate in-situ and
    /// publish back instead of pinning the static fallback, and hits are
    /// drift-monitored (see [`OnlineTuning`]).
    #[must_use]
    pub fn with_online(mut self, online: OnlineTuning<'a>) -> Self {
        self.online = Some(online);
        self
    }

    /// Attach a deterministic [`FaultInjector`] honored by both event
    /// loops: jobs abort at an injected phase boundary (truncated
    /// accounting and baseline), cold-workload calibrations can be
    /// refused at admission, and monitoring jobs can have drift shifts
    /// injected into their detectors. Every fault is a pure function of
    /// the job identity, so reruns of a faulted trace are bit-identical.
    #[must_use]
    pub fn with_faults(mut self, faults: &'a dyn FaultInjector) -> Self {
        self.faults = Some(faults);
        self
    }

    /// Attach a telemetry recorder: the discrete-event service
    /// ([`ClusterScheduler::run_service`] and
    /// [`ClusterScheduler::run_service_replicated`]) emits metrics,
    /// spans, and instants into it (see the `obskit` crate). Without this call every run uses
    /// [`NoopRecorder`] — one predictable branch per instrumentation
    /// point, zero allocation — so existing call sites are unaffected.
    /// Recording never changes execution: recorded and unrecorded runs
    /// of the same inputs are bit-identical (the testkit `observability`
    /// invariant).
    #[must_use]
    pub fn with_recorder(mut self, recorder: &'a dyn Recorder) -> Self {
        self.recorder = Some(recorder);
        self
    }

    /// Jobs queued but not yet run.
    pub fn pending(&self) -> usize {
        self.queue.len()
    }

    /// The cluster this scheduler places onto (for the discrete-event
    /// service, which lives in [`crate::service`]).
    pub(crate) fn cluster(&self) -> &'a Cluster {
        self.cluster
    }

    /// The attached online adaptation, if any.
    pub(crate) fn online(&self) -> Option<OnlineTuning<'a>> {
        self.online
    }

    /// The attached fault injector, if any.
    pub(crate) fn faults(&self) -> Option<&'a dyn FaultInjector> {
        self.faults
    }

    /// The attached recorder, or the shared no-op.
    pub(crate) fn recorder(&self) -> &'a dyn Recorder {
        self.recorder.unwrap_or(&NOOP_RECORDER)
    }

    /// Submit a job, placed round-robin over the nodes in index order;
    /// returns the id of the node it was placed on.
    pub fn submit(&mut self, name: impl Into<String>, bench: BenchmarkSpec) -> u32 {
        let idx = self.rr_next % self.cluster.len();
        self.rr_next += 1;
        self.queue.push(QueuedJob::new(name.into(), bench, idx));
        self.cluster.node(idx).id()
    }

    /// Consume the queue and restart the round-robin cycle for the next
    /// submission wave.
    fn take_queue(&mut self) -> Vec<QueuedJob> {
        self.rr_next = 0;
        std::mem::take(&mut self.queue)
    }

    /// Run every queued job to completion, interleaved across the
    /// cluster, serving tuning models from `repo`.
    ///
    /// `repo` is any [`RepositoryHandle`]: a
    /// [`TuningModelRepository`](crate::TuningModelRepository) or one
    /// replica of a [`ReplicaSet`](crate::ReplicaSet)
    /// (`set.replica_mut(id)`). A
    /// replica run is local to that replica: its hits and misses go
    /// against the replica's repository and its publications are stamped
    /// into the replica's log; call
    /// [`ReplicaSet::converge`](crate::ReplicaSet::converge) afterwards
    /// to spread them to the other replicas.
    ///
    /// Each sweep of the scheduler loop advances every active session by
    /// one event (a region enter/exit pair or a phase completion), so at
    /// any instant up to `pending()` sessions are in flight. The queue is
    /// consumed by the run, including on error.
    ///
    /// With [`ClusterScheduler::with_online`] attached, admission is
    /// gated per workload: the first job of a workload the repository
    /// cannot serve starts calibrating, further jobs of the *same*
    /// workload wait until that calibration publishes, and then start as
    /// repository hits — the cluster warm-up pattern (miss → calibrate →
    /// publish → fleet-wide hits). Jobs of distinct workloads calibrate
    /// concurrently.
    pub fn run(&mut self, repo: &mut dyn RepositoryHandle) -> Result<ClusterReport, RuntimeError> {
        let cluster = self.cluster;
        let online = self.online;
        let faults = self.faults;
        let jobs = self.take_queue();

        let mut drivers: Vec<JobDriver<'_>> =
            jobs.iter().map(|job| JobDriver::new(job, faults)).collect();
        let mut baselines = BaselineMemo::new(cluster);
        let mut gate = AdmissionGate::default();
        let mut done = 0usize;
        while done < jobs.len() {
            // Admission pass, in submission order.
            for (i, (driver, job)) in drivers.iter_mut().zip(&jobs).enumerate() {
                if !matches!(driver.state, State::Waiting) {
                    continue;
                }
                let node = cluster.node(job.node_idx);
                let (state, rejection) =
                    match gate.admit(job, node, online.as_ref(), faults, repo)? {
                        Admission::Start(state, rejection) => (state, rejection),
                        Admission::Wait => continue,
                        Admission::Cold(online) => {
                            gate.lead(job, i, node, &online, faults, repo)?
                        }
                    };
                driver.state = state;
                driver.rejection = rejection;
            }

            // Event pass: one event per active session per sweep. A
            // settled calibration releases its waiters at once: the next
            // admission pass rescans them.
            for (i, (driver, job)) in drivers.iter_mut().zip(&jobs).enumerate() {
                if !driver.is_active() {
                    continue;
                }
                if driver.finished_iterations() {
                    let was_online = matches!(driver.state, State::Online(_));
                    driver.finish(job, job.node_idx, &mut baselines, repo)?;
                    let key = job.key();
                    if was_online && gate.settle(&key, i, driver.published_version.is_some()) {
                        gate.release(&key);
                    }
                    done += 1;
                } else if let EventOutcome::Abandoned = driver.advance(&job.bench)? {
                    let key = job.key();
                    if gate.settle(&key, i, false) {
                        gate.release(&key);
                    }
                }
            }
        }

        let placements: Vec<usize> = jobs.iter().map(|j| j.node_idx).collect();
        Ok(assemble_report(
            cluster,
            &jobs,
            &placements,
            drivers,
            repo.stats(),
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::repository::TuningModelRepository;
    use ptf::TuningModel;

    fn lulesh_model() -> TuningModel {
        TuningModel::new(
            "Lulesh",
            &[
                (
                    "IntegrateStressForElems".into(),
                    SystemConfig::new(24, 2500, 2000),
                ),
                (
                    "CalcKinematicsForElems".into(),
                    SystemConfig::new(24, 2400, 2000),
                ),
            ],
            SystemConfig::new(24, 2500, 2100),
        )
    }

    fn toy(name: &str, instr: f64) -> BenchmarkSpec {
        kernels::toy_benchmark(name, instr, 4)
    }

    /// A repository that counts the serve calls admission makes.
    #[derive(Default)]
    struct Counting {
        repo: TuningModelRepository,
        serve: u32,
        serve_stored: u32,
        serve_fallback: u32,
    }

    impl Counting {
        fn with_fallback() -> Self {
            Self {
                repo: TuningModelRepository::new().with_fallback(SystemConfig::new(24, 2400, 1700)),
                ..Self::default()
            }
        }

        /// `(serve, serve_stored, serve_fallback)` calls so far.
        fn calls(&self) -> (u32, u32, u32) {
            (self.serve, self.serve_stored, self.serve_fallback)
        }
    }

    impl RepositoryHandle for Counting {
        fn serve(&mut self, bench: &BenchmarkSpec) -> Result<ServedModel, RuntimeError> {
            self.serve += 1;
            self.repo.serve(bench)
        }

        fn serve_stored(
            &mut self,
            bench: &BenchmarkSpec,
        ) -> Result<Option<ServedModel>, RuntimeError> {
            self.serve_stored += 1;
            self.repo.serve_stored(bench)
        }

        fn serve_fallback(&mut self, bench: &BenchmarkSpec) -> Result<ServedModel, RuntimeError> {
            self.serve_fallback += 1;
            self.repo.serve_fallback(bench)
        }

        fn publish_online(
            &mut self,
            bench: &BenchmarkSpec,
            model: &TuningModel,
            expected: Vec<(String, f64)>,
        ) -> u32 {
            self.repo.publish_online(bench, model, expected)
        }

        fn stats(&self) -> RepositoryStats {
            self.repo.stats()
        }
    }

    fn random_online(strategy: &ptf::RandomSearch) -> OnlineTuning<'_> {
        OnlineTuning {
            strategy,
            energy_model: None,
            config: OnlineConfig::default(),
        }
    }

    #[test]
    fn admission_without_online_tuning_serves_once() {
        let node = Node::exact(0);
        let job = QueuedJob::new("j".into(), toy("t", 1e9), 0);
        let mut repo = Counting::with_fallback();
        let admitted = AdmissionGate::default()
            .admit(&job, &node, None, None, &mut repo)
            .unwrap();
        assert!(matches!(admitted, Admission::Start(State::Plain(_), None)));
        assert_eq!(repo.calls(), (1, 0, 0));
    }

    #[test]
    fn admission_monitors_hits_and_reports_misses_cold() {
        let node = Node::exact(0);
        let lulesh = kernels::benchmark("Lulesh").unwrap();
        let strategy = ptf::RandomSearch::new(16, 7);
        let online = random_online(&strategy);
        let gate = AdmissionGate::default();
        let job = QueuedJob::new("j".into(), lulesh.clone(), 0);

        let mut repo = Counting::with_fallback();
        let miss = gate.admit(&job, &node, Some(&online), None, &mut repo);
        assert!(matches!(miss, Ok(Admission::Cold(_))));
        assert_eq!(repo.calls(), (0, 1, 0));

        repo.repo.insert(&lulesh, &lulesh_model());
        let hit = gate.admit(&job, &node, Some(&online), None, &mut repo);
        assert!(matches!(hit, Ok(Admission::Start(State::Online(_), None))));
        assert_eq!(repo.calls(), (0, 2, 0));
    }

    #[test]
    fn refused_lead_serves_the_fallback_and_fails_the_workload() {
        struct RefuseCalibration;
        impl FaultInjector for RefuseCalibration {
            fn fail_calibration(&self, _job: &str) -> bool {
                true
            }
        }
        let node = Node::exact(0);
        let strategy = ptf::RandomSearch::new(16, 7);
        let online = random_online(&strategy);
        let mut gate = AdmissionGate::default();
        let mut repo = Counting::with_fallback();
        let bench = kernels::benchmark("miniMD").unwrap();
        let leader = QueuedJob::new("leader".into(), bench.clone(), 0);
        let follower = QueuedJob::new("follower".into(), bench, 0);

        let (state, rejection) = gate
            .lead(
                &leader,
                0,
                &node,
                &online,
                Some(&RefuseCalibration),
                &mut repo,
            )
            .unwrap();
        assert!(matches!(state, State::Plain(_)) && rejection.is_none());
        assert_eq!(repo.calls(), (0, 0, 1));

        // The failed workload serves plainly: no lookup, no monitor.
        let admitted = gate.admit(&follower, &node, Some(&online), None, &mut repo);
        assert!(matches!(
            admitted,
            Ok(Admission::Start(State::Plain(_), None))
        ));
        assert_eq!(repo.calls(), (1, 0, 1));
    }

    #[test]
    fn calibrating_lead_makes_followers_wait() {
        let node = Node::exact(0);
        let strategy = ptf::RandomSearch::new(16, 7);
        let online = random_online(&strategy);
        let mut gate = AdmissionGate::default();
        let mut repo = Counting::with_fallback();
        let bench = kernels::benchmark("miniMD").unwrap();
        let leader = QueuedJob::new("leader".into(), bench.clone(), 0);
        let follower = QueuedJob::new("follower".into(), bench, 0);

        let (state, rejection) = gate
            .lead(&leader, 0, &node, &online, None, &mut repo)
            .unwrap();
        assert!(matches!(state, State::Online(_)) && rejection.is_none());
        assert_eq!(repo.calls(), (0, 0, 0));

        // While the calibration is in flight nobody touches the repository.
        let admitted = gate.admit(&follower, &node, Some(&online), None, &mut repo);
        assert!(matches!(admitted, Ok(Admission::Wait)));
        assert_eq!(repo.calls(), (0, 0, 0));
    }

    #[test]
    fn empty_cluster_rejected() {
        let cluster = Cluster::exact(0);
        assert!(matches!(
            ClusterScheduler::new(&cluster),
            Err(RuntimeError::EmptyCluster)
        ));
    }

    #[test]
    fn round_robin_cycles_nodes() {
        let cluster = Cluster::exact(3);
        let mut sched = ClusterScheduler::new(&cluster).unwrap();
        let ids: Vec<u32> = (0..6)
            .map(|i| sched.submit(format!("j{i}"), toy("t", 1e9)))
            .collect();
        assert_eq!(ids, vec![0, 1, 2, 0, 1, 2]);
        assert_eq!(sched.pending(), 6);
    }

    #[test]
    fn scheduler_serves_and_reports() {
        let cluster = Cluster::exact(2);
        let lulesh = kernels::benchmark("Lulesh").unwrap();
        let mut repo =
            TuningModelRepository::new().with_fallback(SystemConfig::new(24, 2400, 1700));
        repo.insert(&lulesh, &lulesh_model());

        let mut sched = ClusterScheduler::new(&cluster).unwrap();
        for i in 0..3 {
            sched.submit(format!("lulesh-{i}"), lulesh.clone());
        }
        sched.submit("toy-0", toy("toy", 5e9));
        let report = sched.run(&mut repo).unwrap();

        assert_eq!(report.jobs.len(), 4);
        assert_eq!(sched.pending(), 0, "queue consumed");
        assert_eq!(report.nodes_used, 2);
        assert_eq!(report.repository.hits, 3);
        assert_eq!(report.repository.fallbacks, 1);
        // Tuned Lulesh jobs save energy versus their defaults.
        for j in report.jobs.iter().filter(|j| j.benchmark == "Lulesh") {
            assert!(j.savings.job_energy_pct > 0.0, "{j:?}");
            assert!(j.accounting.switches > 0);
        }
        let text = report.format_report();
        assert!(text.contains("lulesh-2"), "{text}");
        assert!(text.contains("hit rate 75%"), "{text}");
    }

    #[test]
    fn run_replicated_serves_synced_entries_identically_to_a_plain_run() {
        use crate::net::{ReplicaConfig, ReplicaSet};
        let cluster = Cluster::exact(2);
        let lulesh = kernels::benchmark("Lulesh").unwrap();
        let fallback = SystemConfig::new(24, 2400, 1700);

        // Publish on replica 0, sync, then serve a whole run off replica 2.
        let config = ReplicaConfig {
            fallback: Some(fallback),
            ..ReplicaConfig::default()
        };
        let mut set = ReplicaSet::new(3, config);
        set.replica_mut(0)
            .unwrap()
            .publish_model(&lulesh, &lulesh_model(), vec![]);
        set.converge().unwrap();

        let mut sched = ClusterScheduler::new(&cluster).unwrap();
        for i in 0..3 {
            sched.submit(format!("lulesh-{i}"), lulesh.clone());
        }
        let replicated = sched.run(set.replica_mut(2).unwrap()).unwrap();
        assert_eq!(
            replicated.repository.hits, 3,
            "replicated entries serve as hits"
        );

        // The same jobs against a plain warm repository account identically:
        // where the model came from is invisible to the jobs it tunes.
        let mut repo = TuningModelRepository::new().with_fallback(fallback);
        repo.insert(&lulesh, &lulesh_model());
        let mut sched = ClusterScheduler::new(&cluster).unwrap();
        for i in 0..3 {
            sched.submit(format!("lulesh-{i}"), lulesh.clone());
        }
        let plain = sched.run(&mut repo).unwrap();
        assert_eq!(replicated.jobs.len(), plain.jobs.len());
        for (a, b) in replicated.jobs.iter().zip(&plain.jobs) {
            // Only the provenance tag may differ: replicated entries
            // serve as `Replicated`, plain inserts as `Repository`.
            assert_eq!(
                a.accounting.source,
                crate::repository::ModelSource::Replicated
            );
            let mut normalized = a.accounting.clone();
            normalized.source = b.accounting.source;
            assert_eq!(normalized, b.accounting, "{}", a.job);
        }
    }

    #[test]
    fn serve_failure_propagates() {
        let cluster = Cluster::exact(1);
        let mut repo = TuningModelRepository::new(); // no model, no fallback
        let mut sched = ClusterScheduler::new(&cluster).unwrap();
        sched.submit("j", toy("t", 1e9));
        assert!(matches!(
            sched.run(&mut repo),
            Err(RuntimeError::NoModel { .. })
        ));
        assert_eq!(sched.pending(), 0, "queue consumed on error");
    }

    #[test]
    fn failed_calibration_degrades_followers_to_fallback() {
        use ptf::RandomSearch;

        let cluster = Cluster::exact(2);
        // 3 phase iterations cannot fund a thread sweep + analysis +
        // exploration: the leader's calibration fails fast and every
        // same-workload follower must degrade to the fallback.
        let mut bench = kernels::benchmark("miniMD").unwrap();
        bench.phase_iterations = 3;
        let strategy = RandomSearch::new(16, 7);
        let online = OnlineTuning {
            strategy: &strategy,
            energy_model: None,
            config: OnlineConfig::default(),
        };

        let mut repo =
            TuningModelRepository::new().with_fallback(SystemConfig::new(24, 2400, 1700));
        let mut sched = ClusterScheduler::new(&cluster).unwrap().with_online(online);
        for i in 0..4 {
            sched.submit(format!("job-{i}"), bench.clone());
        }
        let report = sched.run(&mut repo).unwrap();
        assert_eq!(report.jobs.len(), 4);
        for job in &report.jobs {
            assert_eq!(
                job.accounting.source,
                crate::repository::ModelSource::Fallback
            );
            assert!(job.published_version.is_none());
        }
        // Leader: one lookup miss, then a fallback serve without a
        // lookup; followers: one miss + fallback each.
        assert_eq!(report.repository.misses, 4);
        assert_eq!(report.repository.fallbacks, 4);
    }

    #[test]
    fn injected_abort_truncates_job_and_baseline() {
        struct AbortSecond;
        impl crate::inject::FaultInjector for AbortSecond {
            fn abort_phase(&self, job: &str) -> Option<u32> {
                (job == "doomed").then_some(2)
            }
        }

        let cluster = Cluster::exact(1);
        let bench = toy("t", 5e9); // 4 phase iterations
        let mut repo =
            TuningModelRepository::new().with_fallback(SystemConfig::new(24, 2400, 1700));
        let mut sched = ClusterScheduler::new(&cluster)
            .unwrap()
            .with_faults(&AbortSecond);
        sched.submit("doomed", bench.clone());
        sched.submit("healthy", bench.clone());
        let report = sched.run(&mut repo).unwrap();

        let doomed = &report.jobs[0];
        let healthy = &report.jobs[1];
        assert_eq!(doomed.aborted_at, Some(2));
        assert_eq!(healthy.aborted_at, None);
        // Truncated run: half the phases, so roughly half the energy and
        // a baseline truncated to match (savings stay comparable).
        assert!(doomed.accounting.record.elapsed_s < healthy.accounting.record.elapsed_s);
        assert!(doomed.default.elapsed_s < healthy.default.elapsed_s);
        let text = report.format_report();
        assert!(text.contains("faults: 1 job aborted"), "{text}");
    }

    #[test]
    fn capability_gap_degrades_job_instead_of_aborting_run() {
        use simnode::Topology;
        // Node 1 has half the cores: the stored 24-thread model — and the
        // 24-thread platform default — cannot run there.
        let mut small = Topology::taurus_haswell();
        small.cores_per_socket = 6;
        let cluster =
            Cluster::from_nodes(vec![Node::exact(0), Node::exact(1).with_topology(small)]);
        let lulesh = kernels::benchmark("Lulesh").unwrap();
        let mut repo = TuningModelRepository::new();
        repo.insert(&lulesh, &lulesh_model());

        let mut sched = ClusterScheduler::new(&cluster).unwrap();
        sched.submit("fits", lulesh.clone()); // node 0: full capability
        sched.submit("gapped", lulesh.clone()); // node 1: rejected
        let report = sched.run(&mut repo).expect("run degrades, not aborts");

        let fits = &report.jobs[0];
        assert!(fits.rejection.is_none());
        assert_eq!(
            fits.accounting.source,
            crate::repository::ModelSource::Repository
        );

        let gapped = &report.jobs[1];
        let rejection = gapped.rejection.as_ref().expect("gap recorded");
        assert_eq!(rejection.job, "gapped");
        assert_eq!(rejection.node_id, 1);
        assert_eq!(
            gapped.accounting.source,
            crate::repository::ModelSource::Fallback,
            "degraded to an untuned static run"
        );
        assert_eq!(gapped.accounting.switches, 0);
        // The baseline ran at the node-clamped default, so savings are
        // the honest zero-ish of an untuned job, not nonsense.
        assert!(
            gapped.savings.job_energy_pct.abs() < 5.0,
            "{:?}",
            gapped.savings
        );
        let text = report.format_report();
        assert!(text.contains("gapped on node 1"), "{text}");
    }

    #[test]
    fn empty_queue_reports_nothing() {
        let cluster = Cluster::exact(2);
        let mut repo = TuningModelRepository::new();
        let mut sched = ClusterScheduler::new(&cluster).unwrap();
        let report = sched.run(&mut repo).unwrap();
        assert!(report.jobs.is_empty());
        assert_eq!(report.nodes_used, 0);
    }
}
