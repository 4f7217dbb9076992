//! Cluster-scale job scheduling atop `simnode::cluster`.
//!
//! The [`ClusterScheduler`] multiplexes many concurrent
//! [`RuntimeSession`]s across the nodes of a [`Cluster`]: jobs are placed
//! round-robin or least-loaded (by estimated phase work), served their
//! tuning model from a repository, and then driven *interleaved* — each
//! event-loop sweep advances every active session by one region event —
//! exactly as a cluster full of independently-running RRL instances would
//! progress. Because session accounting is interleaving-independent (see
//! [`crate::session`]), every job's result is bit-identical to running
//! its session alone.
//!
//! Two event loops drive the same job-state machine:
//!
//! * [`ClusterScheduler::run`] — single-threaded over a `&mut`
//!   [`TuningModelRepository`]; every job advances on one thread.
//! * [`ClusterScheduler::run_parallel`] — the submitted jobs are
//!   partitioned across real worker threads (`rayon::scope`), each worker
//!   running the interleaved event loop over its own partition while all
//!   of them serve from one lock-striped [`SharedRepository`]. Cold
//!   workloads stay correct under concurrency through a
//!   [`CalibrationLatch`]: leadership of each unseen workload is fixed in
//!   submission order before the workers start, and same-workload
//!   followers block on the workload's latch entry — not on a global
//!   scheduler stall — until the leader publishes or fails.
//!
//! Both produce a [`ClusterReport`] with per-job outcomes in submission
//! order, and — for the same submissions, seeds and repository contents —
//! **bit-identical per-job [`JobAccounting`]**: accounting depends only
//! on the job's identity and its served model, never on which thread or
//! sweep ordering executed it. (The one caveat is LRU pressure: when the
//! repository is actively evicting *during* the run, serve order — which
//! is nondeterministic across workers — can change which entries survive;
//! a follower whose leader's publication was already evicted re-calibrates
//! as the sequential loop would, but several same-workload followers may
//! do so concurrently instead of queuing. Keep the capacity at or above
//! the distinct-workload count of a wave to retain the guarantee.
//! Publication *version numbers* may also be assigned in a different
//! order when several workloads of one application publish concurrently.)
//!
//! The run produces per-job `sacct`-style accounting, per-job savings
//! against a default-configuration run of the same job on the same node,
//! and an aggregate cluster savings report.

use std::collections::BTreeSet;

use kernels::BenchmarkSpec;
use obskit::{NoopRecorder, Recorder};
use parking_lot::Mutex;
use ptf::{EnergyModel, SearchStrategy, TuningModel};
use simnode::{Cluster, Node, SystemConfig};

use crate::baseline::BaselineMemo;
use crate::error::RuntimeError;
use crate::inject::FaultInjector;
use crate::net::ReplicaSet;
use crate::online::{DriftEvent, ModelPublication, OnlineConfig, OnlineTuner};
use crate::repository::{
    ModelKey, RepositoryHandle, RepositoryStats, ServedModel, TuningModelRepository,
};
use crate::sacct::{JobAccounting, JobRecord};
use crate::savings::Savings;
use crate::session::RuntimeSession;
use crate::shard::{CalibrationLatch, CalibrationOutcome, LatchStatus, SharedRepository};

/// Job-to-node placement policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Placement {
    /// Cycle through the nodes in index order.
    #[default]
    RoundRobin,
    /// Place each job on the node with the least estimated work assigned
    /// so far (ties break to the lowest index).
    LeastLoaded,
}

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
    /// `SearchStrategy` machinery). `SearchStrategy: Sync`, so one
    /// strategy serves every worker of a parallel run.
    pub strategy: &'a dyn SearchStrategy,
    /// Trained energy model for model-predicting strategies (`None` is
    /// fine for exhaustive/random search).
    pub energy_model: Option<&'a EnergyModel>,
    /// Calibration and drift settings.
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
    /// [`ClusterScheduler::run_service`] runs (the sweep loops have no
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
        let mut out = String::new();
        out.push_str(&format!(
            "{:<18} {:<13} {:>5} {:>10} {:>9} {:>9} {:>9} {:>9}\n",
            "job", "benchmark", "node", "source", "job[%]", "cpu[%]", "time[%]", "switches"
        ));
        for j in &self.jobs {
            out.push_str(&format!(
                "{:<18} {:<13} {:>5} {:>10} {:>9.2} {:>9.2} {:>9.2} {:>9}\n",
                j.job,
                j.benchmark,
                j.node_id,
                format!("{:?}", j.accounting.source),
                j.savings.job_energy_pct,
                j.savings.cpu_energy_pct,
                j.savings.time_pct,
                j.accounting.switches,
            ));
        }
        out.push_str(&format!(
            "\n{} jobs over {} nodes — aggregate savings: job {:.2}%  cpu {:.2}%  time {:.2}%\n",
            self.jobs.len(),
            self.nodes_used,
            self.aggregate.job_energy_pct,
            self.aggregate.cpu_energy_pct,
            self.aggregate.time_pct,
        ));
        out.push_str(&format!(
            "repository: {} hits / {} misses ({} fallback, {} evicted) — hit rate {:.0}%\n",
            self.repository.hits,
            self.repository.misses,
            self.repository.fallbacks,
            self.repository.evictions,
            100.0 * self.repository.hit_rate(),
        ));
        let online = self.online_summary();
        if online != OnlineSummary::default() {
            out.push_str(&format!(
                "online: {} calibrations, {} publications, {} drift events, \
                 {} regions re-calibrated\n",
                online.calibrations,
                online.publications,
                online.drift_events,
                online.recalibrated_regions,
            ));
        }
        if let Some(service) = &self.service {
            out.push_str(&service.format_lines());
        }
        let aborted = self.jobs.iter().filter(|j| j.aborted_at.is_some()).count();
        let rejected: Vec<&JobRejection> = self
            .jobs
            .iter()
            .filter_map(|j| j.rejection.as_ref())
            .collect();
        if aborted > 0 || !rejected.is_empty() {
            out.push_str(&format!(
                "faults: {aborted} job{} aborted, {} degraded by capability gaps",
                if aborted == 1 { "" } else { "s" },
                rejected.len()
            ));
            for r in rejected {
                out.push_str(&format!(" [{} on node {}]", r.job, r.node_id));
            }
            out.push('\n');
        }
        out
    }
}

pub(crate) struct QueuedJob {
    pub(crate) name: String,
    pub(crate) bench: BenchmarkSpec,
    pub(crate) node_idx: usize,
}

/// The per-job execution state both event loops drive.
pub(crate) enum State<'b> {
    /// Not yet admitted (queued behind a calibration, or not yet reached
    /// by its worker).
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
/// needs. The sequential and the parallel event loops share this
/// completely — only admission (who serves the model, and when) differs.
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
            let region = &bench.regions[self.region_idx];
            match &mut self.state {
                State::Plain(session) => {
                    session.region_enter(&region.name)?;
                    session.region_exit(&region.name)?;
                }
                State::Online(tuner) => {
                    tuner.region_enter(&region.name)?;
                    tuner.region_exit(&region.name)?;
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
    /// used by the parallel and discrete-event loops (the sequential
    /// loop keeps single-event `advance` as the reference
    /// implementation). Per-job accounting is interleaving-independent,
    /// so batching granularity is unobservable in the report.
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
    /// accounting, hand any converged model to `publish`, and take the
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
        publish: &mut dyn FnMut(&BenchmarkSpec, ModelPublication) -> u32,
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
                    self.published_version = Some(publish(&job.bench, publication));
                }
            }
            State::Waiting | State::Done => unreachable!("finish requires an active driver"),
        }
        self.default = Some(baselines.record(&job.name, &job.bench, self.iterations, node_idx)?);
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

/// Start the degraded replacement for a job whose served model or launch
/// configuration its node rejected: an untuned static session at the
/// node-clamped default, with the rejection recorded for the report.
/// Errors with the distinct [`RuntimeError::JobRejected`] — naming the
/// job and the node — when even the degraded configuration cannot run.
fn start_degraded<'b>(
    job: &'b QueuedJob,
    node: &'b Node,
    rejected: SystemConfig,
) -> Result<(RuntimeSession<'b>, JobRejection), RuntimeError> {
    let config = node_default(node);
    let served = ServedModel::fallback(TuningModel::new(&job.bench.name, &[], config));
    match RuntimeSession::start_from(&job.name, &job.bench, node, served, config) {
        Ok(session) => Ok((
            session,
            JobRejection {
                job: job.name.clone(),
                node_id: node.id(),
                config: rejected,
            },
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

/// Start a plain serving session for an already-served model, degrading a
/// capability-gap rejection to a static run instead of failing the job.
pub(crate) fn start_plain<'b>(
    job: &'b QueuedJob,
    node: &'b Node,
    served: ServedModel,
) -> Result<(State<'b>, Option<JobRejection>), RuntimeError> {
    match RuntimeSession::start(&job.name, &job.bench, node, served) {
        Ok(session) => Ok((State::Plain(Box::new(session)), None)),
        Err(
            RuntimeError::UnsupportedConfig { config, .. }
            | RuntimeError::UnsupportedInitial { config },
        ) => {
            let (session, rejection) = start_degraded(job, node, config)?;
            Ok((State::Plain(Box::new(session)), Some(rejection)))
        }
        Err(other) => Err(other),
    }
}

/// Start a drift-monitoring tuner for a repository hit, degrading a
/// capability-gap rejection to a static run instead of failing the job.
pub(crate) fn start_monitor<'b>(
    job: &'b QueuedJob,
    node: &'b Node,
    served: ServedModel,
    config: OnlineConfig,
    faults: Option<&'b dyn FaultInjector>,
) -> Result<(State<'b>, Option<JobRejection>), RuntimeError> {
    match OnlineTuner::monitor(&job.name, &job.bench, node, served, config) {
        Ok(tuner) => {
            let tuner = match faults {
                Some(f) => tuner.with_faults(f),
                None => tuner,
            };
            Ok((State::Online(Box::new(tuner)), None))
        }
        Err(
            RuntimeError::UnsupportedConfig { config, .. }
            | RuntimeError::UnsupportedInitial { config },
        ) => {
            let (session, rejection) = start_degraded(job, node, config)?;
            Ok((State::Plain(Box::new(session)), Some(rejection)))
        }
        Err(other) => Err(other),
    }
}

/// Start a cold workload's calibration leader. Calibration refusals — an
/// injected fault, an exploration-budget failure, a planning failure, or
/// a capability-gap rejection of the calibration launch — degrade the
/// leader instead of erroring; the returned flag tells the caller to mark
/// the workload's calibration *failed* (the sequential `failed` set, or
/// the parallel latch) so same-workload followers take the fallback path.
pub(crate) fn start_calibration<'b>(
    job: &'b QueuedJob,
    node: &'b Node,
    online: &OnlineTuning<'b>,
    faults: Option<&'b dyn FaultInjector>,
    serve_fallback: &mut dyn FnMut(&BenchmarkSpec) -> Result<ServedModel, RuntimeError>,
) -> Result<(State<'b>, Option<JobRejection>, bool), RuntimeError> {
    let injected = faults.is_some_and(|f| f.fail_calibration(&job.name));
    if !injected {
        match OnlineTuner::calibrate(
            &job.name,
            &job.bench,
            node,
            online.strategy,
            online.energy_model,
            online.config,
        ) {
            Ok(tuner) => {
                let tuner = match faults {
                    Some(f) => tuner.with_faults(f),
                    None => tuner,
                };
                return Ok((State::Online(Box::new(tuner)), None, false));
            }
            // This workload cannot calibrate; fall through to the
            // fallback path (the miss was already recorded).
            Err(RuntimeError::ExplorationBudget { .. } | RuntimeError::Planning(_)) => {}
            // The calibration launch itself cannot run on this node:
            // degrade the job and fail the workload's calibration.
            Err(
                RuntimeError::UnsupportedConfig { config, .. }
                | RuntimeError::UnsupportedInitial { config },
            ) => {
                let (session, rejection) = start_degraded(job, node, config)?;
                return Ok((State::Plain(Box::new(session)), Some(rejection), true));
            }
            Err(other) => return Err(other),
        }
    }
    let served = serve_fallback(&job.bench)?;
    let (state, rejection) = start_plain(job, node, served)?;
    Ok((state, rejection, true))
}

/// Fold finished drivers into the aggregate report (submission order, so
/// the floating-point totals are identical no matter which event loop —
/// or how many workers — produced the drivers). `placements` gives each
/// job's final node index: the sweep loops pass the submission-time
/// placement verbatim, the discrete-event service passes its live
/// placements (which churn re-placement may have moved).
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

/// How the parallel event loop will admit one job, decided up front — in
/// submission order, exactly as the sequential loop's first admission
/// sweep would — so leadership of every cold workload is deterministic
/// no matter which worker reaches the job first.
enum Admission {
    /// Served at classification time (no online tuning, or a failed-path
    /// serve); start a plain session.
    Plain(ServedModel),
    /// Repository hit at classification time; start a drift-monitoring
    /// tuner.
    Monitor(ServedModel),
    /// First submitted job of a cold workload: calibrate, then resolve
    /// the workload's latch entry.
    Lead,
    /// Later job of a cold workload: block on the latch until the leader
    /// publishes (→ repository hit) or fails (→ calibration fallback).
    Follow,
}

/// One job's slot in the parallel run: its pre-decided admission, the
/// shared driver, and whether it leads a calibration (so an aborting
/// worker can release its waiters).
struct Slot<'b> {
    admission: Option<Admission>,
    driver: JobDriver<'b>,
    lead: bool,
}

/// Schedules and drives many concurrent runtime sessions over a cluster.
pub struct ClusterScheduler<'a> {
    cluster: &'a Cluster,
    placement: Placement,
    online: Option<OnlineTuning<'a>>,
    faults: Option<&'a dyn FaultInjector>,
    recorder: Option<&'a dyn Recorder>,
    rr_next: usize,
    queue: Vec<QueuedJob>,
    /// Estimated phase work (instructions) assigned per node.
    load: Vec<f64>,
}

/// The recorder handed to runs when none is attached: recording off.
static NOOP_RECORDER: NoopRecorder = NoopRecorder;

/// Estimated total work of a job, for least-loaded placement.
pub(crate) fn estimated_work(bench: &BenchmarkSpec) -> f64 {
    bench.phase_character().instr_per_iter * f64::from(bench.phase_iterations)
}

impl<'a> ClusterScheduler<'a> {
    /// Scheduler over `cluster` with round-robin placement.
    pub fn new(cluster: &'a Cluster) -> Result<Self, RuntimeError> {
        if cluster.is_empty() {
            return Err(RuntimeError::EmptyCluster);
        }
        Ok(Self {
            cluster,
            placement: Placement::RoundRobin,
            online: None,
            faults: None,
            recorder: None,
            rr_next: 0,
            queue: Vec::new(),
            load: vec![0.0; cluster.len()],
        })
    }

    /// Select the placement policy.
    #[must_use]
    pub fn with_placement(mut self, placement: Placement) -> Self {
        self.placement = placement;
        self
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
    /// the job identity, so a faulted parallel run still matches its
    /// faulted sequential counterpart bit for bit.
    #[must_use]
    pub fn with_faults(mut self, faults: &'a dyn FaultInjector) -> Self {
        self.faults = Some(faults);
        self
    }

    /// Attach a telemetry recorder: the discrete-event service
    /// ([`ClusterScheduler::run_service`]) and the parallel and
    /// replicated loops emit metrics, spans, and instants into it (see
    /// the `obskit` crate). Without this call every run uses
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

    /// The configured placement policy.
    pub(crate) fn placement(&self) -> Placement {
        self.placement
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

    /// Submit a job; returns the id of the node it was placed on.
    pub fn submit(&mut self, name: impl Into<String>, bench: BenchmarkSpec) -> u32 {
        let idx = match self.placement {
            Placement::RoundRobin => {
                let idx = self.rr_next % self.cluster.len();
                self.rr_next += 1;
                idx
            }
            Placement::LeastLoaded => self
                .load
                .iter()
                .enumerate()
                .min_by(|(_, a), (_, b)| a.total_cmp(b))
                .map(|(i, _)| i)
                .unwrap_or(0),
        };
        self.load[idx] += estimated_work(&bench);
        self.queue.push(QueuedJob {
            name: name.into(),
            bench,
            node_idx: idx,
        });
        self.cluster.node(idx).id()
    }

    /// Consume the queue and reset the placement bookkeeping for the next
    /// submission wave.
    fn take_queue(&mut self) -> Vec<QueuedJob> {
        self.load = vec![0.0; self.cluster.len()];
        self.rr_next = 0;
        std::mem::take(&mut self.queue)
    }

    /// Run every queued job to completion, interleaved across the
    /// cluster, serving tuning models from `repo`.
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
    pub fn run(&mut self, repo: &mut TuningModelRepository) -> Result<ClusterReport, RuntimeError> {
        self.run_with(repo)
    }

    /// [`ClusterScheduler::run`] over any model store implementing
    /// [`RepositoryHandle`] — the seam that lets the same event loop
    /// serve from a plain [`TuningModelRepository`] or from one replica
    /// of a [`ReplicaSet`] (see
    /// [`ClusterScheduler::run_replicated`]).
    pub fn run_with(
        &mut self,
        repo: &mut dyn RepositoryHandle,
    ) -> Result<ClusterReport, RuntimeError> {
        let cluster = self.cluster;
        let online = self.online;
        let faults = self.faults;
        let jobs = self.take_queue();

        let mut drivers: Vec<JobDriver<'_>> =
            jobs.iter().map(|job| JobDriver::new(job, faults)).collect();
        let mut baselines = BaselineMemo::new(cluster);

        // Workload keys with a calibration in flight: same-key jobs wait.
        let mut calibrating: BTreeSet<ModelKey> = BTreeSet::new();
        // Workload keys whose calibration failed (budget/planning/fault):
        // the rest of the queue degrades to ordinary fallback serving
        // instead of re-attempting — and instead of aborting healthy jobs.
        let mut failed: BTreeSet<ModelKey> = BTreeSet::new();
        let mut done = 0usize;
        while done < jobs.len() {
            // Admission pass, in submission order.
            for (driver, job) in drivers.iter_mut().zip(&jobs) {
                if !matches!(driver.state, State::Waiting) {
                    continue;
                }
                let node = cluster.node(job.node_idx);
                let (state, rejection) = match &online {
                    None => start_plain(job, node, repo.serve(&job.bench)?)?,
                    Some(online) => {
                        let key = ModelKey::of(&job.bench);
                        if failed.contains(&key) {
                            start_plain(job, node, repo.serve(&job.bench)?)?
                        } else if calibrating.contains(&key) {
                            continue; // wait for the in-flight calibration
                        } else {
                            match repo.serve_stored(&job.bench)? {
                                Some(served) => {
                                    start_monitor(job, node, served, online.config, faults)?
                                }
                                None => {
                                    let (state, rejection, calibration_failed) =
                                        start_calibration(job, node, online, faults, &mut |b| {
                                            repo.serve_fallback(b)
                                        })?;
                                    if calibration_failed {
                                        failed.insert(key);
                                    } else {
                                        calibrating.insert(key);
                                    }
                                    (state, rejection)
                                }
                            }
                        }
                    }
                };
                driver.state = state;
                driver.rejection = rejection;
            }

            // Event pass: one event per active session per sweep.
            for (driver, job) in drivers.iter_mut().zip(&jobs) {
                if !driver.is_active() {
                    continue;
                }
                if driver.finished_iterations() {
                    let was_online = matches!(driver.state, State::Online(_));
                    driver.finish(
                        job,
                        job.node_idx,
                        &mut baselines,
                        &mut |bench, publication| {
                            repo.publish_online(bench, &publication.model, publication.expected)
                        },
                    )?;
                    if was_online {
                        let key = ModelKey::of(&job.bench);
                        let led_calibration = calibrating.remove(&key);
                        if led_calibration && driver.published_version.is_none() {
                            // The leader finished without converging
                            // (e.g. an injected abort truncated the
                            // calibration): same-key waiters degrade to
                            // the fallback, exactly as the parallel
                            // latch's failed outcome would make them.
                            failed.insert(key);
                        }
                    }
                    done += 1;
                } else {
                    match driver.advance(&job.bench)? {
                        EventOutcome::Advanced => {}
                        EventOutcome::Abandoned => {
                            // Unblock same-key waiters — they will serve
                            // the fallback.
                            let key = ModelKey::of(&job.bench);
                            calibrating.remove(&key);
                            failed.insert(key);
                        }
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

    /// [`ClusterScheduler::run`], serving from (and publishing to) one
    /// replica of a [`ReplicaSet`].
    ///
    /// The run is local to the addressed replica: hits and misses go
    /// against its repository, and online publications are stamped into
    /// its replication log. Nothing crosses the wire here — call
    /// [`ReplicaSet::converge`] afterwards to anti-entropy the
    /// publications out to the other replicas. Addressing a replica the
    /// set does not contain fails with
    /// [`RuntimeError::Replication`].
    pub fn run_replicated(
        &mut self,
        set: &mut ReplicaSet<'_>,
        replica: u32,
    ) -> Result<ClusterReport, RuntimeError> {
        let replica = set
            .replica_mut(replica)
            .map_err(RuntimeError::Replication)?;
        self.recorder().counter_add("cluster.replicated_runs", 1);
        self.run_with(replica)
    }

    /// [`ClusterScheduler::run`], but across `workers` real threads over
    /// a lock-striped [`SharedRepository`].
    ///
    /// The submitted jobs are split into contiguous submission-order
    /// partitions, one per worker; each worker drives its partition with
    /// the same interleaved event loop the sequential path uses. Three
    /// mechanisms keep the result equal to the sequential run:
    ///
    /// 1. **Up-front admission.** Before the workers start, every job is
    ///    classified in submission order against the repository — hits
    ///    are served immediately, and the *first* job of each cold
    ///    workload is fixed as that workload's calibration leader — so
    ///    who serves what never depends on thread timing.
    /// 2. **The calibration latch.** Followers of an in-flight
    ///    calibration park on their workload's [`CalibrationLatch`] entry
    ///    (only when their worker has nothing else runnable), and resume
    ///    as repository hits the moment the leader publishes — or degrade
    ///    to the calibration fallback if it fails, exactly like the
    ///    sequential failed-workload path. Leaders never wait, so the
    ///    wait graph is acyclic and the loop cannot deadlock.
    /// 3. **Interleaving-independent accounting** (see
    ///    [`crate::session`]) makes each job's result independent of
    ///    what runs beside it.
    ///
    /// Per-job [`JobAccounting`], savings and drift events are therefore
    /// bit-identical to [`ClusterScheduler::run`] for the same
    /// submissions and repository contents — the property the
    /// `tests/runtime.rs` suite locks in — as long as the repository is
    /// not LRU-evicting mid-run (see the module docs for the caveat).
    ///
    /// `workers` is clamped to `1..=pending()`. Errors mirror the
    /// sequential path; when several workers fail, the error of the
    /// earliest-submitted failing job is returned. The queue is consumed
    /// by the run, including on error.
    pub fn run_parallel(
        &mut self,
        repo: &SharedRepository,
        workers: usize,
    ) -> Result<ClusterReport, RuntimeError> {
        let cluster = self.cluster;
        let online = self.online;
        let faults = self.faults;
        let recorder = self.recorder();
        let jobs = self.take_queue();
        if jobs.is_empty() {
            return Ok(assemble_report(
                cluster,
                &jobs,
                &[],
                Vec::new(),
                repo.stats(),
            ));
        }
        let workers = workers.clamp(1, jobs.len());

        // Per-run latch, matching the repository's shard partitioning —
        // claims must not outlive the run (a workload that failed to
        // calibrate in this wave is retried in the next).
        let latch = CalibrationLatch::new(repo.shard_count());

        // 1. Classification: the sequential loop's first admission sweep,
        //    replayed verbatim — submission order against the current
        //    repository state.
        let mut slots: Vec<Slot<'_>> = Vec::with_capacity(jobs.len());
        let mut leaders: BTreeSet<ModelKey> = BTreeSet::new();
        for job in &jobs {
            let (admission, lead) = match &online {
                None => (Admission::Plain(repo.serve(&job.bench)?), false),
                Some(_) => {
                    let key = ModelKey::of(&job.bench);
                    if leaders.contains(&key) {
                        (Admission::Follow, false)
                    } else {
                        match repo.serve_stored(&job.bench)? {
                            Some(served) => (Admission::Monitor(served), false),
                            None => {
                                leaders.insert(key.clone());
                                latch.begin(&key);
                                (Admission::Lead, true)
                            }
                        }
                    }
                }
            };
            slots.push(Slot {
                admission: Some(admission),
                driver: JobDriver::new(job, faults),
                lead,
            });
        }

        // 2. Fan the partitions out to real threads. Worker errors are
        //    collected with their global job index so the reported error
        //    is the earliest-submitted one, independent of thread timing.
        let chunk = jobs.len().div_ceil(workers);
        let errors: Mutex<Vec<(usize, RuntimeError)>> = Mutex::new(Vec::new());
        rayon::scope(|scope| {
            for (w, (job_chunk, slot_chunk)) in
                jobs.chunks(chunk).zip(slots.chunks_mut(chunk)).enumerate()
            {
                let (errors, latch, online) = (&errors, &latch, &online);
                scope.spawn(move |_| {
                    // Release every calibration this partition leads when
                    // the worker exits for *any* reason — normal return
                    // (claims already resolved; `fail` is first-writer-
                    // wins, so published ones are safe), error, or panic
                    // unwind. Without the drop guard, a panicking leader
                    // would park its followers in `CalibrationLatch::wait`
                    // forever: `std::thread::scope` joins every thread
                    // before re-raising the panic, so the whole run would
                    // hang instead of surfacing it.
                    struct ReleaseOnExit<'x> {
                        latch: &'x CalibrationLatch,
                        led: Vec<ModelKey>,
                    }
                    impl Drop for ReleaseOnExit<'_> {
                        fn drop(&mut self) {
                            for key in &self.led {
                                self.latch.fail(key);
                            }
                        }
                    }
                    let _release = ReleaseOnExit {
                        latch,
                        led: job_chunk
                            .iter()
                            .zip(slot_chunk.iter())
                            .filter(|(_, slot)| slot.lead)
                            .map(|(job, _)| ModelKey::of(&job.bench))
                            .collect(),
                    };
                    if let Err(at) = drive_partition(
                        cluster, repo, latch, online, faults, recorder, job_chunk, slot_chunk,
                    ) {
                        errors.lock().push((w * chunk + at.0, at.1));
                    }
                });
            }
        });
        // The no-orphaned-claims invariant: every claim taken at
        // classification must be resolved once the workers have exited —
        // by a publication, a failure, or a worker's drop guard. An
        // in-flight claim here would have been a future deadlock. Checked
        // in release builds too (the cost is one pass over the claims):
        // the soak harness runs `--release`, and a leaked claim whose
        // followers all lived in the leader's own partition would
        // otherwise pass silently.
        assert_eq!(
            latch.unresolved(),
            0,
            "run_parallel left orphaned calibration claims"
        );

        let mut failures = errors.into_inner();
        failures.sort_by_key(|(idx, _)| *idx);
        if let Some((_, error)) = failures.into_iter().next() {
            return Err(error);
        }
        let drivers: Vec<JobDriver<'_>> = slots.into_iter().map(|slot| slot.driver).collect();
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

/// One worker's event loop over its contiguous partition of the
/// submitted jobs: admit what the classification decided, advance every
/// active session one event per sweep, and park on the calibration latch
/// only when nothing in the partition is runnable. Errors carry the
/// partition-local index of the failing job.
#[allow(clippy::too_many_arguments)]
fn drive_partition<'b>(
    cluster: &'b Cluster,
    repo: &SharedRepository,
    latch: &CalibrationLatch,
    online: &Option<OnlineTuning<'b>>,
    faults: Option<&'b dyn FaultInjector>,
    recorder: &dyn Recorder,
    jobs: &'b [QueuedJob],
    slots: &mut [Slot<'b>],
) -> Result<(), (usize, RuntimeError)> {
    let mut baselines = BaselineMemo::new(cluster);
    let mut done = 0usize;
    while done < jobs.len() {
        // Sampled *before* the sweep: a resolution that lands anywhere
        // between here and a park below advances the epoch, so the park
        // returns immediately instead of missing the wakeup.
        let resolution_epoch = latch.resolution_epoch();
        let mut progressed = false;
        let mut blocked: Option<ModelKey> = None;
        for (i, (slot, job)) in slots.iter_mut().zip(jobs).enumerate() {
            // Admission: act on the pre-decided classification.
            if matches!(slot.driver.state, State::Waiting) {
                let node = cluster.node(job.node_idx);
                let fail = |e| (i, e);
                let (state, rejection) =
                    match slot.admission.take().expect("waiting slot is classified") {
                        Admission::Plain(served) => start_plain(job, node, served).map_err(fail)?,
                        Admission::Monitor(served) => {
                            let config = online.as_ref().expect("monitor implies online").config;
                            start_monitor(job, node, served, config, faults).map_err(fail)?
                        }
                        Admission::Lead => {
                            let online = online.as_ref().expect("lead implies online");
                            let key = ModelKey::of(&job.bench);
                            let (state, rejection, calibration_failed) =
                                start_calibration(job, node, online, faults, &mut |b| {
                                    repo.serve_fallback(b)
                                })
                                .map_err(fail)?;
                            if calibration_failed {
                                // This workload cannot calibrate: release
                                // the waiters to the fallback path; the
                                // leader runs degraded (the miss was
                                // already recorded at classification).
                                latch.fail(&key);
                            }
                            (state, rejection)
                        }
                        Admission::Follow => {
                            let key = ModelKey::of(&job.bench);
                            match latch.status(&key) {
                                LatchStatus::InFlight | LatchStatus::Unclaimed => {
                                    // Leader still calibrating (possibly in
                                    // this very partition): stay waiting,
                                    // remember the key in case the whole
                                    // partition has nothing else to do.
                                    slot.admission = Some(Admission::Follow);
                                    blocked.get_or_insert(key);
                                    continue;
                                }
                                LatchStatus::Done(CalibrationOutcome::Published) => {
                                    match repo.serve_stored(&job.bench).map_err(fail)? {
                                        Some(served) => {
                                            let config = online
                                                .as_ref()
                                                .expect("follow implies online")
                                                .config;
                                            start_monitor(job, node, served, config, faults)
                                                .map_err(fail)?
                                        }
                                        // Published but already LRU-evicted:
                                        // calibrate afresh, exactly as the
                                        // sequential admission would on the
                                        // re-miss (the claim stays resolved,
                                        // so under churn this heavy several
                                        // same-workload followers may each
                                        // re-calibrate rather than queue).
                                        None => {
                                            let online =
                                                online.as_ref().expect("follow implies online");
                                            let (state, rejection, _refused) = start_calibration(
                                                job,
                                                node,
                                                online,
                                                faults,
                                                &mut |b| repo.serve_fallback(b),
                                            )
                                            .map_err(fail)?;
                                            (state, rejection)
                                        }
                                    }
                                }
                                LatchStatus::Done(CalibrationOutcome::Failed) => {
                                    // Exactly the sequential failed-workload
                                    // path: a full serve (miss + fallback).
                                    let served = repo.serve(&job.bench).map_err(fail)?;
                                    start_plain(job, node, served).map_err(fail)?
                                }
                            }
                        }
                    };
                slot.driver.state = state;
                slot.driver.rejection = rejection;
                progressed = true;
            }

            // Event: one step per active session per sweep.
            if slot.driver.is_active() {
                if slot.driver.finished_iterations() {
                    slot.driver
                        .finish(
                            job,
                            job.node_idx,
                            &mut baselines,
                            &mut |bench, publication| {
                                repo.publish_online(bench, &publication.model, publication.expected)
                            },
                        )
                        .map_err(|e| (i, e))?;
                    if slot.lead {
                        let key = ModelKey::of(&job.bench);
                        if slot.driver.published_version.is_some() {
                            latch.publish(&key);
                        } else {
                            // Converged nothing (abandoned mid-run): the
                            // abandon already failed the latch; this is
                            // belt and braces for any other no-publish
                            // path.
                            latch.fail(&key);
                        }
                    }
                    done += 1;
                } else {
                    // Batched: drain the session's contiguous region
                    // events and take the phase boundary in one pass.
                    match slot.driver.advance_phase(&job.bench).map_err(|e| (i, e))? {
                        EventOutcome::Advanced => {}
                        EventOutcome::Abandoned => latch.fail(&ModelKey::of(&job.bench)),
                    }
                }
                progressed = true;
            }
        }

        if !progressed {
            // Every remaining job follows a calibration led elsewhere.
            // Leaders never block, so some resolution is guaranteed to
            // arrive; park until the latch's resolution epoch moves past
            // the value sampled before this sweep. Any resolution — on
            // *any* workload, not just the first blocked one — wakes the
            // worker, which then re-sweeps the partition to admit every
            // follower that became runnable. No polling interval, no
            // missed-wakeup window (a resolution during the sweep
            // already advanced the epoch, so the wait returns at once).
            debug_assert!(blocked.is_some(), "no progress implies a blocked follower");
            if recorder.enabled() {
                let parked = std::time::Instant::now();
                latch.wait_resolution(resolution_epoch);
                let waited = u64::try_from(parked.elapsed().as_nanos()).unwrap_or(u64::MAX);
                recorder.counter_add("latch.waits", 1);
                recorder.histogram_record("latch.wait_ns", waited);
            } else {
                latch.wait_resolution(resolution_epoch);
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
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
    fn least_loaded_balances_by_estimated_work() {
        let cluster = Cluster::exact(2);
        let mut sched = ClusterScheduler::new(&cluster)
            .unwrap()
            .with_placement(Placement::LeastLoaded);
        // Heavy job lands on node 0, then both small jobs go to node 1
        // (their combined work is still below the heavy job's).
        assert_eq!(sched.submit("heavy", toy("heavy", 1e12)), 0);
        assert_eq!(sched.submit("small-1", toy("small", 1e9)), 1);
        assert_eq!(sched.submit("small-2", toy("small", 1e9)), 1);
        assert_eq!(sched.submit("small-3", toy("small", 1e9)), 1);
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
        let replicated = sched.run_replicated(&mut set, 2).unwrap();
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

        // Addressing a replica the set does not contain is a value, not
        // a panic.
        assert!(matches!(
            sched.run_replicated(&mut set, 7),
            Err(RuntimeError::Replication(
                crate::net::NetError::UnknownReplica {
                    replica: 7,
                    replicas: 3,
                }
            ))
        ));
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
    }

    #[test]
    fn parallel_run_matches_sequential_serving() {
        let cluster = Cluster::exact(3);
        let lulesh = kernels::benchmark("Lulesh").unwrap();
        let fallback = SystemConfig::new(24, 2400, 1700);

        let mut repo = TuningModelRepository::new().with_fallback(fallback);
        repo.insert(&lulesh, &lulesh_model());
        let shared = SharedRepository::new(4).with_fallback(fallback);
        shared.insert(&lulesh, &lulesh_model());

        let submit = |sched: &mut ClusterScheduler<'_>| {
            for i in 0..6 {
                sched.submit(format!("lulesh-{i}"), lulesh.clone());
            }
            sched.submit("toy-0", toy("toy", 5e9));
        };
        let mut seq = ClusterScheduler::new(&cluster).unwrap();
        submit(&mut seq);
        let sequential = seq.run(&mut repo).unwrap();

        let mut par = ClusterScheduler::new(&cluster).unwrap();
        submit(&mut par);
        let parallel = par.run_parallel(&shared, 4).unwrap();

        assert_eq!(parallel.jobs.len(), sequential.jobs.len());
        for (p, s) in parallel.jobs.iter().zip(&sequential.jobs) {
            assert_eq!(p.job, s.job, "submission order preserved");
            assert_eq!(p.node_id, s.node_id);
            assert_eq!(p.accounting.record, s.accounting.record, "{}", p.job);
            assert_eq!(p.accounting.regions, s.accounting.regions);
            assert_eq!(p.default, s.default);
            assert_eq!(p.savings, s.savings);
        }
        assert_eq!(parallel.total_tuned, sequential.total_tuned);
        assert_eq!(parallel.total_default, sequential.total_default);
        assert_eq!(parallel.aggregate, sequential.aggregate);
        assert_eq!(parallel.repository.hits, sequential.repository.hits);
        assert_eq!(parallel.repository.misses, sequential.repository.misses);
        assert_eq!(shared.stats(), shared.shard_stats());
    }

    #[test]
    fn parallel_online_warm_up_calibrates_once_and_matches_sequential() {
        use ptf::RandomSearch;

        let cluster = Cluster::exact(3);
        let bench = kernels::benchmark("miniMD").unwrap();
        let strategy = RandomSearch::new(16, 7);
        let online = OnlineTuning {
            strategy: &strategy,
            energy_model: None,
            config: OnlineConfig::default(),
        };

        let run_seq = || {
            let mut repo = TuningModelRepository::new();
            let mut sched = ClusterScheduler::new(&cluster).unwrap().with_online(online);
            for i in 0..6 {
                sched.submit(format!("job-{i}"), bench.clone());
            }
            sched.run(&mut repo).unwrap()
        };
        let sequential = run_seq();

        let shared = SharedRepository::new(4);
        let mut sched = ClusterScheduler::new(&cluster).unwrap().with_online(online);
        for i in 0..6 {
            sched.submit(format!("job-{i}"), bench.clone());
        }
        // 3 workers: the leader calibrates on one thread while followers
        // on the other threads park on the workload's latch entry.
        let parallel = sched.run_parallel(&shared, 3).unwrap();

        // Warm-up shape: one calibration, five Online hits.
        let summary = parallel.online_summary();
        assert_eq!(summary.calibrations, 1);
        assert_eq!(parallel.repository.misses, 1);
        assert_eq!(parallel.repository.hits, 5);
        assert_eq!(parallel.jobs[0].published_version, Some(1));

        // …and bit-identical to the sequential warm-up, job by job.
        for (p, s) in parallel.jobs.iter().zip(&sequential.jobs) {
            assert_eq!(p.accounting.record, s.accounting.record, "{}", p.job);
            assert_eq!(p.accounting.regions, s.accounting.regions);
            assert_eq!(p.accounting.online, s.accounting.online);
            assert_eq!(p.savings, s.savings);
            assert_eq!(p.published_version, s.published_version);
        }
    }

    #[test]
    fn parallel_failed_calibration_degrades_followers_to_fallback() {
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

        let shared = SharedRepository::new(2).with_fallback(SystemConfig::new(24, 2400, 1700));
        let mut sched = ClusterScheduler::new(&cluster).unwrap().with_online(online);
        for i in 0..4 {
            sched.submit(format!("job-{i}"), bench.clone());
        }
        let report = sched.run_parallel(&shared, 2).unwrap();
        assert_eq!(report.jobs.len(), 4);
        for job in &report.jobs {
            assert_eq!(
                job.accounting.source,
                crate::repository::ModelSource::Fallback
            );
            assert!(job.published_version.is_none());
        }
        // Leader: one classification miss, no fallback-serve miss;
        // followers: one miss + fallback each (the sequential counts).
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
    fn parallel_empty_queue_reports_nothing() {
        let cluster = Cluster::exact(2);
        let shared = SharedRepository::new(2);
        let mut sched = ClusterScheduler::new(&cluster).unwrap();
        let report = sched.run_parallel(&shared, 8).unwrap();
        assert!(report.jobs.is_empty());
        assert_eq!(report.nodes_used, 0);
    }

    #[test]
    fn parallel_serve_failure_reports_earliest_job() {
        let cluster = Cluster::exact(2);
        let shared = SharedRepository::new(2); // no models, no fallback
        let mut sched = ClusterScheduler::new(&cluster).unwrap();
        sched.submit("a", toy("t", 1e9));
        sched.submit("b", toy("t", 1e9));
        assert!(matches!(
            sched.run_parallel(&shared, 2),
            Err(RuntimeError::NoModel { .. })
        ));
        assert_eq!(sched.pending(), 0, "queue consumed on error");
    }
}
