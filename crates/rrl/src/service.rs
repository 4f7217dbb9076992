//! The long-lived, churn-tolerant cluster service on the `simkit` kernel.
//!
//! [`ClusterScheduler::run_service`] is the second event loop over the
//! job-state machine and admission policy of [`crate::cluster`] — the one
//! where *time* is real (virtual): jobs arrive at their trace timestamps,
//! every region enter/exit pair and phase completion is a scheduled event
//! whose virtual duration is the session's own accumulated wall time,
//! calibration completions release their same-workload waiters at the
//! instant the leader finishes, and nodes join, drain and fail mid-run on
//! the [`FaultInjector::node_churn`] schedule. Per-node run queues form
//! when [`ServiceConfig::slots_per_node`] bounds concurrency; queue depth
//! and sojourn are sampled at event granularity into deterministic
//! [`QuantileSketch`]es, and the report gains job-latency and queue-depth
//! percentiles ([`ServiceSummary`]).
//!
//! ## Determinism and bit-identity
//!
//! Execution order is a pure function of the trace timestamps and the
//! kernel's `(deliver_at, seq_id)` rule — no wall clock, no randomness.
//! Because per-job accounting is interleaving-independent (see
//! [`crate::session`]), a service run over a zero-interarrival trace with
//! no churn and unbounded slots is **bit-identical per job** to the
//! sweep loop [`ClusterScheduler::run`] on the same submissions:
//! arrivals at `t = 0` are placed and admitted in trace order (the sweep
//! loop's first admission pass, verbatim —
//! same placements, same serve calls, same calibration leaders), and each
//! session's events then replay its own timeline. The testkit
//! `event_core` invariant locks this equivalence in.
//!
//! ## Churn semantics
//!
//! * **Drain** — the node stops accepting placements; its *queued* jobs
//!   are re-placed onto the remaining available nodes (never dropped);
//!   running jobs finish normally.
//! * **Fail** — like drain, but running jobs are truncated at their next
//!   phase boundary (accounting collected up to the truncation and
//!   compared against an equally truncated baseline, exactly like an
//!   injected abort). A truncated calibration *leader* that never
//!   converged fails its workload's calibration, releasing waiters to
//!   the fallback path.
//! * **Join** — the node accepts placements again; anything still queued
//!   on unavailable nodes is re-placed immediately.
//!
//! When every node is unavailable, placement falls back to the full
//! fleet — a degraded cluster keeps serving rather than stranding jobs.
//!
//! ## In-loop replication
//!
//! [`ClusterScheduler::run_service_replicated`] serves the trace from a
//! [`ReplicaSet`] instead of one repository and makes anti-entropy
//! *concurrent with serving*: gossip rounds are first-class kernel
//! events interleaved with job events on a virtual-time cadence
//! ([`GossipConfig::cadence_us`]) — one gossip-sweep event per replica
//! plus a delivery event per round, exactly the
//! [`ReplicaSet::gossip_round`] decomposition — rather than a batch
//! [`ReplicaSet::converge`] after the run. The cadence parks when the
//! set quiesces and re-arms on any publication, read-repair pull,
//! replica crash or restart, so an idle service schedules no busywork.
//! Replicas crash and restart mid-run on the
//! [`FaultInjector::replica_churn`] schedule (nodes served by a crashed
//! replica re-route to the next alive one; a restarted replica rejoins
//! empty and catches up over the following rounds), and a repository
//! miss an established peer can serve triggers a targeted
//! [`PullModels`](crate::net::Message::PullModels) read-repair instead
//! of a cold calibration. Everything stays a pure function of the trace
//! and the seeds: reruns are bit-identical, and the converged model
//! maps match the batch `converge` oracle's winners.

use std::collections::{BTreeMap, BTreeSet, VecDeque};

use kernels::{BenchmarkSpec, QuantileSketch};
use obskit::{Recorder, Track};
use simkit::{EventSink, Kernel, Process, Time};
use simnode::Cluster;

use crate::baseline::BaselineMemo;
use crate::cluster::{
    assemble_report, estimated_work, start_calibration, start_monitor, start_plain, AdmissionGate,
    Admit, ClusterReport, ClusterScheduler, EventOutcome, JobDriver, OnlineTuning, Placement,
    QueuedJob, State,
};
use crate::error::RuntimeError;
use crate::inject::{ChurnEvent, ChurnKind, FaultInjector, ReplicaChurnEvent, ReplicaChurnKind};
use crate::net::{NetError, ReplicaSet};
use crate::repository::{ModelKey, RepositoryHandle, RepositoryStats, ServedModel};

/// One job of a service trace: what to run, and *when* it arrives.
#[derive(Debug, Clone)]
pub struct JobArrival {
    /// Job name (unique per trace; seeds the accounting noise).
    pub name: String,
    /// The benchmark the job runs.
    pub bench: BenchmarkSpec,
    /// Arrival time, seconds of virtual time from service start.
    pub arrival_s: f64,
}

/// Knobs for one service run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ServiceConfig {
    /// Concurrent sessions a node runs before arrivals queue on it
    /// (0 = unbounded, the sweep loop's implicit behavior).
    pub slots_per_node: usize,
}

/// Knobs for in-loop anti-entropy gossip
/// ([`ClusterScheduler::run_service_replicated`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GossipConfig {
    /// Virtual microseconds between gossip rounds (each round is one
    /// transport tick, so session timeouts are measured in rounds).
    /// Clamped to ≥ 1.
    pub cadence_us: Time,
    /// Repair repository misses from established peers with a targeted
    /// pull instead of running a cold calibration.
    pub read_repair: bool,
    /// Gossip rounds a read-repair waits before re-pulling from the
    /// next candidate (a pull or its reply can be dropped). Clamped to
    /// ≥ 1.
    pub repair_retry_rounds: u64,
    /// Hard bound on total gossip rounds for one run — a plan the set
    /// can never settle under (e.g. a partition that never heals) must
    /// error with the stalled link named, not spin forever.
    pub max_rounds: u64,
}

impl Default for GossipConfig {
    fn default() -> Self {
        Self {
            cadence_us: 5_000,
            read_repair: true,
            repair_retry_rounds: 8,
            max_rounds: 100_000,
        }
    }
}

/// What in-loop replication did during one
/// [`ClusterScheduler::run_service_replicated`] run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ReplicationSummary {
    /// Replicas in the set.
    pub replicas: u32,
    /// Gossip rounds driven by the kernel (cadence parks when the set
    /// quiesces, so this counts useful rounds, not elapsed time).
    pub gossip_rounds: u64,
    /// Remote entries applied, summed over replicas' lifetimes.
    pub applied: u64,
    /// Stale remote entries ignored, summed over replicas' lifetimes.
    pub superseded: u64,
    /// Targeted read-repair pulls sent (including retries).
    pub repair_pulls: u64,
    /// Jobs released from read-repair parking.
    pub repair_released: u64,
    /// Read-repairs abandoned to cold calibration (no reachable holder
    /// within the attempt budget).
    pub repair_abandoned: u64,
    /// Replica crashes honored from the churn schedule.
    pub crashes: u64,
    /// Replica restarts honored from the churn schedule.
    pub restarts: u64,
    /// Every replica held an identical model map when the run ended.
    pub converged: bool,
    /// The set was quiescent (nothing in flight, every alive↔alive link
    /// established and clean) when the run ended.
    pub net_idle: bool,
}

/// p50/p95/p99/max of one sampled distribution.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Percentiles {
    /// Median.
    pub p50: f64,
    /// 95th percentile.
    pub p95: f64,
    /// 99th percentile.
    pub p99: f64,
    /// Largest sample.
    pub max: f64,
}

impl Percentiles {
    /// Extract from a sketch, scaling samples by `scale` (e.g. µs → s).
    fn from_sketch(sketch: &QuantileSketch, scale: f64) -> Self {
        let qs = sketch.percentiles(&[0.50, 0.95, 0.99]);
        Self {
            p50: qs[0] as f64 * scale,
            p95: qs[1] as f64 * scale,
            p99: qs[2] as f64 * scale,
            max: sketch.max() as f64 * scale,
        }
    }
}

/// Virtual-time metrics of one [`ClusterScheduler::run_service`] run.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ServiceSummary {
    /// Virtual time of the last job completion, seconds.
    pub makespan_s: f64,
    /// Job latency (arrival → finish), seconds of virtual time.
    pub latency_s: Percentiles,
    /// Time jobs spent queued before admission, seconds of virtual time.
    pub queue_wait_s: Percentiles,
    /// Per-node run-queue depth, sampled at every queue-affecting event.
    pub queue_depth: Percentiles,
    /// Churn events honored during the run.
    pub churn_events: usize,
    /// Queued or parked jobs re-placed off drained/failed/unavailable
    /// nodes (never dropped).
    pub replaced_jobs: u64,
    /// Running jobs truncated at a phase boundary by a node failure.
    pub truncated_jobs: u64,
    /// Kernel events dispatched.
    pub events: u64,
    /// The event heap was empty when the run ended (always true for a
    /// completed run; reported so invariants can assert it).
    pub quiesced: bool,
    /// Popped event timestamps never regressed (always true by kernel
    /// construction; reported so invariants can assert it).
    pub monotone: bool,
    /// Deterministic metrics snapshot, present when a recorder was
    /// attached via [`ClusterScheduler::with_recorder`]. Wall-derived
    /// series (`*_ns`) keep their sample counts but have their values
    /// blanked, so two recorded runs of the same inputs compare equal.
    pub telemetry: Option<obskit::MetricsSnapshot>,
    /// In-loop replication counters, present for
    /// [`ClusterScheduler::run_service_replicated`] runs.
    pub replication: Option<ReplicationSummary>,
}

impl ServiceSummary {
    /// The report lines
    /// [`format_report`](ClusterReport::format_report) appends for a
    /// service run.
    pub fn format_lines(&self) -> String {
        let mut out = format!(
            "service: makespan {:.1}s virtual, latency p50/p95/p99 \
             {:.3}/{:.3}/{:.3}s (max {:.3}s), queue depth p50/p95/p99 \
             {:.0}/{:.0}/{:.0} (max {:.0})\n",
            self.makespan_s,
            self.latency_s.p50,
            self.latency_s.p95,
            self.latency_s.p99,
            self.latency_s.max,
            self.queue_depth.p50,
            self.queue_depth.p95,
            self.queue_depth.p99,
            self.queue_depth.max,
        );
        if self.churn_events > 0 {
            out.push_str(&format!(
                "churn: {} events, {} queued jobs re-placed, {} running jobs truncated\n",
                self.churn_events, self.replaced_jobs, self.truncated_jobs,
            ));
        }
        if let Some(r) = &self.replication {
            out.push_str(&format!(
                "replication: {} replicas, {} gossip rounds, {} applied / {} stale, \
                 {} read-repair pulls ({} jobs released, {} abandoned), \
                 {} crashes / {} restarts, converged {}, net idle {}\n",
                r.replicas,
                r.gossip_rounds,
                r.applied,
                r.superseded,
                r.repair_pulls,
                r.repair_released,
                r.repair_abandoned,
                r.crashes,
                r.restarts,
                r.converged,
                r.net_idle,
            ));
        }
        if let Some(telemetry) = &self.telemetry {
            out.push_str(&format!(
                "telemetry: {} series ({} counters, {} gauges, {} histograms), \
                 {} spans, {} instants, {} timeline events dropped\n",
                telemetry.counters.len() + telemetry.gauges.len() + telemetry.histograms.len(),
                telemetry.counters.len(),
                telemetry.gauges.len(),
                telemetry.histograms.len(),
                telemetry.spans,
                telemetry.instants,
                telemetry.dropped_events,
            ));
        }
        out
    }
}

/// The typed event payloads of a service run.
enum ServiceEvent {
    /// Job `i` arrives and is placed (admitted or queued).
    Arrive(usize),
    /// Active job `i` advances by one region/phase event, or finishes.
    Step(usize),
    /// A calibration resolved (published, failed, or abandoned): release
    /// the workload's parked waiters.
    Resolve(ModelKey),
    /// Churn schedule entry `idx` fires.
    Churn(usize),
    /// Replica `id` runs its outbound gossip sweep for the current
    /// round (its per-replica gossip process).
    Gossip(u32),
    /// The round's delivery half: one transport tick, every inbox
    /// drained, read-repair progress checked, next round armed unless
    /// the set has quiesced.
    NetDeliver,
    /// Replica churn schedule entry `idx` fires (crash or restart).
    ReplicaChurn(usize),
    /// A read-repair landed (or was abandoned): release its parked
    /// waiters through the normal admission decision.
    Repaired(ModelKey),
}

/// Convert seconds of virtual time to the kernel's microsecond ticks.
fn to_us(seconds: f64) -> Time {
    (seconds.max(0.0) * 1e6).round() as Time
}

/// Read-repair pulls a stalled repair retries before abandoning the
/// key to cold calibration (its only holder may have crashed for good).
const REPAIR_ATTEMPT_BUDGET: u64 = 8;

/// One read-repair in flight: who pulls, who waits.
struct RepairState {
    /// The replica performing the pull (re-evaluated every round — the
    /// original may crash and its waiters re-route).
    replica: u32,
    /// Parked jobs waiting for the entry to land.
    waiters: Vec<usize>,
    /// Pulls sent so far; rotates the candidate target on retries.
    attempts: u64,
    /// Gossip rounds elapsed since the last pull.
    rounds_waiting: u64,
}

/// In-loop replication state: the replica set plus the service-side
/// gossip scheduling and read-repair bookkeeping.
struct NetState<'r, 'a> {
    set: &'r mut ReplicaSet<'a>,
    cadence_us: Time,
    read_repair: bool,
    repair_retry_rounds: u64,
    max_rounds: u64,
    /// Node index → home replica (`node % replicas`); while the home is
    /// crashed the node is served by the next alive id, wrapping.
    node_replica: Vec<u32>,
    replica_churn: Vec<ReplicaChurnEvent>,
    /// Misses with a repair pull in flight.
    repairing: BTreeMap<ModelKey, RepairState>,
    /// Keys that already went through one repair cycle: a repeat miss
    /// means the pulled entry did not satisfy the lookup (e.g. a
    /// fingerprint mismatch under exact matching), so it cold-calibrates
    /// instead of looping the repair path.
    repaired: BTreeSet<ModelKey>,
    /// A gossip round is armed and not yet delivered.
    round_scheduled: bool,
    rounds: u64,
    repair_pulls: u64,
    repair_released: u64,
    repair_abandoned: u64,
    crashes: u64,
    restarts: u64,
}

impl NetState<'_, '_> {
    /// The replica serving `node` (see [`serving_replica`]).
    fn serving_replica(&self, node: usize) -> u32 {
        serving_replica(self.set, &self.node_replica, node)
    }
}

/// The replica serving `node`: its home replica, or the next alive id
/// (wrapping) while the home is crashed. Falls back to the home replica
/// when the whole set is down. Always an id of `set`: homes are
/// `node % set.len()`.
fn serving_replica(set: &ReplicaSet<'_>, node_replica: &[u32], node: usize) -> u32 {
    let n = set.len() as u32;
    let home = node_replica[node];
    (0..n)
        .map(|off| (home + off) % n)
        .find(|&id| !set.is_down(id))
        .unwrap_or(home)
}

/// How a service run reaches its tuning models: one repository handle
/// ([`ClusterScheduler::run_service`]) or a replica per node group with
/// in-loop anti-entropy ([`ClusterScheduler::run_service_replicated`]).
enum RepoAccess<'r, 'a> {
    Single(&'r mut dyn RepositoryHandle),
    Replicated(NetState<'r, 'a>),
}

impl RepoAccess<'_, '_> {
    fn serve(&mut self, node: usize, bench: &BenchmarkSpec) -> Result<ServedModel, RuntimeError> {
        match self {
            RepoAccess::Single(repo) => repo.serve(bench),
            RepoAccess::Replicated(net) => {
                let id = net.serving_replica(node);
                net.set
                    .replica_mut(id)
                    .map_err(RuntimeError::Replication)?
                    .serve(bench)
            }
        }
    }

    fn serve_stored(
        &mut self,
        node: usize,
        bench: &BenchmarkSpec,
    ) -> Result<Option<ServedModel>, RuntimeError> {
        match self {
            RepoAccess::Single(repo) => repo.serve_stored(bench),
            RepoAccess::Replicated(net) => {
                let id = net.serving_replica(node);
                net.set
                    .replica_mut(id)
                    .map_err(RuntimeError::Replication)?
                    .serve_stored(bench)
            }
        }
    }

    fn serve_fallback(
        &mut self,
        node: usize,
        bench: &BenchmarkSpec,
    ) -> Result<ServedModel, RuntimeError> {
        match self {
            RepoAccess::Single(repo) => repo.serve_fallback(bench),
            RepoAccess::Replicated(net) => {
                let id = net.serving_replica(node);
                net.set
                    .replica_mut(id)
                    .map_err(RuntimeError::Replication)?
                    .serve_fallback(bench)
            }
        }
    }

    fn publish_online(
        &mut self,
        node: usize,
        bench: &BenchmarkSpec,
        model: &ptf::TuningModel,
        expected: Vec<(String, f64)>,
    ) -> Result<u32, RuntimeError> {
        match self {
            RepoAccess::Single(repo) => Ok(repo.publish_online(bench, model, expected)),
            RepoAccess::Replicated(net) => {
                let id = net.serving_replica(node);
                Ok(net
                    .set
                    .replica_mut(id)
                    .map_err(RuntimeError::Replication)?
                    .publish_online(bench, model, expected))
            }
        }
    }

    /// Serving statistics — summed over replicas for a replicated run
    /// (a restarted replica's counters restart with its repository).
    fn stats(&self) -> Result<RepositoryStats, RuntimeError> {
        match self {
            RepoAccess::Single(repo) => Ok(repo.stats()),
            RepoAccess::Replicated(net) => {
                (0..net.set.len() as u32).try_fold(RepositoryStats::default(), |total, id| {
                    let replica = net.set.replica(id).map_err(RuntimeError::Replication)?;
                    Ok(total.merged(&replica.stats()))
                })
            }
        }
    }
}

/// The [`Process`] impl: all mutable state of one service run.
struct ServiceRun<'b, 'r, 'a> {
    cluster: &'b Cluster,
    placement: Placement,
    online: Option<OnlineTuning<'b>>,
    faults: Option<&'b dyn FaultInjector>,
    recorder: &'b dyn Recorder,
    /// `recorder.enabled()`, hoisted once: every instrumentation site
    /// branches on a bool instead of making a virtual call.
    record: bool,
    repo: RepoAccess<'r, 'a>,
    slots_per_node: usize,

    jobs: &'b [QueuedJob],
    arrivals_us: Vec<Time>,
    drivers: Vec<JobDriver<'b>>,
    baselines: BaselineMemo<'b>,
    placements: Vec<usize>,
    /// Session wall time already accounted onto the timeline, per job.
    charged_s: Vec<f64>,
    /// When the job last entered a queue (arrival or re-placement).
    enqueued_us: Vec<Time>,
    /// When the job parked behind an in-flight calibration (telemetry
    /// only; 0 = never parked).
    parked_us: Vec<Time>,

    available: Vec<bool>,
    running: Vec<usize>,
    queues: Vec<VecDeque<usize>>,
    load: Vec<f64>,
    rr_next: usize,

    /// The cold-workload admission policy shared with the sweep loop.
    gate: AdmissionGate,
    /// Jobs parked behind each in-flight calibration, in park order.
    waiters: BTreeMap<ModelKey, Vec<usize>>,
    churn: Vec<ChurnEvent>,

    latency: QuantileSketch,
    wait: QuantileSketch,
    depth: QuantileSketch,
    replaced: u64,
    truncated: u64,
    done: usize,
    finished_at_us: Time,
    last_event_us: Time,
    monotone: bool,
}

impl ServiceRun<'_, '_, '_> {
    fn has_capacity(&self, node: usize) -> bool {
        self.slots_per_node == 0 || self.running[node] < self.slots_per_node
    }

    /// Sample the current run-queue depth of `node`.
    fn sample_depth(&mut self, node: usize) {
        self.depth.record(self.queues[node].len() as u64);
    }

    /// Pick a node for `bench` among the available nodes (all nodes when
    /// none is available), mirroring [`ClusterScheduler::submit`]'s
    /// policies exactly when the whole fleet is up.
    fn place(&mut self, bench: &BenchmarkSpec) -> usize {
        let len = self.cluster.len();
        let any_available = self.available.iter().any(|&a| a);
        let idx = match self.placement {
            Placement::RoundRobin => loop {
                let idx = self.rr_next % len;
                self.rr_next += 1;
                if !any_available || self.available[idx] {
                    break idx;
                }
            },
            Placement::LeastLoaded => self
                .load
                .iter()
                .enumerate()
                .filter(|&(i, _)| !any_available || self.available[i])
                .min_by(|(_, a), (_, b)| a.total_cmp(b))
                .map(|(i, _)| i)
                .unwrap_or(0),
        };
        self.load[idx] += estimated_work(bench);
        idx
    }

    /// Place job `i` and admit it, or queue it behind the node's slots.
    fn place_or_queue(
        &mut self,
        i: usize,
        now: Time,
        sink: &mut dyn EventSink<ServiceEvent>,
    ) -> Result<(), RuntimeError> {
        let jobs = self.jobs;
        let node = self.place(&jobs[i].bench);
        self.placements[i] = node;
        self.enqueued_us[i] = now;
        if self.has_capacity(node) {
            self.admit(i, now, sink)?;
        } else {
            self.queues[node].push_back(i);
            self.sample_depth(node);
        }
        Ok(())
    }

    /// Admit job `i` on its placed node: the sweep loop's admission
    /// decision, verbatim. Returns `false` when the job parked behind an
    /// in-flight same-workload calibration instead of starting (parked
    /// jobs hold no slot).
    fn admit(
        &mut self,
        i: usize,
        now: Time,
        sink: &mut dyn EventSink<ServiceEvent>,
    ) -> Result<bool, RuntimeError> {
        let jobs = self.jobs;
        let job = &jobs[i];
        let node_idx = self.placements[i];
        let node = self.cluster.node(node_idx);
        let faults = self.faults;
        let (state, rejection) = match self.online {
            None => start_plain(job, node, self.repo.serve(node_idx, &job.bench)?)?,
            Some(online) => {
                let key = job.key();
                match self.gate.admit(&key) {
                    Admit::Fallback => {
                        start_plain(job, node, self.repo.serve(node_idx, &job.bench)?)?
                    }
                    Admit::Wait => {
                        self.waiters.entry(key).or_default().push(i);
                        self.parked_us[i] = now;
                        if self.record {
                            self.recorder.counter_add("service.parked", 1);
                        }
                        return Ok(false);
                    }
                    Admit::Lookup => match self.repo.serve_stored(node_idx, &job.bench)? {
                        Some(served) => start_monitor(job, node, served, online.config, faults)?,
                        None => {
                            if self.try_read_repair(i, now, sink)? {
                                return Ok(false);
                            }
                            let repo = &mut self.repo;
                            let (state, rejection, refused) =
                                start_calibration(job, node, &online, faults, &mut |b| {
                                    repo.serve_fallback(node_idx, b)
                                })?;
                            self.gate.lead(key, i, refused);
                            (state, rejection)
                        }
                    },
                }
            }
        };
        self.drivers[i].state = state;
        self.drivers[i].rejection = rejection;
        self.running[self.placements[i]] += 1;
        let waited = now - self.enqueued_us[i];
        self.wait.record(waited);
        if self.record {
            self.recorder.counter_add("service.admissions", 1);
            self.recorder
                .histogram_record("service.queue_wait_us", waited);
            if waited > 0 {
                let track = Track::node(self.placements[i] as u32);
                self.recorder
                    .span(track, "job.queued", self.enqueued_us[i], waited);
            }
        }
        // Anything the session charged at start (e.g. the switch into its
        // launch configuration) delays its first step.
        self.charged_s[i] = 0.0;
        self.schedule_step(i, now, sink);
        Ok(true)
    }

    /// Schedule job `i`'s next step after the virtual time its session
    /// accumulated since the last one (min 1 µs so the timeline always
    /// advances).
    fn schedule_step(&mut self, i: usize, now: Time, sink: &mut dyn EventSink<ServiceEvent>) {
        let elapsed = self.drivers[i].elapsed_s();
        let dt = to_us(elapsed - self.charged_s[i]).max(1);
        self.charged_s[i] = elapsed;
        sink.schedule_at(now + dt, ServiceEvent::Step(i));
    }

    /// Admit queued jobs on `node` while it has capacity.
    fn pump(
        &mut self,
        node: usize,
        now: Time,
        sink: &mut dyn EventSink<ServiceEvent>,
    ) -> Result<(), RuntimeError> {
        while self.has_capacity(node) {
            let Some(i) = self.queues[node].pop_front() else {
                break;
            };
            self.sample_depth(node);
            self.admit(i, now, sink)?;
        }
        Ok(())
    }

    /// One step of active job `i`: finish it when its iterations are
    /// exhausted, otherwise advance one region/phase event and reschedule.
    fn step(
        &mut self,
        i: usize,
        now: Time,
        sink: &mut dyn EventSink<ServiceEvent>,
    ) -> Result<(), RuntimeError> {
        let jobs = self.jobs;
        let job = &jobs[i];
        if self.drivers[i].finished_iterations() {
            let was_online = matches!(self.drivers[i].state, State::Online(_));
            let node_idx = self.placements[i];
            let Self {
                drivers,
                repo,
                baselines,
                ..
            } = self;
            drivers[i].finish(job, node_idx, baselines, &mut |bench, publication| {
                repo.publish_online(node_idx, bench, &publication.model, publication.expected)
            })?;
            // A publication must gossip out while the service keeps
            // running: re-arm the cadence if it had parked.
            if self.drivers[i].published_version.is_some() {
                self.ensure_round(now, sink);
            }
            // The key is only needed off the hot path: plain serves step
            // to completion without ever touching the admission gate.
            if was_online {
                // When this job led its workload's calibration, the
                // calibration settles: published (waiters become hits) or
                // not (an abort/failure truncated it before convergence —
                // waiters degrade to the fallback).
                let published = self.drivers[i].published_version.is_some();
                self.settle(i, published, now, sink);
            }
            self.running[node_idx] -= 1;
            let latency = now - self.arrivals_us[i];
            self.latency.record(latency);
            if self.record {
                self.recorder.counter_add("service.jobs_done", 1);
                self.recorder.span(
                    Track::node(node_idx as u32),
                    "job",
                    self.arrivals_us[i],
                    latency,
                );
            }
            self.done += 1;
            self.finished_at_us = self.finished_at_us.max(now);
            self.pump(node_idx, now, sink)?;
        } else {
            // Batched: one virtual-time step covers the session's whole
            // phase — the contiguous region events plus the boundary —
            // instead of one event dispatch per region.
            if let EventOutcome::Abandoned = self.drivers[i].advance_phase(&job.bench)? {
                self.settle(i, false, now, sink);
            }
            self.schedule_step(i, now, sink);
        }
        Ok(())
    }

    /// Online job `i` finished, or abandoned its calibration: when it
    /// led its workload's calibration, schedule the waiters' release.
    /// Resolution is its own same-instant event, so waiter admissions
    /// order behind everything already due.
    fn settle(
        &mut self,
        i: usize,
        published: bool,
        now: Time,
        sink: &mut dyn EventSink<ServiceEvent>,
    ) {
        let key = self.jobs[i].key();
        if !self.gate.settle(&key, i, published) {
            return;
        }
        if self.record {
            self.recorder.instant(
                Track::node(self.placements[i] as u32),
                "calib.resolved",
                now,
            );
        }
        sink.schedule_at(now, ServiceEvent::Resolve(key));
    }

    /// Release a resolved calibration's parked waiters, in park order:
    /// re-admit each through the normal admission decision (hit → monitor,
    /// failed → fallback serve, evicted → fresh calibration), re-placing
    /// any whose node churned away and queueing any that no longer fits.
    fn resolve(
        &mut self,
        key: &ModelKey,
        now: Time,
        sink: &mut dyn EventSink<ServiceEvent>,
    ) -> Result<(), RuntimeError> {
        self.gate.release(key);
        let waiters = self.waiters.remove(key).unwrap_or_default();
        for i in waiters {
            if self.record {
                self.recorder.counter_add("service.calib_released", 1);
                self.recorder
                    .histogram_record("service.calib_wait_us", now - self.parked_us[i]);
            }
            self.release_waiter(i, now, sink)?;
        }
        Ok(())
    }

    /// Re-admit one parked job through the normal admission decision,
    /// re-placing it if its node churned away and queueing it when the
    /// node's slots are full.
    fn release_waiter(
        &mut self,
        i: usize,
        now: Time,
        sink: &mut dyn EventSink<ServiceEvent>,
    ) -> Result<(), RuntimeError> {
        let jobs = self.jobs;
        if !self.available[self.placements[i]] && self.available.iter().any(|&a| a) {
            self.load[self.placements[i]] -= estimated_work(&jobs[i].bench);
            self.replaced += 1;
            if self.record {
                self.recorder.counter_add("service.replaced", 1);
            }
            return self.place_or_queue(i, now, sink);
        }
        let node = self.placements[i];
        self.enqueued_us[i] = now;
        if self.has_capacity(node) {
            self.admit(i, now, sink)?;
        } else {
            self.queues[node].push_back(i);
            self.sample_depth(node);
        }
        Ok(())
    }

    /// Try to repair a repository miss from an established peer instead
    /// of cold-calibrating: park the job behind (or join) a targeted
    /// pull. Returns whether the job parked. A key that already went
    /// through one repair cycle is never repaired again — its repeat
    /// miss means the pulled entry did not satisfy the lookup.
    fn try_read_repair(
        &mut self,
        i: usize,
        now: Time,
        sink: &mut dyn EventSink<ServiceEvent>,
    ) -> Result<bool, RuntimeError> {
        let key = self.jobs[i].key();
        let node = self.placements[i];
        let RepoAccess::Replicated(net) = &mut self.repo else {
            return Ok(false);
        };
        if !net.read_repair || net.repaired.contains(&key) {
            return Ok(false);
        }
        if let Some(repair) = net.repairing.get_mut(&key) {
            repair.waiters.push(i);
            self.parked_us[i] = now;
            if self.record {
                self.recorder.counter_add("service.repair_parked", 1);
            }
            return Ok(true);
        }
        let replica = net.serving_replica(node);
        let candidates = net.set.repair_candidates(replica, &key.application);
        let Some(&target) = candidates.first() else {
            return Ok(false); // no established peer holds it: cold path
        };
        net.set
            .send_pull(replica, target, vec![key.application.clone()])
            .map_err(RuntimeError::Replication)?;
        net.repair_pulls += 1;
        net.repairing.insert(
            key,
            RepairState {
                replica,
                waiters: vec![i],
                attempts: 1,
                rounds_waiting: 0,
            },
        );
        self.parked_us[i] = now;
        if self.record {
            self.recorder.counter_add("service.repair_pulls", 1);
            self.recorder.counter_add("service.repair_parked", 1);
        }
        self.ensure_round(now, sink);
        Ok(true)
    }

    /// Arm the next gossip round if none is armed: one
    /// [`ServiceEvent::Gossip`] sweep per replica plus the
    /// [`ServiceEvent::NetDeliver`] delivery half, one cadence from now.
    /// No-op for unreplicated runs.
    fn ensure_round(&mut self, now: Time, sink: &mut dyn EventSink<ServiceEvent>) {
        let RepoAccess::Replicated(net) = &mut self.repo else {
            return;
        };
        if net.round_scheduled {
            return;
        }
        net.round_scheduled = true;
        let at = now + net.cadence_us;
        for id in 0..net.set.len() as u32 {
            sink.schedule_at(at, ServiceEvent::Gossip(id));
        }
        sink.schedule_at(at, ServiceEvent::NetDeliver);
    }

    /// The delivery half of a gossip round: advance the transport one
    /// tick, drain every inbox, check read-repair progress, and arm the
    /// next round unless the set quiesced with nothing left to repair.
    fn net_deliver(
        &mut self,
        now: Time,
        sink: &mut dyn EventSink<ServiceEvent>,
    ) -> Result<(), RuntimeError> {
        let RepoAccess::Replicated(net) = &mut self.repo else {
            return Ok(());
        };
        net.round_scheduled = false;
        net.rounds += 1;
        if net.rounds > net.max_rounds {
            return Err(RuntimeError::Replication(NetError::ConvergeTimeout {
                ticks: net.set.ticks(),
                culprit: net.set.stall_culprit(),
            }));
        }
        net.set.deliver_round().map_err(RuntimeError::Replication)?;
        // Read-repair progress. A pull that landed releases its waiters
        // via a same-instant event (so admissions order behind
        // everything already due); a stalled one re-pulls on the retry
        // cadence, rotating targets; one out of budget is abandoned to
        // cold calibration.
        let NetState {
            set,
            node_replica,
            repairing,
            repair_retry_rounds,
            repair_pulls,
            repair_abandoned,
            ..
        } = net;
        for (key, repair) in repairing.iter_mut() {
            let replica = serving_replica(set, node_replica, self.placements[repair.waiters[0]]);
            repair.replica = replica;
            if set.holds(replica, &key.application) {
                sink.schedule_at(now, ServiceEvent::Repaired(key.clone()));
                continue;
            }
            repair.rounds_waiting += 1;
            if repair.rounds_waiting >= *repair_retry_rounds {
                repair.rounds_waiting = 0;
                repair.attempts += 1;
                if repair.attempts > REPAIR_ATTEMPT_BUDGET {
                    *repair_abandoned += 1;
                    sink.schedule_at(now, ServiceEvent::Repaired(key.clone()));
                    continue;
                }
                let candidates = set.repair_candidates(replica, &key.application);
                let pick = (repair.attempts - 1) as usize % candidates.len().max(1);
                if let Some(&target) = candidates.get(pick) {
                    set.send_pull(replica, target, vec![key.application.clone()])
                        .map_err(RuntimeError::Replication)?;
                    *repair_pulls += 1;
                    if self.record {
                        self.recorder.counter_add("service.repair_pulls", 1);
                    }
                }
            }
        }
        // Park the cadence when there is nothing left to move; any
        // publication, pull, crash or restart re-arms it.
        let settled = net.set.quiesced() && net.repairing.is_empty();
        if !settled {
            self.ensure_round(now, sink);
        }
        Ok(())
    }

    /// Release a read-repair's parked waiters — the repair landed or
    /// was abandoned. The key is marked repaired either way, so a
    /// repeat miss cold-calibrates instead of looping.
    fn repaired(
        &mut self,
        key: &ModelKey,
        now: Time,
        sink: &mut dyn EventSink<ServiceEvent>,
    ) -> Result<(), RuntimeError> {
        let RepoAccess::Replicated(net) = &mut self.repo else {
            return Ok(());
        };
        let Some(repair) = net.repairing.remove(key) else {
            return Ok(());
        };
        net.repaired.insert(key.clone());
        net.repair_released += repair.waiters.len() as u64;
        for i in repair.waiters {
            if self.record {
                self.recorder.counter_add("service.repair_released", 1);
                self.recorder
                    .histogram_record("service.repair_wait_us", now - self.parked_us[i]);
            }
            self.release_waiter(i, now, sink)?;
        }
        Ok(())
    }

    /// Honor one replica churn entry: a crash tears the replica's
    /// sessions down and stops it serving (its nodes re-route to the
    /// next alive replica); a restart rejoins it empty to catch up over
    /// the following rounds. Out-of-set ids and redundant events are
    /// ignored.
    fn replica_churn_event(
        &mut self,
        idx: usize,
        now: Time,
        sink: &mut dyn EventSink<ServiceEvent>,
    ) -> Result<(), RuntimeError> {
        let RepoAccess::Replicated(net) = &mut self.repo else {
            return Ok(());
        };
        let event = net.replica_churn[idx];
        if event.replica as usize >= net.set.len() {
            return Ok(());
        }
        match event.kind {
            ReplicaChurnKind::Crash => {
                if net.set.is_down(event.replica) {
                    return Ok(());
                }
                net.set
                    .crash(event.replica)
                    .map_err(RuntimeError::Replication)?;
                net.crashes += 1;
            }
            ReplicaChurnKind::Restart => {
                if !net.set.is_down(event.replica) {
                    return Ok(());
                }
                net.set
                    .restart(event.replica)
                    .map_err(RuntimeError::Replication)?;
                net.restarts += 1;
            }
        }
        if self.record {
            let name = match event.kind {
                ReplicaChurnKind::Crash => "replica.crash",
                ReplicaChurnKind::Restart => "replica.restart",
            };
            self.recorder.instant(Track::net(), name, now);
        }
        // Survivors re-settle after a crash; a rejoiner catches up.
        self.ensure_round(now, sink);
        Ok(())
    }

    /// Re-place everything queued on `node` onto the rest of the fleet.
    fn requeue_from(
        &mut self,
        node: usize,
        now: Time,
        sink: &mut dyn EventSink<ServiceEvent>,
    ) -> Result<(), RuntimeError> {
        let jobs = self.jobs;
        let queued: Vec<usize> = self.queues[node].drain(..).collect();
        if !queued.is_empty() {
            self.sample_depth(node);
        }
        for i in queued {
            self.load[node] -= estimated_work(&jobs[i].bench);
            self.replaced += 1;
            if self.record {
                self.recorder.counter_add("service.replaced", 1);
            }
            self.place_or_queue(i, now, sink)?;
        }
        Ok(())
    }

    /// Honor one churn schedule entry.
    fn churn_event(
        &mut self,
        idx: usize,
        now: Time,
        sink: &mut dyn EventSink<ServiceEvent>,
    ) -> Result<(), RuntimeError> {
        let event = self.churn[idx];
        let node = event.node as usize;
        if node >= self.cluster.len() {
            return Ok(()); // out-of-fleet node: nothing to churn
        }
        if self.record {
            let name = match event.kind {
                ChurnKind::Join => "churn.join",
                ChurnKind::Drain => "churn.drain",
                ChurnKind::Fail => "churn.fail",
            };
            self.recorder.instant(Track::node(event.node), name, now);
            self.recorder.counter_add("service.churn_events", 1);
        }
        match event.kind {
            ChurnKind::Join => {
                self.available[node] = true;
                // Anything stranded on still-unavailable nodes (placed
                // while the whole fleet was down) moves here.
                for other in 0..self.cluster.len() {
                    if !self.available[other] {
                        self.requeue_from(other, now, sink)?;
                    }
                }
                self.pump(node, now, sink)?;
            }
            ChurnKind::Drain => {
                self.available[node] = false;
                self.requeue_from(node, now, sink)?;
            }
            ChurnKind::Fail => {
                self.available[node] = false;
                self.requeue_from(node, now, sink)?;
                // Truncate running jobs at their next phase boundary, the
                // same clamp an injected abort applies.
                for i in 0..self.placements.len() {
                    if self.placements[i] == node && self.drivers[i].is_active() {
                        let cut = (self.drivers[i].phase_iteration() + 1).max(1);
                        if cut < self.drivers[i].iterations {
                            self.drivers[i].iterations = cut;
                            self.truncated += 1;
                            if self.record {
                                self.recorder.counter_add("service.truncated", 1);
                            }
                        }
                    }
                }
            }
        }
        Ok(())
    }
}

impl Process<ServiceEvent> for ServiceRun<'_, '_, '_> {
    type Error = RuntimeError;

    fn handle(
        &mut self,
        now: Time,
        event: ServiceEvent,
        sink: &mut dyn EventSink<ServiceEvent>,
    ) -> Result<(), RuntimeError> {
        if now < self.last_event_us {
            self.monotone = false;
        }
        self.last_event_us = now;
        match event {
            ServiceEvent::Arrive(i) => {
                if self.record {
                    self.recorder.counter_add("service.arrivals", 1);
                }
                self.place_or_queue(i, now, sink)
            }
            ServiceEvent::Step(i) => self.step(i, now, sink),
            ServiceEvent::Resolve(key) => self.resolve(&key, now, sink),
            ServiceEvent::Churn(idx) => self.churn_event(idx, now, sink),
            ServiceEvent::Gossip(id) => {
                if let RepoAccess::Replicated(net) = &mut self.repo {
                    net.set
                        .pump_replica(id)
                        .map_err(RuntimeError::Replication)?;
                }
                Ok(())
            }
            ServiceEvent::NetDeliver => self.net_deliver(now, sink),
            ServiceEvent::ReplicaChurn(idx) => self.replica_churn_event(idx, now, sink),
            ServiceEvent::Repaired(key) => self.repaired(&key, now, sink),
        }
    }
}

impl ClusterScheduler<'_> {
    /// Run `trace` as a long-lived service in virtual time, serving
    /// tuning models from `repo`.
    ///
    /// Unlike [`ClusterScheduler::run`] — which consumes the submission
    /// queue as an *ordering* and sweeps every active session in lockstep
    /// — this is a discrete-event simulation on the [`simkit`] kernel:
    /// jobs are placed when their [`JobArrival::arrival_s`] timestamp
    /// fires, each session's region and phase events are scheduled at the
    /// virtual times the session itself accounts, and the node
    /// join/drain/fail schedule from [`FaultInjector::node_churn`] (via
    /// [`ClusterScheduler::with_faults`]) is honored mid-run. The
    /// returned report carries a [`ServiceSummary`] with latency,
    /// queue-wait and queue-depth percentiles.
    ///
    /// On a zero-interarrival trace with no churn and unbounded slots,
    /// per-job accounting is bit-identical to the sweep loop (the
    /// `event_core` testkit invariant). The submission queue is not
    /// consumed — the trace is the workload.
    pub fn run_service(
        &mut self,
        trace: Vec<JobArrival>,
        repo: &mut dyn RepositoryHandle,
        config: &ServiceConfig,
    ) -> Result<ClusterReport, RuntimeError> {
        self.run_service_impl(trace, RepoAccess::Single(repo), config)
    }

    /// Run `trace` as a long-lived service over a [`ReplicaSet`], with
    /// anti-entropy gossip *in the loop*: rounds are kernel events on
    /// the [`GossipConfig::cadence_us`] virtual-time cadence,
    /// interleaved with job events, parking when the set quiesces and
    /// re-arming on publications, read-repair pulls and replica churn.
    /// Each node serves from its home replica (`node % replicas`),
    /// re-routing to the next alive id while the home is crashed on the
    /// [`FaultInjector::replica_churn`] schedule. A repository miss an
    /// established peer can serve becomes a targeted read-repair pull
    /// instead of a cold calibration (when [`GossipConfig::read_repair`]
    /// is on). By the time the run returns, the set has converged
    /// in-loop — no trailing [`ReplicaSet::converge`] is needed — and
    /// the report's [`ServiceSummary::replication`] says what the net
    /// layer did. Reruns over the same inputs are bit-identical.
    pub fn run_service_replicated(
        &mut self,
        trace: Vec<JobArrival>,
        set: &mut ReplicaSet<'_>,
        gossip: &GossipConfig,
        config: &ServiceConfig,
    ) -> Result<ClusterReport, RuntimeError> {
        let replicas = set.len() as u32;
        let node_replica: Vec<u32> = (0..self.cluster().len())
            .map(|n| n as u32 % replicas)
            .collect();
        let replica_churn = self.faults().map(|f| f.replica_churn()).unwrap_or_default();
        let net = NetState {
            set,
            cadence_us: gossip.cadence_us.max(1),
            read_repair: gossip.read_repair,
            repair_retry_rounds: gossip.repair_retry_rounds.max(1),
            max_rounds: gossip.max_rounds.max(1),
            node_replica,
            replica_churn,
            repairing: BTreeMap::new(),
            repaired: BTreeSet::new(),
            round_scheduled: false,
            rounds: 0,
            repair_pulls: 0,
            repair_released: 0,
            repair_abandoned: 0,
            crashes: 0,
            restarts: 0,
        };
        self.run_service_impl(trace, RepoAccess::Replicated(net), config)
    }

    fn run_service_impl(
        &mut self,
        trace: Vec<JobArrival>,
        mut repo: RepoAccess<'_, '_>,
        config: &ServiceConfig,
    ) -> Result<ClusterReport, RuntimeError> {
        let cluster = self.cluster();
        let faults = self.faults();
        let recorder = self.recorder();
        let arrivals_us: Vec<Time> = trace.iter().map(|a| to_us(a.arrival_s)).collect();
        // Move (not clone) the specs out of the trace: at million-job
        // scale a second copy of every spec is real memory and time.
        let jobs: Vec<QueuedJob> = trace
            .into_iter()
            .map(|a| QueuedJob::new(a.name, a.bench, 0))
            .collect();
        let churn = faults.map(|f| f.node_churn()).unwrap_or_default();

        let mut kernel: Kernel<ServiceEvent> = Kernel::new();
        for (i, &at) in arrivals_us.iter().enumerate() {
            kernel.schedule_at(at, ServiceEvent::Arrive(i));
        }
        for (idx, event) in churn.iter().enumerate() {
            kernel.schedule_at(to_us(event.at_s), ServiceEvent::Churn(idx));
        }
        if let RepoAccess::Replicated(net) = &mut repo {
            for (idx, event) in net.replica_churn.iter().enumerate() {
                kernel.schedule_at(to_us(event.at_s), ServiceEvent::ReplicaChurn(idx));
            }
            // The first rounds run immediately: sessions establish
            // before the trace warms up, so read-repair has established
            // peers to pull from by the first miss.
            net.round_scheduled = true;
            for id in 0..net.set.len() as u32 {
                kernel.schedule_at(0, ServiceEvent::Gossip(id));
            }
            kernel.schedule_at(0, ServiceEvent::NetDeliver);
        }

        let mut run = ServiceRun {
            cluster,
            placement: self.placement(),
            online: self.online(),
            faults,
            recorder,
            record: recorder.enabled(),
            repo,
            slots_per_node: config.slots_per_node,
            drivers: jobs.iter().map(|job| JobDriver::new(job, faults)).collect(),
            baselines: BaselineMemo::new(cluster),
            placements: vec![0; jobs.len()],
            charged_s: vec![0.0; jobs.len()],
            enqueued_us: vec![0; jobs.len()],
            parked_us: vec![0; jobs.len()],
            arrivals_us,
            jobs: &jobs,
            available: vec![true; cluster.len()],
            running: vec![0; cluster.len()],
            queues: vec![VecDeque::new(); cluster.len()],
            load: vec![0.0; cluster.len()],
            rr_next: 0,
            gate: AdmissionGate::default(),
            waiters: BTreeMap::new(),
            churn,
            latency: QuantileSketch::new(),
            wait: QuantileSketch::new(),
            depth: QuantileSketch::new(),
            replaced: 0,
            truncated: 0,
            done: 0,
            finished_at_us: 0,
            last_event_us: 0,
            monotone: true,
        };
        kernel.run_recorded(&mut run, recorder)?;
        if run.done < jobs.len() {
            return Err(RuntimeError::ServiceStalled {
                unfinished: jobs.len() - run.done,
            });
        }

        let replication = match &run.repo {
            RepoAccess::Single(_) => None,
            RepoAccess::Replicated(net) => {
                let totals = net.set.replication_totals();
                Some(ReplicationSummary {
                    replicas: net.set.len() as u32,
                    gossip_rounds: net.rounds,
                    applied: totals.applied,
                    superseded: totals.superseded,
                    repair_pulls: net.repair_pulls,
                    repair_released: net.repair_released,
                    repair_abandoned: net.repair_abandoned,
                    crashes: net.crashes,
                    restarts: net.restarts,
                    converged: net.set.converged(),
                    net_idle: net.set.quiesced(),
                })
            }
        };
        let summary = ServiceSummary {
            makespan_s: run.finished_at_us as f64 / 1e6,
            latency_s: Percentiles::from_sketch(&run.latency, 1e-6),
            queue_wait_s: Percentiles::from_sketch(&run.wait, 1e-6),
            queue_depth: Percentiles::from_sketch(&run.depth, 1.0),
            churn_events: run.churn.len(),
            replaced_jobs: run.replaced,
            truncated_jobs: run.truncated,
            events: kernel.processed(),
            quiesced: kernel.is_quiesced(),
            monotone: run.monotone,
            telemetry: recorder.telemetry(),
            replication,
        };
        let ServiceRun {
            drivers,
            placements,
            repo,
            ..
        } = run;
        let mut report = assemble_report(cluster, &jobs, &placements, drivers, repo.stats()?);
        report.service = Some(summary);
        Ok(report)
    }
}
