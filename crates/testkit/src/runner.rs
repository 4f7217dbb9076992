//! Executing a [`Scenario`]: the same trace through both event loops.
//!
//! [`run_scenario`] materialises the fleet and the repository, runs the
//! arrival trace once through the sweep loop [`ClusterScheduler::run`]
//! and once through the discrete-event
//! [`ClusterScheduler::run_service`] with the trace's
//! timestamps (and the fault plan's node-churn schedule) honored in
//! virtual time, and hands the [`ClusterReport`]s to the invariant
//! checkers.
//!
//! [`ClusterScheduler::run`]: rrl::ClusterScheduler::run
//! [`ClusterScheduler::run_service`]: rrl::ClusterScheduler::run_service

use std::collections::BTreeMap;

use obskit::{Recorder, Registry};
use ptf::RandomSearch;
use rrl::net::ModelDigest;
use rrl::{
    ClusterReport, ClusterScheduler, ConvergeReport, GossipConfig, JobArrival, OnlineConfig,
    OnlineTuning, ReplicaConfig, ReplicaSet, RuntimeError, ServiceConfig, Stamp,
};
use simnode::Cluster;

use crate::invariants::{bit_identical, Violation};
use crate::scenario::{NetPlan, Scenario, StoredEntry};

/// Both loops' results for one scenario.
#[derive(Debug, Clone)]
pub struct ScenarioRun {
    /// The sweep run over a `TuningModelRepository`.
    pub sequential: ClusterReport,
    /// The discrete-event service run over its own
    /// `TuningModelRepository`: the same trace driven by arrival
    /// timestamps in virtual time, under the fault plan's node-churn
    /// schedule. Carries a [`rrl::ServiceSummary`] in `service.service`.
    pub service: ClusterReport,
    /// The replicated-serving execution, when the scenario carries a
    /// [`NetPlan`].
    pub replicated: Option<ReplicatedRun>,
    /// The **in-loop** replicated service execution, when the scenario's
    /// [`NetPlan`] sets a gossip cadence (`gossip_cadence_us > 0`).
    pub inloop: Option<InloopRun>,
    /// The recorded re-executions of the service run (telemetry on),
    /// for the observability invariant.
    pub observed: ObservedServiceRun,
}

/// The service run re-executed with an [`obskit::Registry`] attached —
/// twice, so recorded-run determinism is itself an observable.
#[derive(Debug, Clone)]
pub struct ObservedServiceRun {
    /// The first recorded run's report (carries
    /// `service.telemetry: Some(..)`).
    pub report: ClusterReport,
    /// The first recorded run's deterministic timeline rendering
    /// (virtual-time spans and instants; wall-clock fields excluded).
    pub timeline: Vec<String>,
    /// Whether the second recorded run reproduced the first bit for bit:
    /// same deterministic timeline, same deterministic metrics snapshot,
    /// same service summary.
    pub reruns_match: bool,
}

/// What the replicated-serving execution of a scenario produced: the
/// trace is spread round-robin over the replicas (job *i* runs against
/// replica *i* mod N), pre-stored entries are published on replica 0
/// only, and one [`ReplicaSet::converge`] then anti-entropies
/// everything out under the scenario's [`NetPlan`] faults. The whole
/// execution is performed **twice** so nondeterminism is itself an
/// observable.
#[derive(Debug, Clone)]
pub struct ReplicatedRun {
    /// Per-replica model maps after convergence, in replica-id order.
    pub model_maps: Vec<BTreeMap<String, ModelDigest>>,
    /// Every locally-assigned publication stamp, over all replicas in
    /// id order (replica-local publication order within each).
    pub published: Vec<(String, Stamp)>,
    /// The convergence report.
    pub converge: ConvergeReport,
    /// Whether the second execution reproduced the first bit for bit
    /// (model maps, publications, convergence report).
    pub reruns_match: bool,
}

/// What the **in-loop** replicated service execution produced: the whole
/// arrival trace through [`ClusterScheduler::run_service_replicated`] —
/// gossip rounds interleaved with job events on the plan's cadence,
/// replica crash/restart from the fault plan's schedule, read-repair per
/// the plan's knob — with **no trailing `converge()`**: the run must end
/// already converged. The execution is performed twice so nondeterminism
/// is itself an observable, and then a batch [`ReplicaSet::converge`] is
/// run as the oracle — it must be a no-op (nothing left to apply, no map
/// changes) if in-loop anti-entropy really finished the job.
///
/// [`ClusterScheduler::run_service_replicated`]: rrl::ClusterScheduler::run_service_replicated
#[derive(Debug, Clone)]
pub struct InloopRun {
    /// The in-loop service report. `service.replication` carries the
    /// [`rrl::ReplicationSummary`] (gossip rounds, applied/superseded,
    /// read-repair counters, crash/restart counts, converged flags).
    pub report: ClusterReport,
    /// Per-replica model maps at the end of the run, **before** the
    /// batch oracle converge, in replica-id order.
    pub model_maps: Vec<BTreeMap<String, ModelDigest>>,
    /// Every locally-assigned publication stamp, over all replicas in id
    /// order (this survives crashes — the history is harness-side).
    pub published: Vec<(String, Stamp)>,
    /// Whether the trailing batch [`ReplicaSet::converge`] oracle was a
    /// no-op: no frame sent, zero entries applied or superseded, and
    /// every replica's model map unchanged.
    pub oracle_noop: bool,
    /// Whether the second execution reproduced the first bit for bit
    /// (per-job results, service summary, model maps, publications).
    pub reruns_match: bool,
}

fn run_error(loop_name: &'static str, error: RuntimeError) -> Violation {
    Violation::RunError {
        event_loop: loop_name,
        error: error.to_string(),
    }
}

/// Run `scenario` through both event loops and return both reports.
/// Errors (as a [`Violation`]) when either loop refuses the scenario —
/// which for a well-formed generated scenario is itself a finding.
pub fn run_scenario(scenario: &Scenario) -> Result<ScenarioRun, Violation> {
    let fleet = scenario.build_fleet();
    let strategy = scenario
        .online
        .map(|o| RandomSearch::new(o.search_pool, o.search_seed));

    // Probe-measure the stored entries once; every repository the
    // sweep and the service runs use is seeded from the same
    // measurements.
    let entries = scenario.stored_entries();

    let sequential = {
        let mut repo = scenario.build_repository_from(&entries);
        let mut sched = scheduler("sequential", scenario, &fleet, strategy.as_ref(), None)?;
        for job in &scenario.jobs {
            sched.submit(
                job.name.clone(),
                scenario.workloads[job.workload].bench.clone(),
            );
        }
        sched
            .run(&mut repo)
            .map_err(|e| run_error("sequential", e))?
    };

    let service = run_service_once(scenario, &fleet, &entries, strategy.as_ref(), None)?;

    // The observability invariant's raw material: the same service run
    // with a recorder attached, twice. Recording must not perturb
    // execution, and recorded virtual-time telemetry must be a pure
    // function of the scenario.
    let observed = {
        let registry = Registry::new();
        let report = run_service_once(
            scenario,
            &fleet,
            &entries,
            strategy.as_ref(),
            Some(&registry),
        )?;
        let rerun_registry = Registry::new();
        let rerun = run_service_once(
            scenario,
            &fleet,
            &entries,
            strategy.as_ref(),
            Some(&rerun_registry),
        )?;
        let timeline = registry.deterministic_timeline();
        let reruns_match = timeline == rerun_registry.deterministic_timeline()
            && registry.snapshot().deterministic() == rerun_registry.snapshot().deterministic()
            && bit_identical(&report.service, &rerun.service);
        ObservedServiceRun {
            report,
            timeline,
            reruns_match,
        }
    };

    let replicated = match &scenario.net {
        None => None,
        Some(plan) => {
            // Execute twice: replication is promised to be a pure
            // function of the scenario, and the rerun makes any
            // nondeterminism a first-class observable for the
            // invariant catalog.
            let first = run_replicated_once(scenario, plan, strategy.as_ref())?;
            let second = run_replicated_once(scenario, plan, strategy.as_ref())?;
            let reruns_match = first == second;
            let (model_maps, published, converge) = first;
            Some(ReplicatedRun {
                model_maps,
                published,
                converge,
                reruns_match,
            })
        }
    };

    let inloop = match &scenario.net {
        Some(plan) if plan.gossip_cadence_us > 0 => {
            // Twice, for the same reason as the batch replicated run:
            // in-loop anti-entropy is promised to be a pure function of
            // the scenario, gossip cadence and churn schedule included.
            let first = run_inloop_once(scenario, plan, strategy.as_ref())?;
            let second = run_inloop_once(scenario, plan, strategy.as_ref())?;
            let reruns_match = inloop_runs_match(&first, &second);
            let (report, model_maps, published, oracle_noop) = first;
            Some(InloopRun {
                report,
                model_maps,
                published,
                oracle_noop,
                reruns_match,
            })
        }
        _ => None,
    };

    Ok(ScenarioRun {
        sequential,
        service,
        replicated,
        inloop,
        observed,
    })
}

/// One discrete-event service execution of the scenario's trace, with an
/// optional telemetry recorder attached.
fn run_service_once(
    scenario: &Scenario,
    fleet: &Cluster,
    entries: &[StoredEntry],
    strategy: Option<&RandomSearch>,
    recorder: Option<&dyn Recorder>,
) -> Result<ClusterReport, Violation> {
    let mut repo = scenario.build_repository_from(entries);
    scheduler("service", scenario, fleet, strategy, recorder)?
        .run_service(arrivals(scenario), &mut repo, &ServiceConfig::default())
        .map_err(|e| run_error("service", e))
}

/// One full replicated execution: seed replica 0, run the round-robin
/// trace shares against their replicas, converge, and report the final
/// state of everything.
type ReplicatedState = (
    Vec<BTreeMap<String, ModelDigest>>,
    Vec<(String, Stamp)>,
    ConvergeReport,
);

fn run_replicated_once(
    scenario: &Scenario,
    plan: &NetPlan,
    strategy: Option<&RandomSearch>,
) -> Result<ReplicatedState, Violation> {
    let fleet = scenario.build_fleet();
    let (replicas, mut set) = seeded_replica_set(scenario, plan);

    // Job i runs against replica i mod N, through the ordinary
    // scheduler event loop (online calibrations publish *locally*, so
    // cold workloads whose jobs land on different replicas produce the
    // concurrent-publication conflicts reconciliation must resolve).
    for replica in 0..replicas {
        let mut sched = scheduler("replicated", scenario, &fleet, strategy, None)?;
        for (i, job) in scenario.jobs.iter().enumerate() {
            if i as u32 % replicas == replica {
                sched.submit(
                    job.name.clone(),
                    scenario.workloads[job.workload].bench.clone(),
                );
            }
        }
        let handle = set
            .replica_mut(replica)
            .map_err(|e| run_error("replicated", RuntimeError::Replication(e)))?;
        sched.run(handle).map_err(|e| run_error("replicated", e))?;
    }

    let converge = set
        .converge()
        .map_err(|e| run_error("replicated", RuntimeError::Replication(e)))?;
    let model_maps = (0..replicas)
        .map(|id| set.replica(id).expect("in range").model_map())
        .collect();
    let published = (0..replicas)
        .flat_map(|id| set.replica(id).expect("in range").published().to_vec())
        .collect();
    Ok((model_maps, published, converge))
}

/// One full in-loop execution: seed replica 0, drive the whole trace
/// through the replicated service loop (gossip interleaved with job
/// events, replica churn from the fault plan, read-repair per the
/// plan's knob), then run the batch `converge()` oracle and report
/// whether it had anything left to do.
type InloopState = (
    ClusterReport,
    Vec<BTreeMap<String, ModelDigest>>,
    Vec<(String, Stamp)>,
    bool,
);

fn run_inloop_once(
    scenario: &Scenario,
    plan: &NetPlan,
    strategy: Option<&RandomSearch>,
) -> Result<InloopState, Violation> {
    let fleet = scenario.build_fleet();
    // Stored entries start on replica 0 only, exactly like the batch
    // replicated run: spreading them is the gossip loop's job, this time
    // *while* the trace is being served.
    let (replicas, mut set) = seeded_replica_set(scenario, plan);
    let gossip = GossipConfig {
        cadence_us: plan.gossip_cadence_us,
        read_repair: plan.read_repair,
    };
    let report = scheduler("in-loop", scenario, &fleet, strategy, None)?
        .run_service_replicated(
            arrivals(scenario),
            &mut set,
            &gossip,
            &ServiceConfig::default(),
        )
        .map_err(|e| run_error("in-loop", e))?;

    // The batch oracle: if in-loop anti-entropy really quiesced the set,
    // a trailing `converge()` sends no frame, has nothing to apply and
    // changes no replica's map.
    let model_maps: Vec<_> = (0..replicas)
        .map(|id| set.replica(id).expect("in range").model_map())
        .collect();
    let totals_before = set.replication_totals();
    let sent_before = set.transport_stats().sent;
    set.converge()
        .map_err(|e| run_error("in-loop", RuntimeError::Replication(e)))?;
    let totals_after = set.replication_totals();
    let maps_after: Vec<_> = (0..replicas)
        .map(|id| set.replica(id).expect("in range").model_map())
        .collect();
    let oracle_noop = totals_before == totals_after
        && set.transport_stats().sent == sent_before
        && maps_after == model_maps;

    let published = (0..replicas)
        .flat_map(|id| set.replica(id).expect("in range").published().to_vec())
        .collect();
    Ok((report, model_maps, published, oracle_noop))
}

/// Bit-identity of two in-loop executions: service summary (replication
/// counters and percentiles included), per-job results, model maps and
/// publication histories.
fn inloop_runs_match(a: &InloopState, b: &InloopState) -> bool {
    let jobs_match = a.0.jobs.len() == b.0.jobs.len()
        && a.0.jobs.iter().zip(&b.0.jobs).all(|(x, y)| {
            x.job == y.job
                && x.node_id == y.node_id
                && bit_identical(&x.accounting, &y.accounting)
                && bit_identical(&x.savings, &y.savings)
                && x.published_version == y.published_version
                && x.rejection == y.rejection
                && x.aborted_at == y.aborted_at
        });
    jobs_match
        && bit_identical(&a.0.service, &b.0.service)
        && a.1 == b.1
        && a.2 == b.2
        && a.3 == b.3
}

/// The scheduler every run of the scenario drives: the fleet, online
/// tuning when the scenario attaches it, the fault plan when it injects
/// anything, and the recorder when one is given. `loop_name` labels a
/// refusal.
fn scheduler<'a>(
    loop_name: &'static str,
    scenario: &'a Scenario,
    fleet: &'a Cluster,
    strategy: Option<&'a RandomSearch>,
    recorder: Option<&'a dyn Recorder>,
) -> Result<ClusterScheduler<'a>, Violation> {
    let mut sched = ClusterScheduler::new(fleet).map_err(|e| run_error(loop_name, e))?;
    if let Some(strategy) = strategy {
        sched = sched.with_online(OnlineTuning {
            strategy,
            energy_model: None,
            config: OnlineConfig::default(),
        });
    }
    if !scenario.faults.is_empty() {
        sched = sched.with_faults(&scenario.faults);
    }
    if let Some(recorder) = recorder {
        sched = sched.with_recorder(recorder);
    }
    Ok(sched)
}

/// The scenario's jobs as a timestamped arrival trace.
fn arrivals(scenario: &Scenario) -> Vec<JobArrival> {
    scenario
        .jobs
        .iter()
        .map(|job| JobArrival {
            name: job.name.clone(),
            bench: scenario.workloads[job.workload].bench.clone(),
            arrival_s: job.arrival_s,
        })
        .collect()
}

/// The plan's replica set (at least two replicas) under its network
/// faults, with the pre-stored entries published on replica 0 only:
/// reaching the rest of the set is the sync layer's job. Returns the
/// replica count with the set.
fn seeded_replica_set<'p>(scenario: &Scenario, plan: &'p NetPlan) -> (u32, ReplicaSet<'p>) {
    let replicas = plan.replicas.max(2);
    let config = ReplicaConfig {
        capacity: scenario.repository.capacity,
        fallback: scenario.repository.fallback,
        ..ReplicaConfig::default()
    };
    let mut set = ReplicaSet::new(replicas, config).with_faults(plan);
    for entry in scenario.stored_entries() {
        set.replica_mut(0).expect("replica 0 exists").publish_model(
            &entry.bench,
            &entry.model,
            entry.expected.clone().unwrap_or_default(),
        );
    }
    (replicas, set)
}
