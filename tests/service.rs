//! Integration tests for the discrete-event cluster service: the
//! equivalence `run_service` ≡ `run` on zero-interarrival no-churn
//! traces, the online
//! admission gate (including under LRU eviction), the churn-shape guarantees
//! (drained/failed nodes' jobs are re-placed, never dropped; failures
//! truncate running jobs at a phase boundary), and in-loop replication
//! (gossip while serving, replica crash/restart catch-up, read-repair).

use dvfs_ufs_tuning::kernels::BenchmarkSpec;
use dvfs_ufs_tuning::ptf::{RandomSearch, TuningModel};
use dvfs_ufs_tuning::rrl::{
    ChurnEvent, ChurnKind, ClusterReport, ClusterScheduler, FaultInjector, GossipConfig,
    JobArrival, ModelSource, NetError, OnlineConfig, OnlineTuning, ReplicaChurnEvent,
    ReplicaChurnKind, ReplicaConfig, ReplicaSet, RuntimeError, ServiceConfig,
    TuningModelRepository,
};
use dvfs_ufs_tuning::simnode::{Cluster, SystemConfig};
use testkit::{taurus_fallback, toy_benchmark};

fn toy_bench(name: &str, instr: f64, iterations: u32) -> BenchmarkSpec {
    toy_benchmark(name, instr, iterations)
}

/// A zero-interarrival trace over the same (name, bench) pairs a submit
/// loop would enqueue.
fn instant_trace(jobs: &[(String, BenchmarkSpec)]) -> Vec<JobArrival> {
    jobs.iter()
        .map(|(name, bench)| JobArrival {
            name: name.clone(),
            bench: bench.clone(),
            arrival_s: 0.0,
        })
        .collect()
}

/// Every per-job field that must be bit-identical between the service and
/// a sweep loop, plus the submission-ordered floating-point totals.
fn assert_reports_bit_identical(service: &ClusterReport, sweep: &ClusterReport, tag: &str) {
    assert_eq!(service.jobs.len(), sweep.jobs.len(), "{tag}");
    for (a, b) in service.jobs.iter().zip(&sweep.jobs) {
        assert_eq!(a.job, b.job, "{tag}: submission order");
        assert_eq!(a.node_id, b.node_id, "{tag}: placement of {}", a.job);
        assert_eq!(a.accounting.record, b.accounting.record, "{tag}: {}", a.job);
        assert_eq!(
            a.accounting.regions, b.accounting.regions,
            "{tag}: {}",
            a.job
        );
        assert_eq!(a.accounting.switches, b.accounting.switches, "{tag}");
        assert_eq!(a.accounting.source, b.accounting.source, "{tag}: {}", a.job);
        assert_eq!(a.accounting.online, b.accounting.online, "{tag}: {}", a.job);
        assert_eq!(a.default, b.default, "{tag}: baseline");
        assert_eq!(a.savings, b.savings, "{tag}: savings");
        assert_eq!(a.published_version, b.published_version, "{tag}: {}", a.job);
        assert_eq!(a.drift, b.drift, "{tag}: drift events");
        assert_eq!(a.aborted_at, b.aborted_at, "{tag}: {}", a.job);
    }
    assert_eq!(service.total_tuned, sweep.total_tuned, "{tag}");
    assert_eq!(service.total_default, sweep.total_default, "{tag}");
    assert_eq!(service.aggregate, sweep.aggregate, "{tag}");
    assert_eq!(service.nodes_used, sweep.nodes_used, "{tag}");
    assert_eq!(service.repository.hits, sweep.repository.hits, "{tag}");
    assert_eq!(service.repository.misses, sweep.repository.misses, "{tag}");
    assert_eq!(
        service.repository.fallbacks, sweep.repository.fallbacks,
        "{tag}"
    );
}

/// The correctness anchor: for 3 cluster seeds × trace sizes {16, 256},
/// a zero-interarrival no-churn trace produces per-job results
/// bit-identical to the sweep loop over a local repository. The
/// discrete-event kernel changes *when* things run, never *what* they
/// compute.
#[test]
fn service_bit_identical_to_both_sweep_loops() {
    let fallback = taurus_fallback();
    let tuned = toy_bench("tuned-toy", 2e10, 12);
    let untuned = toy_bench("untuned-toy", 1.2e10, 9);
    let toy_model = TuningModel::new(
        "tuned-toy",
        &[("omp parallel:1".into(), SystemConfig::new(24, 2500, 1500))],
        SystemConfig::new(24, 2500, 1500),
    );

    for (round, seed) in [0x5EED_u64, 0xBEEF, 0xC0FFEE].into_iter().enumerate() {
        let cluster = Cluster::new(4 + round as u32, seed);
        for jobs in [16usize, 256] {
            let queue: Vec<(String, BenchmarkSpec)> = (0..jobs)
                .map(|i| {
                    let bench = if i % 3 == 2 { &untuned } else { &tuned };
                    (format!("svc{seed:x}-{i}"), bench.clone())
                })
                .collect();

            let mut repo = TuningModelRepository::new().with_fallback(fallback);
            repo.insert(&tuned, &toy_model);
            let mut seq = ClusterScheduler::new(&cluster).unwrap();
            for (name, bench) in &queue {
                seq.submit(name.clone(), bench.clone());
            }
            let sequential = seq.run(&mut repo).unwrap();

            let mut svc_repo = TuningModelRepository::new().with_fallback(fallback);
            svc_repo.insert(&tuned, &toy_model);
            let mut svc = ClusterScheduler::new(&cluster).unwrap();
            let service = svc
                .run_service(
                    instant_trace(&queue),
                    &mut svc_repo,
                    &ServiceConfig::default(),
                )
                .unwrap();

            let tag = format!("seed={seed:#x} jobs={jobs}");
            assert_reports_bit_identical(&service, &sequential, &format!("{tag} vs run"));

            let summary = service.service.as_ref().expect("service summary present");
            assert!(summary.quiesced && summary.monotone, "{tag}: event core");
            assert!(summary.makespan_s > 0.0, "{tag}");
            assert!(summary.events as usize > jobs, "{tag}: events dispatched");
            // The formatted report surfaces the percentile lines.
            let text = service.format_report();
            assert!(text.contains("latency p50/p95/p99"), "{text}");
        }
    }
}

/// The same equivalence through the online-adaptation admission gate:
/// calibration leaders, parked same-workload waiters released at the
/// leader's finish, and published-model hits all land identically.
#[test]
fn service_online_admission_bit_identical() {
    let strategy = RandomSearch::new(12, 3);
    let cold = toy_bench("cold-toy", 2.5e10, 40);
    let stored = toy_bench("stored-toy", 1.5e10, 10);
    let stored_model = TuningModel::new(
        "stored-toy",
        &[("omp parallel:1".into(), SystemConfig::new(24, 2500, 1600))],
        SystemConfig::new(24, 2500, 1600),
    );
    let online = OnlineTuning {
        strategy: &strategy,
        energy_model: None,
        config: OnlineConfig::default(),
    };

    for seed in [0x5EED_u64, 0xBEEF, 0xC0FFEE] {
        let cluster = Cluster::new(4, seed);
        let queue: Vec<(String, BenchmarkSpec)> = (0..16)
            .map(|i| {
                let bench = if i % 4 == 1 { &stored } else { &cold };
                (format!("osvc{seed:x}-{i}"), bench.clone())
            })
            .collect();

        let mut repo = TuningModelRepository::new();
        repo.insert(&stored, &stored_model);
        let mut seq = ClusterScheduler::new(&cluster).unwrap().with_online(online);
        for (name, bench) in &queue {
            seq.submit(name.clone(), bench.clone());
        }
        let sequential = seq.run(&mut repo).unwrap();

        let mut svc_repo = TuningModelRepository::new();
        svc_repo.insert(&stored, &stored_model);
        let mut svc = ClusterScheduler::new(&cluster).unwrap().with_online(online);
        let service = svc
            .run_service(
                instant_trace(&queue),
                &mut svc_repo,
                &ServiceConfig::default(),
            )
            .unwrap();

        let tag = format!("online seed={seed:#x}");
        assert_reports_bit_identical(&service, &sequential, &tag);
        // Warm-up shape survives the kernel: one calibration for the
        // cold workload, everyone else hits or monitors.
        assert_eq!(service.online_summary().calibrations, 1, "{tag}");
        assert_eq!(service.repository.misses, 1, "{tag}");
    }
}

/// Only the job that leads a calibration settles it. A drift monitor
/// still running when its workload's entry is evicted must not release
/// the jobs parked behind the workload's re-calibration: here monitor A
/// of `stored-toy` outlives its entry (evicted by cold X's publication
/// at capacity 1), D misses and leads a re-calibration, E parks behind
/// D, and A then finishes while D is still calibrating. E must wait for
/// D's model and hit it, not be released to the fallback by A.
#[test]
fn monitor_finish_does_not_settle_a_calibration_it_does_not_lead() {
    let strategy = RandomSearch::new(12, 3);
    let stored = toy_bench("stored-toy", 1.5e10, 200);
    let cold = toy_bench("cold-toy", 2.5e10, 40);
    let stored_model = TuningModel::new(
        "stored-toy",
        &[("omp parallel:1".into(), SystemConfig::new(24, 2500, 1600))],
        SystemConfig::new(24, 2500, 1600),
    );
    let mut repo = TuningModelRepository::new()
        .with_capacity(1)
        .with_fallback(taurus_fallback());
    repo.insert(&stored, &stored_model);
    let cluster = Cluster::new(4, 0x5EED);
    let mut sched = ClusterScheduler::new(&cluster)
        .unwrap()
        .with_online(OnlineTuning {
            strategy: &strategy,
            energy_model: None,
            config: OnlineConfig::default(),
        });
    let arrival = |name: &str, bench: &BenchmarkSpec, arrival_s: f64| JobArrival {
        name: name.into(),
        bench: bench.clone(),
        arrival_s,
    };
    let trace = vec![
        arrival("A", &stored, 0.0),
        arrival("X", &cold, 0.0),
        arrival("D", &stored, 16.6),
        arrival("E", &stored, 17.6),
    ];
    let report = sched
        .run_service(trace, &mut repo, &ServiceConfig::default())
        .unwrap();

    let [a, x, d, e] = &report.jobs[..] else {
        panic!("four jobs expected");
    };
    assert_eq!(a.accounting.source, ModelSource::Repository, "A monitors");
    assert_eq!(x.published_version, Some(1), "X publishes and evicts");
    assert!(report.repository.evictions > 0);
    assert_eq!(
        d.published_version,
        Some(2),
        "D re-calibrates and publishes"
    );
    assert_eq!(
        e.accounting.source,
        ModelSource::Online,
        "E waits for D's model instead of falling back"
    );
    assert_eq!(report.repository.fallbacks, 0);
}

/// A churn schedule for the shape tests.
struct ChurnPlan(Vec<ChurnEvent>);

impl FaultInjector for ChurnPlan {
    fn node_churn(&self) -> Vec<ChurnEvent> {
        self.0.clone()
    }
}

/// Draining a node re-places its queued jobs onto the remaining nodes —
/// nothing is dropped, nothing lands on the drained node afterwards.
#[test]
fn drain_replaces_queued_jobs_and_drops_nothing() {
    let fallback = taurus_fallback();
    let bench = toy_bench("drain-toy", 2e10, 8);
    // Node 0 drains before any job arrives: every arrival must avoid it.
    let churn = ChurnPlan(vec![ChurnEvent {
        at_s: 0.0,
        node: 0,
        kind: ChurnKind::Drain,
    }]);
    let cluster = Cluster::exact(3);
    let mut sched = ClusterScheduler::new(&cluster).unwrap().with_faults(&churn);
    let trace: Vec<JobArrival> = (0..12)
        .map(|i| JobArrival {
            name: format!("drain-{i}"),
            bench: bench.clone(),
            arrival_s: 0.001 + 0.0005 * i as f64,
        })
        .collect();
    let mut repo = TuningModelRepository::new().with_fallback(fallback);
    let report = sched
        .run_service(trace, &mut repo, &ServiceConfig { slots_per_node: 1 })
        .unwrap();

    assert_eq!(report.jobs.len(), 12, "no job dropped");
    // Round-robin in submission order, skipping the drained node.
    let nodes: Vec<u32> = report.jobs.iter().map(|j| j.node_id).collect();
    assert_eq!(nodes, [1, 2].repeat(6));
    for job in &report.jobs {
        assert_ne!(job.node_id, 0, "{}: placed on the drained node", job.job);
        assert!(
            job.aborted_at.is_none(),
            "{}: drain must not abort",
            job.job
        );
    }
    let summary = report.service.as_ref().unwrap();
    assert_eq!(summary.churn_events, 1);
    assert!(summary.quiesced && summary.monotone);
    // One slot per node on two surviving nodes: queues formed and waited.
    assert!(summary.queue_depth.max >= 1.0, "{summary:?}");
    assert!(summary.queue_wait_s.max > 0.0, "{summary:?}");
    let text = report.format_report();
    assert!(text.contains("churn: 1 events"), "{text}");
}

/// Failing a node truncates its *running* jobs at the next phase boundary
/// (reported as aborted) and re-places its queued jobs; a later join lets
/// the node serve again.
#[test]
fn fail_truncates_running_jobs_and_join_restores_the_node() {
    let fallback = taurus_fallback();
    // Long jobs so the failure lands mid-run (each phase is ~0.1 s of
    // virtual time, 40 iterations ≈ 4 s).
    let bench = toy_bench("fail-toy", 2e10, 40);
    let churn = ChurnPlan(vec![
        ChurnEvent {
            at_s: 0.5,
            node: 0,
            kind: ChurnKind::Fail,
        },
        ChurnEvent {
            at_s: 1.0,
            node: 0,
            kind: ChurnKind::Join,
        },
    ]);
    let cluster = Cluster::exact(2);
    let mut sched = ClusterScheduler::new(&cluster).unwrap().with_faults(&churn);
    // Two jobs start immediately (one per node), two queue behind them.
    let trace: Vec<JobArrival> = (0..4)
        .map(|i| JobArrival {
            name: format!("fail-{i}"),
            bench: bench.clone(),
            arrival_s: 0.0,
        })
        .collect();
    let mut repo = TuningModelRepository::new().with_fallback(fallback);
    let report = sched
        .run_service(trace, &mut repo, &ServiceConfig { slots_per_node: 1 })
        .unwrap();

    assert_eq!(report.jobs.len(), 4, "no job dropped");
    let summary = report.service.as_ref().unwrap();
    assert_eq!(summary.truncated_jobs, 1, "{summary:?}");
    // The job that was running on node 0 at t=0.5 aborted early.
    let aborted: Vec<_> = report
        .jobs
        .iter()
        .filter(|j| j.aborted_at.is_some())
        .collect();
    assert_eq!(aborted.len(), 1, "{summary:?}");
    assert_eq!(aborted[0].node_id, 0);
    assert!(aborted[0].aborted_at.unwrap() < 40);
    // Its queued successor moved off the failed node before the re-join.
    assert!(summary.replaced_jobs >= 1, "{summary:?}");
    assert!(summary.quiesced && summary.monotone);
}

/// A replica churn schedule for the in-loop replication tests.
struct ReplicaChurnPlan(Vec<ReplicaChurnEvent>);

impl FaultInjector for ReplicaChurnPlan {
    fn replica_churn(&self) -> Vec<ReplicaChurnEvent> {
        self.0.clone()
    }
}

/// One in-loop replicated run: online tuning over `replicas` replicas,
/// spread arrivals so publications land mid-run.
fn inloop_run(
    replicas: u32,
    gossip: &GossipConfig,
    faults: Option<&dyn FaultInjector>,
    trace: Vec<JobArrival>,
) -> (ClusterReport, ReplicaSet<'static>) {
    let strategy = RandomSearch::new(12, 3);
    let online = OnlineTuning {
        strategy: &strategy,
        energy_model: None,
        config: OnlineConfig::default(),
    };
    let cluster = Cluster::new(3, 0x1009);
    let mut set = ReplicaSet::new(
        replicas,
        ReplicaConfig {
            fallback: Some(taurus_fallback()),
            ..ReplicaConfig::default()
        },
    );
    let mut sched = ClusterScheduler::new(&cluster).unwrap().with_online(online);
    if let Some(faults) = faults {
        sched = sched.with_faults(faults);
    }
    let report = sched
        .run_service_replicated(trace, &mut set, gossip, &ServiceConfig::default())
        .unwrap();
    (report, set)
}

fn spread_trace(jobs: usize) -> Vec<JobArrival> {
    // Two cold workloads whose calibrations publish mid-run, staggered
    // so gossip interleaves with serving.
    let a = toy_bench("inloop-a", 2e10, 40);
    let b = toy_bench("inloop-b", 1.4e10, 30);
    (0..jobs)
        .map(|i| JobArrival {
            name: format!("inloop-{i}"),
            bench: if i % 2 == 0 { a.clone() } else { b.clone() },
            arrival_s: 0.4 * i as f64,
        })
        .collect()
}

/// The tentpole invariant: an in-loop run converges *during* the run
/// (no trailing `converge`), a batch `converge` afterwards is a no-op
/// oracle check, and reruns are bit-identical.
#[test]
fn inloop_gossip_converges_while_serving_and_matches_the_batch_oracle() {
    let gossip = GossipConfig {
        cadence_us: 5_000,
        ..GossipConfig::default()
    };
    let (first, mut set) = inloop_run(3, &gossip, None, spread_trace(6));
    let summary = first.service.as_ref().unwrap();
    let replication = summary.replication.expect("replicated run summary");
    assert!(replication.converged, "{replication:?}");
    assert!(replication.net_idle, "{replication:?}");
    assert!(replication.gossip_rounds > 0, "{replication:?}");
    assert!(replication.applied > 0, "publications gossiped mid-run");
    assert_eq!(replication.replicas, 3);
    assert!(summary.quiesced && summary.monotone);

    // Every replica already holds the same non-empty winner map.
    let map0 = set.replica(0).unwrap().model_map();
    assert!(!map0.is_empty());
    for id in 1..3 {
        assert_eq!(set.replica(id).unwrap().model_map(), map0, "replica {id}");
    }

    // Batch oracle: a converge pass over the already-converged set
    // applies nothing and changes no map.
    let before = set.replication_totals();
    set.converge().expect("post-run converge is clean");
    assert_eq!(set.replication_totals(), before, "converge was a no-op");
    assert_eq!(set.replica(0).unwrap().model_map(), map0);

    // Rerun: bit-identical report and replication summary.
    let (second, set2) = inloop_run(3, &gossip, None, spread_trace(6));
    assert_reports_bit_identical(&first, &second, "in-loop rerun");
    assert_eq!(
        second.service.as_ref().unwrap().replication,
        Some(replication),
        "replication counters are deterministic"
    );
    assert_eq!(set2.replica(0).unwrap().model_map(), map0);

    let text = first.format_report();
    assert!(text.contains("replication: 3 replicas"), "{text}");
}

/// Regression: a batch `converge` after an in-loop run has nothing to
/// do. The run leaves the set quiesced, so `converge` runs no gossip
/// round, sends no frame, applies nothing, and leaves the set quiesced.
#[test]
fn converge_after_an_inloop_run_sends_nothing_and_stays_quiesced() {
    let churn = ReplicaChurnPlan(vec![
        ReplicaChurnEvent {
            at_s: 0.5,
            replica: 1,
            kind: ReplicaChurnKind::Crash,
        },
        ReplicaChurnEvent {
            at_s: 1.1,
            replica: 1,
            kind: ReplicaChurnKind::Restart,
        },
    ]);
    let (_, mut set) = inloop_run(3, &GossipConfig::default(), Some(&churn), spread_trace(6));
    assert!(set.quiesced(), "the in-loop run quiesced the set");

    let sent = set.transport_stats().sent;
    let totals = set.replication_totals();
    let report = set.converge().expect("converge over a quiesced set");
    assert_eq!(report.ticks, 0, "no gossip round ran");
    assert_eq!(set.transport_stats().sent, sent, "no frame sent");
    assert_eq!(set.replication_totals(), totals, "nothing applied");
    assert!(
        set.quiesced(),
        "the trailing converge left the set quiesced"
    );
}

/// A partition that never heals between replicas 0 and 1.
struct Wall;

impl FaultInjector for Wall {
    fn partitioned(&self, _tick: u64, from: u32, to: u32) -> bool {
        (from.min(to), from.max(to)) == (0, 1)
    }
}

/// The set's `ReplicaConfig::max_ticks` bounds an in-loop run's gossip
/// rounds as it bounds a batch `converge`: a set that can never quiesce
/// ends the run with a `ConvergeTimeout` naming the stalled link.
#[test]
fn inloop_run_that_never_quiesces_times_out_after_max_ticks_rounds() {
    let cluster = Cluster::new(2, 0x1009);
    let mut set = ReplicaSet::new(
        2,
        ReplicaConfig {
            fallback: Some(taurus_fallback()),
            max_ticks: 64,
            ..ReplicaConfig::default()
        },
    )
    .with_faults(&Wall);
    let err = ClusterScheduler::new(&cluster)
        .unwrap()
        .run_service_replicated(
            spread_trace(2),
            &mut set,
            &GossipConfig::default(),
            &ServiceConfig::default(),
        )
        .expect_err("no path between the replicas");
    let RuntimeError::Replication(NetError::ConvergeTimeout { ticks, culprit }) = err else {
        panic!("expected a converge timeout, got {err:?}");
    };
    assert_eq!(ticks, 64, "one transport tick per gossip round");
    assert_eq!(culprit.map(|c| (c.replica, c.peer)), Some((0, 1)));
}

/// Replica crash/restart mid-run: the restarted replica rejoins empty
/// and catches up from its peers before the run ends, deterministically.
#[test]
fn inloop_replica_crash_and_restart_catches_up_before_the_run_ends() {
    let churn = ReplicaChurnPlan(vec![
        ReplicaChurnEvent {
            at_s: 0.5,
            replica: 1,
            kind: ReplicaChurnKind::Crash,
        },
        ReplicaChurnEvent {
            at_s: 1.1,
            replica: 1,
            kind: ReplicaChurnKind::Restart,
        },
    ]);
    let gossip = GossipConfig::default();
    let (first, set) = inloop_run(3, &gossip, Some(&churn), spread_trace(6));
    let replication = first.service.as_ref().unwrap().replication.unwrap();
    assert_eq!(replication.crashes, 1, "{replication:?}");
    assert_eq!(replication.restarts, 1, "{replication:?}");
    assert!(replication.converged, "{replication:?}");
    assert!(replication.net_idle, "{replication:?}");
    assert!(!set.is_down(1));

    // The restarted replica holds the fleet's winners again.
    let map0 = set.replica(0).unwrap().model_map();
    assert!(!map0.is_empty());
    assert_eq!(set.replica(1).unwrap().model_map(), map0, "caught up");
    assert_eq!(set.replica(2).unwrap().model_map(), map0);

    let (second, _) = inloop_run(3, &gossip, Some(&churn), spread_trace(6));
    assert_reports_bit_identical(&first, &second, "churned rerun");
    assert_eq!(
        second.service.as_ref().unwrap().replication,
        Some(replication)
    );
}

/// Read-repair: a miss that an established peer can serve parks the job
/// behind a targeted pull instead of running a second cold calibration.
/// The same trace with read-repair off calibrates twice.
#[test]
fn read_repair_avoids_a_second_cold_calibration() {
    let bench = toy_bench("repair-toy", 2e10, 40);
    let gossip = GossipConfig {
        cadence_us: 10_000,
        ..GossipConfig::default()
    };
    // Probe: when does the first job (and its publication) finish?
    let probe = vec![JobArrival {
        name: "rr-0".into(),
        bench: bench.clone(),
        arrival_s: 0.0,
    }];
    let (probe_report, _) = inloop_run(2, &gossip, None, probe);
    let makespan = probe_report.service.as_ref().unwrap().makespan_s;

    // The second job lands on node 1 (home replica 1) one millisecond
    // after the publication on replica 0 — inside the gossip cadence
    // window, so replica 1 does not hold the entry yet.
    let trace = || {
        vec![
            JobArrival {
                name: "rr-0".into(),
                bench: bench.clone(),
                arrival_s: 0.0,
            },
            JobArrival {
                name: "rr-1".into(),
                bench: bench.clone(),
                arrival_s: makespan + 0.001,
            },
        ]
    };

    let (with_repair, _) = inloop_run(2, &gossip, None, trace());
    let replication = with_repair.service.as_ref().unwrap().replication.unwrap();
    assert!(replication.repair_pulls >= 1, "{replication:?}");
    assert_eq!(replication.repair_released, 1, "{replication:?}");
    assert_eq!(replication.repair_abandoned, 0, "{replication:?}");
    assert_eq!(
        with_repair.online_summary().calibrations,
        1,
        "the repaired job never cold-calibrated"
    );
    assert_eq!(
        with_repair.jobs[1].accounting.source,
        ModelSource::Replicated,
        "the second job served the pulled entry"
    );
    assert!(replication.converged && replication.net_idle);

    let off = GossipConfig {
        read_repair: false,
        ..gossip
    };
    let (without_repair, _) = inloop_run(2, &off, None, trace());
    let replication = without_repair
        .service
        .as_ref()
        .unwrap()
        .replication
        .unwrap();
    assert_eq!(replication.repair_pulls, 0, "{replication:?}");
    assert_eq!(
        without_repair.online_summary().calibrations,
        2,
        "without read-repair the same miss cold-calibrates"
    );
}

/// Serving never draws PMU noise: sessions and their default-run
/// baselines execute regions without deriving counters, so after a
/// service run over a noisy `Cluster::new` fleet each served node's
/// counter-noise stream is where a fresh node with the same `(id, seed)`
/// starts, and a design-time measurement on it reads the same rates.
#[test]
fn serving_leaves_the_nodes_counter_noise_stream_alone() {
    use dvfs_ufs_tuning::ptf::phase_counter_rates;
    use dvfs_ufs_tuning::simnode::Node;

    let seed = 0x5EED;
    let cluster = Cluster::new(2, seed);
    let tuned = toy_bench("tuned-toy", 2e10, 4);
    let model = TuningModel::new(
        "tuned-toy",
        &[("omp parallel:1".into(), SystemConfig::new(24, 2400, 1700))],
        SystemConfig::new(24, 2400, 1700),
    );
    let mut repo = TuningModelRepository::new().with_fallback(taurus_fallback());
    repo.insert(&tuned, &model);
    let trace: Vec<JobArrival> = (0..8)
        .map(|i| JobArrival {
            name: format!("noise-{i}"),
            bench: tuned.clone(),
            arrival_s: 0.25 * i as f64,
        })
        .collect();
    let report = ClusterScheduler::new(&cluster)
        .unwrap()
        .run_service(trace, &mut repo, &ServiceConfig::default())
        .unwrap();
    assert_eq!(report.nodes_used, 2, "both nodes served");

    let analysis = SystemConfig::calibration();
    for node in cluster.iter() {
        assert!(node.counter_noise_sd() > 0.0);
        let fresh = Node::new(node.id(), seed);
        assert_eq!(
            phase_counter_rates(&tuned, node, analysis),
            phase_counter_rates(&tuned, &fresh, analysis),
            "node {} after serving",
            node.id()
        );
    }
}

/// Drift injector for the service golden: every third job sees its
/// regions' energy 60 % above the published expectation from phase 4 on.
struct DriftEveryThird;

impl FaultInjector for DriftEveryThird {
    fn drift_scale(&self, job: &str, _region: &str, iteration: u32) -> f64 {
        let idx: usize = job.trim_start_matches("gold-").parse().unwrap_or(0);
        if idx % 3 == 2 && iteration >= 4 {
            1.6
        } else {
            1.0
        }
    }
}

/// Golden FNV-1a hash of a whole service report (its `Debug` rendering,
/// which prints every float exactly) over a trace of the five test-set
/// benchmarks on a noisy fleet: cold workloads calibrate through the
/// counter-rate probe, a two-entry repository evicts under LRU pressure
/// and forces re-calibrations, and injected drift re-calibrates regions
/// of monitored jobs. Any change to what serving computes moves it.
#[test]
fn service_report_is_bit_identical_to_golden() {
    let strategy = RandomSearch::new(8, 7);
    let benches = dvfs_ufs_tuning::kernels::test_set();
    let order = [0, 1, 0, 1, 0, 2, 2, 1, 2, 3, 3, 0, 3, 4, 4, 2, 4, 1, 4, 0];
    let trace: Vec<JobArrival> = order
        .iter()
        .enumerate()
        .map(|(i, &b)| JobArrival {
            name: format!("gold-{i}"),
            bench: benches[b].clone(),
            arrival_s: 40.0 * i as f64,
        })
        .collect();
    let mut repo = TuningModelRepository::new()
        .with_capacity(2)
        .with_fallback(taurus_fallback());
    let cluster = Cluster::new(3, 0x5EED_2019);
    let report = ClusterScheduler::new(&cluster)
        .unwrap()
        .with_online(OnlineTuning {
            strategy: &strategy,
            energy_model: None,
            config: OnlineConfig::default(),
        })
        .with_faults(&DriftEveryThird)
        .run_service(trace, &mut repo, &ServiceConfig { slots_per_node: 1 })
        .unwrap();

    let online = report.online_summary();
    assert!(online.calibrations > 1, "{online:?}");
    assert!(online.drift_events > 0, "{online:?}");
    assert!(report.repository.evictions > 0, "{:?}", report.repository);
    let digest = dvfs_ufs_tuning::kernels::fnv1a(format!("{report:?}").as_bytes());
    assert_eq!(digest, 0x8f01_4e14_94c0_25e5, "service report golden");
    let text = dvfs_ufs_tuning::kernels::fnv1a(report.format_report().as_bytes());
    assert_eq!(
        text, 0x01d0_d9cb_8d2e_592e,
        "formatted service report golden"
    );
}
