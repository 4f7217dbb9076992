//! In-loop replication: gossip while serving, crash/restart catch-up,
//! and read-repair — no batch `converge` pass anywhere.
//!
//! ```text
//! cargo run --release --example inloop_replication
//! ```
//!
//! Where `replicated_serving` syncs an idle replica set *between*
//! phases, this example keeps anti-entropy inside the service loop:
//! three replicas gossip on a virtual-time cadence while a staggered
//! six-job trace calibrates and publishes mid-run, replica 1 crashes
//! and restarts mid-trace (rejoining empty and catching up from its
//! peers), and the run ends with every replica holding the same
//! winners — verified against a batch `converge` oracle that must be a
//! no-op. A second act shows read-repair: a repository miss inside the
//! gossip cadence window is served by one targeted pull instead of the
//! cold calibration the read-repair-off run pays.

use dvfs_ufs_tuning::ptf::RandomSearch;
use dvfs_ufs_tuning::rrl::{
    ClusterReport, ClusterScheduler, FaultInjector, GossipConfig, JobArrival, ModelSource,
    OnlineConfig, OnlineTuning, ReplicaChurnEvent, ReplicaChurnKind, ReplicaConfig, ReplicaSet,
    ServiceConfig,
};
use dvfs_ufs_tuning::simnode::{Cluster, SystemConfig};
use testkit::toy_benchmark;

/// The crash/restart schedule: replica 1 goes down half a second in —
/// after the first publications — and rejoins 0.6 s later with an
/// empty repository to catch up.
struct Churn;

impl FaultInjector for Churn {
    fn replica_churn(&self) -> Vec<ReplicaChurnEvent> {
        vec![
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
        ]
    }
}

/// One in-loop replicated service run; returns the report and the
/// replica set as the run left it (already converged — that is the
/// point).
fn inloop_run(
    replicas: u32,
    gossip: &GossipConfig,
    churn: bool,
    trace: Vec<JobArrival>,
) -> Result<(ClusterReport, ReplicaSet<'static>), Box<dyn std::error::Error>> {
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
            fallback: Some(SystemConfig::new(24, 2400, 1700)),
            ..ReplicaConfig::default()
        },
    );
    let mut sched = ClusterScheduler::new(&cluster)?.with_online(online);
    if churn {
        sched = sched.with_faults(&Churn);
    }
    let report =
        sched.run_service_replicated(trace, &mut set, gossip, &ServiceConfig::default())?;
    Ok((report, set))
}

fn spread_trace(jobs: usize) -> Vec<JobArrival> {
    let a = toy_benchmark("inloop-a", 2e10, 40);
    let b = toy_benchmark("inloop-b", 1.4e10, 30);
    (0..jobs)
        .map(|i| JobArrival {
            name: format!("inloop-{i}"),
            bench: if i % 2 == 0 { a.clone() } else { b.clone() },
            arrival_s: 0.4 * i as f64,
        })
        .collect()
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // 1. Gossip while serving, through a replica crash and restart.
    let gossip = GossipConfig {
        cadence_us: 5_000,
        ..GossipConfig::default()
    };
    println!("running 6 jobs on 3 replicas, gossip every 5 ms of virtual time…");
    let (first, mut set) = inloop_run(3, &gossip, true, spread_trace(6))?;
    let replication = first
        .service
        .as_ref()
        .and_then(|s| s.replication)
        .expect("replicated run carries a replication summary");
    println!(
        "run converged in-loop: {} gossip rounds, {} entries applied, \
         {} crash / {} restart, net idle: {}",
        replication.gossip_rounds,
        replication.applied,
        replication.crashes,
        replication.restarts,
        replication.net_idle,
    );
    assert!(
        replication.converged,
        "converged during the run: {replication:?}"
    );
    assert!(replication.net_idle, "no in-flight frames at quiesce");
    assert!(replication.applied > 0, "publications gossiped mid-run");
    assert_eq!(replication.crashes, 1);
    assert_eq!(replication.restarts, 1);

    // Every replica — including the restarted one — holds the same
    // non-empty winner map, with no trailing converge pass.
    let map0 = set.replica(0)?.model_map();
    assert!(!map0.is_empty());
    for id in 1..3 {
        assert_eq!(set.replica(id)?.model_map(), map0, "replica {id} caught up");
    }
    println!(
        "all 3 replicas hold the same {} winners (replica 1 re-synced after its restart)",
        map0.len()
    );

    // Oracle: a batch converge over the already-quiesced set sends
    // nothing, applies nothing and changes nothing.
    let before = set.replication_totals();
    let sent = set.transport_stats().sent;
    set.converge()?;
    assert_eq!(
        set.replication_totals(),
        before,
        "batch converge was a no-op"
    );
    assert_eq!(
        set.transport_stats().sent,
        sent,
        "batch converge sent nothing"
    );
    assert_eq!(set.replica(0)?.model_map(), map0);
    println!("batch-converge oracle: no-op, as required");

    // Determinism: the same trace and churn replayed is bit-identical.
    let (second, _) = inloop_run(3, &gossip, true, spread_trace(6))?;
    assert_eq!(first.service, second.service, "rerun summary identical");
    for (a, b) in first.jobs.iter().zip(&second.jobs) {
        assert_eq!(a.accounting, b.accounting, "{}: rerun accounting", a.job);
        assert_eq!(a.savings, b.savings, "{}: rerun savings", a.job);
    }
    println!("rerun is bit-identical — crash, catch-up and all");

    // 2. Read-repair vs cold calibration on a 2-replica set. Probe the
    //    single-job makespan, then land a second job one millisecond
    //    after the publication — inside the 10 ms cadence window, so
    //    its home replica does not hold the entry yet.
    let gossip = GossipConfig {
        cadence_us: 10_000,
        ..GossipConfig::default()
    };
    let bench = toy_benchmark("repair-app", 2e10, 40);
    let probe = vec![JobArrival {
        name: "rr-0".into(),
        bench: bench.clone(),
        arrival_s: 0.0,
    }];
    let (probe_report, _) = inloop_run(2, &gossip, false, probe)?;
    let makespan = probe_report.service.as_ref().unwrap().makespan_s;
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

    let (with_repair, _) = inloop_run(2, &gossip, false, trace())?;
    let repaired = with_repair
        .service
        .as_ref()
        .and_then(|s| s.replication)
        .unwrap();
    assert!(repaired.repair_released >= 1, "{repaired:?}");
    assert_eq!(with_repair.online_summary().calibrations, 1);
    assert_eq!(
        with_repair.jobs[1].accounting.source,
        ModelSource::Replicated,
        "the miss was served by a targeted pull"
    );

    let cold_gossip = GossipConfig {
        read_repair: false,
        ..gossip
    };
    let (cold, _) = inloop_run(2, &cold_gossip, false, trace())?;
    assert_eq!(
        cold.online_summary().calibrations,
        2,
        "read-repair off: the same miss cold-calibrates"
    );
    println!(
        "\nread-repair: 1 calibration + {} targeted pull(s); with it off, \
         the identical trace pays {} calibrations",
        repaired.repair_pulls,
        cold.online_summary().calibrations,
    );
    println!("read-repair avoided 1 cold calibration");
    Ok(())
}
