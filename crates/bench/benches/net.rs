//! Replication-layer hot paths: the wire format, one anti-entropy
//! convergence of a populated replica set, the local publish path, and
//! the **in-loop** service runs — gossip interleaved with job events,
//! and the read-repair-vs-cold-calibration pair.
//!
//! The batch sync layer runs between jobs (convergence is not on the
//! serve path), but its cost bounds how often a deployment can afford
//! to reconcile; the frame codec additionally sits under every message.
//! The in-loop entries price the serving-while-syncing regime instead:
//! whole service runs whose publications must converge before the run
//! ends, and a repository miss served by one targeted pull versus the
//! cold calibration it avoids. CI archives the numbers as
//! `BENCH_net.json` via the harness's `CRITERION_SUMMARY_JSON` hook.

use criterion::{black_box, criterion_group, criterion_main, Criterion};

use kernels::{toy_benchmark, BenchmarkSpec, ProgrammingModel, RegionSpec, Suite};
use ptf::{RandomSearch, TuningModel};
use rrl::net::{decode, encode, Message, ReplicaConfig, ReplicaSet, ReplicatedModel, Stamp};
use rrl::{ClusterScheduler, GossipConfig, JobArrival, OnlineConfig, OnlineTuning, ServiceConfig};
use simnode::{Cluster, RegionCharacter, SystemConfig};

const REPLICAS: u32 = 4;
const MODELS: usize = 32;

fn workload(i: usize) -> BenchmarkSpec {
    BenchmarkSpec::new(
        format!("app-{i:02}"),
        Suite::Npb,
        ProgrammingModel::OpenMp,
        10,
        vec![RegionSpec::new(
            "omp parallel:1",
            RegionCharacter::builder(1.5e10 + i as f64 * 1e8)
                .dram_bytes(1.1e10)
                .build(),
        )],
    )
}

fn model(bench: &BenchmarkSpec) -> TuningModel {
    let cfg = SystemConfig::new(24, 2100 + (bench.name.len() as u32 % 5) * 100, 1900);
    TuningModel::new(&bench.name, &[("omp parallel:1".into(), cfg)], cfg)
}

/// Encode + decode of the largest message kind: a model push carrying a
/// real serialized tuning model.
fn bench_frame_roundtrip(c: &mut Criterion) {
    let bench = workload(0);
    let entry = ReplicatedModel {
        application: bench.name.clone(),
        fingerprint: bench.fingerprint(),
        model_json: model(&bench).to_json(),
        expected: vec![("omp parallel:1".into(), 420.0)],
        stamp: Stamp {
            version: 1,
            publisher: 0,
        },
    };
    let message = Message::PushModels {
        entries: vec![entry],
    };
    let mut group = c.benchmark_group("net/frame");
    group.bench_function("roundtrip_push_models", |b| {
        b.iter(|| {
            let bytes = encode(black_box(&message));
            black_box(decode(&bytes).unwrap())
        })
    });
    group.finish();
}

/// One full anti-entropy convergence: 4 replicas, 32 models published on
/// replica 0, full-mesh gossip from the first offers to quiescence.
fn bench_sync_converge(c: &mut Criterion) {
    let population: Vec<(BenchmarkSpec, TuningModel)> = (0..MODELS)
        .map(|i| {
            let bench = workload(i);
            let m = model(&bench);
            (bench, m)
        })
        .collect();
    let mut group = c.benchmark_group("net/sync");
    group.bench_function(format!("converge_{REPLICAS}x{MODELS}"), |b| {
        b.iter(|| {
            let mut set = ReplicaSet::new(REPLICAS, ReplicaConfig::default());
            for (bench, m) in &population {
                set.replica_mut(0).unwrap().publish_model(bench, m, vec![]);
            }
            black_box(set.converge().unwrap())
        })
    });
    group.finish();
}

/// The local publish path a replica pays per online calibration: stamp
/// assignment, repository insert, log append, peer dirtying.
fn bench_replicated_publish(c: &mut Criterion) {
    let bench = workload(0);
    let m = model(&bench);
    let mut group = c.benchmark_group("net/publish");
    group.bench_function("replicated_publish", |b| {
        let mut set = ReplicaSet::new(REPLICAS, ReplicaConfig::default());
        b.iter(|| {
            black_box(
                set.replica_mut(0)
                    .unwrap()
                    .publish_model(&bench, &m, vec![]),
            )
        })
    });
    group.finish();
}

/// One in-loop replicated service run: `trace` through
/// `run_service_replicated` over `replicas` replicas, gossip on
/// `gossip`'s cadence, asserting the run ended converged (the thing the
/// in-loop path exists to guarantee — a bench that silently stopped
/// converging would price the wrong code path).
fn inloop_run(replicas: u32, gossip: &GossipConfig, trace: Vec<JobArrival>) -> rrl::ClusterReport {
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
    let mut sched = ClusterScheduler::new(&cluster).unwrap().with_online(online);
    let report = sched
        .run_service_replicated(trace, &mut set, gossip, &ServiceConfig::default())
        .unwrap();
    let replication = report.service.as_ref().unwrap().replication.unwrap();
    assert!(replication.converged && replication.net_idle);
    report
}

/// Gossip under load: a staggered 6-job trace over two cold workloads
/// on a 3-replica set — calibrations publish mid-run and anti-entropy
/// rounds interleave with job events on a 5 ms cadence, so the run
/// prices serving and syncing together (the regime `converge_4x32`
/// above cannot see: it syncs an idle set).
fn bench_inloop_gossip_under_load(c: &mut Criterion) {
    let a = toy_benchmark("inloop-a", 2e10, 40);
    let b = toy_benchmark("inloop-b", 1.4e10, 30);
    let trace: Vec<JobArrival> = (0..6)
        .map(|i| JobArrival {
            name: format!("inloop-{i}"),
            bench: if i % 2 == 0 { a.clone() } else { b.clone() },
            arrival_s: 0.4 * i as f64,
        })
        .collect();
    let gossip = GossipConfig {
        cadence_us: 5_000,
        ..GossipConfig::default()
    };
    let mut group = c.benchmark_group("net/inloop");
    group.bench_function("gossip_under_load_3x6", |b| {
        b.iter(|| black_box(inloop_run(3, &gossip, trace.clone())))
    });
    group.finish();
}

/// The read-repair pair: the same two-job trace — job 0 calibrates and
/// publishes on replica 0, job 1 lands on replica 1 one millisecond
/// later, inside the gossip cadence window, so replica 1 does not hold
/// the entry yet. With read-repair the miss parks behind one targeted
/// pull; with it off the job re-calibrates from scratch. The two
/// entries price exactly the cold calibration read-repair avoids.
fn bench_read_repair_vs_cold(c: &mut Criterion) {
    let bench = toy_benchmark("repair-app", 2e10, 40);
    let gossip = GossipConfig {
        cadence_us: 10_000,
        ..GossipConfig::default()
    };
    // Probe: when does job 0 (and its publication) finish?
    let probe = vec![JobArrival {
        name: "rr-0".into(),
        bench: bench.clone(),
        arrival_s: 0.0,
    }];
    let makespan = inloop_run(2, &gossip, probe)
        .service
        .as_ref()
        .unwrap()
        .makespan_s;
    let trace: Vec<JobArrival> = vec![
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
    ];
    let mut group = c.benchmark_group("net/repair");
    group.bench_function("read_repair_2x2", |b| {
        b.iter(|| {
            let report = inloop_run(2, &gossip, trace.clone());
            let replication = report.service.as_ref().unwrap().replication.unwrap();
            assert!(replication.repair_released >= 1);
            black_box(report)
        })
    });
    let cold = GossipConfig {
        read_repair: false,
        ..gossip
    };
    group.bench_function("cold_calibration_2x2", |b| {
        b.iter(|| {
            let report = inloop_run(2, &cold, trace.clone());
            assert_eq!(report.online_summary().calibrations, 2);
            black_box(report)
        })
    });
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10).measurement_time(std::time::Duration::from_secs(3)).warm_up_time(std::time::Duration::from_millis(500));
    targets = bench_frame_roundtrip, bench_sync_converge, bench_replicated_publish,
        bench_inloop_gossip_under_load, bench_read_repair_vs_cold
}
criterion_main!(benches);
