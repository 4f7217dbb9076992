//! Replicated model serving: publish once, converge everywhere — even
//! through a partition.
//!
//! ```text
//! cargo run --release --example replicated_serving
//! ```
//!
//! Four replicas each own a model repository and gossip
//! anti-entropy digests over a simulated, fault-injected transport:
//! messages are dropped, duplicated and reordered by a seeded plan, and
//! a partition window isolates replica 3 for the first ticks of the
//! sync. Design-time tuning publishes Lulesh and miniMD on replica 0
//! *only*; convergence carries them to every replica, and jobs then
//! serve repository hits no matter which replica their scheduler fronts.
//! A drift re-publication afterwards (version 2 from replica 0) wins
//! everywhere deterministically — the stamp order, not delivery order,
//! picks the winner.

use dvfs_ufs_tuning::kernels;
use dvfs_ufs_tuning::ptf::{EnergyModel, TuningSession};
use dvfs_ufs_tuning::rrl::net::ReplicaConfig;
use dvfs_ufs_tuning::rrl::{ClusterScheduler, ReplicaSet, Stamp};
use dvfs_ufs_tuning::simnode::{Cluster, Node, SystemConfig};
use testkit::{NetPlan, PartitionWindow};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // The hostile network: ~12 % drops, ~10 % duplicates, up to 3 ticks
    // of reorder jitter, and replica 3 partitioned away for the first
    // 16 ticks. Every decision is a pure function of the seed.
    let plan = NetPlan {
        replicas: 4,
        fault_seed: 0x5EED_CA57,
        drop_permille: 120,
        duplicate_permille: 100,
        delay_jitter_ticks: 3,
        partitions: vec![PartitionWindow {
            from_tick: 0,
            to_tick: 16,
            isolated: vec![3],
        }],
        // Batch-style sync: this example converges explicitly between
        // phases. See `inloop_replication` for the gossip-while-serving
        // counterpart.
        gossip_cadence_us: 0,
        read_repair: false,
    };
    let config = ReplicaConfig {
        fallback: Some(SystemConfig::new(24, 2400, 1700)),
        ..ReplicaConfig::default()
    };
    let mut set = ReplicaSet::new(4, config).with_faults(&plan);

    // 1. Design time, on replica 0 only: train the energy model, tune
    //    both applications, publish. The other three replicas know
    //    nothing yet.
    println!("training the energy model on 14 benchmarks…");
    let golden = Node::exact(0);
    let model = EnergyModel::train_paper(&kernels::training_set(), &golden);
    let mut lulesh_advice = None;
    for name in ["Lulesh", "miniMD"] {
        let bench = kernels::benchmark(name).expect("bundled benchmark");
        let advice = TuningSession::builder(&golden)
            .with_model(&model)
            .run(&bench)?;
        let stamp = set
            .replica_mut(0)?
            .publish_model(&bench, &advice.tuning_model, vec![]);
        println!("published {name} on replica 0 as {stamp}");
        if name == "Lulesh" {
            lulesh_advice = Some(advice);
        }
    }

    // 2. Converge: anti-entropy sync through drops, duplicates, reorder
    //    and the partition (which heals at tick 16).
    let report = set.converge()?;
    println!(
        "\nconverged in {} ticks: {} models applied, transport saw \
         {} sent / {} dropped / {} duplicated / {} partitioned",
        report.ticks,
        report.applied,
        report.transport.sent,
        report.transport.dropped,
        report.transport.duplicated,
        report.transport.partitioned,
    );
    assert!(set.converged(), "all four replicas hold identical models");
    for id in 0..4 {
        let map = set.replica(id)?.model_map();
        let stamps: Vec<String> = map
            .iter()
            .map(|(app, digest)| format!("{app} {}", digest.stamp))
            .collect();
        println!("replica {id}: {}", stamps.join(", "));
    }

    // 3. Runtime: each replica fronts its own scheduler; every job is a
    //    repository hit regardless of which replica it lands on.
    let cluster = Cluster::new(2, 0x5EED);
    let mut hits = 0;
    for replica in 0..4u32 {
        let mut scheduler = ClusterScheduler::new(&cluster)?;
        for (i, name) in ["Lulesh", "miniMD"].iter().enumerate() {
            let bench = kernels::benchmark(name).expect("bundled benchmark");
            scheduler.submit(format!("r{replica}-job-{i}-{name}"), bench);
        }
        let report = scheduler.run(set.replica_mut(replica)?)?;
        hits += report.repository.hits;
    }
    assert_eq!(hits, 8, "every job on every replica served a synced model");
    println!("\nserved 8 jobs across 4 replicas: {hits} repository hits");

    // 4. Drift at runtime: replica 0 re-publishes a re-calibrated Lulesh
    //    model. The fresh stamp (version 2) supersedes every version-1
    //    copy — deterministically, on every replica, through the same
    //    faulty transport.
    let advice = lulesh_advice.expect("tuned above");
    let lulesh = kernels::benchmark("Lulesh").expect("bundled benchmark");
    let restamp = set
        .replica_mut(0)?
        .publish_model(&lulesh, &advice.tuning_model, vec![]);
    println!("\ndrift re-publication on replica 0: {restamp}");
    let report = set.converge()?;
    assert!(set.converged());
    let winner = Stamp {
        version: 2,
        publisher: 0,
    };
    for id in 0..4 {
        let stamp = set.replica(id)?.model_map()["Lulesh"].stamp;
        assert_eq!(stamp, winner, "replica {id} must hold the re-publication");
    }
    println!(
        "re-converged in {} ticks: every replica now serves Lulesh {winner}",
        report.ticks
    );
    Ok(())
}
