//! Integration tests for the event-driven runtime layer: repository
//! serving, `RuntimeSession` event protocol and accounting, and
//! cluster-scale scheduling — including the guarantee that a job
//! multiplexed by the `ClusterScheduler` accounts bit-identically to the
//! same job run alone.

use dvfs_ufs_tuning::kernels;
use dvfs_ufs_tuning::ptf::{RandomSearch, TuningSession};
use dvfs_ufs_tuning::rrl::{
    ClusterScheduler, ModelSource, RuntimeError, RuntimeSession, Savings, TuningModelRepository,
};
use dvfs_ufs_tuning::simnode::{Cluster, Node, SystemConfig};
// The shared builders these tests used to hand-roll locally.
use testkit::repo_with_lulesh;

#[test]
fn design_time_advice_publishes_and_serves() {
    // RandomSearch needs no trained energy model, which keeps this
    // integration test fast in debug builds.
    let node = Node::exact(0);
    let bench = kernels::benchmark("miniMD").unwrap();
    let strategy = RandomSearch::new(16, 2);
    let advice = TuningSession::builder(&node)
        .with_strategy(&strategy)
        .run(&bench)
        .expect("session succeeds");
    assert_eq!(advice.benchmark_fingerprint, bench.fingerprint());

    let mut repo = TuningModelRepository::new();
    repo.publish(&advice);
    assert!(repo.contains(&bench));
    let served = repo.serve(&bench).expect("published model serves");
    assert_eq!(served.source, ModelSource::Repository);
    assert_eq!(served.model, advice.tuning_model);

    // The served model round-tripped through the storage format.
    let mut job = RuntimeSession::start("resubmission", &bench, &node, served)
        .expect("served model validates");
    job.run_to_completion().expect("event loop succeeds");
    let acc = job.finish().expect("finish succeeds");
    assert!(acc.record.elapsed_s > 0.0);
    assert_eq!(repo.stats().hits, 1);
}

#[test]
fn per_region_breakdown_reconstructs_job_totals() {
    let (mut repo, lulesh) = repo_with_lulesh();
    let node = Node::exact(0);
    let served = repo.serve(&lulesh).unwrap();
    let mut job = RuntimeSession::start("breakdown", &lulesh, &node, served).unwrap();
    job.run_to_completion().unwrap();
    let acc = job.finish().unwrap();

    // Every region of the spec appears with one visit per phase iteration.
    assert_eq!(acc.regions.len(), lulesh.regions.len());
    for region in &lulesh.regions {
        let entry = acc.region(&region.name).expect("region accounted");
        assert_eq!(entry.visits, u64::from(lulesh.phase_iterations));
        assert!(entry.time_s > 0.0 && entry.node_energy_j > 0.0);
        assert!(entry.cpu_energy_j < entry.node_energy_j);
    }
    // Region times + switch latency reconstruct the elapsed time, and
    // region CPU energies reconstruct the RAPL total.
    let elapsed = acc.regions_time_s() + acc.switch_time_s;
    assert!(
        (elapsed - acc.record.elapsed_s).abs() / acc.record.elapsed_s < 1e-12,
        "{elapsed} vs {}",
        acc.record.elapsed_s
    );
    let cpu = acc.regions_cpu_energy_j();
    assert!((cpu - acc.record.cpu_energy_j).abs() / acc.record.cpu_energy_j < 1e-12);
    // The HDEEM-measured job energy samples the exact region power trace:
    // slightly below its integral (5 ms start delay + quantisation),
    // never above it by more than the sensor noise.
    let exact = acc.regions_node_energy_j();
    assert!(acc.record.job_energy_j < exact * 1.01);
    assert!(acc.record.job_energy_j > exact * 0.97);
    // And the report surfaces the breakdown.
    let text = acc.format_sacct();
    assert!(text.contains("CalcQForElems"), "{text}");
}

#[test]
fn cluster_run_matches_single_job_sessions_bit_for_bit() {
    // The acceptance criterion: ≥ 8 concurrent jobs over ≥ 2 nodes, with
    // per-job dynamic savings *bit-identical* to the single-job
    // RuntimeSession path.
    let cluster = Cluster::new(3, 0xC1D);
    let lulesh = kernels::benchmark("Lulesh").unwrap();
    let minimd = kernels::benchmark("miniMD").unwrap();
    let (mut repo, _) = repo_with_lulesh();

    let mut scheduler = ClusterScheduler::new(&cluster).unwrap();
    for i in 0..8 {
        let (name, bench) = if i < 5 {
            (format!("lulesh-{i}"), &lulesh)
        } else {
            (format!("minimd-{i}"), &minimd)
        };
        scheduler.submit(name, bench.clone());
    }
    assert_eq!(scheduler.pending(), 8);
    let report = scheduler.run(&mut repo).expect("cluster run succeeds");

    assert_eq!(report.jobs.len(), 8);
    assert!(report.nodes_used >= 2, "jobs spread over several nodes");
    assert_eq!(report.repository.hits, 5);
    assert_eq!(report.repository.fallbacks, 3);

    for outcome in &report.jobs {
        let bench = if outcome.benchmark == "Lulesh" {
            &lulesh
        } else {
            &minimd
        };
        let node = cluster
            .iter()
            .find(|n| n.id() == outcome.node_id)
            .expect("placed on a cluster node");
        // Re-serve from a fresh repository with identical contents and
        // replay the job alone on the same node.
        let (mut solo_repo, _) = repo_with_lulesh();
        let served = solo_repo.serve(bench).unwrap();
        let mut solo = RuntimeSession::start(&outcome.job, bench, node, served).unwrap();
        solo.run_to_completion().unwrap();
        let solo_acc = solo.finish().unwrap();
        let solo_default =
            RuntimeSession::static_run(&outcome.job, bench, node, SystemConfig::taurus_default())
                .unwrap();
        let solo_savings = Savings::between(&solo_default.record, &solo_acc.record);

        assert_eq!(
            outcome.accounting.record, solo_acc.record,
            "multiplexed accounting must be bit-identical for {}",
            outcome.job
        );
        assert_eq!(outcome.accounting.regions, solo_acc.regions);
        assert_eq!(outcome.default, solo_default.record);
        assert_eq!(
            outcome.savings, solo_savings,
            "per-job savings must be bit-identical for {}",
            outcome.job
        );
    }

    // The tuned Lulesh jobs save energy; the aggregate is net positive.
    for outcome in report.jobs.iter().filter(|j| j.benchmark == "Lulesh") {
        assert_eq!(outcome.accounting.source, ModelSource::Repository);
        assert!(outcome.savings.job_energy_pct > 0.0, "{outcome:?}");
    }
    assert!(
        report.aggregate.cpu_energy_pct > 0.0,
        "aggregate CPU savings: {:?}",
        report.aggregate
    );
}

#[test]
fn runtime_errors_cover_the_misuse_paths() {
    let lulesh = kernels::benchmark("Lulesh").unwrap();
    let node = Node::exact(0);

    // Serving: miss without fallback.
    let mut empty = TuningModelRepository::new();
    assert!(matches!(
        empty.serve(&lulesh),
        Err(RuntimeError::NoModel { .. })
    ));

    // Session start: model carrying an unservable configuration.
    let mut repo = TuningModelRepository::new().with_fallback(SystemConfig::new(24, 2450, 1700));
    let err = repo
        .serve(&lulesh)
        .and_then(|served| RuntimeSession::start("j", &lulesh, &node, served).map(|_| ()))
        .unwrap_err();
    assert!(matches!(err, RuntimeError::UnsupportedConfig { .. }));

    // Event protocol misuse.
    let (mut repo, _) = repo_with_lulesh();
    let served = repo.serve(&lulesh).unwrap();
    let mut job = RuntimeSession::start("j", &lulesh, &node, served).unwrap();
    assert!(matches!(
        job.region_enter("no_such_region"),
        Err(RuntimeError::UnknownRegion { .. })
    ));
    assert!(matches!(
        job.region_exit("CalcQForElems"),
        Err(RuntimeError::NoOpenRegion { .. })
    ));
    job.region_enter("CalcQForElems").unwrap();
    assert!(matches!(
        job.region_enter("CalcQForElems"),
        Err(RuntimeError::RegionStillOpen { .. })
    ));
    assert!(matches!(
        job.region_exit("CalcKinematicsForElems"),
        Err(RuntimeError::RegionMismatch { .. })
    ));
    // Every error above left the session usable; the job still completes.
    job.region_exit("CalcQForElems").unwrap();
    job.run_to_completion().unwrap();
    assert!(job.finish().is_ok());
}
