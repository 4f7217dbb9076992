//! Integration tests for the event-driven runtime layer: repository
//! serving, `RuntimeSession` event protocol and accounting, and
//! cluster-scale scheduling — including the guarantee that a job
//! multiplexed by the `ClusterScheduler` accounts bit-identically to the
//! same job run alone.

use dvfs_ufs_tuning::kernels;
use dvfs_ufs_tuning::ptf::{RandomSearch, TuningModel, TuningSession};
use dvfs_ufs_tuning::rrl::{
    ClusterReport, ClusterScheduler, ModelSource, OnlineConfig, OnlineTuning, Placement,
    RuntimeError, RuntimeSession, Savings, SharedRepository, TuningModelRepository,
};
use dvfs_ufs_tuning::simnode::{Cluster, Node, SystemConfig};
use kernels::BenchmarkSpec;
// The shared builders these tests used to hand-roll locally.
use testkit::{repo_with_lulesh, taurus_fallback};

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

/// A one-region OpenMP toy workload (cheap enough for 256-job queues) —
/// the shared [`kernels::toy_benchmark`] builder.
fn toy_bench(name: &str, instr: f64, iterations: u32) -> BenchmarkSpec {
    testkit::toy_benchmark(name, instr, iterations)
}

/// Every per-job field that must be bit-identical between a run over a
/// `SharedRepository` and one over a `TuningModelRepository`, plus the
/// (submission-ordered, therefore equally deterministic) floating-point
/// totals.
fn assert_reports_bit_identical(shared: &ClusterReport, local: &ClusterReport, tag: &str) {
    assert_eq!(shared.jobs.len(), local.jobs.len(), "{tag}");
    for (p, s) in shared.jobs.iter().zip(&local.jobs) {
        assert_eq!(p.job, s.job, "{tag}: submission order");
        assert_eq!(p.node_id, s.node_id, "{tag}: placement");
        assert_eq!(
            p.accounting.record, s.accounting.record,
            "{tag}: job {} record",
            p.job
        );
        assert_eq!(
            p.accounting.regions, s.accounting.regions,
            "{tag}: {}",
            p.job
        );
        assert_eq!(p.accounting.switches, s.accounting.switches, "{tag}");
        assert_eq!(p.accounting.source, s.accounting.source, "{tag}");
        assert_eq!(p.accounting.online, s.accounting.online, "{tag}");
        assert_eq!(p.default, s.default, "{tag}: baseline");
        assert_eq!(p.savings, s.savings, "{tag}: savings");
        assert_eq!(p.published_version, s.published_version, "{tag}");
        assert_eq!(p.drift, s.drift, "{tag}: drift events");
    }
    assert_eq!(shared.total_tuned, local.total_tuned, "{tag}");
    assert_eq!(shared.total_default, local.total_default, "{tag}");
    assert_eq!(shared.aggregate, local.aggregate, "{tag}");
    assert_eq!(shared.nodes_used, local.nodes_used, "{tag}");
    assert_eq!(
        shared.repository.hits, local.repository.hits,
        "{tag}: hit counts"
    );
    assert_eq!(shared.repository.misses, local.repository.misses, "{tag}");
    assert_eq!(
        shared.repository.fallbacks, local.repository.fallbacks,
        "{tag}"
    );
}

/// For 3 cluster seeds × queue sizes {8, 64, 256}, a mixed hit/fallback
/// queue produces a bit-identical `ClusterReport` whether the scheduler
/// serves from a `TuningModelRepository` or from a sharded
/// `SharedRepository`.
#[test]
fn shared_repository_report_bit_identical_across_seeds_and_queue_sizes() {
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
        for jobs in [8usize, 64, 256] {
            let submit = |sched: &mut ClusterScheduler<'_>| {
                for i in 0..jobs {
                    let bench = if i % 3 == 2 { &untuned } else { &tuned };
                    sched.submit(format!("j{seed:x}-{i}"), bench.clone());
                }
            };

            let mut repo = TuningModelRepository::new().with_fallback(fallback);
            repo.insert(&tuned, &toy_model);
            let mut seq = ClusterScheduler::new(&cluster).unwrap();
            submit(&mut seq);
            let local = seq.run(&mut repo).unwrap();

            let mut repo = SharedRepository::new(8).with_fallback(fallback);
            repo.insert(&tuned, &toy_model);
            let mut sched = ClusterScheduler::new(&cluster).unwrap();
            submit(&mut sched);
            let shared = sched.run(&mut repo).unwrap();

            let tag = format!("seed={seed:#x} jobs={jobs}");
            assert_reports_bit_identical(&shared, &local, &tag);
        }
    }
}

/// The same property through the online-adaptation admission gate: a
/// cold workload's first job calibrates, same-workload followers wait
/// and then hit the published model — and the whole report still
/// matches the local-repository run bit for bit.
#[test]
fn shared_repository_online_warm_up_bit_identical_across_seeds() {
    let strategy = RandomSearch::new(12, 3);
    let cold = toy_bench("cold-toy", 2.5e10, 40);
    let stored = toy_bench("stored-toy", 1.5e10, 10);
    let stored_model = TuningModel::new(
        "stored-toy",
        &[("omp parallel:1".into(), SystemConfig::new(24, 2500, 1600))],
        SystemConfig::new(24, 2500, 1600),
    );

    for seed in [0x5EED_u64, 0xBEEF, 0xC0FFEE] {
        let cluster = Cluster::new(4, seed);
        let online = OnlineTuning {
            strategy: &strategy,
            energy_model: None,
            config: OnlineConfig::default(),
        };
        for jobs in [8usize, 24] {
            let submit = |sched: &mut ClusterScheduler<'_>| {
                for i in 0..jobs {
                    let bench = if i % 4 == 1 { &stored } else { &cold };
                    sched.submit(format!("o{seed:x}-{i}"), bench.clone());
                }
            };

            let mut repo = TuningModelRepository::new();
            repo.insert(&stored, &stored_model);
            let mut seq = ClusterScheduler::new(&cluster).unwrap().with_online(online);
            submit(&mut seq);
            let local = seq.run(&mut repo).unwrap();

            let mut repo = SharedRepository::new(4);
            repo.insert(&stored, &stored_model);
            let mut sched = ClusterScheduler::new(&cluster).unwrap().with_online(online);
            submit(&mut sched);
            let shared = sched.run(&mut repo).unwrap();

            let tag = format!("online seed={seed:#x} jobs={jobs}");
            assert_reports_bit_identical(&shared, &local, &tag);
            // Warm-up shape: exactly one calibration for the cold
            // workload, everyone else hits (or monitors the stored one).
            assert_eq!(shared.online_summary().calibrations, 1, "{tag}");
            assert_eq!(shared.repository.misses, 1, "{tag}");
        }
    }
}

#[test]
fn placement_policies_differ() {
    let lulesh = kernels::benchmark("Lulesh").unwrap();
    let cluster = Cluster::exact(4);
    let mut rr = ClusterScheduler::new(&cluster).unwrap();
    let rr_nodes: Vec<u32> = (0..8)
        .map(|i| rr.submit(format!("j{i}"), lulesh.clone()))
        .collect();
    assert_eq!(rr_nodes, vec![0, 1, 2, 3, 0, 1, 2, 3]);

    let mut ll = ClusterScheduler::new(&cluster)
        .unwrap()
        .with_placement(Placement::LeastLoaded);
    // Identical jobs: least-loaded degenerates to round-robin coverage.
    let ll_nodes: Vec<u32> = (0..4)
        .map(|i| ll.submit(format!("j{i}"), lulesh.clone()))
        .collect();
    assert_eq!(ll_nodes, vec![0, 1, 2, 3]);
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
