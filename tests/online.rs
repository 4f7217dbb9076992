//! Integration tests for the online adaptation engine: in-situ
//! calibration on repository miss, cluster warm-up from a cold
//! repository, drift detection with scoped re-calibration, and the
//! online-tuning error paths.

use dvfs_ufs_tuning::kernels;
use dvfs_ufs_tuning::ptf::{ExhaustiveSearch, RandomSearch, TuningSession};
use dvfs_ufs_tuning::rrl::{
    ClusterScheduler, MatchPolicy, ModelSource, OnlineConfig, OnlineTuner, OnlineTuning,
    RuntimeError, TuningModelRepository,
};
use dvfs_ufs_tuning::simnode::{Cluster, Node, SystemConfig};
use kernels::BenchmarkSpec;

fn strategy() -> RandomSearch {
    // A pool strategy needs no trained energy model, which keeps these
    // integration tests fast in debug builds; its seed is part of the
    // design-time/online equivalence contract.
    RandomSearch::new(12, 7)
}

/// Scale one region's work so the workload (and its fingerprint) shifts.
fn shifted_minimd(factor: f64) -> BenchmarkSpec {
    let mut bench = kernels::benchmark("miniMD").unwrap();
    for region in &mut bench.regions {
        if region.name == "compute_force" {
            region.character.instr_per_iter *= factor;
            region.character.dram_bytes_per_iter *= factor;
        }
    }
    bench
}

#[test]
fn online_convergence_matches_design_time_on_stationary_workload() {
    // The satellite property: on a stationary workload (miniMD carries no
    // inter-iteration work variation), the online-converged tuning model
    // selects the same per-region configurations as the design-time
    // analysis run with the same SearchStrategy and seed — across several
    // strategy seeds, i.e. several candidate pools.
    let node = Node::exact(0);
    let bench = kernels::benchmark("miniMD").unwrap();
    for seed in [1u64, 5, 7, 9, 13] {
        let strategy = RandomSearch::new(12, seed);
        let advice = TuningSession::builder(&node)
            .with_strategy(&strategy)
            .run(&bench)
            .expect("design-time session succeeds");

        let mut tuner = OnlineTuner::calibrate(
            format!("calib-{seed}"),
            &bench,
            &node,
            &strategy,
            None,
            OnlineConfig::default(),
        )
        .expect("calibration fits the phase loop");
        tuner.run_to_completion().expect("event loop succeeds");
        assert_eq!(tuner.stage(), "exploit", "calibration converged");
        let model = tuner.converged_model().expect("converged").clone();

        for (region, design_cfg, _) in &advice.region_best {
            assert_eq!(
                model.lookup(region),
                *design_cfg,
                "seed {seed}: region `{region}` must converge to the design-time config"
            );
        }
        assert_eq!(
            model.phase_config, advice.phase_best,
            "seed {seed}: phase configs agree on this stationary workload"
        );
        assert_eq!(model.scenario_count(), advice.tuning_model.scenario_count());

        let outcome = tuner.finish().expect("finish succeeds");
        let online = outcome.accounting.online.expect("online activity recorded");
        assert!(online.publishable);
        assert!(online.explored_iterations < bench.phase_iterations);
        let publication = outcome.publication.expect("converged model published");
        assert_eq!(publication.model, model);
        assert_eq!(
            publication.expected.len(),
            model.classifier.len(),
            "one drift expectation per scenario region"
        );
    }
}

#[test]
fn online_convergence_matches_design_time_on_random_stationary_workloads() {
    // Property loop (the offline toolchain has no proptest): random
    // stationary toy workloads — heavy regions with distinct intensities
    // plus an insignificant filler — must converge online to the
    // design-time per-region configurations for the same strategy/seed.
    use dvfs_ufs_tuning::kernels::{ProgrammingModel, RegionSpec, Suite};
    use dvfs_ufs_tuning::simnode::RegionCharacter;
    use rand::rngs::StdRng;
    use rand::{RngCore, SeedableRng};

    let node = Node::exact(0);
    let mut rng = StdRng::seed_from_u64(0x000A_11CE);
    for case in 0..8u64 {
        let mut regions = Vec::new();
        let n_regions = 2 + (rng.next_u64() % 3) as usize;
        for r in 0..n_regions {
            // Clearly significant (≫ 100 ms at the calibration point) and
            // with a workload-dependent memory intensity.
            let ins = 1.5e10 + rng.next_f64() * 2.5e10;
            let dram_ratio = 0.3 + rng.next_f64() * 3.0;
            regions.push(RegionSpec::new(
                format!("region_{r}"),
                RegionCharacter::builder(ins)
                    .ipc(1.2 + rng.next_f64())
                    .parallel(0.99)
                    .dram_bytes(dram_ratio * ins)
                    .stalls(0.2 + 0.4 * rng.next_f64())
                    .build(),
            ));
        }
        regions.push(RegionSpec::new(
            "filler",
            RegionCharacter::builder(5e7).build(),
        ));
        let bench = BenchmarkSpec::new(
            format!("toy-{case}"),
            Suite::Npb,
            ProgrammingModel::Hybrid,
            30,
            regions,
        );
        let strategy = RandomSearch::new(10, 100 + case);

        let advice = TuningSession::builder(&node)
            .with_strategy(&strategy)
            .run(&bench)
            .expect("design-time session succeeds");
        let mut tuner = OnlineTuner::calibrate(
            format!("toy-job-{case}"),
            &bench,
            &node,
            &strategy,
            None,
            OnlineConfig::default(),
        )
        .expect("calibration fits");
        tuner.run_to_completion().unwrap();
        let model = tuner.converged_model().expect("converged").clone();
        for (region, design_cfg, _) in &advice.region_best {
            assert_eq!(
                model.lookup(region),
                *design_cfg,
                "case {case}: `{region}` diverged"
            );
        }
        assert_eq!(
            model.lookup("filler"),
            model.phase_config,
            "case {case}: the filler is below the significance threshold"
        );
    }
}

#[test]
fn interleaved_online_calibrations_are_bit_identical_to_solo_runs() {
    // Two jobs of *different* cold workloads calibrate concurrently,
    // interleaved by the cluster scheduler; each must account — and
    // converge — bit-identically to the same job run alone.
    let cluster = Cluster::new(2, 0xC1D);
    let minimd = kernels::benchmark("miniMD").unwrap();
    let lulesh = kernels::benchmark("Lulesh").unwrap();
    let strategy = strategy();
    let online = OnlineTuning {
        strategy: &strategy,
        energy_model: None,
        config: OnlineConfig::default(),
    };

    let mut repo = TuningModelRepository::new();
    let mut sched = ClusterScheduler::new(&cluster).unwrap().with_online(online);
    sched.submit("calib-md", minimd.clone());
    sched.submit("calib-lulesh", lulesh.clone());
    let report = sched.run(&mut repo).expect("cluster run succeeds");
    assert_eq!(report.jobs.len(), 2);
    assert_eq!(report.online_summary().calibrations, 2);
    assert_eq!(report.online_summary().publications, 2);

    for outcome in &report.jobs {
        let bench = if outcome.benchmark == "miniMD" {
            &minimd
        } else {
            &lulesh
        };
        let node = cluster
            .iter()
            .find(|n| n.id() == outcome.node_id)
            .expect("placed on a cluster node");
        let mut solo = OnlineTuner::calibrate(
            &outcome.job,
            bench,
            node,
            &strategy,
            None,
            OnlineConfig::default(),
        )
        .unwrap();
        solo.run_to_completion().unwrap();
        let solo_outcome = solo.finish().unwrap();
        assert_eq!(
            outcome.accounting.record, solo_outcome.accounting.record,
            "interleaved calibration accounting must be bit-identical for {}",
            outcome.job
        );
        assert_eq!(outcome.accounting.regions, solo_outcome.accounting.regions);
        // And the published model is the same artefact.
        let solo_publication = solo_outcome.publication.expect("solo converges too");
        let served = repo.serve(bench).expect("published model serves");
        assert_eq!(served.model, solo_publication.model);
        assert_eq!(served.source, ModelSource::Online);
    }
}

#[test]
fn cluster_warms_up_from_a_cold_repository() {
    // The acceptance scenario: starting from an empty repository, job 1
    // of a workload calibrates online and publishes; jobs 2..N serve
    // ModelSource::Online hits whose aggregate savings beat the
    // static-fallback baseline.
    let cluster = Cluster::new(3, 0x5EED);
    let bench = kernels::benchmark("miniMD").unwrap();
    let strategy = strategy();
    let jobs = 8;

    let run_online = || {
        let mut repo = TuningModelRepository::new();
        let mut sched = ClusterScheduler::new(&cluster)
            .unwrap()
            .with_online(OnlineTuning {
                strategy: &strategy,
                energy_model: None,
                config: OnlineConfig::default(),
            });
        for i in 0..jobs {
            sched.submit(format!("job-{i}"), bench.clone());
        }
        let report = sched.run(&mut repo).expect("warm-up run succeeds");
        (report, repo)
    };
    let (report, mut repo) = run_online();

    // Exactly one miss (the calibrator); everyone else hits the
    // published model.
    assert_eq!(report.repository.misses, 1);
    assert_eq!(report.repository.hits, jobs as u64 - 1);
    assert_eq!(report.repository.fallbacks, 0);
    let summary = report.online_summary();
    assert_eq!(summary.calibrations, 1);
    assert_eq!(summary.publications, 1);
    let calibrator = &report.jobs[0];
    assert_eq!(calibrator.published_version, Some(1));
    assert!(
        calibrator
            .accounting
            .online
            .as_ref()
            .unwrap()
            .explored_iterations
            > 0
    );
    for hit in &report.jobs[1..] {
        assert_eq!(hit.accounting.source, ModelSource::Online);
        assert_eq!(hit.published_version, None);
        assert_eq!(
            hit.accounting.online.as_ref().unwrap().explored_iterations,
            0,
            "hits exploit the published model from iteration zero"
        );
    }
    // The published model now serves further submissions.
    assert_eq!(repo.len(), 1);
    assert_eq!(repo.serve(&bench).unwrap().source, ModelSource::Online);

    // Baseline: the same queue served a generic static fallback (a cold
    // start has no Table-V sweep to consult) without online adaptation.
    let mut fb_repo = TuningModelRepository::new().with_fallback(SystemConfig::new(24, 2500, 2200));
    let mut fb_sched = ClusterScheduler::new(&cluster).unwrap();
    for i in 0..jobs {
        fb_sched.submit(format!("job-{i}"), bench.clone());
    }
    let fb_report = fb_sched.run(&mut fb_repo).expect("fallback run succeeds");

    // Jobs 2..N (the hits) must beat the same jobs under the fallback.
    let hit_savings = |jobs: &[dvfs_ufs_tuning::rrl::JobOutcome]| {
        let (mut default_j, mut tuned_j) = (0.0, 0.0);
        for j in &jobs[1..] {
            default_j += j.default.job_energy_j;
            tuned_j += j.accounting.record.job_energy_j;
        }
        100.0 * (default_j - tuned_j) / default_j
    };
    let online_pct = hit_savings(&report.jobs);
    let fallback_pct = hit_savings(&fb_report.jobs);
    assert!(
        online_pct > fallback_pct,
        "online hits must beat the static fallback: {online_pct:.2}% vs {fallback_pct:.2}%"
    );

    // The whole warm-up is deterministic: a second cold run reproduces
    // every record bit-for-bit.
    let (again, _) = run_online();
    for (a, b) in report.jobs.iter().zip(&again.jobs) {
        assert_eq!(a.accounting.record, b.accounting.record);
        assert_eq!(a.accounting.regions, b.accounting.regions);
    }

    // The report surfaces the adaptation activity.
    let text = report.format_report();
    assert!(
        text.contains("online: 1 calibrations, 1 publications"),
        "{text}"
    );
    assert!(text.contains("evicted"), "{text}");
}

#[test]
fn workload_shift_fires_drift_and_recalibrates_deterministically() {
    // W1 calibrates and publishes. The workload then shifts (compute_force
    // grows 45 %): under application-level matching the stale model still
    // serves, the drift detector fires on exactly the shifted region, the
    // region re-explores its neighbourhood in place, and the patched model
    // re-publishes with a bumped version — all bit-reproducibly.
    let node = Node::exact(0);
    let bench = kernels::benchmark("miniMD").unwrap();
    let strategy = strategy();

    let run_scenario = || {
        let mut repo = TuningModelRepository::new().with_match_policy(MatchPolicy::Application);
        let mut calib = OnlineTuner::calibrate(
            "w1-calib",
            &bench,
            &node,
            &strategy,
            None,
            OnlineConfig::default(),
        )
        .unwrap();
        calib.run_to_completion().unwrap();
        let publication = calib.finish().unwrap().publication.expect("converged");
        assert_eq!(
            repo.publish_online(&bench, &publication.model, publication.expected),
            1
        );

        let shifted = shifted_minimd(1.45);
        assert!(!repo.contains(&shifted), "fingerprint changed");
        let served = repo.serve(&shifted).expect("application-level match");
        assert_eq!(served.source, ModelSource::Online);
        assert_eq!(served.provenance.as_ref().unwrap().version, 1);

        let mut monitor =
            OnlineTuner::monitor("w2-job", &shifted, &node, served, OnlineConfig::default())
                .unwrap();
        monitor.run_to_completion().unwrap();
        let outcome = monitor.finish().unwrap();
        (repo, shifted, publication.model, outcome)
    };

    let (mut repo, shifted, w1_model, outcome) = run_scenario();
    assert_eq!(outcome.drift_events.len(), 1, "{:?}", outcome.drift_events);
    let event = &outcome.drift_events[0];
    assert_eq!(
        event.region, "compute_force",
        "only the shifted region drifts"
    );
    assert!(event.ratio > 1.15, "ratio {}", event.ratio);
    let activity = outcome.accounting.online.as_ref().unwrap();
    assert_eq!(activity.drift_events, 1);
    assert_eq!(activity.recalibrated_regions, 1);
    assert_eq!(outcome.refusals, 0);

    // The re-calibration produced a patched model for re-publication.
    let publication = outcome.publication.expect("re-calibrated model publishes");
    let other_regions_unchanged = w1_model
        .classifier
        .len()
        .checked_sub(1)
        .expect("w1 model has scenarios");
    assert!(other_regions_unchanged >= 1);
    assert_eq!(
        publication.model.lookup("neighbor_build"),
        w1_model.lookup("neighbor_build"),
        "undrifted regions keep their configuration"
    );
    assert_eq!(
        repo.publish_online(&shifted, &publication.model, publication.expected),
        2
    );
    let reserved = repo
        .serve(&shifted)
        .expect("exact hit after re-publication");
    assert_eq!(reserved.provenance.unwrap().version, 2);

    // Determinism: the entire shift scenario replays bit-identically.
    let (_, _, _, again) = run_scenario();
    assert_eq!(again.drift_events, outcome.drift_events);
    assert_eq!(again.accounting.record, outcome.accounting.record);
    assert_eq!(
        again.publication.unwrap().model,
        publication.model,
        "re-calibration is deterministic"
    );
}

#[test]
fn scheduler_drift_path_republishes_through_the_repository() {
    // The same shift scenario driven end-to-end by the scheduler: after a
    // warm-up run, a shifted workload is admitted as an application-level
    // hit, drifts, re-calibrates, and its patched model is published so a
    // final job of the shifted workload serves it as an exact hit.
    let cluster = Cluster::exact(2);
    let bench = kernels::benchmark("miniMD").unwrap();
    let strategy = strategy();
    let online = OnlineTuning {
        strategy: &strategy,
        energy_model: None,
        config: OnlineConfig::default(),
    };
    let mut repo = TuningModelRepository::new().with_match_policy(MatchPolicy::Application);

    let mut warmup = ClusterScheduler::new(&cluster).unwrap().with_online(online);
    warmup.submit("w1-0", bench.clone());
    warmup.submit("w1-1", bench.clone());
    warmup.run(&mut repo).expect("warm-up succeeds");
    assert_eq!(repo.len(), 1);

    let shifted = shifted_minimd(1.45);
    let mut shift_run = ClusterScheduler::new(&cluster).unwrap().with_online(online);
    shift_run.submit("w2-0", shifted.clone());
    let report = shift_run.run(&mut repo).expect("shift run succeeds");
    let job = &report.jobs[0];
    assert_eq!(job.drift.len(), 1);
    assert_eq!(job.drift[0].region, "compute_force");
    assert_eq!(job.published_version, Some(2), "patched model re-published");
    assert_eq!(repo.len(), 2, "stale and patched entries coexist");

    let mut exact = ClusterScheduler::new(&cluster).unwrap().with_online(online);
    exact.submit("w2-1", shifted.clone());
    let final_report = exact.run(&mut repo).expect("exact-hit run succeeds");
    let final_job = &final_report.jobs[0];
    assert_eq!(final_job.accounting.source, ModelSource::Online);
    assert!(final_job.drift.is_empty(), "patched model no longer drifts");
    assert_eq!(final_job.published_version, None);
}

#[test]
fn exploration_budget_exhaustion_is_an_error() {
    let node = Node::exact(0);
    // Upfront: a 3-iteration job cannot even fit the thread sweep.
    let short = {
        let mut b = kernels::benchmark("miniMD").unwrap();
        b.phase_iterations = 3;
        b
    };
    let Err(err) = OnlineTuner::calibrate(
        "short",
        &short,
        &node,
        &strategy(),
        None,
        OnlineConfig::default(),
    ) else {
        panic!("3 iterations cannot fund a calibration");
    };
    assert!(
        matches!(err, RuntimeError::ExplorationBudget { needed, available, .. }
            if needed > available && available == 3),
        "{err}"
    );

    // At the planning point: exhaustive search wants the full 252-config
    // space — far beyond miniMD's 25 iterations. The error surfaces at
    // the analysis → phase-search transition.
    let bench = kernels::benchmark("miniMD").unwrap();
    let mut tuner = OnlineTuner::calibrate(
        "exhaustive",
        &bench,
        &node,
        &ExhaustiveSearch,
        None,
        OnlineConfig::default(),
    )
    .expect("the upfront check cannot see the strategy's pool size");
    let err = tuner.run_to_completion().expect_err("budget exhausted");
    match err {
        RuntimeError::ExplorationBudget {
            application,
            needed,
            available,
        } => {
            assert_eq!(application, "miniMD");
            assert!(needed > 252, "needs the full space: {needed}");
            assert_eq!(available, bench.phase_iterations);
        }
        other => panic!("expected ExplorationBudget, got {other}"),
    }
    // The failure is not fatal to the session: the schedule abandons the
    // calibration and the job keeps running (panic-free) as a degraded
    // static run.
    assert_eq!(tuner.stage(), "abandoned");
    tuner
        .run_to_completion()
        .expect("the abandoned tuner stays fully drivable");
    let outcome = tuner.finish().expect("finish succeeds");
    assert!(outcome.publication.is_none(), "nothing converged");
    assert!(!outcome.accounting.online.unwrap().publishable);
}

#[test]
fn scheduler_degrades_failed_calibrations_to_the_fallback() {
    // One workload whose calibration cannot fit must not abort the run:
    // the calibrator degrades to a static job, same-key waiters serve the
    // configured fallback, and healthy workloads calibrate normally.
    let cluster = Cluster::exact(2);
    let minimd = kernels::benchmark("miniMD").unwrap();
    let strategy_ok = strategy();
    let online = OnlineTuning {
        strategy: &ExhaustiveSearch, // 252-config pool ≫ 25 iterations
        energy_model: None,
        config: OnlineConfig::default(),
    };
    let mut repo = TuningModelRepository::new().with_fallback(testkit::taurus_fallback());
    let mut sched = ClusterScheduler::new(&cluster).unwrap().with_online(online);
    for i in 0..3 {
        sched.submit(format!("job-{i}"), minimd.clone());
    }
    let report = sched
        .run(&mut repo)
        .expect("run survives the failed calibration");
    assert_eq!(report.jobs.len(), 3);
    // Job 0 ran to completion as the abandoned calibrator; jobs 1 and 2
    // fell back.
    assert_eq!(report.jobs[0].accounting.source, ModelSource::Online);
    assert!(
        !report.jobs[0]
            .accounting
            .online
            .as_ref()
            .unwrap()
            .publishable
    );
    for job in &report.jobs[1..] {
        assert_eq!(job.accounting.source, ModelSource::Fallback);
    }
    assert_eq!(report.online_summary().publications, 0);
    assert_eq!(repo.stats().fallbacks, 2);

    // A healthy strategy on the same queue still calibrates and warms up.
    let mut repo2 = TuningModelRepository::new();
    let mut sched2 = ClusterScheduler::new(&cluster)
        .unwrap()
        .with_online(OnlineTuning {
            strategy: &strategy_ok,
            energy_model: None,
            config: OnlineConfig::default(),
        });
    for i in 0..3 {
        sched2.submit(format!("job-{i}"), minimd.clone());
    }
    let report2 = sched2.run(&mut repo2).expect("healthy run succeeds");
    assert_eq!(report2.online_summary().publications, 1);
    assert_eq!(repo2.stats().hits, 2);
}

#[test]
fn drift_recalibration_refusals() {
    let node = Node::exact(0);
    let bench = kernels::benchmark("miniMD").unwrap();
    let strategy = strategy();

    // A calibrating session always refuses explicit re-calibration.
    let mut calib = OnlineTuner::calibrate(
        "calib",
        &bench,
        &node,
        &strategy,
        None,
        OnlineConfig::default(),
    )
    .unwrap();
    assert!(matches!(
        calib.recalibrate_region("compute_force"),
        Err(RuntimeError::RecalibrationRefused { .. })
    ));
    assert!(matches!(
        calib.recalibrate_region("no_such_region"),
        Err(RuntimeError::UnknownRegion { .. })
    ));

    // A monitor session refuses when too few visits remain to measure the
    // neighbourhood.
    let mut repo = TuningModelRepository::new();
    let mut first = OnlineTuner::calibrate(
        "w1",
        &bench,
        &node,
        &strategy,
        None,
        OnlineConfig::default(),
    )
    .unwrap();
    first.run_to_completion().unwrap();
    let publication = first.finish().unwrap().publication.unwrap();
    repo.publish_online(&bench, &publication.model, publication.expected);

    let served = repo.serve(&bench).unwrap();
    let mut monitor =
        OnlineTuner::monitor("w2", &bench, &node, served, OnlineConfig::default()).unwrap();
    // Run to two iterations before the end: at most 1 remaining visit of
    // any region, but a radius-1 neighbourhood needs up to 9.
    while monitor.phase_iteration() < bench.phase_iterations - 2 {
        for region in &bench.regions {
            monitor.region_enter(&region.name).unwrap();
            monitor.region_exit(&region.name).unwrap();
        }
        monitor.phase_complete().unwrap();
    }
    let err = monitor
        .recalibrate_region("compute_force")
        .expect_err("too few visits remain");
    match err {
        RuntimeError::RecalibrationRefused {
            region,
            needed,
            remaining,
            ..
        } => {
            assert_eq!(region, "compute_force");
            assert!(needed > remaining, "{needed} vs {remaining}");
            assert_eq!(remaining, 1);
        }
        other => panic!("expected RecalibrationRefused, got {other}"),
    }
    // The refusal left the session healthy.
    monitor.run_to_completion().unwrap();
    let outcome = monitor.finish().unwrap();
    assert!(
        outcome.drift_events.is_empty(),
        "unchanged workload: no drift"
    );
    assert!(outcome.publication.is_none());
}
