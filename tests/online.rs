//! Integration tests for the online adaptation engine: in-situ
//! calibration on repository miss, cluster warm-up from a cold
//! repository, drift detection with scoped re-calibration, and the
//! online-tuning error paths.

use std::sync::atomic::{AtomicU32, Ordering};

use dvfs_ufs_tuning::enermodel::nn::NetConfig;
use dvfs_ufs_tuning::enermodel::train::TrainConfig;
use dvfs_ufs_tuning::kernels::{self, toy_benchmark};
use dvfs_ufs_tuning::ptf::{
    build_dataset, phase_counter_rates, Advice, EnergyModel, ExhaustiveSearch, ExplorationInputs,
    ExplorationPlan, ModelBasedNeighbourhood, RandomSearch, SearchStrategy, TuningError,
    TuningModel, TuningObjective, TuningSession,
};
use dvfs_ufs_tuning::rrl::{
    ClusterScheduler, FaultInjector, MatchPolicy, ModelProvenance, ModelSource, OnlineConfig,
    OnlineTuner, OnlineTuning, RuntimeError, RuntimeSession, ServedModel, TuningModelRepository,
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

/// miniMD's online-calibrated model on `node`, with the drift
/// expectations its calibration measured.
fn calibrated_minimd(node: &Node, bench: &BenchmarkSpec) -> (TuningModel, Vec<(String, f64)>) {
    let strategy = strategy();
    let mut calib = OnlineTuner::calibrate(
        "calib",
        bench,
        node,
        &strategy,
        None,
        OnlineConfig::default(),
    )
    .unwrap();
    calib.run_to_completion().unwrap();
    let publication = calib.finish().unwrap().publication.expect("converged");
    (publication.model, publication.expected)
}

/// A serve of `model` whose provenance carries `expected` verbatim, as a
/// repository entry published with that list would.
fn served_with(model: &TuningModel, expected: Vec<(String, f64)>) -> ServedModel {
    ServedModel {
        model: model.clone(),
        source: ModelSource::Online,
        provenance: Some(ModelProvenance {
            version: 1,
            source: ModelSource::Online,
            expected,
        }),
    }
}

#[test]
fn served_expectations_resolve_to_the_last_valid_value_per_known_region() {
    // A served expectation list is resolved against the benchmark once:
    // unknown names are ignored, non-finite and non-positive values are
    // no expectation, and of a duplicated name the last valid value is
    // the one drift is measured against.
    let node = Node::exact(0);
    let bench = kernels::benchmark("miniMD").unwrap();
    let (model, expected) = calibrated_minimd(&node, &bench);
    let force = expected
        .iter()
        .find(|(r, _)| r == "compute_force")
        .expect("compute_force has an expectation")
        .1;
    let drifted = |list: Vec<(String, f64)>| -> Vec<String> {
        let mut tuner = OnlineTuner::monitor(
            "resolve",
            &bench,
            &node,
            served_with(&model, list),
            OnlineConfig::default(),
        )
        .unwrap();
        tuner.run_to_completion().unwrap();
        let outcome = tuner.finish().unwrap();
        outcome.drift_events.into_iter().map(|e| e.region).collect()
    };
    let without_force: Vec<(String, f64)> = expected
        .iter()
        .filter(|(r, _)| r != "compute_force")
        .cloned()
        .collect();
    let with_force = |values: &[f64]| {
        let mut list = without_force.clone();
        list.extend(values.iter().map(|&e| ("compute_force".to_string(), e)));
        list
    };

    assert!(drifted(expected.clone()).is_empty(), "calibrated: no drift");
    // Half the measured energy reads as a 2× drift.
    assert_eq!(drifted(with_force(&[0.5 * force])), ["compute_force"]);
    // A name the benchmark lacks watches nothing, however low.
    let mut unknown = expected.clone();
    unknown.push(("no_such_region".into(), 1e-9));
    assert!(drifted(unknown).is_empty());
    // NaN and zero are no expectation: the region is not watched (either
    // would read as out of band if it were).
    assert!(drifted(with_force(&[f64::NAN])).is_empty());
    assert!(drifted(with_force(&[0.0])).is_empty());
    // Duplicates: the last valid value decides.
    assert!(drifted(with_force(&[0.5 * force, force])).is_empty());
    assert_eq!(
        drifted(with_force(&[force, 0.5 * force])),
        ["compute_force"]
    );
    assert_eq!(
        drifted(with_force(&[0.5 * force, f64::NAN, -1.0])),
        ["compute_force"]
    );
}

#[test]
fn republication_updates_the_watched_entry_of_a_repeated_region() {
    // A served list that names compute_force twice is watched at its last
    // valid value. The re-calibration that drift triggers must land in
    // that entry, or the next job served the republished list would
    // compare against the stale value and drift again.
    let node = Node::exact(0);
    let bench = kernels::benchmark("miniMD").unwrap();
    let (model, expected) = calibrated_minimd(&node, &bench);
    let force = expected
        .iter()
        .find(|(r, _)| r == "compute_force")
        .expect("compute_force has an expectation")
        .1;
    let mut served: Vec<(String, f64)> = expected
        .into_iter()
        .filter(|(r, _)| r != "compute_force")
        .collect();
    served.push(("compute_force".into(), f64::NAN));
    served.push(("compute_force".into(), 0.5 * force));
    let monitor = |job: &str, list: Vec<(String, f64)>| {
        let mut tuner = OnlineTuner::monitor(
            job,
            &bench,
            &node,
            served_with(&model, list),
            OnlineConfig::default(),
        )
        .unwrap();
        tuner.run_to_completion().unwrap();
        tuner.finish().unwrap()
    };

    let first = monitor("first", served);
    assert_eq!(first.drift_events.len(), 1, "half the energy drifts");
    let publication = first.publication.expect("the re-calibration publishes");
    let second = monitor("second", publication.expected);
    assert!(
        second.drift_events.is_empty(),
        "the republished value is the watched one: {:?}",
        second.drift_events
    );
}

#[test]
fn republished_expectations_append_new_regions_in_name_order() {
    // Regions re-calibrated without a served expectation are appended to
    // the published expectations in region-name order, not in program or
    // request order.
    let node = Node::exact(0);
    let bench = kernels::benchmark("miniMD").unwrap();
    let position = |name: &str| bench.regions.iter().position(|r| r.name == name).unwrap();
    assert!(position("neighbor_build") < position("integrate_verlet"));
    assert!("integrate_verlet" < "neighbor_build");
    let (model, expected) = calibrated_minimd(&node, &bench);
    let kept: Vec<(String, f64)> = expected
        .into_iter()
        .filter(|(r, _)| r == "compute_force")
        .collect();
    assert_eq!(kept.len(), 1);

    let mut tuner = OnlineTuner::monitor(
        "order",
        &bench,
        &node,
        served_with(&model, kept.clone()),
        OnlineConfig::default(),
    )
    .unwrap();
    assert!(tuner.recalibrate_region("neighbor_build").unwrap() > 0);
    assert!(tuner.recalibrate_region("integrate_verlet").unwrap() > 0);
    tuner.run_to_completion().unwrap();
    let outcome = tuner.finish().unwrap();
    assert_eq!(outcome.accounting.online.unwrap().recalibrated_regions, 2);
    let publication = outcome.publication.expect("re-calibrations publish");
    let names: Vec<&str> = publication
        .expected
        .iter()
        .map(|(r, _)| r.as_str())
        .collect();
    assert_eq!(
        names,
        ["compute_force", "integrate_verlet", "neighbor_build"]
    );
    assert_eq!(publication.expected[0], kept[0], "served value kept");
    assert!(publication.expected.iter().all(|(_, e)| *e > 0.0));
}

/// A no-op drift injector that counts how often the tuner asks it.
#[derive(Default)]
struct CountingDrift {
    calls: AtomicU32,
}

impl FaultInjector for CountingDrift {
    fn drift_scale(&self, _job: &str, _region: &str, _iteration: u32) -> f64 {
        self.calls.fetch_add(1, Ordering::Relaxed);
        1.0
    }
}

#[test]
fn drift_scale_is_asked_only_for_watched_measurements() {
    // The injector is asked for the exits a drift watch reads: unfiltered
    // exits of a region with an expectation, while it is not
    // re-calibrating. miniMD's calibration records expectations for two
    // of its four regions, and compute_force re-calibrates from the
    // start, so only neighbor_build's exits and compute_force's exits
    // after its re-calibration ask.
    let node = Node::exact(0);
    let bench = kernels::benchmark("miniMD").unwrap();
    let (model, watched) = calibrated_minimd(&node, &bench);
    let mut names: Vec<&str> = watched.iter().map(|(r, _)| r.as_str()).collect();
    names.sort_unstable();
    assert_eq!(names, ["compute_force", "neighbor_build"]);
    let run = |faults: Option<&CountingDrift>| {
        let tuner = OnlineTuner::monitor(
            "count",
            &bench,
            &node,
            served_with(&model, watched.clone()),
            OnlineConfig::default(),
        )
        .unwrap();
        let mut tuner = match faults {
            Some(f) => tuner.with_faults(f),
            None => tuner,
        };
        let needed = tuner.recalibrate_region("compute_force").unwrap();
        tuner.run_to_completion().unwrap();
        (needed, tuner.finish().unwrap())
    };
    let counting = CountingDrift::default();
    let (needed, counted) = run(Some(&counting));
    let (_, plain) = run(None);
    let visits = bench.phase_iterations;
    assert_eq!(needed, 9);
    assert_eq!(
        counting.calls.load(Ordering::Relaxed),
        2 * visits - needed as u32,
        "{visits} visits of each watched region, less the re-calibrating ones"
    );
    assert_eq!(counted.accounting.record, plain.accounting.record);
    assert_eq!(counted.drift_events, plain.drift_events);
    let (counted, plain) = (counted.publication.unwrap(), plain.publication.unwrap());
    assert_eq!(counted.model, plain.model);
    assert_eq!(counted.expected, plain.expected);
}

/// The event protocol both a plain session and an online tuner speak,
/// with each outcome reduced to its error text.
trait Events {
    fn enter(&mut self, region: &str) -> Result<(), String>;
    fn exit(&mut self, region: &str) -> Result<(), String>;
    fn phase(&mut self) -> Result<(), String>;
}

impl Events for RuntimeSession<'_> {
    fn enter(&mut self, region: &str) -> Result<(), String> {
        self.region_enter(region)
            .map(drop)
            .map_err(|e| e.to_string())
    }
    fn exit(&mut self, region: &str) -> Result<(), String> {
        self.region_exit(region)
            .map(drop)
            .map_err(|e| e.to_string())
    }
    fn phase(&mut self) -> Result<(), String> {
        self.phase_complete().map(drop).map_err(|e| e.to_string())
    }
}

impl Events for OnlineTuner<'_> {
    fn enter(&mut self, region: &str) -> Result<(), String> {
        self.region_enter(region)
            .map(drop)
            .map_err(|e| e.to_string())
    }
    fn exit(&mut self, region: &str) -> Result<(), String> {
        self.region_exit(region)
            .map(drop)
            .map_err(|e| e.to_string())
    }
    fn phase(&mut self) -> Result<(), String> {
        self.phase_complete().map(drop).map_err(|e| e.to_string())
    }
}

/// Every protocol misuse once, from a region boundary: an exit with no
/// enter, an unknown region, a double enter, an unknown region while one
/// is open, mismatched exits, a phase completion with a region open. The
/// script closes what it opens, so it leaves the driver at a boundary.
fn misuse(events: &mut impl Events, a: &str, b: &str) -> Vec<Result<(), String>> {
    vec![
        events.exit(a),
        events.enter("no_such_region"),
        events.enter(a),
        events.enter(a),
        events.enter("no_such_region"),
        events.exit(b),
        events.exit("no_such_region"),
        events.phase(),
        events.exit(a),
        events.exit(a),
    ]
}

/// Drive `tuner` until its next region enter would run in `stage`.
fn drive_to_stage(tuner: &mut OnlineTuner<'_>, stage: &str) {
    let bench = tuner.session().bench();
    while tuner.stage() != stage {
        for region in &bench.regions {
            tuner.region_enter(&region.name).unwrap();
            tuner.region_exit(&region.name).unwrap();
        }
        tuner.phase_complete().unwrap();
    }
}

#[test]
fn tuner_rejects_protocol_misuse_like_a_plain_session() {
    let node = Node::exact(0);
    let bench = kernels::benchmark("miniMD").unwrap();
    let strategy = strategy();
    let (a, b) = ("compute_force", "neighbor_build");
    assert!(bench.region(a).is_some() && bench.region(b).is_some());

    // The reference: a plain session's errors, in its precedence
    // (`RegionStillOpen` before `UnknownRegion`).
    let served = || {
        TuningModelRepository::new()
            .with_fallback(SystemConfig::taurus_default())
            .serve(&bench)
            .unwrap()
    };
    let mut session = RuntimeSession::start("ref", &bench, &node, served()).unwrap();
    let expected = misuse(&mut session, a, b);
    let ok = |i: usize| expected[i].is_ok();
    assert!(ok(2) && ok(8), "{expected:?}");
    let err = |i: usize| expected[i].clone().unwrap_err();
    assert!(err(0).starts_with("region_exit(`compute_force`) without"));
    assert!(err(1).contains("has no region `no_such_region`"));
    for i in [3, 4, 7] {
        assert!(err(i).contains("while region `compute_force` is still open"));
    }
    assert!(err(4).starts_with("cannot region_enter(`no_such_region`)"));
    assert!(err(5).contains("while `compute_force` is open"));
    assert!(err(6).starts_with("region_exit(`no_such_region`) while"));
    assert!(err(9).contains("without a matching region_enter"));
    session.region_enter(a).unwrap();
    let finish_err = session.finish().unwrap_err().to_string();
    assert_eq!(
        finish_err,
        "cannot finish while region `compute_force` is still open"
    );

    let check = |mut tuner: OnlineTuner<'_>, what: &str| {
        assert_eq!(misuse(&mut tuner, a, b), expected, "{what}");
        // The misuse left the tuner drivable.
        tuner.region_enter(b).unwrap();
        tuner.region_exit(b).unwrap();
        tuner.region_enter(a).unwrap();
        let Err(e) = tuner.finish() else {
            panic!("{what}: finish with a region open must fail");
        };
        assert_eq!(e.to_string(), finish_err, "{what}");
    };
    let calibrate = || {
        OnlineTuner::calibrate(
            "calib",
            &bench,
            &node,
            &strategy,
            None,
            OnlineConfig::default(),
        )
        .unwrap()
    };
    check(calibrate(), "calibrate, thread sweep");
    for stage in ["analysis", "phase-search", "exploit"] {
        let mut tuner = calibrate();
        drive_to_stage(&mut tuner, stage);
        check(tuner, stage);
    }

    // Monitor mode serves a calibrated model with drift expectations.
    let mut first = calibrate();
    first.run_to_completion().unwrap();
    let publication = first.finish().unwrap().publication.unwrap();
    let mut repo = TuningModelRepository::new();
    repo.publish_online(&bench, &publication.model, publication.expected);
    let mut monitor = || {
        OnlineTuner::monitor(
            "mon",
            &bench,
            &node,
            repo.serve(&bench).unwrap(),
            OnlineConfig::default(),
        )
        .unwrap()
    };
    check(monitor(), "monitor");
    let mut recalibrating = monitor();
    assert!(recalibrating.recalibrate_region(a).unwrap() > 0);
    check(recalibrating, "monitor, re-calibrating");
}

/// Wraps a strategy and counts how often it reads the phase counter
/// rates through [`ExplorationInputs::phase_rates`].
#[derive(Debug)]
struct CountingRates<S> {
    inner: S,
    reads: AtomicU32,
}

impl<S> CountingRates<S> {
    fn new(inner: S) -> Self {
        Self {
            inner,
            reads: AtomicU32::new(0),
        }
    }

    fn reads(&self) -> u32 {
        self.reads.load(Ordering::Relaxed)
    }
}

impl<S: SearchStrategy> SearchStrategy for CountingRates<S> {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn exploration(&self, inputs: &ExplorationInputs<'_>) -> Result<ExplorationPlan, TuningError> {
        let source = inputs.phase_rates;
        let counted = || {
            self.reads.fetch_add(1, Ordering::Relaxed);
            source()
        };
        self.inner.exploration(&ExplorationInputs {
            phase_rates: &counted,
            ..*inputs
        })
    }
}

/// A small energy model, cheap enough to train in a debug test: one
/// network on three training benchmarks over a coarse frequency grid.
fn small_energy_model() -> EnergyModel {
    let data = build_dataset(
        &kernels::training_set()[..3],
        &Node::exact(0),
        &[24],
        &[1200, 1800, 2500],
        &[1300, 2000, 3000],
    );
    EnergyModel::train(
        &data,
        &TrainConfig {
            net: NetConfig::paper(42),
            epochs: 2,
            ..TrainConfig::default()
        },
    )
}

/// The design-time advice and the online-converged model of `bench` under
/// `strategy`, with the experiments each side counted.
fn design_and_online(
    node: &Node,
    bench: &BenchmarkSpec,
    strategy: &dyn SearchStrategy,
    energy_model: &EnergyModel,
) -> (Advice, TuningModel, u32) {
    let advice = TuningSession::builder(node)
        .with_model(energy_model)
        .with_strategy(strategy)
        .run(bench)
        .expect("design-time session succeeds");
    let mut tuner = OnlineTuner::calibrate(
        "agreement",
        bench,
        node,
        strategy,
        Some(energy_model),
        OnlineConfig::default(),
    )
    .expect("calibration fits the phase loop");
    tuner.run_to_completion().expect("event loop succeeds");
    let model = tuner.converged_model().expect("converged").clone();
    let explored = tuner
        .finish()
        .expect("finish succeeds")
        .accounting
        .online
        .expect("online activity recorded")
        .explored_iterations;
    (advice, model, explored)
}

/// Under the `Neighbourhood` verification rule online calibration
/// converges to the design-time per-region and phase configurations, as it
/// does under `RandomSearch`'s reused pool. Design time measures its phase
/// search on the aggregate phase character and so measures every
/// verification configuration; online has per-region measurements of the
/// phase candidates and skips those. The pinned counts are the
/// `(k + 1 + phase + verification)` experiments each side reports.
#[test]
fn online_convergence_matches_design_time_under_the_neighbourhood_rule() {
    let node = Node::exact(0);
    let energy_model = small_energy_model();
    let minimd = kernels::benchmark("miniMD").unwrap();
    let toy = toy_benchmark("toy", 2e10, 70);
    let radius_one = ModelBasedNeighbourhood {
        radius: 1,
        recentre_extra: 0,
    };
    let paper = ModelBasedNeighbourhood::paper();
    let random = strategy();
    let cases: [(&str, &BenchmarkSpec, &dyn SearchStrategy, u64, u32); 3] = [
        ("miniMD, radius 1", &minimd, &radius_one, 15, 11),
        ("miniMD, random", &minimd, &random, 29, 17),
        ("toy, paper", &toy, &paper, 27, 23),
    ];
    for (case, bench, strategy, design_count, online_count) in cases {
        let (advice, model, explored) = design_and_online(&node, bench, strategy, &energy_model);
        for (region, design_cfg, _) in &advice.region_best {
            assert_eq!(
                model.lookup(region),
                *design_cfg,
                "{case}: region `{region}` must converge to the design-time config"
            );
        }
        assert_eq!(model.phase_config, advice.phase_best, "{case}: phase");
        assert_eq!(advice.experiments, design_count, "{case}: design time");
        assert_eq!(explored, online_count, "{case}: online");
    }
}

/// Random and exhaustive search never read the counter rates, so their
/// online calibrations leave the node's counter-noise stream where a
/// fresh node with the same `(id, seed)` starts.
#[test]
fn rate_independent_calibration_leaves_the_counter_noise_stream_alone() {
    let seed = 0x5EED;
    let bench = kernels::benchmark("miniMD").unwrap();
    let analysis = SystemConfig::calibration();

    let node = Node::new(0, seed);
    assert!(node.counter_noise_sd() > 0.0);
    let random = CountingRates::new(strategy());
    let mut tuner = OnlineTuner::calibrate(
        "random",
        &bench,
        &node,
        &random,
        None,
        OnlineConfig::default(),
    )
    .unwrap();
    tuner.run_to_completion().unwrap();
    assert!(tuner.finish().unwrap().publication.is_some());
    assert_eq!(random.reads(), 0);
    assert_eq!(
        phase_counter_rates(&bench, &node, analysis),
        phase_counter_rates(&bench, &Node::new(0, seed), analysis),
        "random search calibration"
    );

    // Exhaustive search plans the full space, which miniMD's phase loop
    // cannot fund: the plan is made, then the calibration abandons.
    let node = Node::new(0, seed);
    let exhaustive = CountingRates::new(ExhaustiveSearch);
    let mut tuner = OnlineTuner::calibrate(
        "exhaustive",
        &bench,
        &node,
        &exhaustive,
        None,
        OnlineConfig::default(),
    )
    .unwrap();
    assert!(matches!(
        tuner.run_to_completion(),
        Err(RuntimeError::ExplorationBudget { .. })
    ));
    assert_eq!(tuner.stage(), "abandoned");
    assert_eq!(exhaustive.reads(), 0);
    assert_eq!(
        phase_counter_rates(&bench, &node, analysis),
        phase_counter_rates(&bench, &Node::new(0, seed), analysis),
        "exhaustive search calibration"
    );
}

/// The model-based strategy reads the rates exactly once per calibration,
/// measured on the calibrating node at the analysis configuration, and
/// publishes the model it published when the rates were measured
/// unconditionally (golden FNV-1a of the publication's `Debug` text).
#[test]
fn model_based_calibration_measures_the_rates_once() {
    let seed = 0x5EED;
    let energy_model = small_energy_model();
    let bench = toy_benchmark("toy", 2e10, 70);
    let node = Node::new(0, seed);
    let strategy = CountingRates::new(ModelBasedNeighbourhood::paper());
    let mut tuner = OnlineTuner::calibrate(
        "model-based",
        &bench,
        &node,
        &strategy,
        Some(&energy_model),
        OnlineConfig::default(),
    )
    .unwrap();
    tuner.run_to_completion().unwrap();
    assert_eq!(tuner.stage(), "exploit");
    let publication = tuner.finish().unwrap().publication.unwrap();
    assert_eq!(strategy.reads(), 1);

    // The node's stream advanced by exactly one measurement.
    let analysis = SystemConfig::calibration();
    let twin = Node::new(0, seed);
    phase_counter_rates(&bench, &twin, analysis);
    assert_eq!(
        phase_counter_rates(&bench, &node, analysis),
        phase_counter_rates(&bench, &twin, analysis)
    );

    let text = format!("{publication:?}");
    assert_eq!(
        kernels::fnv1a(text.as_bytes()),
        MODEL_BASED_PUBLICATION_GOLDEN,
        "{text}"
    );
}

/// Recorded with the rates measured before every plan, whether the
/// strategy read them or not.
const MODEL_BASED_PUBLICATION_GOLDEN: u64 = 0xe9af_cad9_aae7_087d;

/// Under the EDP objective, an online calibration and a monitor run forced
/// through `recalibrate_region` keep the outcomes they had when each online
/// ranking site compared scores by hand (golden FNV-1a of the two
/// `OnlineOutcome`s' `Debug` text). Every other online golden runs the
/// energy objective.
#[test]
fn edp_calibration_and_recalibration_outcomes_are_golden() {
    let node = Node::exact(0);
    let bench = kernels::benchmark("miniMD").unwrap();
    let config = OnlineConfig {
        objective: TuningObjective::Edp,
    };
    let strategy = strategy();
    let mut calib =
        OnlineTuner::calibrate("edp-calib", &bench, &node, &strategy, None, config).unwrap();
    calib.run_to_completion().unwrap();
    let calibrated = calib.finish().unwrap();
    let publication = calibrated.publication.clone().expect("converged");
    let served = served_with(&publication.model, publication.expected);
    let mut monitor = OnlineTuner::monitor("edp-monitor", &bench, &node, served, config).unwrap();
    assert!(monitor.recalibrate_region("compute_force").unwrap() > 0);
    monitor.run_to_completion().unwrap();
    let monitored = monitor.finish().unwrap();
    assert!(monitored.publication.is_some());

    let text = format!("{calibrated:?}\n{monitored:?}");
    assert_eq!(kernels::fnv1a(text.as_bytes()), EDP_ONLINE_GOLDEN, "{text}");
}

/// Recorded with the online tuner ranking candidates by hand, before the
/// ranking moved into `TuningObjective::best`.
const EDP_ONLINE_GOLDEN: u64 = 0x19b9_2d3a_71c5_ed0d;
