//! The scenario engine's first customers: generated heterogeneous
//! scenarios with injected faults, checked against the full invariant
//! catalog — plus the acceptance properties of the engine itself
//! (bit-identical replays, shrinking to a one-line repro) and the
//! regression locks on eviction pressure and the capability-gap degrade
//! path.

use dvfs_ufs_tuning::rrl::ModelSource;
use testkit::{GeneratorConfig, Scenario, ScenarioGenerator, Violation};

/// Satellite 1 — the PR 4 property loop, beyond uniform fleets: for
/// 3 seeds × {16, 96} jobs, a generated scenario (heterogeneous
/// variability, capability gaps, mixed warm/cold workloads, Poisson
/// arrivals) with faults injected (aborts, refused calibrations, drift
/// shifts) still passes the full invariant catalog — `testkit::check`
/// verifies version integrity, the service loop's event core (per-job
/// bit-identity with the sweep where the two loops coincide) and
/// telemetry determinism.
#[test]
fn generated_heterogeneous_scenarios_bit_identical_with_faults() {
    for seed in [0x5EED_u64, 0xBEEF, 0xC0FFEE] {
        for jobs in [16usize, 96] {
            let generator = ScenarioGenerator::new(GeneratorConfig {
                jobs,
                nodes: 4 + (seed % 3) as usize,
                workloads: 4,
                fault_fraction: 0.25,
                ..GeneratorConfig::default()
            });
            let scenario = generator.generate(seed);
            assert!(
                !scenario.faults.is_empty(),
                "seed {seed:#x}: the property must run *with* faults"
            );
            let run = testkit::check(&scenario)
                .unwrap_or_else(|failure| panic!("seed {seed:#x} jobs {jobs}:\n{failure}"));
            // The scenario actually exercised the messy paths it
            // generated: heterogeneous placement and online warm-up.
            assert!(run.sequential.nodes_used >= 2, "seed {seed:#x}");
            assert!(
                run.sequential.online_summary().calibrations >= 1,
                "seed {seed:#x}: at least one cold workload calibrated"
            );
        }
    }
}

/// Acceptance — a seeded scenario with injected faults reproduces
/// bit-identically across two independent runs (generation, fleet and
/// repository construction, fault injection, every loop run: all pure
/// functions of the scenario value).
#[test]
fn seeded_fault_scenario_reproduces_bit_identically() {
    let generator = ScenarioGenerator::new(GeneratorConfig {
        jobs: 20,
        fault_fraction: 0.4,
        ..GeneratorConfig::default()
    });
    let scenario = generator.generate(0xD1CE);
    assert!(!scenario.faults.is_empty());

    let first = testkit::run_scenario(&scenario).expect("first run succeeds");
    let second = testkit::run_scenario(&scenario).expect("second run succeeds");
    for (a, b) in first.sequential.jobs.iter().zip(&second.sequential.jobs) {
        assert_eq!(a.job, b.job);
        assert_eq!(a.accounting.record, b.accounting.record, "{}", a.job);
        assert_eq!(a.accounting.regions, b.accounting.regions);
        assert_eq!(a.savings, b.savings);
        assert_eq!(a.drift, b.drift);
        assert_eq!(a.aborted_at, b.aborted_at);
        assert_eq!(a.rejection, b.rejection);
    }
    assert_eq!(first.sequential.aggregate, second.sequential.aggregate);
    assert_eq!(first.sequential.repository, second.sequential.repository);
    // The faults visibly fired: at least one job was truncated.
    assert!(
        first.sequential.jobs.iter().any(|j| j.aborted_at.is_some()),
        "an abort fault must have fired"
    );
    // …and the replay line reruns the exact same scenario.
    let replayed = testkit::replay(&scenario.to_replay()).expect("replay passes the catalog");
    assert_eq!(
        replayed.sequential.aggregate, first.sequential.aggregate,
        "replay is bit-identical too"
    );
}

/// Regression lock on eviction pressure: when generated repository
/// pressure (capacity below the publishing-workload count) evicts
/// publications *mid-run*, followers whose leader's model was already
/// evicted re-calibrate — they must not pin the calibration fallback —
/// and the full invariant catalog still holds.
#[test]
fn generated_eviction_pressure_recalibrates_evicted_followers() {
    // Deterministic shape: two equal-length cold workloads whose leaders
    // publish in the same sweep through a generated capacity bound of 1,
    // so the second publication evicts the first *mid-run*, and the
    // first workload's followers — released by an already-settled
    // calibration — must re-miss and re-calibrate.
    let generator = ScenarioGenerator::new(GeneratorConfig {
        jobs: 6,
        workloads: 2,
        stored_fraction: 0.0, // all cold: every workload calibrates + publishes
        eviction_pressure: true,
        capability_gap_fraction: 0.0, // isolate the eviction behaviour
        fault_fraction: 0.0,
        ..GeneratorConfig::default()
    });
    let mut scenario = generator.generate(2);
    assert!(scenario.eviction_pressure());
    assert_eq!(
        scenario.repository.capacity, 1,
        "generated pressure: capacity = publishing workloads / 2"
    );
    // Make the two workloads event-count-identical (same regions, same
    // iterations — only the name and therefore the fingerprint differ)
    // so their leaders finish in the same sweep, and interleave the
    // trace leaders-first.
    let mut twin = scenario.workloads[0].bench.clone();
    twin.name = format!("{}-twin", twin.name);
    scenario.workloads[1].bench = twin;
    for (i, w) in [0usize, 1, 0, 0, 1, 1].into_iter().enumerate() {
        scenario.jobs[i].workload = w;
    }

    // `check` runs the full invariant catalog under pressure too.
    let run = testkit::check(&scenario).unwrap_or_else(|failure| panic!("{failure}"));
    let report = &run.sequential;
    assert!(
        report.repository.evictions > 0,
        "the second leader's publication evicts the first mid-run"
    );
    // The regression lock: every workload is calibratable, so *no* job
    // may end up pinned on the calibration fallback — evicted-publication
    // followers re-calibrate instead.
    for job in &report.jobs {
        assert_ne!(
            job.accounting.source,
            ModelSource::Fallback,
            "job {} pinned the fallback under eviction pressure",
            job.job
        );
    }
    let calibrations = report.online_summary().calibrations;
    assert!(
        calibrations > scenario.workloads.len(),
        "followers of the evicted workload re-calibrated \
         ({calibrations} calibrations for {} workloads)",
        scenario.workloads.len()
    );
}

/// Satellite 3 — capability-gap fleets at scenario scale: jobs whose
/// full-width stored models land on gapped nodes degrade (with the
/// rejection naming job + node in the outcome and the report) instead of
/// aborting the run, identically in both event loops.
#[test]
fn capability_gap_scenarios_degrade_and_name_the_culprit() {
    let generator = ScenarioGenerator::new(GeneratorConfig {
        jobs: 12,
        nodes: 4,
        workloads: 2,
        online: false,
        stored_fraction: 1.0,         // every workload serves a 24-thread model
        capability_gap_fraction: 0.6, // most nodes are gapped
        fault_fraction: 0.0,
        ..GeneratorConfig::default()
    });
    let mut rejections = 0usize;
    for seed in [11u64, 12, 13] {
        let scenario = generator.generate(seed);
        if !scenario.fleet.nodes.iter().any(|n| n.is_gapped()) {
            continue; // this seed sampled no gaps
        }
        let run =
            testkit::check(&scenario).unwrap_or_else(|failure| panic!("seed {seed}:\n{failure}"));
        for job in &run.sequential.jobs {
            if let Some(rejection) = &job.rejection {
                rejections += 1;
                assert_eq!(rejection.job, job.job, "rejection names its job");
                assert_eq!(rejection.node_id, job.node_id, "…and its node");
                assert_eq!(
                    job.accounting.source,
                    ModelSource::Fallback,
                    "degraded jobs run untuned"
                );
                assert_eq!(job.accounting.switches, 0);
                let text = run.sequential.format_report();
                assert!(
                    text.contains(&format!("{} on node {}", job.job, job.node_id)),
                    "{text}"
                );
            }
        }
    }
    assert!(rejections > 0, "gapped fleets must produce rejections");
}

/// Acceptance — the shrinker reduces a deliberately-failing scenario to
/// ≤ 3 jobs, and the emitted replay line re-triggers the same violation.
#[test]
fn shrinker_reduces_failing_scenario_to_replay_line() {
    // The planted "invariant": no job may be served the calibration
    // fallback. With cold workloads and no online tuning, fallback serves
    // are guaranteed — a deliberately failing scenario.
    let generator = ScenarioGenerator::new(GeneratorConfig {
        jobs: 14,
        nodes: 4,
        workloads: 3,
        online: false,
        stored_fraction: 0.5,
        capability_gap_fraction: 0.0,
        fault_fraction: 0.3,
        ..GeneratorConfig::default()
    });
    let scenario = generator.generate(0xFA11);

    let fails = |s: &Scenario| -> Option<String> {
        let run = testkit::run_scenario(s).ok()?;
        run.sequential
            .jobs
            .iter()
            .any(|j| j.accounting.source == ModelSource::Fallback)
            .then(|| "fallback-served-job".to_string())
    };

    let shrunk = testkit::shrink(&scenario, &fails).expect("the scenario fails the invariant");
    assert_eq!(shrunk.violation, "fallback-served-job");
    assert!(
        shrunk.scenario.jobs.len() <= 3,
        "shrunk to {} jobs after {} attempts",
        shrunk.scenario.jobs.len(),
        shrunk.attempts
    );
    assert_eq!(shrunk.scenario.fleet.nodes.len(), 1);
    assert!(
        shrunk.scenario.workloads.len() < scenario.workloads.len(),
        "unused workloads pruned"
    );

    // The replay line is a complete, parseable repro that re-triggers
    // the same violation.
    let line = shrunk.replay_line();
    let reparsed = Scenario::from_replay(&line).expect("replay line parses");
    assert_eq!(reparsed, shrunk.scenario);
    assert_eq!(
        fails(&reparsed).as_deref(),
        Some("fallback-served-job"),
        "the minimal scenario still fails the same way"
    );
}

/// The drift-shift fault kind end to end: a monitored (drift-armed)
/// workload with an injected mid-run shift fires the detector, scoped
/// re-calibration runs, and the patched model is re-published — all
/// inside the bit-identity contract (testkit::check verified it above;
/// here the *shape* of the adaptation is asserted).
#[test]
fn injected_drift_shift_fires_detection_and_republication() {
    use testkit::{DriftShiftFault, StoredModel};

    let generator = ScenarioGenerator::new(GeneratorConfig {
        jobs: 6,
        nodes: 2,
        workloads: 1,
        stored_fraction: 1.0,
        capability_gap_fraction: 0.0,
        fault_fraction: 0.0,
        ..GeneratorConfig::default()
    });
    let mut scenario = generator.generate(0xD21F7);
    assert_eq!(scenario.workloads[0].stored, StoredModel::Calibrated);
    let bench = &scenario.workloads[0].bench;
    scenario.faults.drift_shifts.push(DriftShiftFault {
        job: scenario.jobs[2].name.clone(),
        region: bench.regions[0].name.clone(),
        from_iteration: bench.phase_iterations / 4,
        factor: 1.6,
    });

    let run = testkit::check(&scenario).unwrap_or_else(|failure| panic!("{failure}"));
    let shifted = &run.sequential.jobs[2];
    assert!(
        !shifted.drift.is_empty(),
        "the injected shift fires the detector: {:?}",
        shifted.drift
    );
    assert_eq!(
        shifted.drift[0].region,
        scenario.faults.drift_shifts[0].region
    );
    assert!(
        shifted.published_version.is_some(),
        "the re-calibrated model re-publishes with a bumped version"
    );
    // Accounting stays truthful: only the detector's view was scaled, so
    // the job's ledger matches its unshifted siblings' order of
    // magnitude (it re-explored, so it differs — but not by 1.6×).
    let sibling = &run.sequential.jobs[3];
    let ratio = shifted.accounting.record.job_energy_j / sibling.accounting.record.job_energy_j;
    assert!(
        (0.5..1.5).contains(&ratio),
        "injected shift must not corrupt the ledger (ratio {ratio})"
    );
}

/// A replay line from before the lock-striped repository was retired:
/// its repository spec still carries `"shards":4`. The named-field
/// deserializer ignores the unknown key, so old repro lines keep parsing
/// into the scenario the generator draws today, and keep running.
const PRE_STRIPE_RETIREMENT_REPLAY: &str = concat!(
    r#"{"faults":{"aborts":[],"calibration_failures":[],"churn":[],"drift_shifts":[]"#,
    r#","replica_churn":[]},"fleet":{"nodes":[{"cores_per_socket":12"#,
    r#","counter_noise_sd":0.00195566238268393,"variability":0.971537686254505}],"seed":84}"#,
    r#","jobs":[{"arrival_s":128.15728511607935,"name":"j0-w0","workload":0}"#,
    r#",{"arrival_s":137.637039019702,"name":"j1-w0","workload":0}],"net":null"#,
    r#","online":{"search_pool":10,"search_seed":24249},"repository":{"capacity":0"#,
    r#","fallback":{"core":2400,"threads":24,"uncore":1700},"shards":4},"seed":84"#,
    r#","workloads":[{"bench":{"model":"Hybrid","name":"wl0-0000000000000054""#,
    r#","phase_iterations":29,"regions":[{"character":{"branch_misp_rate":0.02"#,
    r#","branch_ntk_frac":0.4,"dram_bytes_per_iter":95878420152.83508,"frac_branch":0.12"#,
    r#","frac_fp":0.3,"frac_load":0.25,"frac_store":0.1,"frac_vec":0.5"#,
    r#","instr_per_iter":34547785654.28524,"ipc_base":1.2814129563063288"#,
    r#","l1d_miss_per_instr":0.01,"l2_dcr_per_instr":0.008,"l2_icr_per_instr":0.0005"#,
    r#","l2_miss_per_instr":0.003,"mem_queue_sensitivity":1.0,"overlap":0.8"#,
    r#","parallel_fraction":0.99,"stall_frac":0.3246808054265639},"name":"region_0""#,
    r#","variation_amplitude":0.0},{"character":{"branch_misp_rate":0.02"#,
    r#","branch_ntk_frac":0.4,"dram_bytes_per_iter":0.0,"frac_branch":0.12,"frac_fp":0.3"#,
    r#","frac_load":0.25,"frac_store":0.1,"frac_vec":0.5,"instr_per_iter":50000000.0"#,
    r#","ipc_base":2.0,"l1d_miss_per_instr":0.01,"l2_dcr_per_instr":0.008"#,
    r#","l2_icr_per_instr":0.0005,"l2_miss_per_instr":0.003,"mem_queue_sensitivity":1.0"#,
    r#","overlap":0.8,"parallel_fraction":0.99,"stall_frac":0.2},"name":"filler""#,
    r#","variation_amplitude":0.0}],"suite":"Npb"},"stored":"None"}]}"#,
);

#[test]
fn replay_line_with_a_shards_key_still_parses_and_runs() {
    assert!(PRE_STRIPE_RETIREMENT_REPLAY.contains(r#""shards":4"#));
    let scenario = Scenario::from_replay(PRE_STRIPE_RETIREMENT_REPLAY).expect("old line parses");
    let regenerated = ScenarioGenerator::new(GeneratorConfig {
        jobs: 2,
        nodes: 1,
        workloads: 1,
        fault_fraction: 0.0,
        ..GeneratorConfig::default()
    })
    .generate(84);
    assert_eq!(scenario, regenerated);
    let run = testkit::replay(PRE_STRIPE_RETIREMENT_REPLAY).unwrap_or_else(|f| panic!("{f}"));
    assert_eq!(run.sequential.jobs.len(), 2);
    assert_eq!(run.service.jobs.len(), 2);
}

/// A job naming a workload the line does not carry is a malformed line,
/// not an index panic in the runner.
#[test]
fn replay_line_naming_a_missing_workload_is_malformed() {
    let first_job = r#"{"arrival_s":128.15728511607935,"name":"j0-w0","workload":0}"#;
    assert!(PRE_STRIPE_RETIREMENT_REPLAY.contains(first_job));
    let line = PRE_STRIPE_RETIREMENT_REPLAY.replacen(
        first_job,
        &first_job.replace(r#""workload":0"#, r#""workload":7"#),
        1,
    );
    let failure = testkit::replay(&line).expect_err("out-of-range workload");
    match &failure.violation {
        Violation::Malformed { detail } => {
            assert!(detail.contains("j0-w0"), "names the job: {detail}");
        }
        other => panic!("expected a malformed line, got {other}"),
    }
}

/// A line whose workload runs no phase iteration: every job's savings are
/// 0/0 = NaN in every run, which the bit-identity invariants must accept.
#[test]
fn replay_line_with_zero_phase_iterations_passes_the_catalog() {
    assert!(PRE_STRIPE_RETIREMENT_REPLAY.contains(r#""phase_iterations":29"#));
    let line =
        PRE_STRIPE_RETIREMENT_REPLAY.replace(r#""phase_iterations":29"#, r#""phase_iterations":0"#);
    let run = testkit::replay(&line).unwrap_or_else(|f| panic!("{f}"));
    assert_eq!(run.sequential.jobs.len(), 2);
    assert!(run.sequential.jobs[0].savings.job_energy_pct.is_nan());
}

/// The same for a workload with no regions.
#[test]
fn replay_line_with_no_regions_passes_the_catalog() {
    let start = PRE_STRIPE_RETIREMENT_REPLAY
        .find(r#""regions":["#)
        .expect("regions key");
    let end = PRE_STRIPE_RETIREMENT_REPLAY
        .find(r#"],"suite""#)
        .expect("suite key");
    let line = format!(
        "{}\"regions\":[{}",
        &PRE_STRIPE_RETIREMENT_REPLAY[..start],
        &PRE_STRIPE_RETIREMENT_REPLAY[end..]
    );
    let run = testkit::replay(&line).unwrap_or_else(|f| panic!("{f}"));
    assert_eq!(run.sequential.jobs.len(), 2);
}
