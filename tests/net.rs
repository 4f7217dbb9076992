//! Replicated serving under network faults, end to end: generated
//! scenarios carrying a [`testkit::NetPlan`] run their trace round-robin
//! over a fault-injected [`rrl::ReplicaSet`], converge by anti-entropy,
//! and must satisfy the replication invariants — identical model maps on
//! every replica, the stamp-maximal winner per application and
//! bit-identical reruns — no matter which messages the plan drops,
//! duplicates, delays or partitions away.

use dvfs_ufs_tuning::rrl::Stamp;
use testkit::{GeneratorConfig, NetPlan, PartitionWindow, Scenario, ScenarioGenerator};

fn replicated_generator(replicas: usize) -> ScenarioGenerator {
    ScenarioGenerator::new(GeneratorConfig {
        // A pair gossips few frames per job; twice the jobs give every
        // 2-replica cell enough traffic for its shape's fault to fire.
        jobs: if replicas == 2 { 16 } else { 8 },
        nodes: 3,
        workloads: 2,
        fault_fraction: 0.0,
        capability_gap_fraction: 0.0,
        replicas,
        ..GeneratorConfig::default()
    })
}

/// The property loop: 3 seeds × {2, 4} replicas × three plan shapes
/// (partition-heavy, reorder-heavy, duplicate-heavy). Every cell must
/// pass the full invariant catalog — the replication invariants verify
/// convergence to identical repositories and the deterministic winner —
/// and the replicated execution must actually have exercised its shape's
/// fault.
#[test]
fn replicated_scenarios_converge_under_every_plan_shape() {
    for seed in [0x5EED_u64, 0xBEEF, 0xC0FFEE] {
        for replicas in [2usize, 4] {
            for shape in ["partition", "reorder", "duplicate"] {
                let mut scenario = replicated_generator(replicas).generate(seed);
                let net = scenario.net.as_mut().expect("replicas > 0 draws a plan");
                match shape {
                    // Only the generated partition window; reliable links.
                    "partition" => {
                        net.drop_permille = 0;
                        net.duplicate_permille = 0;
                        net.delay_jitter_ticks = 0;
                    }
                    // Heavy reorder jitter plus real loss; no partition.
                    "reorder" => {
                        net.partitions.clear();
                        net.drop_permille = 80;
                        net.duplicate_permille = 0;
                        net.delay_jitter_ticks = 3;
                    }
                    // Aggressive duplication with mild jitter.
                    _ => {
                        net.partitions.clear();
                        net.drop_permille = 0;
                        net.duplicate_permille = 300;
                        net.delay_jitter_ticks = 1;
                    }
                }

                let run = testkit::check(&scenario).unwrap_or_else(|failure| {
                    panic!("seed {seed:#x} × {replicas} replicas × {shape}:\n{failure}")
                });
                let replicated = run.replicated.expect("net plan ran the replicated path");
                let label = format!("seed {seed:#x} × {replicas} × {shape}");
                assert!(replicated.reruns_match, "{label}");
                assert_eq!(replicated.model_maps.len(), replicas, "{label}");
                assert!(
                    !replicated.model_maps[0].is_empty(),
                    "{label}: something converged"
                );
                assert!(
                    replicated.converge.applied > 0,
                    "{label}: sync shipped models"
                );
                let transport = replicated.converge.transport;
                match shape {
                    "partition" => assert!(transport.partitioned > 0, "{label}"),
                    "reorder" => assert!(transport.dropped > 0, "{label}"),
                    _ => assert!(transport.duplicated > 0, "{label}"),
                }
            }
        }
    }
}

/// Acceptance — the ISSUE's headline scenario: a seeded
/// partition+reorder+duplicate plan over 4 replicas with a concurrent
/// drift re-publish. The drifted workload is stored (and so published on
/// replica 0 at v1); the other replicas serve it cold before sync and
/// publish concurrent v1 stamps of their own; the drift shift fires on a
/// replica-0 job mid-run and re-publishes at v2. After convergence every
/// replica must hold the v2 re-publication — the deterministic winner —
/// bit-identically across independent re-runs.
#[test]
fn drift_republish_wins_everywhere_under_partition_reorder_duplicate() {
    use testkit::{DriftShiftFault, StoredModel};

    let generator = ScenarioGenerator::new(GeneratorConfig {
        jobs: 8,
        nodes: 2,
        workloads: 1,
        stored_fraction: 1.0,
        capability_gap_fraction: 0.0,
        fault_fraction: 0.0,
        replicas: 4,
        ..GeneratorConfig::default()
    });
    let mut scenario = generator.generate(0xD21F7);
    assert_eq!(scenario.workloads[0].stored, StoredModel::Calibrated);
    let bench = scenario.workloads[0].bench.clone();
    // Job 4 runs on replica 4 % 4 = 0, the replica holding the stored
    // model — its injected shift drives the v2 re-publication.
    scenario.faults.drift_shifts.push(DriftShiftFault {
        job: scenario.jobs[4].name.clone(),
        region: bench.regions[0].name.clone(),
        from_iteration: bench.phase_iterations / 4,
        factor: 1.6,
    });
    scenario.net = Some(NetPlan {
        replicas: 4,
        fault_seed: 0x0DD5_EED5,
        drop_permille: 120,
        duplicate_permille: 100,
        delay_jitter_ticks: 3,
        partitions: vec![PartitionWindow {
            from_tick: 0,
            to_tick: 24,
            isolated: vec![2],
        }],
        // Batch-style convergence; the in-loop path has its own tests.
        gossip_cadence_us: 0,
        read_repair: false,
    });

    let first = testkit::check(&scenario).unwrap_or_else(|failure| panic!("{failure}"));
    let replicated = first.replicated.as_ref().expect("replicated path ran");

    // All three fault kinds actually fired during convergence.
    let transport = replicated.converge.transport;
    assert!(transport.partitioned > 0, "partition fired: {transport:?}");
    assert!(transport.dropped > 0, "drops fired: {transport:?}");
    assert!(transport.duplicated > 0, "duplicates fired: {transport:?}");

    // Concurrent publications existed (replica 0's stored v1 + the cold
    // replicas' own v1 stamps) and the drift re-publication superseded
    // them all: the converged winner is v2 from replica 0.
    let v1_publishers: Vec<u32> = replicated
        .published
        .iter()
        .filter(|(app, stamp)| *app == bench.name && stamp.version == 1)
        .map(|(_, stamp)| stamp.publisher)
        .collect();
    assert!(
        v1_publishers.len() >= 2,
        "concurrent v1 publications: {v1_publishers:?}"
    );
    let winner = Stamp {
        version: 2,
        publisher: 0,
    };
    assert!(
        replicated.published.contains(&(bench.name.clone(), winner)),
        "the drift re-publication happened: {:?}",
        replicated.published
    );
    for (replica, map) in replicated.model_maps.iter().enumerate() {
        assert_eq!(
            map.get(&bench.name).map(|digest| digest.stamp),
            Some(winner),
            "replica {replica} holds the re-published winner"
        );
    }

    // Bit-identical across re-runs: within one ScenarioRun (the runner
    // executes twice and compares)…
    assert!(replicated.reruns_match);
    // …and across fully independent executions of the whole scenario.
    let second = testkit::run_scenario(&scenario).expect("re-run succeeds");
    let again = second.replicated.expect("replicated path ran again");
    assert_eq!(again.model_maps, replicated.model_maps);
    assert_eq!(again.published, replicated.published);
    assert_eq!(again.converge, replicated.converge);
}

/// Acceptance — the shrinker minimises a failing replicated scenario to
/// a one-line `testkit::replay` repro, stripping every net knob that
/// does not contribute to the failure.
#[test]
fn shrinker_reduces_replicated_scenario_to_replay_line() {
    // The planted "invariant": no replicated execution may converge a
    // non-empty model map. Any publishing workload violates it, so the
    // scenario fails for as long as one calibrating job and the net plan
    // survive — everything else is ballast.
    let generator = ScenarioGenerator::new(GeneratorConfig {
        jobs: 6,
        nodes: 2,
        workloads: 2,
        stored_fraction: 0.0,
        capability_gap_fraction: 0.0,
        fault_fraction: 0.2,
        replicas: 4,
        ..GeneratorConfig::default()
    });
    let scenario = generator.generate(0xFA11);

    let fails = |s: &Scenario| -> Option<String> {
        let run = testkit::run_scenario(s).ok()?;
        run.replicated
            .is_some_and(|r| !r.model_maps[0].is_empty())
            .then(|| "replicated-publication".to_string())
    };

    let shrunk = testkit::shrink(&scenario, &fails).expect("the scenario fails the invariant");
    assert_eq!(shrunk.violation, "replicated-publication");
    assert!(
        shrunk.scenario.jobs.len() <= 2,
        "shrunk to {} jobs after {} attempts",
        shrunk.scenario.jobs.len(),
        shrunk.attempts
    );
    let net = shrunk
        .scenario
        .net
        .as_ref()
        .expect("the plan is load-bearing");
    assert_eq!(net.replicas, 2, "replica count collapsed to the minimum");
    assert_eq!(net.drop_permille, 0);
    assert_eq!(net.duplicate_permille, 0);
    assert_eq!(net.delay_jitter_ticks, 0);
    assert!(net.partitions.is_empty());
    assert_eq!(shrunk.scenario.fleet.nodes.len(), 1);

    // The one-line repro parses back to the minimal scenario and still
    // fails the same way.
    let line = shrunk.replay_line();
    let reparsed = Scenario::from_replay(&line).expect("replay line parses");
    assert_eq!(reparsed, shrunk.scenario);
    assert_eq!(fails(&reparsed).as_deref(), Some("replicated-publication"));
}
