//! The soak harness: a fixed scenario matrix for CI, plus an open-ended
//! seed sweep behind `--ignored` for long local soaks.
//!
//! CI runs `timeout 300 cargo test --release --test soak` — the external
//! timeout is the hang guard.
//! On any invariant violation the panic message carries the
//! `testkit::replay("…")` line; paste it into [`testkit::replay`] (or
//! shrink it first with [`testkit::shrink`]) to reproduce.

use testkit::{ArrivalModel, GeneratorConfig, ScenarioGenerator};

/// The fixed CI matrix: 20 seeds across five generator profiles — a
/// mixed faulted fleet under Poisson traffic, an all-cold
/// eviction-pressure profile whose every workload queues followers behind
/// its calibration while the LRU bound churns publications, a
/// replication-fault profile that spreads the trace over a 3-replica
/// set syncing through generated drops, duplicates, reorder jitter and
/// a partition window, a churn profile whose bursty trace rides the
/// discrete-event service loop through generated node drain/fail/join
/// events (the `event_core` quiesce guarantees under membership churn),
/// and an in-loop profile that serves the trace through
/// `run_service_replicated` — gossip rounds interleaved with job
/// events, a replica crash/restart pair mid-trace, read-repair on —
/// and must end converged with a batch-`converge` oracle no-op.
fn matrix() -> Vec<(&'static str, ScenarioGenerator, u64)> {
    let mixed = ScenarioGenerator::new(GeneratorConfig {
        jobs: 16,
        nodes: 4,
        workloads: 3,
        fault_fraction: 0.25,
        ..GeneratorConfig::default()
    });
    let pressure = ScenarioGenerator::new(GeneratorConfig {
        jobs: 12,
        nodes: 3,
        workloads: 4,
        stored_fraction: 0.0,
        eviction_pressure: true,
        arrivals: ArrivalModel::Bursty {
            burst: 4,
            gap_s: 120.0,
        },
        fault_fraction: 0.15,
        ..GeneratorConfig::default()
    });
    let replicated = ScenarioGenerator::new(GeneratorConfig {
        jobs: 9,
        nodes: 3,
        workloads: 3,
        fault_fraction: 0.2,
        replicas: 3,
        ..GeneratorConfig::default()
    });
    let churn = ScenarioGenerator::new(GeneratorConfig {
        jobs: 18,
        nodes: 4,
        workloads: 3,
        arrivals: ArrivalModel::Bursty {
            burst: 6,
            gap_s: 60.0,
        },
        fault_fraction: 0.2,
        churn_events: 5,
        ..GeneratorConfig::default()
    });
    let inloop = ScenarioGenerator::new(GeneratorConfig {
        jobs: 8,
        nodes: 3,
        workloads: 3,
        fault_fraction: 0.15,
        replicas: 3,
        inloop_gossip: true,
        replica_churn_events: 1,
        ..GeneratorConfig::default()
    });
    let mut out = Vec::new();
    for seed in [0x01u64, 0x5EED, 0xBEEF, 0xC0FFEE, 0xD1CE] {
        out.push(("mixed", mixed.clone(), seed));
    }
    for seed in [0x02u64, 0x2B, 0xACE, 0xFEED, 0xF00D] {
        out.push(("pressure", pressure.clone(), seed));
    }
    for seed in [0x03u64, 0x9055, 0x51AC] {
        out.push(("replicated", replicated.clone(), seed));
    }
    // The last two churn seeds joined in PR 9: the service loop drains a
    // session's contiguous region events in one batched pass now, and
    // these exercise that path under node drain/fail/join churn.
    for seed in [0x04u64, 0xDEA1, 0xCAB1E, 0xB47C4, 0x5A1AD] {
        out.push(("churn", churn.clone(), seed));
    }
    // The in-loop seeds joined in PR 10, with the in-loop replication
    // invariant (gossip-while-serving converges without a trailing
    // batch pass, and the batch converge oracle confirms it).
    for seed in [0x05u64, 0x60551B] {
        out.push(("inloop", inloop.clone(), seed));
    }
    out
}

/// The CI soak: every matrix cell must pass the full invariant catalog.
/// Failures print the one-line replay repro.
#[test]
fn soak_matrix_20_seeds() {
    for (profile, generator, seed) in matrix() {
        let scenario = generator.generate(seed);
        if let Err(failure) = testkit::check(&scenario) {
            panic!("soak[{profile}] seed {seed:#x} failed:\n{failure}");
        }
    }
}

/// Open-ended soak: sweep seeds until the time budget (default 300 s;
/// override with `TESTKIT_SOAK_SECS`) runs out. Heavy by design — run it
/// with `cargo test --release --test soak -- --ignored --nocapture`.
#[test]
#[ignore = "open-ended soak; run explicitly with --ignored"]
fn soak_open_ended() {
    let budget = std::env::var("TESTKIT_SOAK_SECS")
        .ok()
        .and_then(|s| s.parse().ok())
        .map(std::time::Duration::from_secs)
        .unwrap_or(std::time::Duration::from_secs(300));
    let start = std::time::Instant::now();
    let mut checked = 0u64;
    for seed in 0u64.. {
        if start.elapsed() >= budget {
            break;
        }
        for (profile, generator) in [
            (
                "mixed",
                ScenarioGenerator::new(GeneratorConfig {
                    jobs: 24,
                    nodes: 5,
                    workloads: 4,
                    fault_fraction: 0.3,
                    ..GeneratorConfig::default()
                }),
            ),
            (
                "pressure",
                ScenarioGenerator::new(GeneratorConfig {
                    jobs: 16,
                    workloads: 4,
                    stored_fraction: 0.0,
                    eviction_pressure: true,
                    fault_fraction: 0.2,
                    ..GeneratorConfig::default()
                }),
            ),
            (
                "churn",
                ScenarioGenerator::new(GeneratorConfig {
                    jobs: 20,
                    nodes: 5,
                    workloads: 3,
                    fault_fraction: 0.25,
                    churn_events: 7,
                    ..GeneratorConfig::default()
                }),
            ),
        ] {
            let scenario = generator.generate(seed);
            if let Err(failure) = testkit::check(&scenario) {
                panic!("open soak[{profile}] seed {seed:#x} failed:\n{failure}");
            }
            checked += 1;
        }
    }
    println!(
        "open-ended soak: {checked} scenarios clean in {:?}",
        start.elapsed()
    );
}
