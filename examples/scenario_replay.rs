//! The scenario engine's zero-to-repro loop, end to end:
//!
//! 1. generate a seeded heterogeneous scenario (bursty arrivals, a
//!    capability-gapped fleet, injected faults),
//! 2. run it through *both* cluster event loops and the full invariant
//!    catalog (`testkit::check`),
//! 3. print the cluster report and the one-line replay,
//! 4. prove the replay line reproduces the run bit-identically.
//!
//! ```text
//! cargo run --release --example scenario_replay
//! ```

use testkit::{ArrivalModel, GeneratorConfig, ScenarioGenerator};

fn main() {
    let generator = ScenarioGenerator::new(GeneratorConfig {
        jobs: 12,
        nodes: 4,
        workloads: 3,
        arrivals: ArrivalModel::Bursty {
            burst: 4,
            gap_s: 300.0,
        },
        fault_fraction: 0.3,
        ..GeneratorConfig::default()
    });
    let seed = 0x5EED;
    let scenario = generator.generate(seed);

    println!(
        "scenario seed {seed:#x}: {} jobs / {} workloads over {} nodes \
         ({} gapped), {} faults ({} aborts, {} refused calibrations, {} drift shifts)\n",
        scenario.jobs.len(),
        scenario.workloads.len(),
        scenario.fleet.nodes.len(),
        scenario
            .fleet
            .nodes
            .iter()
            .filter(|n| n.is_gapped())
            .count(),
        scenario.faults.len(),
        scenario.faults.aborts.len(),
        scenario.faults.calibration_failures.len(),
        scenario.faults.drift_shifts.len(),
    );

    // Run both event loops and the invariant catalog: version
    // integrity, the service loop's event core, telemetry determinism.
    let run = match testkit::check(&scenario) {
        Ok(run) => run,
        Err(failure) => {
            // A real violation would be minimised first:
            //   testkit::shrink(&scenario, &|s| testkit::check(s).err()
            //       .map(|f| f.violation.kind().to_string()))
            eprintln!("{failure}");
            std::process::exit(1);
        }
    };

    println!("{}", run.sequential.format_report());
    let online = run.sequential.online_summary();
    println!(
        "invariants held: {} jobs, {} calibrations, {} publications\n",
        run.sequential.jobs.len(),
        online.calibrations,
        online.publications,
    );

    // The scenario is data: one line reproduces everything.
    let line = scenario.to_replay();
    println!("replay line ({} bytes)", line.len());
    let replayed = testkit::replay(&line).expect("replay passes the catalog");
    assert_eq!(
        replayed.sequential.aggregate, run.sequential.aggregate,
        "replay must be bit-identical"
    );
    for (a, b) in replayed.sequential.jobs.iter().zip(&run.sequential.jobs) {
        assert_eq!(a.accounting.record, b.accounting.record, "{}", a.job);
    }
    println!("replayed: bit-identical to the original run ✓");
}
