//! Cluster serving: tune once, serve many re-submitted jobs.
//!
//! ```text
//! cargo run --release --example cluster_serving
//! ```
//!
//! The production pattern the runtime layer is built for: design-time
//! analysis tunes each application *once*, publishes the tuning model to
//! the `TuningModelRepository`, and every later submission of the same
//! workload is served the stored model. Here ten jobs (re-submissions of
//! three benchmarks, one of them never tuned) run concurrently across a
//! four-node cluster under round-robin placement; the scheduler
//! interleaves their `RuntimeSession`s event by event and reports per-job
//! and aggregate savings plus the repository hit rate. The untuned
//! benchmark is served the calibration fallback — a best-known static
//! configuration — instead of failing or running at the platform default.

use dvfs_ufs_tuning::kernels;
use dvfs_ufs_tuning::ptf::{EnergyModel, TuningSession};
use dvfs_ufs_tuning::rrl::{ClusterScheduler, TuningModelRepository};
use dvfs_ufs_tuning::simnode::{Cluster, Node, SystemConfig};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // A four-node production cluster (seeded: distinct power variability
    // per node, exactly reproducible) and the golden calibration node the
    // design-time analysis runs on.
    let cluster = Cluster::new(4, 0x5EED);
    let golden = Node::exact(0);

    // 1. Design time, once: train the energy model and tune the two
    //    applications we expect to see in the queue, publishing each
    //    tuning model to the repository. The fallback is a best-known
    //    static configuration (Table V territory) for anything untuned.
    println!("training the energy model on 14 benchmarks…");
    let model = EnergyModel::train_paper(&kernels::training_set(), &golden);
    let mut repo = TuningModelRepository::new().with_fallback(SystemConfig::new(24, 2400, 1700));
    for name in ["Lulesh", "miniMD"] {
        let bench = kernels::benchmark(name).expect("bundled benchmark");
        let advice = TuningSession::builder(&golden)
            .with_model(&model)
            .run(&bench)?;
        println!(
            "tuned {name}: {} scenarios, phase best {}",
            advice.tuning_model.scenario_count(),
            advice.phase_best
        );
        repo.publish(&advice);
    }

    // 2. Runtime: ten concurrent jobs — four Lulesh and four miniMD
    //    re-submissions (repository hits) plus two BEM4I jobs that were
    //    never tuned (calibration fallback).
    let mut scheduler = ClusterScheduler::new(&cluster)?;
    let queue = [
        "Lulesh", "miniMD", "Lulesh", "miniMD", "BEM4I", "Lulesh", "miniMD", "BEM4I", "Lulesh",
        "miniMD",
    ];
    for (i, name) in queue.iter().enumerate() {
        let bench = kernels::benchmark(name).expect("bundled benchmark");
        let node = scheduler.submit(format!("job-{i}-{name}"), bench);
        println!("submitted job-{i}-{name} -> node {node}");
    }

    println!(
        "\nserving {} concurrent jobs across {} nodes…\n",
        scheduler.pending(),
        cluster.len()
    );
    let report = scheduler.run(&mut repo)?;
    print!("{}", report.format_report());

    // 3. The per-region breakdown sacct alone cannot see, for one job.
    let first = &report.jobs[0];
    println!("\nper-region accounting of {}:", first.job);
    print!("{}", first.accounting.format_sacct());
    Ok(())
}
