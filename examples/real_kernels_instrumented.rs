//! Instrumenting real host kernels.
//!
//! ```text
//! cargo run --release --example real_kernels_instrumented
//! ```
//!
//! The simulator tunes *descriptions* of workloads; this example shows the
//! bridge from genuinely running code to such a description: run
//! the bundled sequential kernels (triad, blocked DGEMM, Jacobi stencil,
//! Monte-Carlo transport) on the host, derive their analytic
//! [`RegionCharacter`]s from known operation counts, and tune the
//! resulting application with an exhaustive-strategy session.

use std::time::Instant;

use dvfs_ufs_tuning::kernels::real;
use dvfs_ufs_tuning::kernels::{BenchmarkSpec, ProgrammingModel, RegionSpec, Suite};
use dvfs_ufs_tuning::ptf::{ExhaustiveSearch, TuningSession};
use dvfs_ufs_tuning::scorep_lite::dyn_detect::DynDetectConfig;
use dvfs_ufs_tuning::simnode::Node;

fn main() {
    // --- actually run the kernels on the host (sequentially) ---
    let n = 1 << 22;
    let bsrc = vec![1.0; n];
    let csrc = vec![2.0; n];
    let mut a = vec![0.0; n];
    let t = Instant::now();
    let checksum = real::triad(&mut a, &bsrc, &csrc, 3.0);
    println!(
        "triad     {n:>9} elems  {:>8.2?}  checksum {checksum:.1}",
        t.elapsed()
    );

    let m = 512;
    let am: Vec<f64> = (0..m * m).map(|i| (i % 13) as f64 - 6.0).collect();
    let bm: Vec<f64> = (0..m * m).map(|i| (i % 11) as f64 - 5.0).collect();
    let mut cm = vec![0.0; m * m];
    let t = Instant::now();
    real::dgemm(m, &am, &bm, &mut cm);
    println!(
        "dgemm     {m:>5}x{m:<5}      {:>8.2?}  c[0] {}",
        t.elapsed(),
        cm[0]
    );

    let (nx, ny) = (1024, 1024);
    let mut grid = vec![0.0; nx * ny];
    grid[..nx].fill(100.0);
    let mut next = grid.clone();
    let t = Instant::now();
    let mut delta = 0.0;
    for _ in 0..50 {
        delta = real::jacobi_sweep(nx, ny, &grid, &mut next);
        std::mem::swap(&mut grid, &mut next);
    }
    println!(
        "jacobi    {nx:>5}x{ny:<5} x50  {:>8.2?}  delta {delta:.4}",
        t.elapsed()
    );

    let particles = 2_000_000;
    let t = Instant::now();
    let transmitted = real::mc_transport(particles, 1.0, 2.0);
    println!(
        "mc        {particles:>9} parts {:>8.2?}  transmitted {transmitted:.4} (exp(-2) = {:.4})",
        t.elapsed(),
        (-2.0f64).exp()
    );

    // --- derive characters and tune the composite application ---
    let app = BenchmarkSpec::new(
        "real-kernel-mix",
        Suite::Other,
        ProgrammingModel::OpenMp,
        10,
        vec![
            RegionSpec::new("triad", real::triad_character(n * 40)),
            RegionSpec::new("dgemm", real::dgemm_character(2048)),
            RegionSpec::new("jacobi", real::jacobi_character(8192, 8192)),
            RegionSpec::new("mc_transport", real::mc_character(80_000_000)),
        ],
    );

    let node = Node::new(0, 5);
    // The short host-sized kernels sit below the default 100 ms HDEEM
    // significance threshold; lower it so all four get tuned.
    let detect = DynDetectConfig { threshold_s: 0.01 };
    let advice = TuningSession::builder(&node)
        .with_strategy(&ExhaustiveSearch)
        .with_dyn_detect(detect)
        .run(&app)
        .expect("exhaustive session succeeds");
    println!("\nenergy-optimal configurations per kernel (simulated Haswell-EP node):");
    for (name, cfg, _) in &advice.region_best {
        let intensity = app.region(name).unwrap().character.intensity();
        println!("  {name:<14} intensity {intensity:>6.2} instr/byte -> {cfg}");
    }
    println!(
        "\ncompute-dense dgemm pins high CF / low UCF; streaming triad and jacobi\nprefer reduced CF with the uncore kept high — the paper's Fig. 6/7 dichotomy\nreproduced on kernels you just executed."
    );
}
