//! Reproduction-band tests: the paper's qualitative claims that must hold
//! in this implementation (the quantitative comparison lives in
//! EXPERIMENTS.md and the `bench-suite` binaries).

use dvfs_ufs_tuning::kernels;
use dvfs_ufs_tuning::ptf::{exhaustive, SearchSpace, TuningObjective};
use dvfs_ufs_tuning::simnode::{Cluster, ExecutionEngine, Node, SystemConfig};

/// Table V: static optima of the five test benchmarks, within one
/// frequency step of the paper and with exact thread counts.
#[test]
fn table5_static_optima_within_one_step() {
    let node = Node::exact(0);
    let space = SearchSpace::full(vec![12, 16, 20, 24]);
    let expect: &[(&str, u32, u32, u32)] = &[
        // (name, threads, CF MHz, UCF MHz) — paper values.
        ("Lulesh", 24, 2400, 1700),
        ("Amg2013", 16, 2500, 2300),
        ("miniMD", 24, 2500, 1500),
        ("BEM4I", 24, 2300, 1900),
        ("Mcbenchmark", 20, 1600, 2500),
    ];
    for &(name, threads, cf, ucf) in expect {
        let bench = kernels::benchmark(name).unwrap();
        let (best, _) = exhaustive::search_static(&bench, &node, &space, TuningObjective::Energy);
        assert_eq!(
            best.threads, threads,
            "{name}: threads {} vs paper {threads}",
            best.threads
        );
        assert!(
            (best.core.mhz() as i64 - cf as i64).abs() <= 100,
            "{name}: CF {} vs paper {cf}",
            best.core.mhz()
        );
        assert!(
            (best.uncore.mhz() as i64 - ucf as i64).abs() <= 300,
            "{name}: UCF {} vs paper {ucf}",
            best.uncore.mhz()
        );
    }
}

/// Figures 2/3: power variability across nodes collapses under
/// normalisation.
#[test]
fn normalisation_collapses_node_variability() {
    let bench = kernels::benchmark("Lulesh").unwrap();
    let phase = bench.phase_character();
    let engine = ExecutionEngine::new();
    let cluster = Cluster::new(4, 0xBEEF);
    let calib = SystemConfig::calibration();

    let mut max_raw_spread: f64 = 0.0;
    let mut max_norm_spread: f64 = 0.0;
    for cf in (1200..=2500).step_by(100) {
        let cfg = SystemConfig::new(24, cf, 1500);
        let raw: Vec<f64> = cluster
            .iter()
            .map(|n| engine.run_region(&phase, &cfg, n).node_energy_j)
            .collect();
        let norm: Vec<f64> = cluster
            .iter()
            .map(|n| {
                engine.run_region(&phase, &cfg, n).node_energy_j
                    / engine.run_region(&phase, &calib, n).node_energy_j
            })
            .collect();
        let spread = |v: &[f64]| {
            let max = v.iter().fold(f64::MIN, |a, &b| a.max(b));
            let min = v.iter().fold(f64::MAX, |a, &b| a.min(b));
            (max - min) / min
        };
        max_raw_spread = max_raw_spread.max(spread(&raw));
        max_norm_spread = max_norm_spread.max(spread(&norm));
    }
    assert!(
        max_raw_spread > 0.01,
        "nodes must differ in raw energy ({max_raw_spread})"
    );
    assert!(
        max_norm_spread < max_raw_spread / 3.0,
        "normalisation must collapse the spread: raw {max_raw_spread}, norm {max_norm_spread}"
    );
}

/// Figures 6/7: compute-bound and memory-bound codes tune in opposite
/// frequency directions.
#[test]
fn fig6_fig7_frequency_dichotomy() {
    let node = Node::exact(0);
    let space24 = SearchSpace::full(vec![24]);
    let space20 = SearchSpace::full(vec![20]);

    let lulesh = kernels::benchmark("Lulesh").unwrap();
    let (l_best, _) = exhaustive::search_static(&lulesh, &node, &space24, TuningObjective::Energy);

    let mcb = kernels::benchmark("Mcbenchmark").unwrap();
    let (m_best, _) = exhaustive::search_static(&mcb, &node, &space20, TuningObjective::Energy);

    assert!(
        l_best.core.mhz() >= 2300,
        "Lulesh core high: {}",
        l_best.core
    );
    assert!(
        l_best.uncore.mhz() <= 1900,
        "Lulesh uncore low: {}",
        l_best.uncore
    );
    assert!(m_best.core.mhz() <= 1800, "Mcb core low: {}", m_best.core);
    assert!(
        m_best.uncore.mhz() >= 2000,
        "Mcb uncore high: {}",
        m_best.uncore
    );
}

/// Section V-C: model-based tuning is orders of magnitude cheaper than
/// exhaustive per-region search.
#[test]
fn tuning_time_speedup_exceeds_two_orders_of_magnitude() {
    let space = SearchSpace::full(vec![12, 16, 20, 24]);
    let t = 10.0;
    let exhaustive_s = exhaustive::tuning_time_exhaustive(5, &space, t);
    // Our DTA consumes at most k + 1 + 49 + 18 phase-iteration
    // equivalents (thread sweep + analysis + recentring + verification).
    let model_s = exhaustive::tuning_time_model_based(4, 49 + 18, t);
    assert!(
        exhaustive_s / model_s >= 70.0,
        "speedup {}",
        exhaustive_s / model_s
    );
    // With per-phase-iteration experiments (progressive loops) the gap
    // widens by another factor of the iteration count.
    let model_iter_s = exhaustive::tuning_time_model_based(4, 49 + 18, t / 25.0);
    assert!(exhaustive_s / model_iter_s > 1000.0);
}

/// The 100 ms significance threshold exists because HDEEM cannot resolve
/// shorter regions (Section III-A).
#[test]
fn significance_threshold_matches_hdeem_resolution() {
    use dvfs_ufs_tuning::simnode::HdeemSensor;
    use rand::SeedableRng;
    let sensor = HdeemSensor::taurus();
    let mut rng = rand::rngs::StdRng::seed_from_u64(0);
    // A 100 ms region yields ≥ 90 usable samples; a 10 ms region < 10.
    let long = sensor.measure(250.0, 0.100, &mut rng);
    let short = sensor.measure(250.0, 0.010, &mut rng);
    assert!(long.samples >= 90, "long region samples {}", long.samples);
    assert!(short.samples < 10, "short region samples {}", short.samples);
    // Relative quantisation error of the long region stays small.
    let exact = 250.0 * 0.100;
    assert!((long.energy_j - exact).abs() / exact < 0.06);
}
