//! Integration tests for the staged `TuningSession` API: every tuning
//! objective driven end to end, all three search strategies, and the
//! cache transparency of a batch of sessions sharing one experiment cache.

use std::cell::RefCell;

use dvfs_ufs_tuning::kernels;
use dvfs_ufs_tuning::ptf::{
    EnergyModel, ExhaustiveSearch, ExperimentCache, RandomSearch, TuningError, TuningObjective,
    TuningSession,
};
use dvfs_ufs_tuning::simnode::Node;

/// Shared model: training once keeps the debug-mode test binary fast.
fn model(node: &Node) -> EnergyModel {
    use std::sync::OnceLock;
    static MODEL: OnceLock<String> = OnceLock::new();
    let json = MODEL.get_or_init(|| {
        let m = EnergyModel::train_paper(&kernels::training_set(), node);
        serde_json::to_string(&m).expect("model serialises")
    });
    serde_json::from_str(json).expect("model deserialises")
}

#[test]
fn all_four_objectives_tune_end_to_end() {
    let node = Node::exact(0);
    let model = model(&node);
    let bench = kernels::benchmark("Lulesh").unwrap();
    let objectives = [
        TuningObjective::Energy,
        TuningObjective::Edp,
        TuningObjective::Ed2p,
        TuningObjective::Tco {
            rate_j_per_s: 150.0,
        },
    ];

    let mut phase_bests = Vec::new();
    for obj in objectives {
        let advice = TuningSession::builder(&node)
            .with_model(&model)
            .with_objective(obj)
            .run(&bench)
            .unwrap_or_else(|e| panic!("objective {} failed: {e}", obj.name()));
        assert_eq!(advice.objective, obj);
        assert_eq!(advice.tuning_model.application, "Lulesh");
        assert_eq!(
            advice.region_best.len(),
            5,
            "{}: all regions verified",
            obj.name()
        );
        assert!(advice.tuning_model.scenario_count() >= 1);
        phase_bests.push((obj, advice.phase_best));
    }

    // The more time-weighted the objective, the higher (never lower) the
    // chosen core frequency: Energy ≤ EDP ≤ ED²P.
    let cf = |i: usize| phase_bests[i].1.core.mhz();
    assert!(cf(0) <= cf(1), "EDP must not clock below plain energy");
    assert!(cf(1) <= cf(2), "ED²P must not clock below EDP");
}

#[test]
fn strategies_agree_on_the_winning_personality() {
    // All three strategies must find the compute-bound shape for Lulesh;
    // the model-based one with far fewer experiments than exhaustive.
    let node = Node::exact(0);
    let model = model(&node);
    let bench = kernels::benchmark("Lulesh").unwrap();

    let model_based = TuningSession::builder(&node)
        .with_model(&model)
        .run(&bench)
        .expect("model-based session");
    let exhaustive = TuningSession::builder(&node)
        .with_strategy(&ExhaustiveSearch)
        .run(&bench)
        .expect("exhaustive session");
    let random = RandomSearch::new(32, 11);
    let sampled = TuningSession::builder(&node)
        .with_strategy(&random)
        .run(&bench)
        .expect("random session");

    for (name, advice) in [
        ("model-based", &model_based),
        ("exhaustive", &exhaustive),
        ("random", &sampled),
    ] {
        assert!(
            advice.phase_best.core.mhz() >= 2100,
            "{name}: compute-bound Lulesh wants high CF, got {}",
            advice.phase_best
        );
        assert!(
            advice.phase_best.uncore.mhz() <= 2200,
            "{name}: compute-bound Lulesh wants low-mid UCF, got {}",
            advice.phase_best
        );
    }
    assert!(
        model_based.experiments * 10 < exhaustive.experiments,
        "model-based ({}) must be an order of magnitude cheaper than exhaustive ({})",
        model_based.experiments,
        exhaustive.experiments
    );
}

#[test]
fn batch_driver_is_cache_transparent_for_every_objective() {
    // The cached batch path must be bit-identical to the uncached session
    // for each objective (the cache stores measurements, and scoring
    // happens after the cache).
    let node = Node::exact(0);
    let model = model(&node);
    let bench = kernels::benchmark("miniMD").unwrap();
    for obj in [
        TuningObjective::Energy,
        TuningObjective::Edp,
        TuningObjective::Ed2p,
        TuningObjective::Tco { rate_j_per_s: 80.0 },
    ] {
        let uncached = TuningSession::builder(&node)
            .with_model(&model)
            .with_objective(obj)
            .run(&bench)
            .expect("uncached session");
        let cache = RefCell::new(ExperimentCache::new());
        let cached = TuningSession::builder(&node)
            .with_model(&model)
            .with_objective(obj)
            .with_cache(&cache)
            .run(&bench)
            .expect("cached session");
        assert_eq!(uncached.tuning_model, cached.tuning_model, "{}", obj.name());
        assert_eq!(uncached.phase_best, cached.phase_best);
        for ((na, ca, ea), (nb, cb, eb)) in uncached.region_best.iter().zip(&cached.region_best) {
            assert_eq!((na, ca), (nb, cb), "{}", obj.name());
            assert_eq!(
                ea.to_bits(),
                eb.to_bits(),
                "{}: region {na} energy bits",
                obj.name()
            );
        }
    }
}

#[test]
fn batch_driver_saves_work_on_resubmission() {
    let node = Node::exact(0);
    let model = model(&node);
    let bench = kernels::benchmark("BEM4I").unwrap();
    let cache = RefCell::new(ExperimentCache::new());
    let tune = || {
        TuningSession::builder(&node)
            .with_model(&model)
            .with_cache(&cache)
            .run(&bench)
    };
    let first = tune().expect("first tune");
    let second = tune().expect("second tune");
    assert!(first.engine_runs > 0);
    assert_eq!(
        second.engine_runs, 0,
        "resubmission must be fully cache-served"
    );
    assert_eq!(first.tuning_model, second.tuning_model);
    assert!(cache.borrow().stats().hits >= first.engine_requests);
}

#[test]
fn misuse_surfaces_as_errors_not_panics() {
    let node = Node::exact(0);
    let bench = kernels::benchmark("EP").unwrap();
    // Model-based strategy without a model.
    let err = TuningSession::builder(&node).run(&bench).unwrap_err();
    assert!(matches!(err, TuningError::MissingModel { .. }));
    assert!(err.to_string().contains("with_model"));
}
