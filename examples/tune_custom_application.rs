//! Tuning a user-defined application.
//!
//! ```text
//! cargo run --release --example tune_custom_application
//! ```
//!
//! Shows the path a downstream user takes: describe your application's
//! regions with [`RegionCharacter`] builders (or measure them with the
//! real-kernel helpers), wrap them in a [`BenchmarkSpec`], and run the
//! same staged session the paper applies to its benchmark suite —
//! including writing the tuning model to disk and loading it back through
//! the `SCOREP_RRL_TMM_PATH`-style file interface.

use dvfs_ufs_tuning::kernels::{BenchmarkSpec, ProgrammingModel, RegionSpec, Suite};
use dvfs_ufs_tuning::ptf::{EnergyModel, TuningModel, TuningSession};
use dvfs_ufs_tuning::rrl::{ModelSource, RuntimeSession, Savings, ServedModel};
use dvfs_ufs_tuning::simnode::{Node, RegionCharacter, SystemConfig};

fn main() {
    // A made-up CFD mini-app: a compute-heavy flux kernel, a
    // bandwidth-heavy halo exchange and a mixed limiter.
    let app = BenchmarkSpec::new(
        "my-cfd-app",
        Suite::Other,
        ProgrammingModel::Hybrid,
        20,
        vec![
            RegionSpec::new(
                "compute_fluxes",
                RegionCharacter::builder(2.5e10)
                    .ipc(1.9)
                    .parallel(0.995)
                    .dram_bytes(0.8 * 2.5e10)
                    .mix(0.26, 0.10, 0.08, 0.42)
                    .vectorised(0.7)
                    .build(),
            ),
            RegionSpec::new(
                "halo_exchange",
                RegionCharacter::builder(4e9)
                    .ipc(0.9)
                    .parallel(0.96)
                    .dram_bytes(4.5 * 4e9)
                    .stalls(0.7)
                    .build(),
            ),
            RegionSpec::new(
                "apply_limiter",
                RegionCharacter::builder(8e9)
                    .ipc(1.5)
                    .parallel(0.99)
                    .dram_bytes(1.6 * 8e9)
                    .branches(0.04, 0.5)
                    .build(),
            ),
        ],
    );

    let node = Node::new(0, 7);
    println!("training the energy model…");
    let model = EnergyModel::train_paper(&dvfs_ufs_tuning::kernels::training_set(), &node);

    let advice = TuningSession::builder(&node)
        .with_model(&model)
        .run(&app)
        .expect("session succeeds on a well-formed application");
    println!("\nper-region configurations for {}:", app.name);
    for (region, cfg, _) in &advice.region_best {
        println!("  {region:<18} -> {cfg}");
    }

    // Persist the tuning model the way READEX does, then load it back.
    let path = std::env::temp_dir().join("my-cfd-app.tm.json");
    std::fs::write(&path, advice.tuning_model.to_json()).expect("write tuning model");
    println!("\ntuning model written to {}", path.display());
    let json = std::fs::read_to_string(&path).expect("read tuning model back");
    let loaded = TuningModel::from_json(&json).expect("reload tuning model");

    // Compare default vs dynamic through the event-driven runtime API.
    let default =
        RuntimeSession::static_run("cfd-default", &app, &node, SystemConfig::taurus_default())
            .expect("static run succeeds");
    let served = ServedModel {
        model: loaded,
        source: ModelSource::Repository,
        provenance: None,
    };
    let mut job = RuntimeSession::start("cfd-tuned", &app, &node, served)
        .expect("model validated against the node");
    job.run_to_completion().expect("event loop succeeds");
    let tuned = job.finish().expect("no region left open");
    let s = Savings::between(&default.record, &tuned.record);
    println!(
        "dynamic tuning: job {:.2}%  cpu {:.2}%  time {:.2}%",
        s.job_energy_pct, s.cpu_energy_pct, s.time_pct
    );
    print!("{}", tuned.format_sacct());
    std::fs::remove_file(&path).ok();
}
