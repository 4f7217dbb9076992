//! Static vs dynamic tuning comparison (Table VI), on the event-driven
//! runtime API.
//!
//! The per-benchmark protocol of Section V-D:
//!
//! 1. run the benchmark uninstrumented at the platform default
//!    (24 threads, 2.5|3.0 GHz),
//! 2. run it uninstrumented at the best static configuration (Table V),
//! 3. run it with Score-P instrumentation under the RRL — here a
//!    [`RuntimeSession`] serving the tuning model from design-time
//!    analysis,
//! 4. compute job-energy / CPU-energy / time savings relative to the
//!    default run,
//! 5. decompose the dynamic run's time penalty into the *configuration
//!    setting* part (regions genuinely running slower at their tuned
//!    configurations) and the *DVFS/UFS/Score-P overhead* part
//!    (transition latencies + residual instrumentation), as in
//!    Section V-E.

use std::fmt;

use serde::{Deserialize, Serialize};

use kernels::BenchmarkSpec;
use ptf::{EnergyModel, SearchSpace, TuningError, TuningModel, TuningObjective, TuningSession};
use scorep_lite::filter::{autofilter, DEFAULT_FILTER_THRESHOLD_S};
use scorep_lite::instrument::StaticHook;
use scorep_lite::{InstrumentationConfig, InstrumentedApp};
use simnode::{ExecutionEngine, Node, SystemConfig};

use crate::error::RuntimeError;
use crate::repository::{ModelSource, ServedModel};
use crate::sacct::{JobAccounting, JobRecord};
use crate::session::RuntimeSession;

/// Relative savings of a tuned run versus the default run, in percent
/// (positive = improvement, negative = regression — the sign convention of
/// Table VI).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Savings {
    /// Job (node) energy saving, %.
    pub job_energy_pct: f64,
    /// CPU energy saving, %.
    pub cpu_energy_pct: f64,
    /// Time saving, % (negative when the tuned run is slower).
    pub time_pct: f64,
}

impl Savings {
    /// Compute savings of `tuned` relative to `default`.
    pub fn between(default: &JobRecord, tuned: &JobRecord) -> Savings {
        let pct = |d: f64, t: f64| 100.0 * (d - t) / d;
        Savings {
            job_energy_pct: pct(default.job_energy_j, tuned.job_energy_j),
            cpu_energy_pct: pct(default.cpu_energy_j, tuned.cpu_energy_j),
            time_pct: pct(default.elapsed_s, tuned.elapsed_s),
        }
    }
}

/// Why a static-vs-dynamic comparison failed: either the design-time
/// session or the runtime serving side.
#[derive(Debug)]
pub enum ComparisonError {
    /// The design-time tuning session failed.
    Tuning(TuningError),
    /// The runtime side (session or serving) failed.
    Runtime(RuntimeError),
}

impl fmt::Display for ComparisonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ComparisonError::Tuning(e) => write!(f, "design-time tuning failed: {e}"),
            ComparisonError::Runtime(e) => write!(f, "runtime serving failed: {e}"),
        }
    }
}

impl std::error::Error for ComparisonError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ComparisonError::Tuning(e) => Some(e),
            ComparisonError::Runtime(e) => Some(e),
        }
    }
}

impl From<TuningError> for ComparisonError {
    fn from(e: TuningError) -> Self {
        ComparisonError::Tuning(e)
    }
}

impl From<RuntimeError> for ComparisonError {
    fn from(e: RuntimeError) -> Self {
        ComparisonError::Runtime(e)
    }
}

/// One row of Table VI.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct BenchmarkComparison {
    /// Benchmark name.
    pub benchmark: String,
    /// Best static configuration found (Table V).
    pub static_config: SystemConfig,
    /// Static tuning savings.
    pub static_savings: Savings,
    /// Dynamic (RRL) tuning savings.
    pub dynamic_savings: Savings,
    /// Performance reduction caused purely by the tuned configurations
    /// (no overheads), % of the default time; negative = slower.
    pub perf_reduction_config_pct: f64,
    /// Combined DVFS/UFS/Score-P overhead: the remaining time penalty of
    /// the dynamic run, % of the default time; negative = cost.
    pub overhead_dvfs_ufs_scorep_pct: f64,
    /// Configuration switches performed by the RRL run.
    pub switches: u64,
    /// Scenarios in the tuning model.
    pub scenarios: usize,
    /// Full accounting of the dynamic run, including the per-region
    /// energy/time breakdown.
    pub dynamic_accounting: JobAccounting,
}

/// Pure configuration-setting time of the dynamically-tuned application:
/// every region executes at its tuning-model configuration with zero
/// switching latency and zero instrumentation ("the relative execution
/// time of each region w.r.t. the default configuration").
fn config_setting_time_s(bench: &BenchmarkSpec, node: &Node, tm: &TuningModel) -> f64 {
    let engine = ExecutionEngine::new();
    let mut total = 0.0;
    for region in &bench.regions {
        let cfg = tm.lookup(&region.name);
        let run = engine.run_region(&region.character, &cfg, node);
        total += run.duration_s;
    }
    total * bench.phase_iterations as f64
}

/// Run the full Table VI protocol for one benchmark.
///
/// `model` is the trained energy model driving the DTA. The node should be
/// the same for all three runs, as in the paper ("execute the benchmark on
/// the same compute node").
pub fn compare_static_dynamic(
    bench: &BenchmarkSpec,
    node: &Node,
    model: &EnergyModel,
) -> Result<BenchmarkComparison, ComparisonError> {
    let default_cfg = SystemConfig::taurus_default();
    let default = RuntimeSession::static_run("table6-default", bench, node, default_cfg)?.record;

    // ---- static tuning: exhaustive search for the best configuration.
    let space = SearchSpace::full(vec![12, 16, 20, 24]);
    let (static_cfg, _) =
        ptf::exhaustive::search_static(bench, node, &space, TuningObjective::Energy);
    let static_rec = RuntimeSession::static_run("table6-static", bench, node, static_cfg)?.record;

    // ---- dynamic tuning: staged session → tuning model → runtime session.
    let advice = TuningSession::builder(node).with_model(model).run(bench)?;
    let tm = advice.tuning_model;

    // Production instrumentation: compile-time filtered.
    let profile_run = InstrumentedApp::new(bench, node, InstrumentationConfig::scorep_defaults())
        .run(&mut StaticHook(default_cfg));
    let filter = autofilter(&profile_run.profile, DEFAULT_FILTER_THRESHOLD_S);
    let inst = InstrumentationConfig::scorep_defaults().with_filter(filter);

    let served = ServedModel {
        model: tm.clone(),
        source: ModelSource::Repository,
        provenance: None,
    };
    let mut session =
        RuntimeSession::start_from("table6-dynamic", bench, node, served, default_cfg)?
            .with_instrumentation(inst);
    session.run_to_completion()?;
    let dynamic = session.finish()?;
    let dynamic_rec = dynamic.record;

    // ---- overhead decomposition (Section V-E).
    let t_config = config_setting_time_s(bench, node, &tm);
    let perf_reduction_config_pct = 100.0 * (default.elapsed_s - t_config) / default.elapsed_s;
    let total_time_pct = 100.0 * (default.elapsed_s - dynamic_rec.elapsed_s) / default.elapsed_s;
    let overhead_pct = total_time_pct - perf_reduction_config_pct;

    Ok(BenchmarkComparison {
        benchmark: bench.name.clone(),
        static_config: static_cfg,
        static_savings: Savings::between(&default, &static_rec),
        dynamic_savings: Savings::between(&default, &dynamic_rec),
        perf_reduction_config_pct,
        overhead_dvfs_ufs_scorep_pct: overhead_pct,
        switches: dynamic.switches,
        scenarios: tm.scenario_count(),
        dynamic_accounting: dynamic,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn savings_sign_convention() {
        let default = JobRecord {
            job_energy_j: 100.0,
            cpu_energy_j: 50.0,
            elapsed_s: 10.0,
        };
        let tuned = JobRecord {
            job_energy_j: 90.0,
            cpu_energy_j: 40.0,
            elapsed_s: 11.0,
        };
        let s = Savings::between(&default, &tuned);
        assert!((s.job_energy_pct - 10.0).abs() < 1e-12);
        assert!((s.cpu_energy_pct - 20.0).abs() < 1e-12);
        assert!(
            (s.time_pct + 10.0).abs() < 1e-12,
            "slower run → negative time saving"
        );
    }

    #[test]
    fn config_time_uses_tuning_model() {
        let bench = kernels::benchmark("miniMD").unwrap();
        let node = Node::exact(0);
        // Model that slows everything down massively.
        let slow = TuningModel::new(
            "miniMD",
            &[("compute_force".into(), SystemConfig::new(24, 1200, 1300))],
            SystemConfig::new(24, 1200, 1300),
        );
        let fast = TuningModel::new(
            "miniMD",
            &[("compute_force".into(), SystemConfig::taurus_default())],
            SystemConfig::taurus_default(),
        );
        let t_slow = config_setting_time_s(&bench, &node, &slow);
        let t_fast = config_setting_time_s(&bench, &node, &fast);
        assert!(t_slow > 1.5 * t_fast);
    }

    #[test]
    fn full_comparison_on_minimd() {
        let node = Node::exact(0);
        let model = EnergyModel::train_paper(&kernels::training_set(), &node);
        let bench = kernels::benchmark("miniMD").unwrap();
        let cmp = compare_static_dynamic(&bench, &node, &model).expect("session succeeds");

        // Static optimum matches Table V.
        assert_eq!(cmp.static_config, SystemConfig::new(24, 2500, 1500));
        // Both tuning modes save CPU energy; dynamic saves at least as
        // much as static (the paper's headline result).
        assert!(cmp.static_savings.cpu_energy_pct > 0.0, "{cmp:?}");
        assert!(cmp.dynamic_savings.cpu_energy_pct > 0.0, "{cmp:?}");
        assert!(
            cmp.dynamic_savings.cpu_energy_pct >= cmp.static_savings.cpu_energy_pct - 1.0,
            "dynamic {:.2} vs static {:.2}",
            cmp.dynamic_savings.cpu_energy_pct,
            cmp.static_savings.cpu_energy_pct
        );
        // Dynamic run pays overhead: time saving below static's.
        assert!(cmp.dynamic_savings.time_pct <= cmp.static_savings.time_pct + 1e-9);
        // Overhead column is a cost (≤ 0) and bounded (< 10 % of runtime).
        assert!(cmp.overhead_dvfs_ufs_scorep_pct <= 0.5, "{cmp:?}");
        assert!(cmp.overhead_dvfs_ufs_scorep_pct > -10.0, "{cmp:?}");
        assert!(cmp.switches > 0);
        assert!(cmp.scenarios >= 1);
        // The dynamic accounting carries a per-region breakdown that
        // reconstructs the job totals.
        let acc = &cmp.dynamic_accounting;
        assert!(!acc.regions.is_empty());
        let reconstructed = acc.regions_time_s() + acc.switch_time_s;
        assert!(
            (reconstructed - acc.record.elapsed_s).abs() < 1e-9,
            "region times + switch time must equal elapsed: {reconstructed} vs {}",
            acc.record.elapsed_s
        );
    }

    /// The comparison is a pure function of its inputs, its sacct
    /// rendering is byte-stable across runs, and the per-region
    /// breakdown survives the JSON wire format unchanged.
    #[test]
    fn comparison_is_stable_across_the_region_flatten() {
        let node = Node::exact(0);
        let model = EnergyModel::train_paper(&kernels::training_set(), &node);
        let bench = kernels::benchmark("miniMD").unwrap();
        let first = compare_static_dynamic(&bench, &node, &model).expect("session succeeds");
        let second = compare_static_dynamic(&bench, &node, &model).expect("session succeeds");

        assert_eq!(
            first.dynamic_accounting, second.dynamic_accounting,
            "accounting must be bit-identical across reruns"
        );
        assert_eq!(
            first.dynamic_accounting.format_sacct(),
            second.dynamic_accounting.format_sacct(),
            "sacct rendering must be byte-identical across reruns"
        );

        let acc = &first.dynamic_accounting;
        assert!(!acc.regions.is_empty());
        let json = serde_json::to_string(acc).expect("render");
        let decoded: crate::JobAccounting = serde_json::from_str(&json).expect("parse");
        assert_eq!(&decoded, acc, "accounting round-trips through JSON");
        assert_eq!(serde_json::to_string(&decoded).expect("render"), json);
    }

    #[test]
    fn comparison_error_wraps_both_sides() {
        use std::error::Error as _;
        let t: ComparisonError = TuningError::MissingModel { strategy: "x" }.into();
        assert!(format!("{t}").contains("design-time"));
        assert!(t.source().is_some());
        let r: ComparisonError = RuntimeError::EmptyCluster.into();
        assert!(format!("{r}").contains("runtime"));
        assert!(r.source().is_some());
    }
}
