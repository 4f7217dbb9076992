//! The exhaustive-search baseline and the Section V-C tuning-time model.
//!
//! Sourouri et al. (SC'17) select per-region configurations by exhaustive
//! search with manual instrumentation; the paper contrasts its tuning time
//! `n·k·l·m·t` against the model-based `(k + 1 + 9)·t`. This module
//! implements the static whole-application exhaustive search (the
//! ground-truth oracle of Table V) and the cost model. Per-region
//! exhaustive search is the session's
//! [`ExhaustiveSearch`](crate::session::ExhaustiveSearch) strategy.

use kernels::BenchmarkSpec;
use simnode::{ExecutionEngine, Node, SystemConfig};

use crate::objectives::TuningObjective;
use crate::search::SearchSpace;

/// Exhaustively find the best whole-application (static) configuration.
pub fn search_static(
    bench: &BenchmarkSpec,
    node: &Node,
    space: &SearchSpace,
    objective: TuningObjective,
) -> (SystemConfig, f64) {
    let engine = ExecutionEngine::new();
    let phase = bench.phase_character();
    space
        .configs()
        .iter()
        .map(|cfg| {
            let run = engine.run_region(&phase, cfg, node);
            (*cfg, objective.score(run.node_energy_j, run.duration_s))
        })
        .min_by(|a, b| a.1.total_cmp(&b.1))
        .expect("nonempty search space")
}

/// Tuning time of the exhaustive per-region approach: `n · k · l · m · t`
/// (regions × threads × core states × uncore states × seconds per run).
pub fn tuning_time_exhaustive(n_regions: usize, space: &SearchSpace, t_run_s: f64) -> f64 {
    n_regions as f64 * space.len() as f64 * t_run_s
}

/// Tuning time of the model-based approach: `(k + 1 + v) · t` where `k` is
/// the thread-candidate count, 1 the analysis run and `v` the verification
/// neighbourhood size (9 in the paper: 3 × 3).
pub fn tuning_time_model_based(k_threads: usize, verification_configs: usize, t_run_s: f64) -> f64 {
    (k_threads + 1 + verification_configs) as f64 * t_run_s
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::session::{ExhaustiveSearch, TuningSession};

    #[test]
    fn cost_model_matches_paper_formulas() {
        let space = SearchSpace::full(vec![12, 16, 20, 24]);
        // n=5, k=4, l=14, m=18, t=10 s.
        let exhaustive = tuning_time_exhaustive(5, &space, 10.0);
        assert_eq!(exhaustive, 5.0 * 4.0 * 14.0 * 18.0 * 10.0);
        let model = tuning_time_model_based(4, 9, 10.0);
        assert_eq!(model, (4.0 + 1.0 + 9.0) * 10.0);
        assert!(exhaustive / model > 300.0, "speedup {}", exhaustive / model);
    }

    #[test]
    fn static_search_finds_calibrated_optimum() {
        let node = Node::exact(0);
        let bench = kernels::benchmark("miniMD").unwrap();
        let space = SearchSpace::full(vec![12, 16, 20, 24]);
        let (best, _) = search_static(&bench, &node, &space, TuningObjective::Energy);
        // From the calibration harness: miniMD statically tunes to
        // 24 threads, 2.5 GHz core, 1.5 GHz uncore (matches Table V).
        assert_eq!(best, SystemConfig::new(24, 2500, 1500));
    }

    #[test]
    fn per_region_search_respects_personalities() {
        let node = Node::exact(0);
        let bench = kernels::benchmark("Lulesh").unwrap();
        let advice = TuningSession::builder(&node)
            .with_strategy(&ExhaustiveSearch)
            .run(&bench)
            .unwrap();
        assert_eq!(advice.thread_tuning.best_threads, 24);
        assert_eq!(advice.region_best.len(), 5);
        for (name, cfg, _) in &advice.region_best {
            // All five regions are compute-leaning: high core frequency
            // (the heaviest-traffic region, CalcKinematicsForElems, dips
            // to ~2.1 GHz in the full-space search), low-mid uncore.
            assert!(cfg.core.mhz() >= 2100, "{name} core {}", cfg.core);
            assert!(cfg.uncore.mhz() <= 2200, "{name} uncore {}", cfg.uncore);
        }
    }
}
