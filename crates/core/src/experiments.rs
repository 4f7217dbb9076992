//! The experiments engine.
//!
//! PTF evaluates *scenarios* (configurations) by running experiments on
//! the application. Because the paper's applications have progressive
//! phase loops, "each phase iteration can be exploited and the entire
//! application run is not required" (Section V-C) — an experiment is one
//! phase iteration (or one region instance) under a configuration. The
//! engine counts experiments in application-run equivalents for the
//! tuning-time analysis.
//!
//! An engine can optionally share an
//! [`ExperimentCache`]: region
//! evaluations are pure in `(node, character, configuration)`, so cache
//! hits return the memoised measurement bit-identically without touching
//! the execution engine. [`ExperimentsEngine::experiments`] counts only
//! the evaluations that actually ran; [`ExperimentsEngine::requests`]
//! counts all of them.

use std::cell::RefCell;

use kernels::BenchmarkSpec;
use simnode::{ExecutionEngine, Node, RegionCharacter, SystemConfig};

use crate::objectives::TuningObjective;
use crate::session::{ExperimentCache, TuningError};

/// One experiment's measurement.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Measurement {
    /// Node energy, joules.
    pub node_energy_j: f64,
    /// CPU energy, joules.
    pub cpu_energy_j: f64,
    /// Duration, seconds.
    pub duration_s: f64,
}

impl Measurement {
    /// Score under an objective (node energy is the paper's fundamental
    /// objective).
    pub fn score(&self, objective: TuningObjective) -> f64 {
        objective.score(self.node_energy_j, self.duration_s)
    }
}

/// Experiment runner with accounting and an optional shared memo cache.
pub struct ExperimentsEngine<'a> {
    node: &'a Node,
    engine: ExecutionEngine,
    experiments: u64,
    requests: u64,
    region_runs: u64,
    cache: Option<&'a RefCell<ExperimentCache>>,
}

impl<'a> ExperimentsEngine<'a> {
    /// New uncached engine on `node`.
    pub fn new(node: &'a Node) -> Self {
        Self {
            node,
            engine: ExecutionEngine::new(),
            experiments: 0,
            requests: 0,
            region_runs: 0,
            cache: None,
        }
    }

    /// New engine on `node` sharing `cache` with other engines.
    pub fn with_cache(node: &'a Node, cache: &'a RefCell<ExperimentCache>) -> Self {
        Self {
            node,
            engine: ExecutionEngine::new(),
            experiments: 0,
            requests: 0,
            region_runs: 0,
            cache: Some(cache),
        }
    }

    /// Number of experiments actually run so far, in phase-iteration
    /// equivalents (cache-served evaluations excluded).
    pub fn experiments(&self) -> u64 {
        self.experiments
    }

    /// Number of region evaluations requested so far (cache hits
    /// included); one phase evaluation requests one evaluation per
    /// constituent region.
    pub fn requests(&self) -> u64 {
        self.requests
    }

    /// Number of individual region simulations executed (the unit the
    /// experiment cache saves: one phase evaluation is one region run per
    /// constituent region, minus the cache-served ones).
    pub fn region_runs(&self) -> u64 {
        self.region_runs
    }

    /// Measure one region under `cfg`, through the cache when one is
    /// attached. Does not touch the experiment counters.
    fn measure(&mut self, c: &RegionCharacter, cfg: &SystemConfig, ran: &mut bool) -> Measurement {
        self.requests += 1;
        if let Some(cache) = self.cache {
            if let Some(m) = cache.borrow_mut().get(self.node, c, cfg) {
                return m;
            }
        }
        *ran = true;
        self.region_runs += 1;
        let run = self.engine.run_region(c, cfg, self.node);
        let m = Measurement {
            node_energy_j: run.node_energy_j,
            cpu_energy_j: run.cpu_energy_j,
            duration_s: run.duration_s,
        };
        if let Some(cache) = self.cache {
            cache.borrow_mut().insert(self.node, c, cfg, m);
        }
        m
    }

    /// Evaluate one region character for one phase iteration under `cfg`.
    pub fn evaluate(&mut self, c: &RegionCharacter, cfg: &SystemConfig) -> Measurement {
        let mut ran = false;
        let m = self.measure(c, cfg, &mut ran);
        if ran {
            self.experiments += 1;
        }
        m
    }

    /// Evaluate a whole phase iteration of `bench` under `cfg`.
    ///
    /// Counts as one experiment (one phase iteration) when any of the
    /// constituent regions had to run; a fully cache-served phase costs
    /// nothing.
    pub fn evaluate_phase(&mut self, bench: &BenchmarkSpec, cfg: &SystemConfig) -> Measurement {
        let mut ran = false;
        let mut total = Measurement {
            node_energy_j: 0.0,
            cpu_energy_j: 0.0,
            duration_s: 0.0,
        };
        for r in &bench.regions {
            let m = self.measure(&r.character, cfg, &mut ran);
            total.node_energy_j += m.node_energy_j;
            total.cpu_energy_j += m.cpu_energy_j;
            total.duration_s += m.duration_s;
        }
        if ran {
            self.experiments += 1;
        }
        total
    }

    /// Among `configs`, the one minimising `objective` on region `c`,
    /// with its measurement. Errors on an empty candidate set.
    pub fn try_best_for_region(
        &mut self,
        c: &RegionCharacter,
        configs: &[SystemConfig],
        objective: TuningObjective,
    ) -> Result<(SystemConfig, Measurement), TuningError> {
        let mut best: Option<(SystemConfig, Measurement, f64)> = None;
        for cfg in configs {
            let m = self.evaluate(c, cfg);
            let s = m.score(objective);
            match best {
                Some((_, _, bs)) if bs <= s => {}
                _ => best = Some((*cfg, m, s)),
            }
        }
        best.map(|(cfg, m, _)| (cfg, m))
            .ok_or(TuningError::EmptyCandidates {
                stage: "region verification",
            })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn evaluate_counts_experiments() {
        let node = Node::exact(0);
        let mut eng = ExperimentsEngine::new(&node);
        let c = RegionCharacter::builder(1e10).build();
        let m = eng.evaluate(&c, &SystemConfig::taurus_default());
        assert!(m.node_energy_j > 0.0 && m.duration_s > 0.0);
        assert_eq!(eng.experiments(), 1);
        assert_eq!(eng.requests(), 1);
    }

    #[test]
    fn phase_sums_regions() {
        let node = Node::exact(0);
        let bench = kernels::benchmark("Lulesh").unwrap();
        let mut eng = ExperimentsEngine::new(&node);
        let phase = eng.evaluate_phase(&bench, &SystemConfig::taurus_default());
        let sum: f64 = bench
            .regions
            .iter()
            .map(|r| {
                eng.evaluate(&r.character, &SystemConfig::taurus_default())
                    .duration_s
            })
            .sum();
        assert!((phase.duration_s - sum).abs() < 1e-9);
    }

    #[test]
    fn try_best_for_region_minimises_objective() {
        let node = Node::exact(0);
        let mut eng = ExperimentsEngine::new(&node);
        let c = RegionCharacter::builder(2e10)
            .ipc(2.0)
            .dram_bytes(2e9)
            .build();
        let configs = vec![
            SystemConfig::new(24, 1200, 3000),
            SystemConfig::new(24, 2400, 1700),
            SystemConfig::new(24, 2500, 3000),
        ];
        let (best, m) = eng
            .try_best_for_region(&c, &configs, TuningObjective::Energy)
            .unwrap();
        // Compute-bound: high CF low UCF wins.
        assert_eq!(best, SystemConfig::new(24, 2400, 1700));
        for cfg in &configs {
            let other = eng.evaluate(&c, cfg);
            assert!(m.node_energy_j <= other.node_energy_j + 1e-9);
        }
    }

    #[test]
    fn empty_candidates_is_an_error_on_the_fallible_path() {
        let node = Node::exact(0);
        let mut eng = ExperimentsEngine::new(&node);
        let c = RegionCharacter::builder(1e9).build();
        let err = eng
            .try_best_for_region(&c, &[], TuningObjective::Energy)
            .unwrap_err();
        assert_eq!(
            err,
            TuningError::EmptyCandidates {
                stage: "region verification"
            }
        );
    }

    #[test]
    fn cached_engine_serves_repeats_bit_identically() {
        let node = Node::exact(0);
        let cache = RefCell::new(ExperimentCache::new());
        let mut eng = ExperimentsEngine::with_cache(&node, &cache);
        let c = RegionCharacter::builder(2e10).dram_bytes(1e10).build();
        let cfg = SystemConfig::new(24, 2400, 1700);
        let first = eng.evaluate(&c, &cfg);
        let second = eng.evaluate(&c, &cfg);
        assert_eq!(
            first.node_energy_j.to_bits(),
            second.node_energy_j.to_bits()
        );
        assert_eq!(
            eng.experiments(),
            1,
            "second evaluation must be a cache hit"
        );
        assert_eq!(eng.requests(), 2);
        assert_eq!(cache.borrow().stats().hits, 1);

        // A second engine sharing the cache also hits.
        let mut eng2 = ExperimentsEngine::with_cache(&node, &cache);
        let third = eng2.evaluate(&c, &cfg);
        assert_eq!(first.node_energy_j.to_bits(), third.node_energy_j.to_bits());
        assert_eq!(eng2.experiments(), 0);
    }

    #[test]
    fn cached_matches_uncached_exactly() {
        let node = Node::exact(0);
        let bench = kernels::benchmark("Lulesh").unwrap();
        let cfg = SystemConfig::new(24, 2300, 1800);
        let mut plain = ExperimentsEngine::new(&node);
        let cache = RefCell::new(ExperimentCache::new());
        let mut cached = ExperimentsEngine::with_cache(&node, &cache);
        let a = plain.evaluate_phase(&bench, &cfg);
        let b = cached.evaluate_phase(&bench, &cfg);
        let c = cached.evaluate_phase(&bench, &cfg);
        assert_eq!(a.node_energy_j.to_bits(), b.node_energy_j.to_bits());
        assert_eq!(b.node_energy_j.to_bits(), c.node_energy_j.to_bits());
        assert_eq!(cached.experiments(), 1, "second phase fully cache-served");
    }
}
