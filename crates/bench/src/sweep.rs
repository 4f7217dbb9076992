//! Shared sweep utilities for the experiment binaries.

use kernels::BenchmarkSpec;
use ptf::experiments::Measurement;
use ptf::TuningObjective;
use simnode::{ExecutionEngine, FreqDomain, Node, SystemConfig};

/// One evaluated configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GridPoint {
    /// The configuration.
    pub config: SystemConfig,
    /// Node energy of one phase iteration, joules.
    pub node_energy_j: f64,
    /// CPU (RAPL) energy of one phase iteration, joules.
    pub cpu_energy_j: f64,
    /// Duration of one phase iteration, seconds.
    pub duration_s: f64,
}

/// A full CF × UCF (× threads) energy surface for one benchmark phase.
#[derive(Debug, Clone)]
pub struct EnergyGrid {
    /// Evaluated points.
    pub points: Vec<GridPoint>,
}

impl EnergyGrid {
    /// The point with minimum node energy, as [`TuningObjective::best`]
    /// ranks it.
    pub fn minimum(&self) -> &GridPoint {
        let (best, _) = TuningObjective::Energy
            .best(self.points.iter().map(|p| {
                let m = Measurement {
                    node_energy_j: p.node_energy_j,
                    cpu_energy_j: p.cpu_energy_j,
                    duration_s: p.duration_s,
                };
                (p.config, m)
            }))
            .expect("non-empty grid");
        self.points
            .iter()
            .find(|p| p.config == best)
            .expect("best is a grid point")
    }

    /// Energy normalised to a reference configuration's energy.
    pub fn normalised_to(&self, reference: SystemConfig) -> Vec<(SystemConfig, f64)> {
        let base = self
            .points
            .iter()
            .find(|p| p.config == reference)
            .map(|p| p.node_energy_j)
            .expect("reference configuration in grid");
        self.points
            .iter()
            .map(|p| (p.config, p.node_energy_j / base))
            .collect()
    }

    /// Points within `frac` (e.g. 0.02) of the minimum node energy — the
    /// pink "<2 % of optimum" band of Figures 6–7.
    pub fn near_optimal(&self, frac: f64) -> Vec<&GridPoint> {
        let min = self.minimum().node_energy_j;
        self.points
            .iter()
            .filter(|p| p.node_energy_j <= min * (1.0 + frac))
            .collect()
    }
}

/// Evaluate one phase iteration of `bench` on `node` for every CF × UCF
/// combination at each of `threads`.
pub fn energy_grid(
    bench: &BenchmarkSpec,
    node: &Node,
    threads: &[u32],
    core_domain: &FreqDomain,
    uncore_domain: &FreqDomain,
) -> EnergyGrid {
    let engine = ExecutionEngine::new();
    let phase = bench.phase_character();
    let configs: Vec<SystemConfig> = threads
        .iter()
        .flat_map(|&t| {
            core_domain.iter_mhz().flat_map(move |cf| {
                uncore_domain
                    .iter_mhz()
                    .map(move |ucf| SystemConfig::new(t, cf, ucf))
                    .collect::<Vec<_>>()
            })
        })
        .collect();
    let points = configs
        .iter()
        .map(|cfg| {
            let run = engine.run_region(&phase, cfg, node);
            GridPoint {
                config: *cfg,
                node_energy_j: run.node_energy_j,
                cpu_energy_j: run.cpu_energy_j,
                duration_s: run.duration_s,
            }
        })
        .collect();
    EnergyGrid { points }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grid_covers_all_combinations() {
        let bench = kernels::benchmark("EP").unwrap();
        let node = Node::exact(0);
        let g = energy_grid(
            &bench,
            &node,
            &[24],
            &FreqDomain::new(2000, 2200, 100),
            &FreqDomain::new(1500, 1700, 100),
        );
        assert_eq!(g.points.len(), 9);
        let min = g.minimum();
        assert!(g
            .points
            .iter()
            .all(|p| p.node_energy_j >= min.node_energy_j));
    }

    #[test]
    fn normalisation_reference_is_one() {
        let bench = kernels::benchmark("CG").unwrap();
        let node = Node::exact(0);
        let g = energy_grid(
            &bench,
            &node,
            &[24],
            &FreqDomain::new(2000, 2100, 100),
            &FreqDomain::new(1500, 1500, 100),
        );
        let reference = SystemConfig::new(24, 2000, 1500);
        let norm = g.normalised_to(reference);
        let at_ref = norm.iter().find(|(c, _)| *c == reference).unwrap().1;
        assert!((at_ref - 1.0).abs() < 1e-12);
    }

    #[test]
    fn near_optimal_band_contains_minimum() {
        let bench = kernels::benchmark("MG").unwrap();
        let node = Node::exact(0);
        let g = energy_grid(
            &bench,
            &node,
            &[24],
            &FreqDomain::new(1800, 2400, 200),
            &FreqDomain::new(1500, 2500, 500),
        );
        let band = g.near_optimal(0.02);
        assert!(!band.is_empty());
        assert!(band.iter().any(|p| p.config == g.minimum().config));
    }
}
