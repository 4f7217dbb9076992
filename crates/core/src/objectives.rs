//! Tuning objectives.
//!
//! The paper tunes for node energy; EDP, ED²P and TCO are named as
//! alternative objectives (Sections II and VI). All four are implemented —
//! the extension the conclusion asks for.
//!
//! Every tuning step measures candidate configurations and keeps the best
//! one: the thread search, the phase search and the per-region
//! verification, at design time and online. [`TuningObjective::best`] is
//! the one rule they all rank by.

use serde::{Deserialize, Serialize};
use simnode::SystemConfig;

use crate::experiments::Measurement;

/// An objective maps a measured `(energy, time)` pair to a score to be
/// *minimised*.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub enum TuningObjective {
    /// Plain energy-to-solution (the paper's fundamental objective).
    #[default]
    Energy,
    /// Energy–delay product `E · t`.
    Edp,
    /// Energy–delay-squared product `E · t²`.
    Ed2p,
    /// Total cost of ownership: energy cost plus machine-time cost,
    /// `E + rate · t` with `rate` in joule-equivalents per second.
    Tco {
        /// Machine-time cost rate, J/s.
        rate_j_per_s: f64,
    },
}

impl TuningObjective {
    /// Score to minimise.
    pub fn score(&self, energy_j: f64, time_s: f64) -> f64 {
        match self {
            TuningObjective::Energy => energy_j,
            TuningObjective::Edp => energy_j * time_s,
            TuningObjective::Ed2p => energy_j * time_s * time_s,
            TuningObjective::Tco { rate_j_per_s } => energy_j + rate_j_per_s * time_s,
        }
    }

    /// The measured configuration with the least score, `None` when
    /// nothing was measured. A tie goes to the smaller configuration
    /// (threads, then core, then uncore), so the choice does not depend on
    /// the order the candidates were measured in.
    pub fn best(
        &self,
        measured: impl IntoIterator<Item = (SystemConfig, Measurement)>,
    ) -> Option<(SystemConfig, Measurement)> {
        measured.into_iter().min_by(|(ca, ma), (cb, mb)| {
            ma.score(*self)
                .total_cmp(&mb.score(*self))
                .then_with(|| ca.cmp(cb))
        })
    }

    /// Human-readable name.
    pub fn name(&self) -> &'static str {
        match self {
            TuningObjective::Energy => "energy",
            TuningObjective::Edp => "EDP",
            TuningObjective::Ed2p => "ED2P",
            TuningObjective::Tco { .. } => "TCO",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scores() {
        assert_eq!(TuningObjective::Energy.score(100.0, 2.0), 100.0);
        assert_eq!(TuningObjective::Edp.score(100.0, 2.0), 200.0);
        assert_eq!(TuningObjective::Ed2p.score(100.0, 2.0), 400.0);
        assert_eq!(
            TuningObjective::Tco { rate_j_per_s: 50.0 }.score(100.0, 2.0),
            200.0
        );
    }

    #[test]
    fn edp_prefers_faster_config_than_energy() {
        // Config A: 100 J, 1 s. Config B: 90 J, 2 s.
        // Energy prefers B; EDP prefers A.
        let (ea, ta) = (100.0, 1.0);
        let (eb, tb) = (90.0, 2.0);
        assert!(TuningObjective::Energy.score(eb, tb) < TuningObjective::Energy.score(ea, ta));
        assert!(TuningObjective::Edp.score(ea, ta) < TuningObjective::Edp.score(eb, tb));
    }

    fn measured(energy_j: f64, duration_s: f64) -> Measurement {
        Measurement {
            node_energy_j: energy_j,
            cpu_energy_j: 0.0,
            duration_s,
        }
    }

    #[test]
    fn best_breaks_ties_on_the_smaller_configuration() {
        let small = SystemConfig::new(24, 2000, 1500);
        let large = SystemConfig::new(24, 2000, 1600);
        let tied = measured(50.0, 1.0);
        let worse = (SystemConfig::new(12, 1200, 1300), measured(60.0, 1.0));
        for candidates in [
            vec![(large, tied), worse, (small, tied)],
            vec![(small, tied), (large, tied), worse],
            vec![worse, (large, tied), (small, tied)],
        ] {
            let (cfg, m) = TuningObjective::Energy.best(candidates).unwrap();
            assert_eq!(cfg, small);
            assert_eq!(m, tied);
        }
    }

    #[test]
    fn best_of_nothing_is_none() {
        assert_eq!(TuningObjective::Edp.best([]), None);
    }

    #[test]
    fn best_follows_the_objective() {
        // A: 100 J in 1 s, B: 90 J in 2 s — energy keeps B, EDP keeps A.
        let a = SystemConfig::new(24, 2500, 2000);
        let b = SystemConfig::new(24, 1800, 1500);
        let measured = [(a, measured(100.0, 1.0)), (b, measured(90.0, 2.0))];
        assert_eq!(TuningObjective::Energy.best(measured).unwrap().0, b);
        assert_eq!(TuningObjective::Edp.best(measured).unwrap().0, a);
    }

    #[test]
    fn names() {
        assert_eq!(TuningObjective::Energy.name(), "energy");
        assert_eq!(TuningObjective::Ed2p.name(), "ED2P");
    }
}
