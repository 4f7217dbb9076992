//! A compute node instance.
//!
//! Binds together topology, power model and — crucially for Figures 2–3 of
//! the paper — this node's manufacturing *power variability* factor. "The actual energy values of the application depend upon the
//! compute node where the application is being executed" (Section IV-B);
//! normalising by the energy at the calibration frequencies removes the
//! factor, which is the motivation for training on normalised energy.

use std::sync::{Mutex, PoisonError};

use rand::rngs::StdRng;
use rand::SeedableRng;
use rand_distr::{Distribution, Normal};

use crate::config::SystemConfig;
use crate::freq::FreqDomain;
use crate::power::{ActivityFactors, PowerBreakdown, PowerModel};
use crate::topology::Topology;

/// Relative std-dev of node-to-node power variability (~±2.5 %, the spread
/// visible across "runs" in Fig. 2a).
pub const VARIABILITY_SD: f64 = 0.025;

/// One simulated compute node.
#[derive(Debug)]
pub struct Node {
    id: u32,
    topo: Topology,
    power_model: PowerModel,
    variability: f64,
    counter_noise_sd: f64,
    rng: Mutex<StdRng>,
}

impl Node {
    /// A node with variability sampled from `N(1, VARIABILITY_SD)` using
    /// `seed`, and mild PMU measurement noise. Two nodes with the same
    /// `(id, seed)` behave identically.
    pub fn new(id: u32, seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed ^ (id as u64).wrapping_mul(0x9E3779B97F4A7C15));
        let variability = Normal::new(1.0, VARIABILITY_SD)
            .expect("valid normal")
            .sample(&mut rng)
            .clamp(0.9, 1.1);
        Self {
            id,
            topo: Topology::taurus_haswell(),
            power_model: PowerModel::haswell_ep(),
            variability,
            counter_noise_sd: 0.002,
            rng: Mutex::new(rng),
        }
    }

    /// A noiseless, variability-free node (unit factor) — the "golden"
    /// node used for model calibration and deterministic tests.
    pub fn exact(id: u32) -> Self {
        let mut n = Self::new(id, 0);
        n.variability = 1.0;
        n.counter_noise_sd = 0.0;
        n
    }

    /// Override the variability factor (for controlled experiments).
    pub fn with_variability(mut self, factor: f64) -> Self {
        self.variability = factor;
        self
    }

    /// Override the counter measurement noise.
    pub fn with_counter_noise(mut self, sd: f64) -> Self {
        self.counter_noise_sd = sd;
        self
    }

    /// Override the node's topology — the lever for modelling
    /// *capability gaps* in a heterogeneous fleet (e.g. a node with fewer
    /// cores than the Taurus reference, which then rejects 24-thread
    /// configurations through [`Node::supports`]).
    pub fn with_topology(mut self, topo: Topology) -> Self {
        self.topo = topo;
        self
    }

    /// Node identifier.
    pub fn id(&self) -> u32 {
        self.id
    }

    /// Topology of this node.
    pub fn topology(&self) -> &Topology {
        &self.topo
    }

    /// This node's power variability factor.
    pub fn variability(&self) -> f64 {
        self.variability
    }

    /// PMU measurement noise standard deviation.
    pub fn counter_noise_sd(&self) -> f64 {
        self.counter_noise_sd
    }

    /// Evaluate the power model for this node.
    pub fn power(&self, cfg: &SystemConfig, act: &ActivityFactors) -> PowerBreakdown {
        self.power_model
            .power(&self.topo, cfg, act, self.variability)
    }

    /// Whether this node can execute `cfg` exactly as requested: the
    /// thread count must fit the topology and both frequencies must be
    /// exact states of the Haswell DVFS/UFS domains. The runtime layer
    /// validates every configuration a tuning model can serve against
    /// this before starting a session, so a corrupt or foreign model
    /// surfaces as an error instead of silently clamping mid-job.
    pub fn supports(&self, cfg: &SystemConfig) -> bool {
        cfg.threads >= 1
            && cfg.threads <= self.topo.max_threads()
            && FreqDomain::haswell_core().contains(cfg.core.mhz())
            && FreqDomain::haswell_uncore().contains(cfg.uncore.mhz())
    }

    /// Run a closure with this node's RNG (counter noise etc.).
    ///
    /// Only runs that derive PMU counters draw from it: design-time
    /// experiments and instrumented application runs
    /// ([`ExecutionEngine::run_region`](crate::ExecutionEngine::run_region)).
    /// Serving never does — the runtime executes regions through
    /// [`ExecutionEngine::region_power`](crate::ExecutionEngine::region_power)
    /// — so a node's counter-noise stream is the same whether or not it
    /// served jobs in between.
    pub fn with_rng<T>(&self, f: impl FnOnce(&mut StdRng) -> T) -> T {
        // Every draw leaves the generator valid, so a panic in `f` poisons
        // nothing and the lock is recovered.
        f(&mut self.rng.lock().unwrap_or_else(PoisonError::into_inner))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exact_node_is_unit_variability() {
        let n = Node::exact(3);
        assert_eq!(n.variability(), 1.0);
        assert_eq!(n.counter_noise_sd(), 0.0);
        assert_eq!(n.id(), 3);
    }

    #[test]
    fn seeded_nodes_reproduce() {
        let a = Node::new(1, 42);
        let b = Node::new(1, 42);
        assert_eq!(a.variability(), b.variability());
    }

    #[test]
    fn different_nodes_differ_in_variability() {
        let factors: Vec<f64> = (0..8).map(|id| Node::new(id, 42).variability()).collect();
        let distinct = factors.windows(2).any(|w| w[0] != w[1]);
        assert!(distinct, "all nodes identical: {factors:?}");
        for f in factors {
            assert!((0.9..=1.1).contains(&f));
        }
    }

    #[test]
    fn supports_checks_threads_and_both_domains() {
        let n = Node::exact(0);
        assert!(n.supports(&SystemConfig::taurus_default()));
        assert!(n.supports(&SystemConfig::new(1, 1200, 1300)));
        assert!(!n.supports(&SystemConfig::new(0, 2500, 3000)), "no threads");
        assert!(!n.supports(&SystemConfig::new(25, 2500, 3000)), "too many");
        assert!(!n.supports(&SystemConfig::new(24, 2600, 3000)), "CF high");
        assert!(!n.supports(&SystemConfig::new(24, 2450, 3000)), "off-step");
        assert!(!n.supports(&SystemConfig::new(24, 2500, 1200)), "UCF low");
    }

    #[test]
    fn reduced_topology_rejects_wide_configs() {
        let mut topo = Topology::taurus_haswell();
        topo.cores_per_socket = 6; // 12-core node: a capability gap
        let n = Node::exact(0).with_topology(topo);
        assert_eq!(n.topology().max_threads(), 12);
        assert!(n.supports(&SystemConfig::new(12, 2500, 3000)));
        assert!(
            !n.supports(&SystemConfig::taurus_default()),
            "24-thread configs are beyond the gapped node"
        );
    }

    #[test]
    fn power_uses_variability() {
        use crate::power::ActivityFactors;
        let act = ActivityFactors {
            core_util: 1.0,
            mem_bw_gbs: 10.0,
            active_threads: 24,
            uncore_util: 0.5,
        };
        let cfg = SystemConfig::taurus_default();
        let hot = Node::exact(0).with_variability(1.05);
        let cold = Node::exact(0).with_variability(0.95);
        assert!(hot.power(&cfg, &act).node_w() > cold.power(&cfg, &act).node_w());
    }
}
