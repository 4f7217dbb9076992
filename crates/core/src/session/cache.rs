//! The shared experiment cache.
//!
//! Region evaluations are pure functions of `(node, region character,
//! configuration)` — the simulator's counter noise never reaches the
//! energy/time measurement — so repeated evaluations can be served from a
//! memo table. Sessions built
//! [`with_cache`](crate::session::SessionBuilder::with_cache) share one
//! cache across every application they tune: regions re-verified at
//! overlapping configurations (the recentring grid and the verification
//! neighbourhood overlap, and applications in a batch often share kernel
//! characters) are simulated once instead of once per occurrence.

use std::collections::HashMap;

use simnode::{Node, RegionCharacter, SystemConfig};

use crate::experiments::Measurement;

/// Cache key: the node's identity, the region character's exact bit
/// pattern and the configuration. Using `f64::to_bits` keeps the key
/// total (no NaN ambiguity in practice — characters are validated) and
/// exact: two characters hash together only when every field is
/// bit-identical, which is precisely when the simulator's measurement is.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
struct Key {
    node_id: u32,
    variability_bits: u64,
    character_bits: [u64; 19],
    config: SystemConfig,
}

fn character_bits(c: &RegionCharacter) -> [u64; 19] {
    [
        c.instr_per_iter.to_bits(),
        c.frac_load.to_bits(),
        c.frac_store.to_bits(),
        c.frac_branch.to_bits(),
        c.frac_fp.to_bits(),
        c.frac_vec.to_bits(),
        c.branch_misp_rate.to_bits(),
        c.branch_ntk_frac.to_bits(),
        c.l1d_miss_per_instr.to_bits(),
        c.l2_dcr_per_instr.to_bits(),
        c.l2_icr_per_instr.to_bits(),
        c.l2_miss_per_instr.to_bits(),
        c.dram_bytes_per_iter.to_bits(),
        c.ipc_base.to_bits(),
        c.stall_frac.to_bits(),
        c.parallel_fraction.to_bits(),
        c.overlap.to_bits(),
        c.mem_queue_sensitivity.to_bits(),
        0, // reserved
    ]
}

/// Hit/miss accounting for one cache.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Evaluations served from the memo table.
    pub hits: u64,
    /// Evaluations that had to run the execution engine.
    pub misses: u64,
}

impl CacheStats {
    /// Total evaluation requests seen.
    pub fn requests(&self) -> u64 {
        self.hits + self.misses
    }
}

/// Memo table for region evaluations, keyed by
/// `(node, region character, SystemConfig)`.
#[derive(Debug, Default)]
pub struct ExperimentCache {
    map: HashMap<Key, Measurement>,
    stats: CacheStats,
}

impl ExperimentCache {
    /// An empty cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of distinct memoised evaluations.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// True when nothing is memoised.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Hit/miss counters.
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    /// Look up a memoised measurement, counting a hit on success.
    /// (A miss is only counted by [`ExperimentCache::insert`], so probing
    /// twice before inserting does not double-count.)
    pub fn get(
        &mut self,
        node: &Node,
        c: &RegionCharacter,
        cfg: &SystemConfig,
    ) -> Option<Measurement> {
        let hit = self.map.get(&Self::key(node, c, cfg)).copied();
        if hit.is_some() {
            self.stats.hits += 1;
        }
        hit
    }

    /// Memoise a measurement, counting the miss that produced it.
    pub fn insert(&mut self, node: &Node, c: &RegionCharacter, cfg: &SystemConfig, m: Measurement) {
        self.stats.misses += 1;
        self.map.insert(Self::key(node, c, cfg), m);
    }

    fn key(node: &Node, c: &RegionCharacter, cfg: &SystemConfig) -> Key {
        Key {
            node_id: node.id(),
            variability_bits: node.variability().to_bits(),
            character_bits: character_bits(c),
            config: *cfg,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn measurement(e: f64) -> Measurement {
        Measurement {
            node_energy_j: e,
            cpu_energy_j: e / 2.0,
            duration_s: 1.0,
        }
    }

    #[test]
    fn round_trip_and_stats() {
        let node = Node::exact(0);
        let c = RegionCharacter::builder(1e9).build();
        let cfg = SystemConfig::taurus_default();
        let mut cache = ExperimentCache::new();
        assert!(cache.get(&node, &c, &cfg).is_none());
        cache.insert(&node, &c, &cfg, measurement(100.0));
        assert_eq!(cache.get(&node, &c, &cfg), Some(measurement(100.0)));
        assert_eq!(cache.stats(), CacheStats { hits: 1, misses: 1 });
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn distinct_characters_do_not_collide() {
        let node = Node::exact(0);
        let a = RegionCharacter::builder(1e9).build();
        let b = RegionCharacter::builder(1e9).ipc(2.1).build();
        let cfg = SystemConfig::taurus_default();
        let mut cache = ExperimentCache::new();
        cache.insert(&node, &a, &cfg, measurement(1.0));
        assert!(cache.get(&node, &b, &cfg).is_none());
    }

    #[test]
    fn distinct_nodes_do_not_collide() {
        let exact = Node::exact(0);
        let noisy = Node::new(0, 42);
        let c = RegionCharacter::builder(1e9).build();
        let cfg = SystemConfig::taurus_default();
        let mut cache = ExperimentCache::new();
        cache.insert(&exact, &c, &cfg, measurement(1.0));
        assert!(
            cache.get(&noisy, &c, &cfg).is_none(),
            "variability factor must be part of the key"
        );
    }

    #[test]
    fn distinct_configs_do_not_collide() {
        let node = Node::exact(0);
        let c = RegionCharacter::builder(1e9).build();
        let mut cache = ExperimentCache::new();
        cache.insert(
            &node,
            &c,
            &SystemConfig::new(24, 2500, 2000),
            measurement(1.0),
        );
        assert!(cache
            .get(&node, &c, &SystemConfig::new(24, 2500, 2100))
            .is_none());
    }
}
