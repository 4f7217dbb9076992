//! The execution engine: (workload, configuration, node) → time, counters,
//! power, energy.
//!
//! Timing follows a roofline-with-overlap model, the analytic core of the
//! simulator:
//!
//! * **compute time** scales inversely with core frequency and with
//!   Amdahl-limited parallel speedup:
//!   `T_comp = (I / IPC / f_c) · ((1−p) + p/n)`,
//! * **memory time** scales inversely with the achieved DRAM bandwidth,
//!   which grows with *uncore* frequency (the L3/ring feeds the memory
//!   controllers — Hackenberg et al. 2015) and saturates with thread
//!   count: `T_mem = B / BW(f_u, n)`,
//! * the two overlap partially: `T = max + (1 − overlap) · min`.
//!
//! This yields the paper's observed behaviour without hard-coding it:
//! compute-bound regions tune to high core / low uncore frequency
//! (Fig. 6), memory-bound regions to low core / high uncore frequency
//! (Fig. 7), and the energy valley emerges from the power model's
//! frequency–voltage scaling.

use serde::{Deserialize, Serialize};

use crate::character::RegionCharacter;
use crate::config::SystemConfig;
use crate::node::Node;
use crate::papi::{derive_counters, CounterSet, CounterValues};
use crate::power::{ActivityFactors, PowerBreakdown};

/// Nominal (reference-clock) core frequency in MHz, for `PAPI_REF_CYC`.
pub const NOMINAL_CORE_MHZ: u32 = 2500;

/// Memory-subsystem parameters of the node.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct MemoryParams {
    /// Peak achievable node DRAM bandwidth at maximum uncore frequency and
    /// full thread count, GB/s.
    pub peak_bw_gbs: f64,
    /// Saturation constant of the bandwidth-vs-uncore-frequency curve, MHz:
    /// `BW ∝ 1 − exp(−f_u / τ)` (normalised to 1.0 at `f_u_max`). The
    /// exponential form captures the measured behaviour on Haswell-EP
    /// (Hackenberg et al. 2015): bandwidth collapses quickly below
    /// ~1.5 GHz uncore but is nearly saturated above ~2.5 GHz, which is
    /// why memory-bound codes tune the uncore to 2.3–2.5 GHz rather than
    /// the 3.0 GHz ceiling (Fig. 7 / Table V).
    pub uncore_tau_mhz: f64,
    /// Uncore frequency at which the curve is normalised (the domain max).
    pub uncore_max_mhz: f64,
    /// Half-saturation constant of bandwidth vs thread count: a few
    /// threads already saturate the memory controllers.
    pub thread_half: f64,
    /// Thread count at which the thread curve is normalised.
    pub thread_max: f64,
    /// Memory-controller queueing penalty: effective bandwidth divides by
    /// `1 + q · (n / thread_max)²`. Beyond ~20 threads the extra request
    /// pressure (row-buffer conflicts, queueing delay) costs more than the
    /// added concurrency buys — the effect that makes 20 threads optimal
    /// for the memory-bound Mcbenchmark (Table IV/V) while compute-bound
    /// codes still want all 24.
    pub queue_factor: f64,
}

impl MemoryParams {
    /// Parameters for the dual-socket Haswell-EP node (DDR4-2133, four
    /// channels per socket).
    pub fn haswell_ep() -> Self {
        Self {
            peak_bw_gbs: 100.0,
            uncore_tau_mhz: 1150.0,
            uncore_max_mhz: 3000.0,
            thread_half: 4.0,
            thread_max: 24.0,
            queue_factor: 0.10,
        }
    }

    /// Achievable bandwidth at the given uncore frequency and thread count.
    ///
    /// The thread half-saturation constant grows as the uncore slows down
    /// (`∝ (f_max/f_u)^0.7`): lower ring frequency means higher per-access
    /// latency, so by Little's law more outstanding requests — more
    /// threads — are needed to sustain the same bandwidth.
    pub fn bandwidth_gbs(&self, uncore_mhz: u32, threads: u32) -> f64 {
        self.bandwidth_gbs_sens(uncore_mhz, threads, 1.0)
    }

    /// [`Self::bandwidth_gbs`] with a workload-specific queue sensitivity
    /// multiplier (see `RegionCharacter::mem_queue_sensitivity`).
    pub fn bandwidth_gbs_sens(&self, uncore_mhz: u32, threads: u32, sensitivity: f64) -> f64 {
        let f = (uncore_mhz as f64).max(1.0);
        let unc_raw = 1.0 - (-f / self.uncore_tau_mhz).exp();
        let unc_norm = 1.0 - (-self.uncore_max_mhz / self.uncore_tau_mhz).exp();
        let n = threads.max(1) as f64;
        let half = self.thread_half * (self.uncore_max_mhz / f).powf(0.7);
        let q = self.queue_factor * sensitivity;
        let queue = |n: f64| 1.0 + q * (n / self.thread_max).powi(2);
        let thr_raw = n / (n + half) / queue(n);
        let thr_norm = self.thread_max / (self.thread_max + half) / queue(self.thread_max);
        self.peak_bw_gbs * (unc_raw / unc_norm) * (thr_raw / thr_norm)
    }
}

impl Default for MemoryParams {
    fn default() -> Self {
        Self::haswell_ep()
    }
}

/// Result of executing one phase iteration of one region.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RegionRun {
    /// Wall time of the iteration, seconds.
    pub duration_s: f64,
    /// Node energy (HDEEM view: CPU + DRAM + blade), joules.
    pub node_energy_j: f64,
    /// CPU energy (RAPL view: core + uncore), joules.
    pub cpu_energy_j: f64,
    /// Power decomposition during the iteration.
    pub power: PowerBreakdown,
    /// PAPI counter values for the iteration.
    pub counters: CounterValues,
    /// Compute time component (diagnostic), seconds.
    pub t_comp_s: f64,
    /// Memory time component (diagnostic), seconds.
    pub t_mem_s: f64,
}

impl RegionRun {
    /// Fraction of the iteration limited by memory: 0 = pure compute,
    /// 1 = pure memory.
    pub fn memory_boundness(&self) -> f64 {
        if self.duration_s <= 0.0 {
            return 0.0;
        }
        (self.t_mem_s / self.duration_s).clamp(0.0, 1.0)
    }
}

/// The engine. Holds memory parameters; topology and power model come from
/// the [`Node`].
#[derive(Debug, Clone, Default)]
pub struct ExecutionEngine {
    mem: MemoryParams,
}

impl ExecutionEngine {
    /// Engine with the default Haswell-EP memory subsystem.
    pub fn new() -> Self {
        Self {
            mem: MemoryParams::haswell_ep(),
        }
    }

    /// Memory parameters in use.
    pub fn memory(&self) -> &MemoryParams {
        &self.mem
    }

    /// Pure timing query: `(T, T_comp, T_mem)` for one phase iteration.
    pub fn timing(&self, c: &RegionCharacter, cfg: &SystemConfig) -> (f64, f64, f64) {
        let n = cfg.threads.max(1) as f64;
        let p = c.parallel_fraction;
        let amdahl = (1.0 - p) + p / n;
        let t_comp = c.instr_per_iter / c.ipc_base / cfg.core.hz() * amdahl;

        let bw =
            self.mem
                .bandwidth_gbs_sens(cfg.uncore.mhz(), cfg.threads, c.mem_queue_sensitivity);
        let t_mem = if c.dram_bytes_per_iter > 0.0 {
            c.dram_bytes_per_iter / (bw * 1e9)
        } else {
            0.0
        };

        let (hi, lo) = if t_comp >= t_mem {
            (t_comp, t_mem)
        } else {
            (t_mem, t_comp)
        };
        let t = hi + (1.0 - c.overlap) * lo;
        (t, t_comp, t_mem)
    }

    /// Execute one phase iteration of region `c` under `cfg` on `node`,
    /// recording every PAPI preset.
    ///
    /// Counter noise follows the node's measurement-noise setting; pass the
    /// same node for reproducible sequences.
    pub fn run_region(&self, c: &RegionCharacter, cfg: &SystemConfig, node: &Node) -> RegionRun {
        self.run_region_recording(c, cfg, node, CounterSet::ALL)
    }

    /// [`Self::run_region`] recording only the presets in `recorded`; the
    /// others read zero. It takes the same draws from the node's noise
    /// stream as `run_region` and so leaves the stream where
    /// `run_region` would.
    pub fn run_region_recording(
        &self,
        c: &RegionCharacter,
        cfg: &SystemConfig,
        node: &Node,
        recorded: CounterSet,
    ) -> RegionRun {
        let Execution {
            cfg,
            t,
            t_comp,
            t_mem,
            power,
        } = self.execute(c, cfg, node);

        // Cycle accounting across the active cores.
        let threads = cfg.threads;
        let total_cycles = t * cfg.core.hz() * threads as f64;
        let busy_cycles = c.instr_per_iter / c.ipc_base;
        let stall_cycles = (total_cycles - busy_cycles).max(0.0);
        let ref_cycles = t * NOMINAL_CORE_MHZ as f64 * 1e6 * threads as f64;

        let counters = node.with_rng(|rng| {
            derive_counters(
                c,
                total_cycles,
                stall_cycles,
                ref_cycles,
                rng,
                node.counter_noise_sd(),
                recorded,
            )
        });

        RegionRun {
            duration_s: t,
            node_energy_j: power.node_w() * t,
            cpu_energy_j: power.cpu_w() * t,
            power,
            counters,
            t_comp_s: t_comp,
            t_mem_s: t_mem,
        }
    }

    /// [`Self::run_region`] without the PMU view: the iteration's wall
    /// time and power decomposition, bit-identical to `run_region`'s
    /// `duration_s` and `power`. It derives no counters and so never
    /// touches the node's RNG — the entry point for callers that only
    /// account time and energy (the runtime's serving path).
    pub fn region_power(
        &self,
        c: &RegionCharacter,
        cfg: &SystemConfig,
        node: &Node,
    ) -> (f64, PowerBreakdown) {
        let run = self.execute(c, cfg, node);
        (run.t, run.power)
    }

    /// The shared core of [`Self::run_region`] and [`Self::region_power`]:
    /// clamp the thread count to the node, time the iteration and
    /// evaluate the node's power model on the resulting activity.
    fn execute(&self, c: &RegionCharacter, cfg: &SystemConfig, node: &Node) -> Execution {
        debug_assert!(c.validate().is_ok(), "invalid region character");
        let threads = cfg.threads.clamp(1, node.topology().max_threads());
        let cfg = SystemConfig { threads, ..*cfg };
        let (t, t_comp, t_mem) = self.timing(c, &cfg);

        // Activity factors for the power model.
        let core_util = (t_comp / t).clamp(0.0, 1.0);
        let achieved_bw_gbs = if t > 0.0 {
            c.dram_bytes_per_iter / t / 1e9
        } else {
            0.0
        };
        let bw_frac = achieved_bw_gbs / self.mem.peak_bw_gbs;
        // Uncore activity: DRAM traffic plus L3-resident cache traffic.
        let l3_rate = c.l2_miss_per_instr * c.instr_per_iter / t / 1e9; // G accesses/s
        let uncore_util = (0.75 * bw_frac + 0.1 * l3_rate).clamp(0.0, 1.0);
        let act = ActivityFactors {
            core_util,
            mem_bw_gbs: achieved_bw_gbs,
            active_threads: threads,
            uncore_util,
        };
        Execution {
            cfg,
            t,
            t_comp,
            t_mem,
            power: node.power(&cfg, &act),
        }
    }
}

/// One iteration's timing and power, before any counters are derived.
struct Execution {
    /// The configuration as executed (threads clamped to the node).
    cfg: SystemConfig,
    t: f64,
    t_comp: f64,
    t_mem: f64,
    power: PowerBreakdown,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::node::Node;

    fn compute_bound() -> RegionCharacter {
        RegionCharacter::builder(4e10)
            .ipc(1.8)
            .parallel(0.995)
            .dram_bytes(5e9)
            .overlap(0.85)
            .build()
    }

    fn memory_bound() -> RegionCharacter {
        RegionCharacter::builder(5e9)
            .ipc(1.2)
            .parallel(0.98)
            .dram_bytes(4e10)
            .stalls(0.7)
            .overlap(0.85)
            .build()
    }

    fn node() -> Node {
        Node::exact(0)
    }

    #[test]
    fn bandwidth_curve_shape() {
        let m = MemoryParams::haswell_ep();
        // Normalised at (3.0 GHz, 24 threads).
        assert!((m.bandwidth_gbs(3000, 24) - m.peak_bw_gbs).abs() < 1e-9);
        // Monotone in uncore frequency.
        assert!(m.bandwidth_gbs(1300, 24) < m.bandwidth_gbs(2000, 24));
        assert!(m.bandwidth_gbs(2000, 24) < m.bandwidth_gbs(3000, 24));
        // Monotone in threads, saturating.
        assert!(m.bandwidth_gbs(3000, 4) < m.bandwidth_gbs(3000, 24));
        let gain_lo = m.bandwidth_gbs(3000, 8) / m.bandwidth_gbs(3000, 4);
        let gain_hi = m.bandwidth_gbs(3000, 24) / m.bandwidth_gbs(3000, 12);
        assert!(gain_lo > gain_hi, "bandwidth must saturate with threads");
    }

    #[test]
    fn compute_bound_time_scales_with_core_freq() {
        let eng = ExecutionEngine::new();
        let c = compute_bound();
        let (t_lo, ..) = eng.timing(&c, &SystemConfig::new(24, 1200, 3000));
        let (t_hi, ..) = eng.timing(&c, &SystemConfig::new(24, 2400, 3000));
        let ratio = t_lo / t_hi;
        assert!(ratio > 1.8, "compute-bound speedup with 2x CF: {ratio}");
        // And is almost insensitive to uncore frequency.
        let (t_u_lo, ..) = eng.timing(&c, &SystemConfig::new(24, 2400, 1700));
        assert!(
            t_u_lo / t_hi < 1.15,
            "uncore sensitivity too high: {}",
            t_u_lo / t_hi
        );
    }

    #[test]
    fn memory_bound_time_scales_with_uncore_freq() {
        let eng = ExecutionEngine::new();
        let c = memory_bound();
        let (t_lo, ..) = eng.timing(&c, &SystemConfig::new(24, 2000, 1300));
        let (t_hi, ..) = eng.timing(&c, &SystemConfig::new(24, 2000, 3000));
        assert!(
            t_lo / t_hi > 1.2,
            "memory-bound UFS sensitivity: {}",
            t_lo / t_hi
        );
        // And core frequency barely matters at the top.
        let (t_c_lo, ..) = eng.timing(&c, &SystemConfig::new(24, 1600, 3000));
        assert!(
            t_c_lo / t_hi < 1.1,
            "core sensitivity too high: {}",
            t_c_lo / t_hi
        );
    }

    #[test]
    fn amdahl_thread_scaling() {
        let eng = ExecutionEngine::new();
        let c = compute_bound();
        let (t1, ..) = eng.timing(&c, &SystemConfig::new(1, 2500, 3000));
        let (t12, ..) = eng.timing(&c, &SystemConfig::new(12, 2500, 3000));
        let (t24, ..) = eng.timing(&c, &SystemConfig::new(24, 2500, 3000));
        assert!(t1 > t12 && t12 > t24);
        let speedup = t1 / t24;
        assert!(speedup > 10.0 && speedup < 24.0, "speedup {speedup}");
    }

    #[test]
    fn run_region_energy_consistency() {
        let eng = ExecutionEngine::new();
        let n = node();
        let run = eng.run_region(&compute_bound(), &SystemConfig::taurus_default(), &n);
        assert!(run.duration_s > 0.0);
        assert!((run.node_energy_j - run.power.node_w() * run.duration_s).abs() < 1e-9);
        assert!(run.cpu_energy_j < run.node_energy_j);
        assert!(run.counters.get(crate::papi::PapiCounter::TotIns) > 0.0);
    }

    #[test]
    fn boundness_classification() {
        let eng = ExecutionEngine::new();
        let n = node();
        let cb = eng.run_region(&compute_bound(), &SystemConfig::taurus_default(), &n);
        let mb = eng.run_region(&memory_bound(), &SystemConfig::taurus_default(), &n);
        assert!(
            cb.memory_boundness() < 0.5,
            "compute-bound: {}",
            cb.memory_boundness()
        );
        assert!(
            mb.memory_boundness() > 0.8,
            "memory-bound: {}",
            mb.memory_boundness()
        );
    }

    #[test]
    fn compute_bound_prefers_high_cf_low_ucf_energy() {
        // The qualitative shape behind Fig. 6: for a compute-bound region
        // the energy-optimal configuration has high CF and low-to-mid UCF.
        let eng = ExecutionEngine::new();
        let n = node();
        let c = compute_bound();
        let e = |cf: u32, ucf: u32| {
            eng.run_region(&c, &SystemConfig::new(24, cf, ucf), &n)
                .node_energy_j
        };
        assert!(e(2400, 1700) < e(1200, 1700), "high CF must beat low CF");
        assert!(e(2400, 1700) < e(2400, 3000), "low UCF must beat high UCF");
    }

    #[test]
    fn memory_bound_prefers_low_cf_high_ucf_energy() {
        // The qualitative shape behind Fig. 7.
        let eng = ExecutionEngine::new();
        let n = node();
        let c = memory_bound();
        let e = |cf: u32, ucf: u32| {
            eng.run_region(&c, &SystemConfig::new(24, cf, ucf), &n)
                .node_energy_j
        };
        assert!(e(1600, 2500) < e(2500, 2500), "low CF must beat high CF");
        assert!(e(1600, 2500) < e(1600, 1300), "high UCF must beat low UCF");
    }

    #[test]
    fn threads_clamped_to_topology() {
        let eng = ExecutionEngine::new();
        let n = node();
        let run = eng.run_region(&compute_bound(), &SystemConfig::new(999, 2500, 3000), &n);
        let run24 = eng.run_region(&compute_bound(), &SystemConfig::new(24, 2500, 3000), &n);
        assert!((run.duration_s - run24.duration_s).abs() < 1e-12);
    }

    #[test]
    fn region_power_is_run_region_without_counters_bit_for_bit() {
        let eng = ExecutionEngine::new();
        let characters = [
            compute_bound(),
            memory_bound(),
            RegionCharacter::builder(1e9).dram_bytes(0.0).build(),
        ];
        // 0 and 999 threads are clamped, and so is 24 on the 12-core node.
        let configs = [
            SystemConfig::taurus_default(),
            SystemConfig::new(0, 1200, 1300),
            SystemConfig::new(12, 1800, 2200),
            SystemConfig::new(999, 2500, 3000),
        ];
        let mut gapped = crate::Topology::taurus_haswell();
        gapped.cores_per_socket = 6;
        let nodes = [
            Node::exact(0),
            Node::new(3, 77),
            Node::new(5, 77).with_topology(gapped),
        ];
        let bits =
            |p: &PowerBreakdown| [p.core_w, p.uncore_w, p.dram_w, p.blade_w].map(f64::to_bits);
        for node in &nodes {
            for c in &characters {
                for cfg in &configs {
                    let (t, power) = eng.region_power(c, cfg, node);
                    let run = eng.run_region(c, cfg, node);
                    assert_eq!(t.to_bits(), run.duration_s.to_bits());
                    assert_eq!(bits(&power), bits(&run.power));
                    assert_eq!((power.node_w() * t).to_bits(), run.node_energy_j.to_bits());
                    assert_eq!((power.cpu_w() * t).to_bits(), run.cpu_energy_j.to_bits());
                }
            }
        }
    }

    #[test]
    fn region_power_leaves_the_counter_rng_alone() {
        let eng = ExecutionEngine::new();
        let (served, fresh) = (Node::new(2, 9), Node::new(2, 9));
        let cfg = SystemConfig::taurus_default();
        for _ in 0..10 {
            eng.region_power(&memory_bound(), &cfg, &served);
        }
        let a = eng.run_region(&compute_bound(), &cfg, &served).counters;
        let b = eng.run_region(&compute_bound(), &cfg, &fresh).counters;
        assert_eq!(a, b, "noise streams must still be in step");
    }

    #[test]
    fn zero_dram_region_has_no_memory_time() {
        let eng = ExecutionEngine::new();
        let c = RegionCharacter::builder(1e9).dram_bytes(0.0).build();
        let (_, _, t_mem) = eng.timing(&c, &SystemConfig::taurus_default());
        assert_eq!(t_mem, 0.0);
    }
}
