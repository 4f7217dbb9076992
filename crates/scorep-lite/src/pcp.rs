//! Parameter Control Plugins.
//!
//! PTF and the RRL change tuning parameters at run time through Score-P
//! PCPs (Section III): `OpenMPTP` for thread counts, `cpu_freq` and
//! `uncore_freq` for the two frequency domains (the latter two drive the
//! `x86_adapt` MSR interface). [`PcpStack`] diffs a requested
//! [`SystemConfig`] against the current one and invokes only the plugins
//! whose parameter actually changed, accumulating the switching latency
//! that Section V-E charges as DVFS/UFS overhead.

use simnode::{Node, SystemConfig};

/// `OpenMPTP`: sets the OpenMP thread count for the next parallel region.
/// No hardware latency, but the next fork/join pays a small re-balancing
/// cost.
#[derive(Debug, Default)]
pub struct OpenMpTp {
    /// Cost charged when the team size changes, seconds.
    pub refork_cost_s: f64,
}

impl OpenMpTp {
    /// Default re-fork cost (~8 µs for a 24-thread team).
    pub fn new() -> Self {
        Self {
            refork_cost_s: 8e-6,
        }
    }

    /// Set the team size of `target`, given the `current` setting.
    /// Returns the switching cost in seconds (0.0 if the thread count is
    /// already at the target value).
    pub fn apply(&self, _node: &Node, target: &SystemConfig, current: &SystemConfig) -> f64 {
        if target.threads == current.threads {
            0.0
        } else {
            self.refork_cost_s
        }
    }
}

/// `cpu_freq`: programs `IA32_PERF_CTL` on every core via `x86_adapt`.
#[derive(Debug, Default)]
pub struct CpuFreqPlugin;

impl CpuFreqPlugin {
    /// Program the core frequency of `target`, given the `current`
    /// setting. Returns the transition latency in seconds (0.0 if the core
    /// frequency is already at the target value).
    pub fn apply(&self, node: &Node, target: &SystemConfig, current: &SystemConfig) -> f64 {
        if target.core == current.core {
            0.0
        } else {
            node.msr().set_all_core_mhz(target.core.mhz())
        }
    }
}

/// `uncore_freq`: pins `MSR_UNCORE_RATIO_LIMIT` on every socket.
#[derive(Debug, Default)]
pub struct UncoreFreqPlugin;

impl UncoreFreqPlugin {
    /// Program the uncore frequency of `target`, given the `current`
    /// setting. Returns the transition latency in seconds (0.0 if the
    /// uncore frequency is already at the target value).
    pub fn apply(&self, node: &Node, target: &SystemConfig, current: &SystemConfig) -> f64 {
        if target.uncore == current.uncore {
            0.0
        } else {
            node.msr().set_all_uncore_mhz(target.uncore.mhz())
        }
    }
}

/// The full plugin stack with switch accounting.
#[derive(Debug)]
pub struct PcpStack {
    openmp: OpenMpTp,
    cpu_freq: CpuFreqPlugin,
    uncore_freq: UncoreFreqPlugin,
    current: SystemConfig,
    switches: u64,
    total_latency_s: f64,
}

impl PcpStack {
    /// Stack with the three standard plugins, starting from `initial`
    /// (the configuration the job was launched with).
    pub fn new(initial: SystemConfig) -> Self {
        Self {
            openmp: OpenMpTp::new(),
            cpu_freq: CpuFreqPlugin,
            uncore_freq: UncoreFreqPlugin,
            current: initial,
            switches: 0,
            total_latency_s: 0.0,
        }
    }

    /// Currently-applied configuration.
    pub fn current(&self) -> SystemConfig {
        self.current
    }

    /// Number of configuration *changes* performed (a request equal to the
    /// current configuration does not count).
    pub fn switches(&self) -> u64 {
        self.switches
    }

    /// Accumulated switching latency, seconds.
    pub fn total_latency_s(&self) -> f64 {
        self.total_latency_s
    }

    /// Drive the node to `target`. Returns the latency incurred now.
    pub fn apply(&mut self, node: &Node, target: SystemConfig) -> f64 {
        if target == self.current {
            return 0.0;
        }
        let current = &self.current;
        let latency = self.openmp.apply(node, &target, current)
            + self.cpu_freq.apply(node, &target, current)
            + self.uncore_freq.apply(node, &target, current);
        self.current = target;
        self.switches += 1;
        self.total_latency_s += latency;
        latency
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simnode::freq::{CORE_TRANSITION_LATENCY_S, UNCORE_TRANSITION_LATENCY_S};

    #[test]
    fn noop_apply_costs_nothing() {
        let node = Node::exact(0);
        let cfg = SystemConfig::taurus_default();
        let mut stack = PcpStack::new(cfg);
        assert_eq!(stack.apply(&node, cfg), 0.0);
        assert_eq!(stack.switches(), 0);
    }

    #[test]
    fn frequency_change_programs_msrs_and_charges_latency() {
        let node = Node::exact(0);
        let mut stack = PcpStack::new(SystemConfig::taurus_default());
        let target = SystemConfig::new(24, 2400, 1700);
        let lat = stack.apply(&node, target);
        assert!((lat - (CORE_TRANSITION_LATENCY_S + UNCORE_TRANSITION_LATENCY_S)).abs() < 1e-12);
        assert_eq!(node.programmed_frequencies(), (2400, 1700));
        assert_eq!(stack.current(), target);
        assert_eq!(stack.switches(), 1);
    }

    #[test]
    fn partial_change_only_charges_changed_domains() {
        let node = Node::exact(0);
        let mut stack = PcpStack::new(SystemConfig::taurus_default());
        // Only the uncore changes.
        let target = SystemConfig::taurus_default().with_uncore_mhz(2000);
        let lat = stack.apply(&node, target);
        assert!((lat - UNCORE_TRANSITION_LATENCY_S).abs() < 1e-12);
        // Only the thread count changes.
        let target2 = target.with_threads(16);
        let lat2 = stack.apply(&node, target2);
        assert!((lat2 - 8e-6).abs() < 1e-12);
    }

    #[test]
    fn each_plugin_charges_only_its_own_parameter() {
        let node = Node::exact(0);
        let from = SystemConfig::taurus_default();
        let to = SystemConfig::new(16, 2400, 1700);
        assert_eq!(OpenMpTp::new().apply(&node, &from, &from), 0.0);
        assert_eq!(OpenMpTp::new().apply(&node, &to, &from), 8e-6);
        assert_eq!(CpuFreqPlugin.apply(&node, &from, &from), 0.0);
        assert_eq!(
            CpuFreqPlugin.apply(&node, &to, &from),
            CORE_TRANSITION_LATENCY_S
        );
        assert_eq!(UncoreFreqPlugin.apply(&node, &from, &from), 0.0);
        assert_eq!(
            UncoreFreqPlugin.apply(&node, &to, &from),
            UNCORE_TRANSITION_LATENCY_S
        );
        assert_eq!(node.programmed_frequencies(), (2400, 1700));
    }

    #[test]
    fn accounting_accumulates() {
        let node = Node::exact(0);
        let mut stack = PcpStack::new(SystemConfig::taurus_default());
        stack.apply(&node, SystemConfig::new(24, 2000, 2000));
        stack.apply(&node, SystemConfig::new(24, 2100, 2000));
        stack.apply(&node, SystemConfig::new(24, 2100, 2000)); // no-op
        assert_eq!(stack.switches(), 2);
        assert!(stack.total_latency_s() > 0.0);
    }
}
