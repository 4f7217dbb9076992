//! Parameter Control Plugins.
//!
//! PTF and the RRL change tuning parameters at run time through Score-P
//! PCPs (Section III): `OpenMPTP` for thread counts, `cpu_freq` and
//! `uncore_freq` for the two frequency domains (the latter two write the
//! frequency MSRs through `x86_adapt`). [`PcpStack`] diffs a requested
//! [`SystemConfig`] against the current one and charges only the plugins
//! whose parameter actually changed: a team re-fork for `OpenMPTP` and the
//! Section V-E transition latency for each frequency domain. Execution,
//! power and accounting all read the requested configuration, so the
//! switching latency is the whole of what a switch costs here.

use simnode::freq::{CORE_TRANSITION_LATENCY_S, UNCORE_TRANSITION_LATENCY_S};
use simnode::SystemConfig;

/// `OpenMPTP`'s cost when the team size changes: no hardware latency, but
/// the next fork/join pays a re-balancing cost (~8 µs for a 24-thread
/// team).
const REFORK_COST_S: f64 = 8e-6;

/// `cost` when `changed`, nothing otherwise.
fn charge(changed: bool, cost: f64) -> f64 {
    if changed {
        cost
    } else {
        0.0
    }
}

/// The full plugin stack with switch accounting.
#[derive(Debug)]
pub struct PcpStack {
    current: SystemConfig,
    switches: u64,
    total_latency_s: f64,
}

impl PcpStack {
    /// Stack with the three standard plugins, starting from `initial`
    /// (the configuration the job was launched with).
    pub fn new(initial: SystemConfig) -> Self {
        Self {
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

    /// Switch to `target`. Returns the latency incurred now: the sum of
    /// the `OpenMPTP`, `cpu_freq` and `uncore_freq` charges, in that order.
    pub fn apply(&mut self, target: SystemConfig) -> f64 {
        if target == self.current {
            return 0.0;
        }
        let current = &self.current;
        let latency = charge(target.threads != current.threads, REFORK_COST_S)
            + charge(target.core != current.core, CORE_TRANSITION_LATENCY_S)
            + charge(target.uncore != current.uncore, UNCORE_TRANSITION_LATENCY_S);
        self.current = target;
        self.switches += 1;
        self.total_latency_s += latency;
        latency
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn noop_apply_costs_nothing() {
        let cfg = SystemConfig::taurus_default();
        let mut stack = PcpStack::new(cfg);
        assert_eq!(stack.apply(cfg), 0.0);
        assert_eq!(stack.switches(), 0);
    }

    #[test]
    fn frequency_change_programs_msrs_and_charges_latency() {
        // `cpu_freq` and `uncore_freq` both switch: one transition
        // latency per domain.
        let mut stack = PcpStack::new(SystemConfig::taurus_default());
        let target = SystemConfig::new(24, 2400, 1700);
        let lat = stack.apply(target);
        assert!((lat - (CORE_TRANSITION_LATENCY_S + UNCORE_TRANSITION_LATENCY_S)).abs() < 1e-12);
        assert_eq!(stack.current(), target);
        assert_eq!(stack.switches(), 1);
    }

    #[test]
    fn partial_change_only_charges_changed_domains() {
        let mut stack = PcpStack::new(SystemConfig::taurus_default());
        // Only the uncore changes.
        let target = SystemConfig::taurus_default().with_uncore_mhz(2000);
        assert_eq!(stack.apply(target), UNCORE_TRANSITION_LATENCY_S);
        // Only the thread count changes.
        let target2 = target.with_threads(16);
        assert_eq!(stack.apply(target2), 8e-6);
        // Only the core frequency changes.
        let target3 = target2.with_core_mhz(2400);
        assert_eq!(stack.apply(target3), CORE_TRANSITION_LATENCY_S);
        assert_eq!(stack.switches(), 3);
    }

    #[test]
    fn each_plugin_charges_only_its_own_parameter() {
        // Each plugin's charge, taken from the same starting point: a
        // request that moves one parameter costs exactly that plugin's
        // latency, and the other two charge nothing.
        let from = SystemConfig::taurus_default();
        let to = SystemConfig::new(16, 2400, 1700);
        let cases = [
            (from.with_threads(to.threads), REFORK_COST_S),
            (from.with_core_mhz(to.core.mhz()), CORE_TRANSITION_LATENCY_S),
            (
                from.with_uncore_mhz(to.uncore.mhz()),
                UNCORE_TRANSITION_LATENCY_S,
            ),
        ];
        for (target, cost) in cases {
            let mut stack = PcpStack::new(from);
            assert_eq!(stack.apply(target), cost, "{target:?}");
            assert_eq!(stack.current(), target);
            assert_eq!(stack.apply(target), 0.0, "{target:?} again");
        }
    }

    /// The latency of every (threads, core, uncore) changed/unchanged
    /// combination, bit for bit: `switch_time_s` and every wall time that
    /// includes it feed the pinned digests, so the sum keeps its order
    /// (threads, then core, then uncore).
    #[test]
    fn latency_of_every_change_combination_is_golden() {
        const GOLDEN: [(bool, bool, bool, u64); 8] = [
            (false, false, false, 0x0000_0000_0000_0000),
            (false, false, true, 0x3ef4_f8b5_88e3_68f1),
            (false, true, false, 0x3ef6_0525_02ee_c7c9),
            (false, true, true, 0x3f05_7eed_45e9_185d),
            (true, false, false, 0x3ee0_c6f7_a0b5_ed8d),
            (true, false, true, 0x3efd_5c31_593e_5fb8),
            (true, true, false, 0x3efe_68a0_d349_be90),
            (true, true, true, 0x3f09_b0ab_2e16_93c0),
        ];
        let from = SystemConfig::taurus_default();
        for (threads, core, uncore, bits) in GOLDEN {
            let mut target = from;
            if threads {
                target = target.with_threads(16);
            }
            if core {
                target = target.with_core_mhz(2400);
            }
            if uncore {
                target = target.with_uncore_mhz(1700);
            }
            let mut stack = PcpStack::new(from);
            let lat = stack.apply(target);
            assert_eq!(
                lat.to_bits(),
                bits,
                "threads {threads}, core {core}, uncore {uncore}: {lat:e}"
            );
            assert_eq!(stack.total_latency_s().to_bits(), bits);
        }
    }

    #[test]
    fn accounting_accumulates() {
        let mut stack = PcpStack::new(SystemConfig::taurus_default());
        stack.apply(SystemConfig::new(24, 2000, 2000));
        stack.apply(SystemConfig::new(24, 2100, 2000));
        stack.apply(SystemConfig::new(24, 2100, 2000)); // no-op
        assert_eq!(stack.switches(), 2);
        assert!(stack.total_latency_s() > 0.0);
    }
}
