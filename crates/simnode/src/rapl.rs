//! RAPL — Running Average Power Limit energy counters.
//!
//! The paper's `measure-rapl` tool reads CPU energy through Intel's RAPL
//! interface via `x86_adapt` (Section V-D). RAPL exposes a 32-bit register
//! (`MSR_PKG_ENERGY_STATUS`) that accumulates energy in units of
//! `1/2^16 J ≈ 15.3 µJ` and silently wraps — consumers must sample often
//! enough and handle wraparound, which this model reproduces.

use std::sync::{Mutex, PoisonError};

use serde::{Deserialize, Serialize};

/// RAPL energy unit in joules (`1 / 2^16`).
pub const RAPL_ENERGY_UNIT_J: f64 = 1.0 / 65536.0;

/// Raw counter width: the register wraps at 2³².
pub const RAPL_COUNTER_WRAP: u64 = 1 << 32;

/// A package energy-status counter.
#[derive(Debug, Default)]
pub struct RaplCounter {
    /// No update can panic half-way, so a poisoned lock is recovered.
    raw: Mutex<RaplState>,
}

#[derive(Debug, Default)]
struct RaplState {
    /// Current raw register value (wrapped).
    raw: u64,
    /// Sub-unit residue not yet visible in the register.
    residue_j: f64,
}

/// A raw register sample.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct RaplSample(pub u64);

impl RaplCounter {
    /// A fresh counter at zero.
    pub fn new() -> Self {
        Self::default()
    }

    /// Accumulate `energy_j` joules of package energy.
    pub fn add_energy(&self, energy_j: f64) {
        assert!(energy_j >= 0.0, "energy cannot decrease");
        let mut st = self.raw.lock().unwrap_or_else(PoisonError::into_inner);
        let total = st.residue_j + energy_j;
        let units = (total / RAPL_ENERGY_UNIT_J).floor();
        st.residue_j = total - units * RAPL_ENERGY_UNIT_J;
        st.raw = (st.raw + units as u64) % RAPL_COUNTER_WRAP;
    }

    /// Read the raw register.
    pub fn sample(&self) -> RaplSample {
        RaplSample(self.raw.lock().unwrap_or_else(PoisonError::into_inner).raw)
    }

    /// Energy in joules between two samples, assuming at most one wrap
    /// (like every real RAPL consumer does).
    pub fn energy_between(start: RaplSample, end: RaplSample) -> f64 {
        let delta = if end.0 >= start.0 {
            end.0 - start.0
        } else {
            RAPL_COUNTER_WRAP - start.0 + end.0
        };
        delta as f64 * RAPL_ENERGY_UNIT_J
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accumulates_energy_in_units() {
        let c = RaplCounter::new();
        let s0 = c.sample();
        c.add_energy(1.0);
        let s1 = c.sample();
        let e = RaplCounter::energy_between(s0, s1);
        assert!((e - 1.0).abs() < 2.0 * RAPL_ENERGY_UNIT_J, "measured {e}");
    }

    #[test]
    fn residue_carries_small_increments() {
        let c = RaplCounter::new();
        let s0 = c.sample();
        // 1000 increments of 1/10 unit must total ~100 units.
        for _ in 0..1000 {
            c.add_energy(RAPL_ENERGY_UNIT_J / 10.0);
        }
        let e = RaplCounter::energy_between(s0, c.sample());
        // Floating-point residue accumulation may leave the count one or
        // two units short of the ideal 100.
        assert!(
            (e - 100.0 * RAPL_ENERGY_UNIT_J).abs() <= 2.0 * RAPL_ENERGY_UNIT_J,
            "e {e}"
        );
    }

    #[test]
    fn wraparound_is_handled() {
        let c = RaplCounter::new();
        // Push the counter near the wrap point.
        let almost = (RAPL_COUNTER_WRAP - 10) as f64 * RAPL_ENERGY_UNIT_J;
        c.add_energy(almost);
        let s0 = c.sample();
        c.add_energy(20.0 * RAPL_ENERGY_UNIT_J);
        let s1 = c.sample();
        assert!(s1.0 < s0.0, "counter must have wrapped");
        let e = RaplCounter::energy_between(s0, s1);
        assert!((e - 20.0 * RAPL_ENERGY_UNIT_J).abs() < 1e-9, "e {e}");
    }

    #[test]
    #[should_panic(expected = "energy cannot decrease")]
    fn negative_energy_panics() {
        RaplCounter::new().add_energy(-1.0);
    }

    #[test]
    fn unit_value_matches_spec() {
        assert!((RAPL_ENERGY_UNIT_J - 15.258789e-6).abs() < 1e-9);
    }
}
