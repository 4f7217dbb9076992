//! `x86_adapt`-style model-specific register interface.
//!
//! The paper changes frequencies through the low-level `x86_adapt` library
//! (Schöne & Molka 2014), which exposes MSRs via sysfs. We model the two
//! registers involved:
//!
//! * `IA32_PERF_CTL` (0x199, per core) — requested P-state; the target
//!   core ratio (frequency / 100 MHz) lives in bits 15:8.
//! * `MSR_UNCORE_RATIO_LIMIT` (0x620, per socket) — max uncore ratio in
//!   bits 6:0 and min ratio in bits 14:8; pinning both to the same value
//!   fixes the uncore frequency, exactly what the `uncore_freq` plugin
//!   does.
//!
//! A frequency sweep returns its transition latency so the caller can
//! account the overhead (21 µs per core write, 20 µs per socket write —
//! Section V-E).

use std::sync::{Mutex, MutexGuard, PoisonError};

use crate::freq::{CORE_TRANSITION_LATENCY_S, UNCORE_TRANSITION_LATENCY_S};
use crate::topology::Topology;

/// Address of `IA32_PERF_CTL`.
pub const IA32_PERF_CTL: u32 = 0x199;

/// Address of `MSR_UNCORE_RATIO_LIMIT`.
pub const MSR_UNCORE_RATIO_LIMIT: u32 = 0x620;

/// Errors from MSR access.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MsrError {
    /// The register address is not modelled.
    UnknownRegister(u32),
    /// Core or socket index out of range.
    BadUnit {
        /// Requested unit index.
        index: u32,
        /// Number of units available.
        available: u32,
    },
}

impl std::fmt::Display for MsrError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MsrError::UnknownRegister(a) => write!(f, "unknown MSR 0x{a:x}"),
            MsrError::BadUnit { index, available } => {
                write!(f, "unit {index} out of range (have {available})")
            }
        }
    }
}

impl std::error::Error for MsrError {}

#[derive(Debug, Default)]
struct MsrState {
    perf_ctl: Vec<u64>,
    uncore_ratio: Vec<u64>,
}

/// The per-node register bank.
#[derive(Debug)]
pub struct MsrBank {
    topo: Topology,
    state: Mutex<MsrState>,
}

impl MsrBank {
    /// Register bank for a node, initialised to the platform default
    /// (2.5 GHz core ratio 25, 3.0 GHz uncore ratio 30).
    pub fn new(topo: Topology) -> Self {
        let state = MsrState {
            perf_ctl: vec![Self::encode_perf_ctl(2500); topo.total_cores() as usize],
            uncore_ratio: vec![Self::encode_uncore(3000, 3000); topo.sockets as usize],
        };
        Self {
            topo,
            state: Mutex::new(state),
        }
    }

    /// Lock the register state. No write can leave it half-updated, so a
    /// poisoned lock is recovered rather than propagated.
    fn state(&self) -> MutexGuard<'_, MsrState> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Encode a core frequency into `IA32_PERF_CTL` format.
    pub fn encode_perf_ctl(mhz: u32) -> u64 {
        (((mhz / 100) as u64) & 0xFF) << 8
    }

    /// Decode the requested frequency from `IA32_PERF_CTL`.
    pub fn decode_perf_ctl(value: u64) -> u32 {
        (((value >> 8) & 0xFF) as u32) * 100
    }

    /// Encode uncore min/max ratios into `MSR_UNCORE_RATIO_LIMIT` format.
    pub fn encode_uncore(max_mhz: u32, min_mhz: u32) -> u64 {
        let max_ratio = ((max_mhz / 100) as u64) & 0x7F;
        let min_ratio = ((min_mhz / 100) as u64) & 0x7F;
        max_ratio | (min_ratio << 8)
    }

    /// Decode `(max_mhz, min_mhz)` from `MSR_UNCORE_RATIO_LIMIT`.
    pub fn decode_uncore(value: u64) -> (u32, u32) {
        (
            ((value & 0x7F) as u32) * 100,
            (((value >> 8) & 0x7F) as u32) * 100,
        )
    }

    /// Read an MSR on a core (`IA32_PERF_CTL`) or socket
    /// (`MSR_UNCORE_RATIO_LIMIT`).
    pub fn read(&self, unit: u32, addr: u32) -> Result<u64, MsrError> {
        let st = self.state();
        match addr {
            IA32_PERF_CTL => st
                .perf_ctl
                .get(unit as usize)
                .copied()
                .ok_or(MsrError::BadUnit {
                    index: unit,
                    available: self.topo.total_cores(),
                }),
            MSR_UNCORE_RATIO_LIMIT => {
                st.uncore_ratio
                    .get(unit as usize)
                    .copied()
                    .ok_or(MsrError::BadUnit {
                        index: unit,
                        available: self.topo.sockets,
                    })
            }
            other => Err(MsrError::UnknownRegister(other)),
        }
    }

    /// Write an MSR.
    pub fn write(&self, unit: u32, addr: u32, value: u64) -> Result<(), MsrError> {
        let mut st = self.state();
        match addr {
            IA32_PERF_CTL => {
                let n = self.topo.total_cores();
                let slot = st
                    .perf_ctl
                    .get_mut(unit as usize)
                    .ok_or(MsrError::BadUnit {
                        index: unit,
                        available: n,
                    })?;
                *slot = value;
                Ok(())
            }
            MSR_UNCORE_RATIO_LIMIT => {
                let n = self.topo.sockets;
                let slot = st
                    .uncore_ratio
                    .get_mut(unit as usize)
                    .ok_or(MsrError::BadUnit {
                        index: unit,
                        available: n,
                    })?;
                *slot = value;
                Ok(())
            }
            other => Err(MsrError::UnknownRegister(other)),
        }
    }

    /// Set the core frequency on *all* cores (what the `cpu_freq` plugin
    /// does). Returns the transition latency incurred: the per-core writes
    /// proceed in parallel across cores, so the cost is one core latency,
    /// and the caller decides how to account it.
    pub fn set_all_core_mhz(&self, mhz: u32) -> f64 {
        // One lock for the whole sweep, not a lock round trip per core.
        self.state().perf_ctl.fill(Self::encode_perf_ctl(mhz));
        CORE_TRANSITION_LATENCY_S
    }

    /// Pin the uncore frequency on all sockets. Returns the transition
    /// latency incurred (per-socket writes overlap).
    pub fn set_all_uncore_mhz(&self, mhz: u32) -> f64 {
        self.state()
            .uncore_ratio
            .fill(Self::encode_uncore(mhz, mhz));
        UNCORE_TRANSITION_LATENCY_S
    }

    /// Core frequency currently requested on core 0 (all cores are kept in
    /// lockstep by the plugins).
    pub fn core_mhz(&self) -> u32 {
        Self::decode_perf_ctl(self.read(0, IA32_PERF_CTL).expect("core 0 exists"))
    }

    /// Uncore frequency currently pinned on socket 0.
    pub fn uncore_mhz(&self) -> u32 {
        Self::decode_uncore(
            self.read(0, MSR_UNCORE_RATIO_LIMIT)
                .expect("socket 0 exists"),
        )
        .0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bank() -> MsrBank {
        MsrBank::new(Topology::taurus_haswell())
    }

    #[test]
    fn encodings_round_trip() {
        assert_eq!(
            MsrBank::decode_perf_ctl(MsrBank::encode_perf_ctl(2400)),
            2400
        );
        assert_eq!(
            MsrBank::decode_uncore(MsrBank::encode_uncore(1700, 1700)),
            (1700, 1700)
        );
        assert_eq!(
            MsrBank::decode_uncore(MsrBank::encode_uncore(3000, 1300)),
            (3000, 1300)
        );
    }

    #[test]
    fn defaults_are_platform_defaults() {
        let b = bank();
        assert_eq!(b.core_mhz(), 2500);
        assert_eq!(b.uncore_mhz(), 3000);
    }

    #[test]
    fn set_all_updates_every_unit() {
        let b = bank();
        let lat = b.set_all_core_mhz(1600);
        assert_eq!(lat, CORE_TRANSITION_LATENCY_S);
        for core in 0..24 {
            assert_eq!(
                MsrBank::decode_perf_ctl(b.read(core, IA32_PERF_CTL).unwrap()),
                1600
            );
        }
        let lat = b.set_all_uncore_mhz(2300);
        assert_eq!(lat, UNCORE_TRANSITION_LATENCY_S);
        assert_eq!(b.uncore_mhz(), 2300);
    }

    #[test]
    fn bad_unit_and_register_errors() {
        let b = bank();
        assert!(matches!(
            b.read(99, IA32_PERF_CTL),
            Err(MsrError::BadUnit { .. })
        ));
        assert!(matches!(
            b.read(0, 0x123),
            Err(MsrError::UnknownRegister(0x123))
        ));
        assert!(b.write(5, MSR_UNCORE_RATIO_LIMIT, 0).is_err());
        let err = MsrError::UnknownRegister(0x123);
        assert!(format!("{err}").contains("0x123"));
    }

    #[test]
    fn concurrent_writes_are_safe() {
        let b = std::sync::Arc::new(bank());
        let mut handles = Vec::new();
        for i in 0..8u32 {
            let b = b.clone();
            handles.push(std::thread::spawn(move || {
                for _ in 0..100 {
                    b.set_all_core_mhz(1200 + (i % 14) * 100);
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        // Each sweep holds the lock throughout, so no two sweeps interleave:
        // every core ends on the ratio of the last sweep.
        let last = b.core_mhz();
        assert!((0..8u32).any(|i| last == 1200 + (i % 14) * 100), "{last}");
        for core in 0..24 {
            let mhz = MsrBank::decode_perf_ctl(b.read(core, IA32_PERF_CTL).unwrap());
            assert_eq!(mhz, last, "core {core}");
        }
    }
}
