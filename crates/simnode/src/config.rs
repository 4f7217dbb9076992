//! System configuration: the three tuning knobs.

use serde::{Deserialize, Serialize};
use std::fmt;

use crate::freq::{CoreFreq, UncoreFreq};

/// One setting of the tuning parameters the plugin controls: OpenMP thread
/// count, core frequency and uncore frequency (Section III).
/// Configurations order by threads, then core, then uncore frequency.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct SystemConfig {
    /// Number of OpenMP threads.
    pub threads: u32,
    /// Core (DVFS) frequency.
    pub core: CoreFreq,
    /// Uncore (UFS) frequency.
    pub uncore: UncoreFreq,
}

impl SystemConfig {
    /// Construct a configuration.
    pub fn new(threads: u32, core_mhz: u32, uncore_mhz: u32) -> Self {
        Self {
            threads,
            core: CoreFreq(core_mhz),
            uncore: UncoreFreq(uncore_mhz),
        }
    }

    /// The platform default for any Taurus job: 24 threads at
    /// 2.5 GHz core / 3.0 GHz uncore (Section V-D).
    pub fn taurus_default() -> Self {
        Self::new(24, 2500, 3000)
    }

    /// The model calibration point: 2.0 GHz core, 1.5 GHz uncore,
    /// 24 threads (Section IV-A).
    pub fn calibration() -> Self {
        Self::new(24, 2000, 1500)
    }

    /// Same knobs with a different thread count.
    pub fn with_threads(self, threads: u32) -> Self {
        Self { threads, ..self }
    }

    /// Same knobs with a different core frequency (MHz).
    pub fn with_core_mhz(self, mhz: u32) -> Self {
        Self {
            core: CoreFreq(mhz),
            ..self
        }
    }

    /// Same knobs with a different uncore frequency (MHz).
    pub fn with_uncore_mhz(self, mhz: u32) -> Self {
        Self {
            uncore: UncoreFreq(mhz),
            ..self
        }
    }
}

impl Default for SystemConfig {
    fn default() -> Self {
        Self::taurus_default()
    }
}

impl fmt::Display for SystemConfig {
    /// Formats like the paper's tables: `24thr 2.5|2.1 GHz (CF|UCF)`.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}thr {:.1}|{:.1} GHz",
            self.threads,
            self.core.ghz(),
            self.uncore.ghz()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper() {
        let d = SystemConfig::taurus_default();
        assert_eq!(d.threads, 24);
        assert_eq!(d.core.mhz(), 2500);
        assert_eq!(d.uncore.mhz(), 3000);

        let c = SystemConfig::calibration();
        assert_eq!((c.core.mhz(), c.uncore.mhz()), (2000, 1500));
    }

    #[test]
    fn with_builders() {
        let c = SystemConfig::taurus_default()
            .with_threads(16)
            .with_core_mhz(1600)
            .with_uncore_mhz(2300);
        assert_eq!(c, SystemConfig::new(16, 1600, 2300));
    }

    #[test]
    fn display_matches_table_style() {
        let c = SystemConfig::new(20, 1600, 2300);
        assert_eq!(format!("{c}"), "20thr 1.6|2.3 GHz");
    }

    #[test]
    fn serde_round_trip() {
        let c = SystemConfig::new(24, 2400, 1700);
        let s = serde_json::to_string(&c).unwrap();
        let back: SystemConfig = serde_json::from_str(&s).unwrap();
        assert_eq!(c, back);
    }
}
