//! DVFS and UFS frequency domains.
//!
//! Frequencies are stored in MHz (`u32`) to keep the domains exactly
//! enumerable — the tuning plugin iterates "all combination of available
//! frequencies" (Section IV-C) and uses "the immediate neighboring
//! frequencies" for verification (Section III-C), both of which want exact
//! discrete states rather than floats.

use serde::{Deserialize, Serialize};

/// Core-domain transition latency measured on the paper's platform:
/// "The transition latency for changing frequency of one individual core …
/// is 21 µs" (Section V-E).
pub const CORE_TRANSITION_LATENCY_S: f64 = 21e-6;

/// Uncore-domain transition latency: "changing the operating uncore
/// frequency for each socket has a transition latency of 20 µs".
pub const UNCORE_TRANSITION_LATENCY_S: f64 = 20e-6;

/// A core (DVFS) frequency in MHz.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct CoreFreq(pub u32);

/// An uncore (UFS) frequency in MHz.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct UncoreFreq(pub u32);

macro_rules! freq_impl {
    ($ty:ident) => {
        impl $ty {
            /// Value in MHz.
            #[inline]
            pub fn mhz(self) -> u32 {
                self.0
            }

            /// Value in GHz.
            #[inline]
            pub fn ghz(self) -> f64 {
                self.0 as f64 / 1000.0
            }

            /// Value in Hz.
            #[inline]
            pub fn hz(self) -> f64 {
                self.0 as f64 * 1e6
            }
        }

        impl std::fmt::Display for $ty {
            fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
                write!(f, "{:.1}GHz", self.ghz())
            }
        }
    };
}

freq_impl!(CoreFreq);
freq_impl!(UncoreFreq);

/// An inclusive, stepped frequency domain.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct FreqDomain {
    /// Lowest frequency in MHz.
    pub min_mhz: u32,
    /// Highest frequency in MHz.
    pub max_mhz: u32,
    /// Step between states in MHz.
    pub step_mhz: u32,
}

impl FreqDomain {
    /// Create a new domain.
    ///
    /// # Panics
    /// Panics if `min > max`, `step == 0`, or the span is not a multiple of
    /// the step.
    pub fn new(min_mhz: u32, max_mhz: u32, step_mhz: u32) -> Self {
        assert!(min_mhz <= max_mhz, "min {min_mhz} > max {max_mhz}");
        assert!(step_mhz > 0, "step must be positive");
        assert_eq!(
            (max_mhz - min_mhz) % step_mhz,
            0,
            "span {min_mhz}..{max_mhz} not a multiple of step {step_mhz}"
        );
        Self {
            min_mhz,
            max_mhz,
            step_mhz,
        }
    }

    /// The DVFS domain of the Xeon E5-2680v3 (Turbo disabled):
    /// 1.2 GHz – 2.5 GHz in 100 MHz steps → 14 states.
    pub fn haswell_core() -> Self {
        Self::new(1200, 2500, 100)
    }

    /// The UFS domain of the paper's platform: 1.3 GHz – 3.0 GHz in
    /// 100 MHz steps → 18 states.
    pub fn haswell_uncore() -> Self {
        Self::new(1300, 3000, 100)
    }

    /// Number of discrete states.
    pub fn len(&self) -> usize {
        ((self.max_mhz - self.min_mhz) / self.step_mhz) as usize + 1
    }

    /// Never empty by construction.
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Iterate the states in MHz, ascending.
    pub fn iter_mhz(&self) -> impl Iterator<Item = u32> + '_ {
        (0..self.len() as u32).map(move |i| self.min_mhz + i * self.step_mhz)
    }

    /// Does the domain contain this exact state?
    pub fn contains(&self, mhz: u32) -> bool {
        mhz >= self.min_mhz
            && mhz <= self.max_mhz
            && (mhz - self.min_mhz).is_multiple_of(self.step_mhz)
    }

    /// Clamp and snap an arbitrary MHz value to the nearest domain state.
    pub fn snap(&self, mhz: u32) -> u32 {
        let clamped = mhz.clamp(self.min_mhz, self.max_mhz);
        let offset = clamped - self.min_mhz;
        let down = offset / self.step_mhz * self.step_mhz;
        let up = down + self.step_mhz;
        let snapped =
            if offset - down <= up.saturating_sub(offset) || self.min_mhz + up > self.max_mhz {
                down
            } else {
                up
            };
        self.min_mhz + snapped.min(self.max_mhz - self.min_mhz)
    }

    /// The immediate neighbourhood of a state: the state itself plus up to
    /// `radius` steps in each direction, clipped to the domain. This is the
    /// "immediate neighboring frequencies" search space of Section III-C.
    pub fn neighbourhood(&self, mhz: u32, radius: u32) -> Vec<u32> {
        let center = self.snap(mhz);
        let mut out = Vec::with_capacity(2 * radius as usize + 1);
        let lo = center
            .saturating_sub(radius * self.step_mhz)
            .max(self.min_mhz);
        let mut f = lo;
        while f <= (center + radius * self.step_mhz).min(self.max_mhz) {
            out.push(f);
            f += self.step_mhz;
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn haswell_domains_match_paper() {
        let core = FreqDomain::haswell_core();
        assert_eq!(core.len(), 14);
        assert_eq!(core.iter_mhz().next(), Some(1200));
        assert_eq!(core.iter_mhz().last(), Some(2500));

        let uncore = FreqDomain::haswell_uncore();
        assert_eq!(uncore.len(), 18);
        assert_eq!(uncore.iter_mhz().next(), Some(1300));
        assert_eq!(uncore.iter_mhz().last(), Some(3000));
    }

    #[test]
    fn ghz_conversions() {
        let f = CoreFreq(2500);
        assert_eq!(f.ghz(), 2.5);
        assert_eq!(f.hz(), 2.5e9);
        assert_eq!(format!("{}", UncoreFreq(1700)), "1.7GHz");
    }

    #[test]
    fn contains_and_snap() {
        let d = FreqDomain::haswell_core();
        assert!(d.contains(1200));
        assert!(d.contains(2500));
        assert!(!d.contains(1250));
        assert!(!d.contains(2600));
        assert_eq!(d.snap(1249), 1200);
        assert_eq!(d.snap(1251), 1300);
        assert_eq!(d.snap(900), 1200);
        assert_eq!(d.snap(9999), 2500);
    }

    #[test]
    fn neighbourhood_clips_at_edges() {
        let d = FreqDomain::haswell_core();
        assert_eq!(d.neighbourhood(1200, 1), vec![1200, 1300]);
        assert_eq!(d.neighbourhood(2500, 1), vec![2400, 2500]);
        assert_eq!(d.neighbourhood(2000, 1), vec![1900, 2000, 2100]);
        assert_eq!(d.neighbourhood(2000, 2).len(), 5);
    }

    #[test]
    fn iter_yields_len_states() {
        let d = FreqDomain::new(1000, 2000, 250);
        let states: Vec<u32> = d.iter_mhz().collect();
        assert_eq!(states, vec![1000, 1250, 1500, 1750, 2000]);
        assert_eq!(states.len(), d.len());
    }

    #[test]
    #[should_panic(expected = "not a multiple")]
    fn bad_span_panics() {
        let _ = FreqDomain::new(1000, 2050, 100);
    }

    #[test]
    fn transition_latencies_match_paper() {
        assert_eq!(CORE_TRANSITION_LATENCY_S, 21e-6);
        assert_eq!(UNCORE_TRANSITION_LATENCY_S, 20e-6);
    }
}
