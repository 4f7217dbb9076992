//! HDEEM — High Definition Energy Efficiency Monitoring.
//!
//! Taurus nodes carry an FPGA-based power instrumentation system
//! (Hackenberg et al. 2014) that samples blade power at 1 kSa/s without
//! perturbing the host, with roughly 5 ms of measurement latency — both
//! numbers quoted in Section III-B of the paper. The 100 ms significant-
//! region threshold exists precisely because of this delay: shorter regions
//! cannot be attributed reliable energies.

use rand::rngs::StdRng;
use rand_distr::{Distribution, Normal};
use serde::{Deserialize, Serialize};

/// Result of one HDEEM measurement window.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct HdeemMeasurement {
    /// Integrated energy over the window, joules.
    pub energy_j: f64,
    /// Number of power samples taken.
    pub samples: u64,
    /// Effective measured duration (quantised to the sampling period and
    /// shifted by the start delay), seconds.
    pub measured_duration_s: f64,
}

/// The FPGA power sensor.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct HdeemSensor {
    /// Sampling rate (1 kSa/s on the real hardware).
    pub sample_rate_hz: f64,
    /// Measurement start delay ("energy measurement using HDEEM has a
    /// delay of 5 ms on average").
    pub start_delay_s: f64,
    /// Relative amplitude noise per sample (FPGA ADC noise, small).
    pub noise_sd: f64,
}

impl HdeemSensor {
    /// The Taurus HDEEM configuration: 1 kSa/s, 5 ms delay.
    pub fn taurus() -> Self {
        Self {
            sample_rate_hz: 1000.0,
            start_delay_s: 5e-3,
            noise_sd: 0.001,
        }
    }

    /// Ideal sensor: instant, continuous, noiseless. Useful for tests.
    pub fn ideal() -> Self {
        Self {
            sample_rate_hz: f64::INFINITY,
            start_delay_s: 0.0,
            noise_sd: 0.0,
        }
    }

    /// Measure a window of constant power.
    ///
    /// The sensor misses the first `start_delay_s` of the window and sees
    /// an integer number of samples; with a 1 kHz clock a 100 ms region
    /// yields ~95 usable samples, a 1 ms region may yield none — the
    /// quantisation that motivates the significant-region threshold.
    pub fn measure(&self, power_w: f64, duration_s: f64, rng: &mut StdRng) -> HdeemMeasurement {
        self.measure_trace(&[(power_w, duration_s)], rng)
    }

    /// Measure a piecewise-constant power trace of `(power_w, dt_s)`
    /// segments: [`Self::measure_window`] followed by [`Self::add_noise`].
    pub fn measure_trace(&self, segments: &[(f64, f64)], rng: &mut StdRng) -> HdeemMeasurement {
        self.add_noise(self.measure_window(segments), rng)
    }

    /// The deterministic part of a measurement: the window the sensor
    /// sees (start delay skipped, quantised to whole samples) integrated
    /// without noise. Identical traces give identical windows, so callers
    /// that measure one trace many times may keep the window and redo
    /// only [`Self::add_noise`].
    pub fn measure_window(&self, segments: &[(f64, f64)]) -> HdeemMeasurement {
        let total: f64 = segments.iter().map(|(_, dt)| dt).sum();
        let visible = (total - self.start_delay_s).max(0.0);

        if !self.sample_rate_hz.is_finite() {
            // Ideal: continuous integration of the visible window.
            let energy = integrate(segments, self.start_delay_s, total);
            return HdeemMeasurement {
                energy_j: energy,
                samples: u64::MAX,
                measured_duration_s: visible,
            };
        }

        let period = 1.0 / self.sample_rate_hz;
        let samples = (visible / period).floor() as u64;
        let measured = samples as f64 * period;
        HdeemMeasurement {
            energy_j: integrate(segments, self.start_delay_s, self.start_delay_s + measured),
            samples,
            measured_duration_s: measured,
        }
    }

    /// The seeded part of a measurement: scale a window's energy by one
    /// ADC noise draw from `rng`. The ideal sensor, a noiseless sensor
    /// and an empty window draw nothing.
    pub fn add_noise(&self, window: HdeemMeasurement, rng: &mut StdRng) -> HdeemMeasurement {
        let mut energy_j = window.energy_j;
        if self.sample_rate_hz.is_finite() && self.noise_sd > 0.0 && energy_j > 0.0 {
            let normal = Normal::new(1.0, self.noise_sd).expect("valid noise");
            energy_j *= normal.sample(rng).max(0.0);
        }
        HdeemMeasurement { energy_j, ..window }
    }
}

impl Default for HdeemSensor {
    fn default() -> Self {
        Self::taurus()
    }
}

/// Integrate a piecewise-constant power trace between `from` and `to`
/// seconds (clamped to the trace).
fn integrate(segments: &[(f64, f64)], from: f64, to: f64) -> f64 {
    let mut t = 0.0;
    let mut energy = 0.0;
    for &(p, dt) in segments {
        let seg_start = t;
        let seg_end = t + dt;
        let a = seg_start.max(from);
        let b = seg_end.min(to);
        if b > a {
            energy += p * (b - a);
        }
        t = seg_end;
    }
    energy
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(1)
    }

    #[test]
    fn ideal_sensor_is_exact() {
        let s = HdeemSensor::ideal();
        let m = s.measure(250.0, 2.0, &mut rng());
        assert!((m.energy_j - 500.0).abs() < 1e-9);
    }

    #[test]
    fn taurus_sensor_misses_start_delay() {
        let mut s = HdeemSensor::taurus();
        s.noise_sd = 0.0;
        let m = s.measure(100.0, 1.0, &mut rng());
        // 5 ms missed, 995 samples of 1 ms each.
        assert_eq!(m.samples, 995);
        assert!((m.energy_j - 99.5).abs() < 1e-9, "energy {}", m.energy_j);
    }

    #[test]
    fn sub_threshold_regions_yield_few_samples() {
        let s = HdeemSensor::taurus();
        let short = s.measure(100.0, 0.006, &mut rng());
        assert!(short.samples <= 1, "samples {}", short.samples);
        let long = s.measure(100.0, 0.150, &mut rng());
        assert!(long.samples >= 100, "samples {}", long.samples);
    }

    #[test]
    fn trace_integration_weights_segments() {
        let s = HdeemSensor::ideal();
        let m = s.measure_trace(&[(100.0, 1.0), (300.0, 0.5)], &mut rng());
        assert!((m.energy_j - 250.0).abs() < 1e-9);
    }

    #[test]
    fn integrate_partial_window() {
        let e = integrate(&[(100.0, 1.0), (200.0, 1.0)], 0.5, 1.5);
        assert!((e - (100.0 * 0.5 + 200.0 * 0.5)).abs() < 1e-12);
    }

    #[test]
    fn noise_is_small_and_seeded() {
        let s = HdeemSensor::taurus();
        let a = s.measure(200.0, 1.0, &mut rng());
        let b = s.measure(200.0, 1.0, &mut rng());
        assert_eq!(a, b, "same seed must reproduce");
        let exact = 200.0 * 0.995;
        assert!((a.energy_j - exact).abs() / exact < 0.01);
    }

    /// The single-pass `measure_trace` body from before the window/noise
    /// split, kept verbatim as the oracle.
    fn reference_measure_trace(
        s: &HdeemSensor,
        segments: &[(f64, f64)],
        rng: &mut StdRng,
    ) -> HdeemMeasurement {
        let total: f64 = segments.iter().map(|(_, dt)| dt).sum();
        let visible = (total - s.start_delay_s).max(0.0);
        if !s.sample_rate_hz.is_finite() {
            let energy = integrate(segments, s.start_delay_s, total);
            return HdeemMeasurement {
                energy_j: energy,
                samples: u64::MAX,
                measured_duration_s: visible,
            };
        }
        let period = 1.0 / s.sample_rate_hz;
        let samples = (visible / period).floor() as u64;
        let measured = samples as f64 * period;
        let mut energy = integrate(segments, s.start_delay_s, s.start_delay_s + measured);
        if s.noise_sd > 0.0 && energy > 0.0 {
            let normal = Normal::new(1.0, s.noise_sd).expect("valid noise");
            energy *= normal.sample(rng).max(0.0);
        }
        HdeemMeasurement {
            energy_j: energy,
            samples,
            measured_duration_s: measured,
        }
    }

    #[test]
    fn trace_measurement_is_window_plus_noise_bit_for_bit() {
        use rand::RngCore;
        let noisy_ideal = HdeemSensor {
            noise_sd: 0.01,
            ..HdeemSensor::ideal()
        };
        let sensors = [HdeemSensor::taurus(), HdeemSensor::ideal(), noisy_ideal];
        let traces: [&[(f64, f64)]; 4] = [
            &[],
            &[(250.0, 0.003)],
            &[(180.0, 0.4), (320.0, 1.25), (90.0, 0.0004)],
            &[(410.0, 2.0); 16],
        ];
        for sensor in &sensors {
            for trace in traces {
                for seed in [0u64, 7, 0x5EED] {
                    let expected = reference_measure_trace(sensor, trace, &mut rng_at(seed));
                    let mut a = rng_at(seed);
                    let measured = sensor.measure_trace(trace, &mut a);
                    let mut b = rng_at(seed);
                    let split = sensor.add_noise(sensor.measure_window(trace), &mut b);
                    for m in [measured, split] {
                        assert_eq!(m.energy_j.to_bits(), expected.energy_j.to_bits());
                        assert_eq!(m.samples, expected.samples);
                        // By value: `f64::max(-0.0, 0.0)` may return either
                        // zero, so an empty trace's sign is unspecified.
                        assert_eq!(m.measured_duration_s, expected.measured_duration_s);
                    }
                    // Both paths consumed the same number of draws.
                    assert_eq!(a.next_u64(), b.next_u64());
                }
            }
        }
    }

    fn rng_at(seed: u64) -> StdRng {
        StdRng::seed_from_u64(seed)
    }

    #[test]
    fn zero_duration_measures_nothing() {
        let s = HdeemSensor::taurus();
        let m = s.measure(500.0, 0.0, &mut rng());
        assert_eq!(m.samples, 0);
        assert_eq!(m.energy_j, 0.0);
    }
}
