//! Training-data acquisition (Section IV-A / V-B).
//!
//! The pipeline: instrument each benchmark with Score-P, run it at the
//! calibration configuration (2.0 GHz core, 1.5 GHz uncore) recording PAPI
//! counters into an OTF2 trace, post-process the trace into per-phase
//! counter *rates* (counters divided by phase execution time), then sweep
//! core/uncore frequencies collecting node energies, normalised by the
//! energy at the calibration point. Each `(benchmark, threads, CF, UCF)`
//! tuple becomes one training sample with nine features: the seven Table I
//! counter rates plus the two frequencies.

use enermodel::linalg::Matrix;
use enermodel::train::Dataset;
use kernels::BenchmarkSpec;
use scorep_lite::instrument::StaticHook;
use scorep_lite::{parse_trace, InstrumentationConfig, InstrumentedApp, TraceWriter};
use simnode::papi::PapiCounter;
use simnode::{CounterSet, ExecutionEngine, Node, SystemConfig};

/// Network input width: 7 counter rates + core frequency + uncore
/// frequency (Fig. 4).
pub const FEATURE_COUNT: usize = 9;

/// Measure the seven selected counter rates of a benchmark's phase region
/// by tracing an instrumented run at `config` that records only those
/// seven presets, and post-processing the trace (the paper's OTF2-Parser
/// pipeline).
pub fn phase_counter_rates(bench: &BenchmarkSpec, node: &Node, config: SystemConfig) -> [f64; 7] {
    let cfg =
        InstrumentationConfig::scorep_defaults().with_papi_metrics(CounterSet::paper_selected());
    let app = InstrumentedApp::new(bench, node, cfg);
    let mut writer = TraceWriter::new();
    app.run_from(&mut StaticHook(config), config, Some(&mut writer));
    let trace = writer.finish();
    let summary = parse_trace(&trace).expect("instrumented run produces a parseable trace");
    let rates = summary.counter_rates().expect("counters recorded");
    let sel = PapiCounter::paper_selected();
    let mut out = [0.0; 7];
    for (o, c) in out.iter_mut().zip(sel) {
        *o = rates.get(c);
    }
    out
}

/// Assemble the nine network features from counter rates and a frequency
/// pair (frequencies in GHz, as the paper feeds them).
pub fn features_from_rates(
    rates: &[f64; 7],
    core_mhz: u32,
    uncore_mhz: u32,
) -> [f64; FEATURE_COUNT] {
    [
        rates[0],
        rates[1],
        rates[2],
        rates[3],
        rates[4],
        rates[5],
        rates[6],
        core_mhz as f64 / 1000.0,
        uncore_mhz as f64 / 1000.0,
    ]
}

/// Build the supervised dataset for the given benchmarks.
///
/// For every benchmark and thread candidate, counter rates are measured
/// once at the calibration frequencies; then each `(CF, UCF)` pair in the
/// given lists contributes one sample whose target is the phase energy
/// normalised by the phase energy at the calibration point (Section IV-B's
/// power-variability normalisation).
pub fn build_dataset(
    benchmarks: &[BenchmarkSpec],
    node: &Node,
    threads: &[u32],
    core_mhz: &[u32],
    uncore_mhz: &[u32],
) -> Dataset {
    assert!(!threads.is_empty() && !core_mhz.is_empty() && !uncore_mhz.is_empty());
    let engine = ExecutionEngine::new();

    // (features, target, group) triples, one benchmark at a time.
    let samples: Vec<(Vec<f64>, f64, String)> = benchmarks
        .iter()
        .flat_map(|bench| {
            let phase = bench.phase_character();
            let mut local = Vec::new();
            let thread_candidates: &[u32] = if bench.model.tunable_threads() {
                threads
            } else {
                // MPI-only codes run at the full core count (Section V-B
                // varies OpenMP threads only for OpenMP/hybrid codes).
                &[24]
            };
            for &t in thread_candidates {
                let calib = SystemConfig::calibration().with_threads(t);
                let rates = phase_counter_rates(bench, node, calib);
                let e_calib = engine.run_region(&phase, &calib, node).node_energy_j;
                for &cf in core_mhz {
                    for &ucf in uncore_mhz {
                        let cfg = SystemConfig::new(t, cf, ucf);
                        let e = engine.run_region(&phase, &cfg, node).node_energy_j;
                        local.push((
                            features_from_rates(&rates, cf, ucf).to_vec(),
                            e / e_calib,
                            bench.name.clone(),
                        ));
                    }
                }
            }
            local
        })
        .collect();

    let rows: Vec<Vec<f64>> = samples.iter().map(|(f, _, _)| f.clone()).collect();
    Dataset::new(
        Matrix::from_rows(&rows),
        samples.iter().map(|(_, t, _)| *t).collect(),
        samples.into_iter().map(|(_, _, g)| g).collect(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn node() -> Node {
        Node::exact(0)
    }

    #[test]
    fn rates_are_positive_and_frequency_invariant() {
        let bench = kernels::benchmark("Lulesh").unwrap();
        let n = node();
        let r_calib = phase_counter_rates(&bench, &n, SystemConfig::calibration());
        assert!(r_calib.iter().all(|&v| v > 0.0), "{r_calib:?}");
        // The instruction-mix rates are per-second, so they scale with
        // execution speed — but their *ratios* are invariant.
        let r_fast = phase_counter_rates(&bench, &n, SystemConfig::taurus_default());
        let ratio0 = r_fast[0] / r_calib[0]; // BR_NTK
        let ratio1 = r_fast[1] / r_calib[1]; // LD_INS
        assert!(
            (ratio0 - ratio1).abs() / ratio1 < 1e-6,
            "{ratio0} vs {ratio1}"
        );
    }

    /// Golden FNV-1a hash of the counter rates of three back-to-back
    /// measurements of each test-set benchmark on one noisy node. Every
    /// measurement draws its PMU noise from the node's shared stream, so
    /// the hash pins both the rates and how far each measurement advances
    /// the stream for the next one.
    #[test]
    fn noisy_counter_rates_are_bit_identical_to_golden() {
        let node = Node::new(3, 0x5EED_2019);
        assert!(node.counter_noise_sd() > 0.0);
        let mut h = kernels::Fnv1a::new();
        for bench in kernels::test_set() {
            for _ in 0..3 {
                for rate in phase_counter_rates(&bench, &node, SystemConfig::calibration()) {
                    h = h.update_u64(rate.to_bits());
                }
            }
        }
        assert_eq!(h.finish(), 0x78ea_b410_7e84_50f2, "counter-rate golden");
    }

    #[test]
    fn features_order_and_units() {
        let rates = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0];
        let f = features_from_rates(&rates, 2400, 1700);
        assert_eq!(&f[..7], &rates);
        assert_eq!(f[7], 2.4);
        assert_eq!(f[8], 1.7);
    }

    #[test]
    fn dataset_shape_and_normalisation() {
        let benches = vec![
            kernels::benchmark("EP").unwrap(),
            kernels::benchmark("CG").unwrap(),
        ];
        let n = node();
        let ds = build_dataset(&benches, &n, &[24], &[2000, 2500], &[1500, 3000]);
        assert_eq!(
            ds.len(),
            2 * 2 * 2,
            "2 benchmarks x 2 CF x 2 UCF at one thread count"
        );
        assert_eq!(ds.features.cols(), FEATURE_COUNT);
        // The sample at the calibration point must have target exactly 1.
        for i in 0..ds.len() {
            let row = ds.features.row(i);
            if row[7] == 2.0 && row[8] == 1.5 {
                assert!((ds.targets[i] - 1.0).abs() < 1e-12);
            }
            assert!(
                ds.targets[i] > 0.2 && ds.targets[i] < 3.0,
                "target {}",
                ds.targets[i]
            );
        }
        assert_eq!(ds.group_names(), vec!["EP", "CG"]);
    }

    #[test]
    fn mpi_benchmarks_ignore_thread_candidates() {
        let benches = vec![kernels::benchmark("Kripke").unwrap()];
        let n = node();
        let ds = build_dataset(&benches, &n, &[12, 24], &[2000], &[1500]);
        // MPI-only → single thread setting regardless of candidates.
        assert_eq!(ds.len(), 1);
    }
}
