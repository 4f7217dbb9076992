//! Property-based tests over the core data structures and the simulator's
//! physical invariants.
//!
//! Implemented as seeded-RNG property loops (the offline toolchain has no
//! proptest): each property draws 64 random cases from the same generator
//! strategies the original proptest suite used, so failures reproduce
//! deterministically from the fixed seed.

use rand::rngs::StdRng;
use rand::{RngCore, SeedableRng};

use dvfs_ufs_tuning::enermodel::linalg::Matrix;
use dvfs_ufs_tuning::enermodel::scaler::StandardScaler;
use dvfs_ufs_tuning::enermodel::vif::vif_all;
use dvfs_ufs_tuning::ptf::TuningModel;
use dvfs_ufs_tuning::scorep_lite::{parse_trace, TraceReader, TraceWriter};
use dvfs_ufs_tuning::simnode::{ExecutionEngine, FreqDomain, Node, RegionCharacter, SystemConfig};

const CASES: usize = 64;

fn uniform(rng: &mut StdRng, lo: f64, hi: f64) -> f64 {
    lo + (hi - lo) * rng.next_f64()
}

fn uniform_u32(rng: &mut StdRng, lo: u32, hi: u32) -> u32 {
    lo + (rng.next_u64() % u64::from(hi - lo + 1)) as u32
}

/// Random valid region character (same ranges as the original strategy).
fn character(rng: &mut StdRng) -> RegionCharacter {
    let ins = uniform(rng, 1e8, 1e11);
    RegionCharacter::builder(ins)
        .ipc(uniform(rng, 0.5, 2.6))
        .parallel(uniform(rng, 0.8, 0.9995))
        .dram_bytes(uniform(rng, 0.0, 6.0) * ins)
        .stalls(uniform(rng, 0.0, 0.95))
        .overlap(uniform(rng, 0.5, 0.95))
        .build()
}

/// Random valid system configuration on the Haswell domains.
fn config(rng: &mut StdRng) -> SystemConfig {
    SystemConfig::new(
        uniform_u32(rng, 1, 24),
        uniform_u32(rng, 12, 25) * 100,
        uniform_u32(rng, 13, 30) * 100,
    )
}

fn random_name(rng: &mut StdRng) -> String {
    let len = 1 + (rng.next_u64() % 12) as usize;
    (0..len)
        .map(|_| char::from(b'a' + (rng.next_u64() % 26) as u8))
        .collect()
}

/// Energy equals power times duration, and both sensors agree on ordering
/// (node ≥ cpu).
#[test]
fn energy_is_power_times_time() {
    let mut rng = StdRng::seed_from_u64(0xE0);
    let engine = ExecutionEngine::new();
    let node = Node::exact(0);
    for _ in 0..CASES {
        let c = character(&mut rng);
        let cfg = config(&mut rng);
        let run = engine.run_region(&c, &cfg, &node);
        assert!(run.duration_s > 0.0);
        assert!((run.node_energy_j - run.power.node_w() * run.duration_s).abs() < 1e-9);
        assert!(run.cpu_energy_j < run.node_energy_j);
        assert!(run.t_comp_s >= 0.0 && run.t_mem_s >= 0.0);
        assert!(run.duration_s + 1e-12 >= run.t_comp_s.max(run.t_mem_s));
    }
}

/// Raising the core frequency never slows a region down; raising the
/// uncore frequency never slows it down either.
#[test]
fn time_is_monotone_in_frequencies() {
    let mut rng = StdRng::seed_from_u64(0x71);
    let engine = ExecutionEngine::new();
    for _ in 0..CASES {
        let c = character(&mut rng);
        let cfg = config(&mut rng);
        let (t0, ..) = engine.timing(&c, &cfg);
        if cfg.core.mhz() < 2500 {
            let (t1, ..) = engine.timing(&c, &cfg.with_core_mhz(cfg.core.mhz() + 100));
            assert!(t1 <= t0 + 1e-15, "CF up must not slow down: {t0} -> {t1}");
        }
        if cfg.uncore.mhz() < 3000 {
            let (t2, ..) = engine.timing(&c, &cfg.with_uncore_mhz(cfg.uncore.mhz() + 100));
            assert!(t2 <= t0 + 1e-15, "UCF up must not slow down: {t0} -> {t2}");
        }
    }
}

/// More threads never slow down a pure-compute region.
#[test]
fn compute_bound_threads_monotone() {
    let mut rng = StdRng::seed_from_u64(0x7C);
    let engine = ExecutionEngine::new();
    for _ in 0..CASES {
        let ins = uniform(&mut rng, 1e9, 1e11);
        let t = uniform_u32(&mut rng, 1, 23);
        let c = RegionCharacter::builder(ins)
            .ipc(2.0)
            .parallel(0.999)
            .dram_bytes(0.0)
            .build();
        let cfg = SystemConfig::new(t, 2500, 2000);
        let (t0, ..) = engine.timing(&c, &cfg);
        let (t1, ..) = engine.timing(&c, &cfg.with_threads(t + 1));
        assert!(
            t1 <= t0 + 1e-15,
            "threads up slowed pure compute: {t0} -> {t1}"
        );
    }
}

/// Frequency domain snap always lands inside the domain, and
/// neighbourhoods contain their centre.
#[test]
fn freq_domain_snap_and_neighbourhood() {
    let mut rng = StdRng::seed_from_u64(0x5A);
    let d = FreqDomain::haswell_core();
    for _ in 0..CASES {
        let mhz = (rng.next_u64() % 5000) as u32;
        let radius = (rng.next_u64() % 4) as u32;
        let snapped = d.snap(mhz);
        assert!(
            d.contains(snapped),
            "snap({mhz}) = {snapped} outside domain"
        );
        let hood = d.neighbourhood(mhz, radius);
        assert!(hood.contains(&snapped));
        assert!(hood.len() <= 2 * radius as usize + 1);
        for f in hood {
            assert!(d.contains(f));
        }
    }
}

/// Standard scaler round-trips arbitrary matrices.
#[test]
fn scaler_round_trip() {
    let mut rng = StdRng::seed_from_u64(0x5C);
    for _ in 0..CASES {
        let nrows = 2 + (rng.next_u64() % 18) as usize;
        let rows: Vec<Vec<f64>> = (0..nrows)
            .map(|_| (0..4).map(|_| uniform(&mut rng, -1e6, 1e6)).collect())
            .collect();
        let m = Matrix::from_rows(&rows);
        let sc = StandardScaler::fit(&m);
        let back = sc.inverse_transform(&sc.transform(&m));
        assert!(m.max_abs_diff(&back) < 1e-6);
    }
}

/// VIF values are always ≥ 1 (or infinite) for non-degenerate input.
#[test]
fn vif_at_least_one() {
    let mut rng = StdRng::seed_from_u64(0xF1);
    for _ in 0..CASES {
        let nrows = 8 + (rng.next_u64() % 16) as usize;
        let rows: Vec<Vec<f64>> = (0..nrows)
            .map(|_| (0..3).map(|_| uniform(&mut rng, -1e3, 1e3)).collect())
            .collect();
        let m = Matrix::from_rows(&rows);
        for v in vif_all(&m) {
            assert!(v >= 1.0 - 1e-6 || v.is_infinite());
        }
    }
}

/// Trace serialisation round-trips arbitrary region event sequences.
#[test]
fn trace_round_trip() {
    let mut rng = StdRng::seed_from_u64(0x7A);
    for _ in 0..CASES {
        let n = 1 + (rng.next_u64() % 29) as usize;
        let durations: Vec<u64> = (0..n).map(|_| 1 + rng.next_u64() % 999_999).collect();
        let mut w = TraceWriter::new();
        let phase = w.define_region("PHASE");
        let r = w.define_region("region");
        let mut t = 0u64;
        w.enter(phase, t);
        for d in &durations {
            w.enter(r, t);
            t += d;
            w.leave(r, t, *d as f64 * 0.1, None);
        }
        w.leave(phase, t, 1.0, None);
        let trace = w.finish();
        let back = TraceReader::read(&trace.to_bytes()).expect("round trip");
        assert_eq!(trace, back);
        let summary = parse_trace(&back).expect("parse");
        assert_eq!(summary.phase_instances.len(), 1);
    }
}

/// Tuning-model lookup is total: any region name resolves to a valid
/// configuration, known names to a configuration that was associated with
/// them.
#[test]
fn tuning_model_lookup_total() {
    let mut rng = StdRng::seed_from_u64(0x70);
    for _ in 0..CASES {
        let nnames = 1 + (rng.next_u64() % 7) as usize;
        let names: Vec<String> = (0..nnames).map(|_| random_name(&mut rng)).collect();
        let cfgs: Vec<SystemConfig> = (0..8).map(|_| config(&mut rng)).collect();
        let probe = random_name(&mut rng);
        let pairs: Vec<(String, SystemConfig)> =
            names.iter().cloned().zip(cfgs.iter().copied()).collect();
        let phase = cfgs[7];
        let tm = TuningModel::new("app", &pairs, phase);
        for (name, _) in &pairs {
            // When a name repeats, the classifier keeps the last insert;
            // either way the lookup must resolve to one of the configs
            // that was associated with this name.
            let candidates: Vec<_> = pairs
                .iter()
                .filter(|(n, _)| n == name)
                .map(|(_, c)| *c)
                .collect();
            let got = tm.lookup(name);
            assert!(
                candidates.contains(&got),
                "{name}: {got:?} not in {candidates:?}"
            );
        }
        if !names.contains(&probe) {
            assert_eq!(tm.lookup(&probe), phase);
        }
    }
}

/// Tuning models survive JSON *bit-identically*: serialize → parse →
/// re-serialize yields the same bytes, and the parsed model is equal to
/// the original. This pins the `TuningModelRepository`'s storage format
/// (models are stored in serialized form and re-parsed on every serve).
#[test]
fn tuning_model_json_round_trip_is_bit_identical() {
    let mut rng = StdRng::seed_from_u64(0x7B17);
    for case in 0..CASES {
        let nregions = 1 + (rng.next_u64() % 8) as usize;
        let pairs: Vec<(String, SystemConfig)> = (0..nregions)
            .map(|_| (random_name(&mut rng), config(&mut rng)))
            .collect();
        let tm = TuningModel::new(random_name(&mut rng), &pairs, config(&mut rng));

        let json = tm.to_json();
        let parsed = TuningModel::from_json(&json).expect("storage format parses");
        assert_eq!(tm, parsed, "case {case}: parse must reconstruct the model");
        let rejson = parsed.to_json();
        assert_eq!(
            json, rejson,
            "case {case}: re-serialisation must be byte-identical"
        );
        // And the repository's unit of storage — the serialized string —
        // keeps lookup semantics intact.
        for (region, _) in &pairs {
            assert_eq!(tm.lookup(region), parsed.lookup(region));
        }
    }
}

/// System configurations survive JSON.
#[test]
fn config_serde_round_trip() {
    let mut rng = StdRng::seed_from_u64(0x53);
    for _ in 0..CASES {
        let cfg = config(&mut rng);
        let json = serde_json::to_string(&cfg).unwrap();
        let back: SystemConfig = serde_json::from_str(&json).unwrap();
        assert_eq!(cfg, back);
    }
}

/// Node energy at any configuration is bounded by physical sanity:
/// a node never draws less than the blade floor nor more than 500 W.
#[test]
fn node_power_bounded() {
    let mut rng = StdRng::seed_from_u64(0xB0);
    let engine = ExecutionEngine::new();
    let node = Node::exact(0);
    for _ in 0..CASES {
        let c = character(&mut rng);
        let cfg = config(&mut rng);
        let run = engine.run_region(&c, &cfg, &node);
        let watts = run.power.node_w();
        assert!(watts > 70.0, "below blade floor: {watts}");
        assert!(watts < 500.0, "implausible draw: {watts}");
    }
}
