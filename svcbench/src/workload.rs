//! The three seeded workloads: what each one generates from its seed,
//! what it sets up before serving, and the faults it serves under.
//!
//! The program under test only ever receives the generated trace (plus
//! the repository or replica set seeded with design-time advice); the
//! seed never reaches it.
//!
//! * `tiny_hit` — the headline shape of the repository's
//!   `vtime/service/jobs_1000k` bench, scaled to many short serving
//!   iterations per run of this benchmark: every job is a one-region,
//!   one-iteration toy job (see `tiny_workload`), served from one stored
//!   model on 64 nodes with unbounded slots and a fixed 14.4 ms
//!   interarrival. Per-job simulation is almost nothing, so
//!   the event loop, kernel dispatch, repository serve, baseline and
//!   report assembly carry the wall time. Calibration and the network do
//!   no work. The seed only names the jobs (job names seed the
//!   accounting noise).
//! * `paper_mix` — the paper's pipeline end to end. Set-up trains the
//!   energy model (`EnergyModel::train_paper`) and tunes the five test
//!   benchmarks at design time (`TuningSession`), publishing their
//!   advice. The trace is a seeded open loop of Poisson arrivals mixing
//!   those five benchmarks (80 % of jobs) with seed-jittered size
//!   variants of them (25 workloads) on 16 nodes x 2 slots, so per-node
//!   queues form in bursts. The
//!   repository holds fewer models than the working set, so LRU eviction
//!   forces recalibration and the repository takes writes beside reads;
//!   online calibration runs on every miss. A seeded subset of jobs
//!   drifts, and nodes drain, fail and rejoin.
//!
//!   Calibration uses `RandomSearch::new(8, _)`, not the paper's
//!   `ModelBasedNeighbourhood::paper()`: the latter's plan (a radius-3
//!   recentring grid plus radius-1 verification) does not fit the test
//!   benchmarks' 20-30 phase-iteration budget online. In a probe every
//!   calibration under it ended in `ExplorationBudget`, leaving 1575 of
//!   2000 jobs on the fallback; with an 8-sample random plan 1990 of
//!   2000 jobs served `Online`. Making the paper's strategy fit online is
//!   a change to the program, not to this benchmark.
//! * `paper_mix_replicated` — the same seed, set-up and trace served
//!   through `run_service_replicated` on 4 replicas (default gossip
//!   cadence, read-repair on), with the design-time advice published on
//!   replica 0, seeded message drop and duplication, and one replica
//!   crash and restart. The job mix is identical to `paper_mix`, so the
//!   difference isolates the `rrl::net` layer. Its end-to-end figures
//!   swing with the seed (the fallback share and the gossip volume move
//!   with it), so `BENCHMARK.json` leaves it out and `paper_mix`'s traced
//!   run measures the net layer on a replicated companion of its trace.

use std::collections::BTreeSet;

use kernels::{BenchmarkSpec, ProgrammingModel, RegionSpec, Suite};
use ptf::{Advice, EnergyModel, RandomSearch, TuningModel, TuningSession};
use rrl::{ChurnEvent, ChurnKind, FaultInjector, JobArrival, ReplicaChurnEvent, ReplicaChurnKind};
use simnode::{Cluster, Node, RegionCharacter, SystemConfig};

/// The seed a run uses when none is given.
pub const DEFAULT_SEED: u64 = 0x5EED_2019;

/// A second seed, held out from tuning this benchmark, for validating
/// later performance claims on inputs nobody optimised against.
pub const HELDOUT_SEED: u64 = 0xC0DE_0511;

/// `tiny_hit`: jobs per trace.
const TINY_JOBS: usize = 10_000;
const TINY_NODES: u32 = 64;
const TINY_INTERARRIVAL_S: f64 = 0.0144;

/// `paper_mix*`: jobs per trace.
const MIX_JOBS: usize = 1_000;
const MIX_NODES: u32 = 16;
/// Concurrent sessions per node before arrivals queue.
pub const MIX_SLOTS: usize = 2;
/// Size factors of each test benchmark's four variants. Fixed, so every
/// seed serves workloads of the same sizes; the seed shuffles them over
/// the variant names and jitters each by `1 ± VARIANT_JITTER`.
const VARIANT_FACTORS: [f64; 4] = [0.85, 0.95, 1.05, 1.15];
const VARIANT_JITTER: f64 = 0.01;
/// Share of jobs that run one of the five design-time-tuned benchmarks
/// (the rest run variants). Variants calibrate online, and which job's
/// calibration a variant's later jobs inherit is the main seed-to-seed
/// swing in the energy saving; at a fifth of the jobs it stays within a
/// few percent across seeds while still evicting and recalibrating.
const BASE_SHARE: f64 = 0.8;
/// Mean Poisson interarrival, virtual seconds. Jobs run ~23 s of virtual
/// time, so the 32 slots are about a third busy on average: per-node
/// queues form in bursts without making the p99 latency a lottery of
/// queueing luck across seeds.
const MIX_MEAN_INTERARRIVAL_S: f64 = 2.0;
/// Repository (and per-replica) model capacity: below the 25-workload
/// working set, so LRU eviction runs.
pub const MIX_CAPACITY: usize = 16;
/// Random-search samples per online calibration (fits the budget).
const CALIBRATION_SAMPLES: usize = 8;
/// Sampler seed of the online calibration strategy: part of the
/// program's configuration, not of its input, so it does not vary with
/// the workload seed.
const CALIBRATION_SEED: u64 = 0x5EED;
/// Share of jobs whose drift detector sees shifted region energy.
const DRIFT_SHARE: f64 = 0.05;
const DRIFT_SCALE: f64 = 1.4;
const DRIFT_FROM_ITERATION: u32 = 4;
/// Replicas of the replicated workload.
pub const REPLICAS: u32 = 4;
const DROP_PERMILLE: u64 = 30;
const DUPLICATE_PERMILLE: u64 = 20;

/// Calibration fallback configuration (served when a calibration fails).
pub fn fallback() -> SystemConfig {
    SystemConfig::new(24, 2400, 1700)
}

/// SplitMix64 step, the idiom of testkit's scenario generator: one `u64`
/// state, one deterministic stream.
pub fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Uniform `f64` in `[0, 1)`.
fn unit(state: &mut u64) -> f64 {
    (splitmix64(state) >> 11) as f64 / (1u64 << 53) as f64
}

/// Uniform `usize` in `[0, n)` (n > 0).
fn below(state: &mut u64, n: usize) -> usize {
    (splitmix64(state) % n as u64) as usize
}

/// Which workload a run serves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    TinyHit,
    PaperMix,
    PaperMixReplicated,
}

impl Workload {
    pub fn parse(name: &str) -> Option<Self> {
        match name {
            "tiny_hit" => Some(Self::TinyHit),
            "paper_mix" => Some(Self::PaperMix),
            "paper_mix_replicated" => Some(Self::PaperMixReplicated),
            _ => None,
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            Self::TinyHit => "tiny_hit",
            Self::PaperMix => "paper_mix",
            Self::PaperMixReplicated => "paper_mix_replicated",
        }
    }

    pub fn is_mix(self) -> bool {
        self != Self::TinyHit
    }

    pub fn replicated(self) -> bool {
        self == Self::PaperMixReplicated
    }

    /// Set-up rounds per run: `setup_s` is their median.
    pub fn setup_rounds(self) -> usize {
        if self.is_mix() {
            5
        } else {
            15
        }
    }
}

/// The faults a mix workload serves under, all drawn from the seed and
/// answered as pure functions of their arguments.
#[derive(Debug, Default)]
pub struct FaultPlan {
    drifting: BTreeSet<String>,
    node_churn: Vec<ChurnEvent>,
    replica_churn: Vec<ReplicaChurnEvent>,
    net_seed: u64,
    drop_permille: u64,
    duplicate_permille: u64,
}

impl FaultPlan {
    /// Node churn events in the plan.
    pub fn node_churn_events(&self) -> usize {
        self.node_churn.len()
    }

    fn per_mille(&self, msg_id: u64, salt: u64) -> u64 {
        let mut state = self.net_seed ^ salt ^ msg_id.wrapping_mul(0xA24B_AED4_963E_E407);
        splitmix64(&mut state) % 1000
    }
}

impl FaultInjector for FaultPlan {
    fn drift_scale(&self, job: &str, _region: &str, iteration: u32) -> f64 {
        if iteration >= DRIFT_FROM_ITERATION && self.drifting.contains(job) {
            DRIFT_SCALE
        } else {
            1.0
        }
    }

    fn drop_message(&self, msg_id: u64) -> bool {
        self.per_mille(msg_id, 0xD40F) < self.drop_permille
    }

    fn duplicate_message(&self, msg_id: u64) -> bool {
        self.per_mille(msg_id, 0xD0B1) < self.duplicate_permille
    }

    fn node_churn(&self) -> Vec<ChurnEvent> {
        self.node_churn.clone()
    }

    fn replica_churn(&self) -> Vec<ReplicaChurnEvent> {
        self.replica_churn.clone()
    }
}

/// Design-time results the mix workloads serve from.
pub struct Design {
    pub energy_model: EnergyModel,
    pub advice: Vec<(BenchmarkSpec, Advice)>,
}

impl Design {
    /// Region-simulation runs the design-time sessions consumed.
    pub fn engine_runs(&self) -> u64 {
        self.advice.iter().map(|(_, a)| a.engine_runs).sum()
    }
}

/// Everything a workload needs before its serving call.
pub struct Setup {
    pub workload: Workload,
    pub cluster: Cluster,
    pub trace: Vec<JobArrival>,
    pub faults: FaultPlan,
    pub design: Option<Design>,
    /// The tiny_hit workload's one stored model.
    pub tiny_model: Option<(BenchmarkSpec, TuningModel)>,
}

/// Wall seconds of each set-up stage.
#[derive(Debug, Clone, Copy, Default)]
pub struct SetupTimes {
    pub tracegen_s: f64,
    pub train_s: f64,
    pub tune_s: f64,
    pub seed_s: f64,
}

impl SetupTimes {
    pub fn total(&self) -> f64 {
        self.tracegen_s + self.train_s + self.tune_s + self.seed_s
    }
}

/// The online calibration strategy of the mix workloads.
pub fn calibration_strategy() -> RandomSearch {
    RandomSearch::new(CALIBRATION_SAMPLES, CALIBRATION_SEED)
}

/// Generate the workload's inputs from `seed` and run its design-time
/// set-up, timing each stage. Repository seeding is timed by the caller,
/// which owns the repository.
pub fn set_up(workload: Workload, seed: u64, times: &mut SetupTimes) -> Setup {
    let mut rng = seed;
    let clock = std::time::Instant::now();
    let (cluster, trace, faults, tiny_model) = if workload.is_mix() {
        let (trace, faults) = mix_trace(&mut rng);
        (Cluster::new(MIX_NODES, 0x1A2B_2019), trace, faults, None)
    } else {
        let (trace, model) = tiny_trace(&mut rng);
        (
            Cluster::new(TINY_NODES, 0xBEE5),
            trace,
            FaultPlan::default(),
            Some(model),
        )
    };
    times.tracegen_s = clock.elapsed().as_secs_f64();

    let design = workload.is_mix().then(|| {
        let node = Node::new(0, 42);
        let clock = std::time::Instant::now();
        let energy_model = EnergyModel::train_paper(&kernels::training_set(), &node);
        times.train_s = clock.elapsed().as_secs_f64();
        let clock = std::time::Instant::now();
        let advice = kernels::test_set()
            .into_iter()
            .map(|bench| {
                let advice = TuningSession::builder(&node)
                    .with_model(&energy_model)
                    .run(&bench)
                    .expect("every test benchmark tunes at design time");
                (bench, advice)
            })
            .collect();
        times.tune_s = clock.elapsed().as_secs_f64();
        Design {
            energy_model,
            advice,
        }
    });
    Setup {
        workload,
        cluster,
        trace,
        faults,
        design,
        tiny_model,
    }
}

/// The tiny_hit job: the one-region, one-iteration shape of
/// `kernels::toy_benchmark`, with twice its DRAM traffic. On the toy
/// itself the platform default is already the energy optimum, so no
/// stored model could show a saving; at twice the traffic the region is
/// memory-bound and its model (core 1.2 GHz, uncore 2.3 GHz) saves about
/// a tenth of the job energy.
fn tiny_workload() -> (BenchmarkSpec, SystemConfig) {
    let instr = 1e10;
    let bench = BenchmarkSpec::new(
        "svc",
        Suite::Npb,
        ProgrammingModel::OpenMp,
        1,
        vec![RegionSpec::new(
            "omp parallel:1",
            RegionCharacter::builder(instr)
                .dram_bytes(2.0 * instr)
                .build(),
        )],
    );
    (bench, SystemConfig::new(24, 1200, 2300))
}

fn tiny_trace(rng: &mut u64) -> (Vec<JobArrival>, (BenchmarkSpec, TuningModel)) {
    let (bench, cfg) = tiny_workload();
    let model = TuningModel::new(&bench.name, &[("omp parallel:1".into(), cfg)], cfg);
    let tag = splitmix64(rng) & 0xFFFF_FFFF;
    let trace = (0..TINY_JOBS)
        .map(|i| JobArrival {
            name: format!("t{tag:08x}-{i}"),
            bench: bench.clone(),
            arrival_s: i as f64 * TINY_INTERARRIVAL_S,
        })
        .collect();
    (trace, (bench, model))
}

/// Fisher-Yates shuffle driven by the splitmix64 stream.
fn shuffle<T>(items: &mut [T], rng: &mut u64) {
    for i in (1..items.len()).rev() {
        items.swap(i, below(rng, i + 1));
    }
}

/// The 25 mix workloads: the five test benchmarks, then their variants.
fn mix_workloads(rng: &mut u64) -> Vec<BenchmarkSpec> {
    let base = kernels::test_set();
    let mut all = base.clone();
    for bench in &base {
        let mut factors = VARIANT_FACTORS;
        shuffle(&mut factors, rng);
        for (v, factor) in factors.into_iter().enumerate() {
            let factor = factor * (1.0 + VARIANT_JITTER * (2.0 * unit(rng) - 1.0));
            let mut variant = bench.clone();
            variant.name = format!("{}~{}", bench.name, v + 1);
            for region in &mut variant.regions {
                region.character.instr_per_iter *= factor;
                region.character.dram_bytes_per_iter *= factor;
            }
            all.push(variant);
        }
    }
    all
}

fn job_name(i: usize) -> String {
    format!("m{i:05}")
}

/// The mix trace. The seed decides the order of jobs, their arrival
/// gaps, which jobs drift and when churn strikes; the proportions are
/// fixed (every workload runs the same number of jobs, exactly
/// `DRIFT_SHARE` of them drift, the trace spans the same virtual time)
/// so that figures compare across seeds.
fn mix_trace(rng: &mut u64) -> (Vec<JobArrival>, FaultPlan) {
    let workloads = mix_workloads(rng);
    let base = kernels::TEST_SET_NAMES.len();
    let base_jobs = (MIX_JOBS as f64 * BASE_SHARE) as usize;
    let mut deck: Vec<usize> = (0..MIX_JOBS)
        .map(|i| {
            if i < base_jobs {
                i % base
            } else {
                base + (i - base_jobs) % (workloads.len() - base)
            }
        })
        .collect();
    shuffle(&mut deck, rng);
    // Exponential gaps (inverse CDF; 1 - u avoids ln 0), rescaled so the
    // trace spans exactly MIX_JOBS mean gaps.
    let gaps: Vec<f64> = (0..MIX_JOBS).map(|_| -(1.0 - unit(rng)).ln()).collect();
    let span = MIX_JOBS as f64 * MIX_MEAN_INTERARRIVAL_S;
    let scale = span / gaps.iter().sum::<f64>();
    let mut order: Vec<usize> = (0..MIX_JOBS).collect();
    shuffle(&mut order, rng);
    let drifting: BTreeSet<String> = order[..(MIX_JOBS as f64 * DRIFT_SHARE) as usize]
        .iter()
        .map(|&i| job_name(i))
        .collect();
    let mut at = 0.0;
    let trace: Vec<JobArrival> = deck
        .iter()
        .zip(&gaps)
        .enumerate()
        .map(|(i, (&pick, gap))| {
            at += gap * scale;
            JobArrival {
                name: job_name(i),
                bench: workloads[pick].clone(),
                arrival_s: at,
            }
        })
        .collect();
    // One node drains and rejoins, another fails and rejoins.
    let drained = below(rng, MIX_NODES as usize) as u32;
    let failed = (drained + 1 + below(rng, MIX_NODES as usize - 1) as u32) % MIX_NODES;
    let mut event = |lo: f64, node: u32, kind: ChurnKind| ChurnEvent {
        at_s: span * (lo + 0.1 * unit(rng)),
        node,
        kind,
    };
    let node_churn = vec![
        event(0.20, drained, ChurnKind::Drain),
        event(0.35, drained, ChurnKind::Join),
        event(0.50, failed, ChurnKind::Fail),
        event(0.65, failed, ChurnKind::Join),
    ];
    let crashed = 1 + below(rng, REPLICAS as usize - 1) as u32;
    let crash_at = span * (0.30 + 0.1 * unit(rng));
    let restart_at = crash_at + span * (0.10 + 0.1 * unit(rng));
    let replica_churn = vec![
        ReplicaChurnEvent {
            at_s: crash_at,
            replica: crashed,
            kind: ReplicaChurnKind::Crash,
        },
        ReplicaChurnEvent {
            at_s: restart_at,
            replica: crashed,
            kind: ReplicaChurnKind::Restart,
        },
    ];
    let faults = FaultPlan {
        drifting,
        node_churn,
        replica_churn,
        net_seed: splitmix64(rng),
        drop_permille: DROP_PERMILLE,
        duplicate_permille: DUPLICATE_PERMILLE,
    };
    (trace, faults)
}
