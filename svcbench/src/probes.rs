//! Standalone timing of public layer calls, replaying the traced run's
//! own call mix: a fixed sample of its jobs, its calibrations, its
//! workloads' fingerprints, its event count and its frame kinds. Each
//! probe returns a per-operation cost; `main` multiplies it by the run's
//! operation count to attribute busy time to layers the serving call
//! does not expose.

use std::hint::black_box;
use std::time::Instant;

use kernels::{BenchmarkSpec, QuantileSketch};
use rrl::net::{decode, encode, Message, ReplicatedModel, Stamp};
use rrl::{ClusterReport, JobOutcome, OnlineConfig, OnlineTuner, RepositoryHandle, RuntimeSession};
use simkit::{EventSink, Kernel, Process, Time};
use simnode::SystemConfig;

use crate::layers::{SpanLog, TimedStrategy};
use crate::serve::{seed_replicas, seed_repository};
use crate::stats::median;
use crate::workload::{calibration_strategy, Setup};

/// Jobs replayed per session/baseline probe.
const SESSION_SAMPLE: usize = 48;
/// Calibrating jobs replayed per calibration probe.
const CALIBRATION_SAMPLE: usize = 8;
/// Repetitions of each probe; the median is kept.
const REPEATS: usize = 3;

/// Region events a job executed (its accounting's visit total).
pub fn region_events(job: &JobOutcome) -> u64 {
    job.accounting.regions.iter().map(|r| r.visits).sum()
}

/// Whether the job calibrated a cold workload in-situ.
pub fn calibrated(job: &JobOutcome) -> bool {
    job.accounting
        .online
        .is_some_and(|o| o.explored_iterations > 0)
}

/// Up to `n` indices spread evenly over the jobs `keep` accepts.
fn sample(report: &ClusterReport, n: usize, keep: impl Fn(&JobOutcome) -> bool) -> Vec<usize> {
    let eligible: Vec<usize> = (0..report.jobs.len())
        .filter(|&i| keep(&report.jobs[i]))
        .collect();
    let step = (eligible.len() / n.max(1)).max(1);
    eligible.into_iter().step_by(step).take(n).collect()
}

/// Wall nanoseconds per operation: the median over [`REPEATS`] of
/// `round`'s wall time divided by the operations it reports.
fn per_op(mut round: impl FnMut() -> u64) -> f64 {
    let rounds: Vec<f64> = (0..REPEATS)
        .map(|_| {
            let start = Instant::now();
            let ops = round();
            start.elapsed().as_nanos() as f64 / ops.max(1) as f64
        })
        .collect();
    median(&rounds)
}

/// Session-layer replay: `RuntimeSession::start … run_to_completion …
/// finish` over a sample of the run's non-calibrating jobs, served from
/// a freshly seeded repository. Returns wall ns per region event.
pub fn session_region_event_ns(setup: &Setup, report: &ClusterReport) -> f64 {
    let picks = sample(report, SESSION_SAMPLE, |j| !calibrated(j));
    let mut repo = seed_repository(setup);
    let served: Vec<_> = picks
        .iter()
        .map(|&i| {
            repo.serve(&setup.trace[i].bench)
                .expect("the seeded repository serves or falls back")
        })
        .collect();
    per_op(|| {
        let mut events = 0;
        for (&i, model) in picks.iter().zip(&served) {
            let job = &report.jobs[i];
            let node = setup.cluster.node(job.node_id as usize);
            let mut session =
                RuntimeSession::start(job.job.as_str(), &setup.trace[i].bench, node, model.clone())
                    .expect("replayed job starts");
            session.run_to_completion().expect("replayed job runs");
            let accounting = black_box(session.finish().expect("replayed job finishes"));
            events += accounting.regions.iter().map(|r| r.visits).sum::<u64>();
        }
        events
    })
}

/// Accounting-layer replay: the default-configuration baseline
/// (`RuntimeSession::static_run`) of a sample of the run's jobs. Returns
/// `(ns per baseline run, ns per region event)`.
pub fn baseline_ns(setup: &Setup, report: &ClusterReport) -> (f64, f64) {
    let picks = sample(report, SESSION_SAMPLE, |_| true);
    let mut events = 0;
    let per_run = per_op(|| {
        events = 0;
        for &i in &picks {
            let job = &report.jobs[i];
            let node = setup.cluster.node(job.node_id as usize);
            let run = RuntimeSession::static_run(
                job.job.as_str(),
                &setup.trace[i].bench,
                node,
                SystemConfig::taurus_default(),
            )
            .expect("baseline runs");
            events += black_box(run).regions.iter().map(|r| r.visits).sum::<u64>();
        }
        picks.len() as u64
    });
    let per_event = per_run * picks.len() as f64 / events.max(1) as f64;
    (per_run, per_event)
}

/// Online-layer replay: `OnlineTuner::calibrate … run_to_completion …
/// finish` for a sample of the run's calibrating jobs. Returns `(ms per
/// calibrating job, ms of it spent in the strategy's exploration
/// planning)`, or `None` when the run calibrated nothing.
pub fn calibration_ms(setup: &Setup, report: &ClusterReport) -> Option<(f64, f64)> {
    let design = setup.design.as_ref()?;
    let picks = sample(report, CALIBRATION_SAMPLE, calibrated);
    if picks.is_empty() {
        return None;
    }
    let random = calibration_strategy();
    let spans = SpanLog::new();
    let strategy = TimedStrategy::new(&random, &spans);
    let total_ms = per_op(|| {
        for &i in &picks {
            let job = &report.jobs[i];
            let node = setup.cluster.node(job.node_id as usize);
            let mut tuner = OnlineTuner::calibrate(
                job.job.as_str(),
                &setup.trace[i].bench,
                node,
                &strategy,
                Some(&design.energy_model),
                OnlineConfig::default(),
            )
            .expect("sampled job calibrated in the run");
            tuner.run_to_completion().expect("calibration runs");
            black_box(tuner.finish().expect("calibration finishes"));
        }
        picks.len() as u64
    }) * 1e-6;
    let planning_ms = strategy.busy.seconds() * 1e3 / strategy.busy.calls().max(1) as f64;
    Some((total_ms, planning_ms))
}

/// Distinct workloads of the trace, in first-arrival order.
fn workloads(setup: &Setup) -> Vec<&BenchmarkSpec> {
    let mut seen = std::collections::BTreeSet::new();
    setup
        .trace
        .iter()
        .map(|a| &a.bench)
        .filter(|b| seen.insert(b.name.as_str()))
        .collect()
}

/// `BenchmarkSpec::fingerprint` over the trace's distinct workloads.
pub fn fingerprint_ns(setup: &Setup) -> f64 {
    let benches = workloads(setup);
    per_op(|| {
        for _ in 0..2_000 {
            for bench in &benches {
                black_box(black_box(*bench).fingerprint());
            }
        }
        2_000 * benches.len() as u64
    })
}

/// Lookups against replica 0 of a freshly seeded replica set, over the
/// trace's distinct workloads (hits and misses alike), each timed on its
/// own. Returns `(mean, p50, p99)` wall ns per call.
pub fn replica_call_ns(setup: &Setup) -> (f64, f64, f64) {
    let benches = workloads(setup);
    let mut set = seed_replicas(setup, None);
    let replica = set.replica_mut(0).expect("replica 0 exists");
    let mut sketch = QuantileSketch::new();
    let mut total_ns = 0u64;
    for _ in 0..200 {
        for bench in &benches {
            let start = Instant::now();
            black_box(replica.serve_stored(bench).expect("lookup succeeds"));
            let ns = u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX);
            sketch.record(ns);
            total_ns += ns;
        }
    }
    let qs = sketch.percentiles(&[0.50, 0.99]);
    (
        total_ns as f64 / sketch.count().max(1) as f64,
        qs[0] as f64,
        qs[1] as f64,
    )
}

/// Idle gossip rounds timed per repeat of the net probe.
const IDLE_ROUNDS: u64 = 2_000;

/// Gossip on a freshly seeded replica set under the run's faults: rounds
/// until the design-time advice has spread (real frames, drops and
/// duplicates included), then idle rounds on the settled set. Returns
/// `(ns per idle round, ns per message beyond it)`; the message cost
/// covers the frame codec, session and reconciliation work.
pub fn net_costs(setup: &Setup) -> (f64, f64) {
    let mut set = seed_replicas(setup, None);
    let start = Instant::now();
    let mut rounds = 0u64;
    while !set.quiesced() && rounds < 10_000 {
        set.gossip_round().expect("gossip round on a healthy set");
        rounds += 1;
    }
    let busy_ns = start.elapsed().as_nanos() as f64;
    let t = set.transport_stats();
    let messages = (t.sent + t.delivered) as f64 / 2.0;
    let round_ns = per_op(|| {
        for _ in 0..IDLE_ROUNDS {
            set.gossip_round().expect("idle gossip round");
        }
        IDLE_ROUNDS
    });
    let message_ns = ((busy_ns - rounds as f64 * round_ns) / messages.max(1.0)).max(0.0);
    (round_ns, message_ns)
}

/// Interleaved self-rescheduling timer chains: the trivial process for
/// raw dispatch timing.
struct TimerChains {
    remaining: u64,
}

impl Process<u64> for TimerChains {
    type Error = std::convert::Infallible;

    fn handle(
        &mut self,
        _now: Time,
        chain: u64,
        sink: &mut dyn EventSink<u64>,
    ) -> Result<(), Self::Error> {
        if self.remaining > 0 {
            self.remaining -= 1;
            sink.schedule_in(1 + chain % 97, chain);
        }
        Ok(())
    }
}

/// `Kernel::run` with a trivial process over the run's event count,
/// with as many interleaved chains as the run's median heap depth.
pub fn raw_dispatch_ns(events: u64, heap_depth: u64) -> f64 {
    let chains = heap_depth.max(1);
    per_op(|| {
        let mut kernel = Kernel::new();
        for chain in 0..chains {
            kernel.schedule_at(1 + chain % 97, chain);
        }
        let mut process = TimerChains {
            remaining: events.saturating_sub(chains),
        };
        kernel.run(&mut process).expect("infallible");
        black_box(kernel.processed())
    })
}

/// Encode + decode of the frames gossip carries most: a digest offer of
/// every design-time model, and a push of one of them. Returns the mean
/// round trip of the two.
pub fn frame_roundtrip_ns(setup: &Setup) -> f64 {
    let Some(design) = &setup.design else {
        return 0.0;
    };
    let entries: Vec<ReplicatedModel> = design
        .advice
        .iter()
        .map(|(bench, advice)| ReplicatedModel {
            application: bench.name.clone(),
            fingerprint: bench.fingerprint(),
            model_json: advice.tuning_model.to_json(),
            expected: advice
                .region_best
                .iter()
                .map(|(region, _, energy)| (region.clone(), *energy))
                .collect(),
            stamp: Stamp {
                version: 1,
                publisher: 0,
            },
        })
        .collect();
    let frames = [
        Message::DigestOffer {
            digests: entries.iter().map(ReplicatedModel::digest).collect(),
        },
        Message::PushModels {
            entries: vec![entries[0].clone()],
        },
    ];
    per_op(|| {
        for _ in 0..200 {
            for frame in &frames {
                let bytes = encode(black_box(frame));
                black_box(decode(&bytes).expect("own frames decode"));
            }
        }
        200 * frames.len() as u64
    })
}
