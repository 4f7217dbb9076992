//! One serving call per iteration, the correctness gate around it, and
//! the digest of its deterministic outputs.

use std::time::Instant;

use kernels::{Fnv1a, QuantileSketch};
use obskit::Recorder;
use ptf::SearchStrategy;
use rrl::net::{ReplicaConfig, ReplicaSet, TransportStats};
use rrl::{
    ClusterReport, ClusterScheduler, GossipConfig, OnlineConfig, OnlineTuning, RepositoryHandle,
    ServiceConfig, TuningModelRepository,
};

use crate::layers::{Busy, SpanLog, TimedRecorder, TimedRepository, TimedStrategy};
use crate::workload::{
    calibration_strategy, fallback, Setup, Workload, MIX_CAPACITY, MIX_SLOTS, REPLICAS,
};

/// Largest share of repository lookups an unreplicated mix run may
/// answer with the calibration fallback before the run counts as not
/// exercising online calibration. (Replicated runs serve more fallbacks:
/// about a fifth of lookups in a probe. Their guards are the net
/// layer's own.)
pub const FALLBACK_CEILING: f64 = 0.10;

/// The tracing a traced iteration attaches.
pub struct Tracing<'a> {
    pub spans: &'a SpanLog,
    pub recorder: &'a TimedRecorder,
    pub repository: &'a Busy,
    pub strategy: &'a TimedStrategy<'a>,
}

/// What one serving iteration produced.
pub struct Served {
    pub report: ClusterReport,
    /// Wall seconds of the serving call.
    pub serve_s: f64,
    /// Wall seconds of `ClusterReport::format_report`.
    pub report_s: f64,
    pub report_bytes: usize,
    /// Transport counters of a replicated run.
    pub transport: Option<TransportStats>,
    /// Per-call wall nanoseconds of the repository, when traced and not
    /// replicated.
    pub repository_call_ns: Option<QuantileSketch>,
}

impl Served {
    /// Jobs per wall second of serving plus report assembly.
    pub fn jobs_per_s(&self) -> f64 {
        self.report.jobs.len() as f64 / self.wall_s()
    }

    pub fn wall_s(&self) -> f64 {
        self.serve_s + self.report_s
    }
}

/// The repository a single-repository workload serves from, seeded.
pub fn seed_repository(setup: &Setup) -> TuningModelRepository {
    let mut repo = TuningModelRepository::new().with_fallback(fallback());
    if let Some((bench, model)) = &setup.tiny_model {
        repo.insert(bench, model);
    }
    if let Some(design) = &setup.design {
        repo = repo.with_capacity(MIX_CAPACITY);
        for (_, advice) in &design.advice {
            repo.publish(advice);
        }
    }
    repo
}

/// The replica set the replicated workload serves from, with the
/// design-time advice published on replica 0.
pub fn seed_replicas<'a>(setup: &'a Setup, recorder: Option<&'a dyn Recorder>) -> ReplicaSet<'a> {
    let config = ReplicaConfig {
        capacity: MIX_CAPACITY,
        fallback: Some(fallback()),
        ..ReplicaConfig::default()
    };
    let mut set = ReplicaSet::new(REPLICAS, config).with_faults(&setup.faults);
    if let Some(recorder) = recorder {
        set = set.with_recorder(recorder);
    }
    let design = setup.design.as_ref().expect("mix workloads have a design");
    let home = set.replica_mut(0).expect("replica 0 exists");
    for (bench, advice) in &design.advice {
        let expected = advice
            .region_best
            .iter()
            .map(|(region, _, energy)| (region.clone(), *energy))
            .collect();
        home.publish_model(bench, &advice.tuning_model, expected);
    }
    set
}

/// Seed whatever the workload serves from and drop it: the set-up
/// rounds time this.
pub fn seed_store(setup: &Setup) {
    if setup.workload.replicated() {
        std::hint::black_box(seed_replicas(setup, None));
    } else {
        std::hint::black_box(seed_repository(setup));
    }
}

fn service_config(workload: Workload) -> ServiceConfig {
    ServiceConfig {
        slots_per_node: if workload.is_mix() { MIX_SLOTS } else { 0 },
    }
}

/// Serve the setup's trace once — through the replica set when
/// `replicated` — then assemble the report. With `tracing`, every
/// wrapper and the obskit registry are attached.
pub fn serve_once(
    setup: &Setup,
    replicated: bool,
    tracing: Option<&Tracing<'_>>,
) -> Result<Served, String> {
    let random = calibration_strategy();
    let strategy: &dyn SearchStrategy = match tracing {
        Some(t) => t.strategy,
        None => &random,
    };
    let recorder: Option<&dyn Recorder> = tracing.map(|t| t.recorder as &dyn Recorder);
    let mut sched = ClusterScheduler::new(&setup.cluster).map_err(|e| e.to_string())?;
    if let Some(design) = &setup.design {
        sched = sched
            .with_online(OnlineTuning {
                strategy,
                energy_model: Some(&design.energy_model),
                config: OnlineConfig::default(),
            })
            .with_faults(&setup.faults);
    }
    if let Some(recorder) = recorder {
        sched = sched.with_recorder(recorder);
    }
    let config = service_config(setup.workload);
    let trace = setup.trace.clone();

    let mut transport = None;
    let mut repository_call_ns = None;
    let (result, serve_s) = if replicated {
        let mut set = seed_replicas(setup, recorder);
        let timed = root_span(tracing, "serve", || {
            sched.run_service_replicated(trace, &mut set, &GossipConfig::default(), &config)
        });
        transport = Some(set.transport_stats());
        timed
    } else {
        let mut repo = seed_repository(setup);
        match tracing {
            Some(t) => {
                let mut wrapped = TimedRepository::new(&mut repo, t.spans, t.repository);
                let timed = root_span(tracing, "serve", || {
                    sched.run_service(trace, &mut wrapped, &config)
                });
                repository_call_ns = Some(wrapped.call_ns);
                timed
            }
            None => root_span(None, "serve", || {
                sched.run_service(trace, &mut repo as &mut dyn RepositoryHandle, &config)
            }),
        }
    };
    let report = result.map_err(|e| format!("serving call failed: {e}"))?;
    let (text, report_s) = root_span(tracing, "cluster.report", || report.format_report());
    Ok(Served {
        report,
        serve_s,
        report_s,
        report_bytes: std::hint::black_box(text).len(),
        transport,
        repository_call_ns,
    })
}

/// Run `call`, timing it; when traced, as a root span other spans nest
/// under. Returns the result and its wall seconds.
fn root_span<T>(
    tracing: Option<&Tracing<'_>>,
    name: &'static str,
    call: impl FnOnce() -> T,
) -> (T, f64) {
    let start = Instant::now();
    let root = tracing.map(|t| t.spans.open_root(name, start));
    let out = call();
    let end = Instant::now();
    if let (Some(t), Some(root)) = (tracing, root) {
        t.spans.close_root(root, end);
    }
    (out, end.duration_since(start).as_secs_f64())
}

/// FNV-1a over every deterministic output of a run: per-job identity,
/// placement, source and savings; the virtual-time percentiles; the
/// repository statistics; the replication counters. Telemetry is left
/// out, so traced and untraced runs must agree.
pub fn digest(report: &ClusterReport) -> u64 {
    let mut h = Fnv1a::new();
    let text = |h: Fnv1a, s: &str| h.update_u64(s.len() as u64).update(s.as_bytes());
    for job in &report.jobs {
        h = text(h, &job.job);
        h = text(h, &job.benchmark);
        h = text(h, &format!("{:?}", job.accounting.source));
        h = h
            .update_u64(u64::from(job.node_id))
            .update_u64(job.savings.job_energy_pct.to_bits())
            .update_u64(job.savings.cpu_energy_pct.to_bits())
            .update_u64(job.savings.time_pct.to_bits())
            .update_u64(job.published_version.map_or(0, |v| u64::from(v) + 1))
            .update_u64(job.aborted_at.map_or(0, |v| u64::from(v) + 1))
            .update_u64(job.drift.len() as u64);
    }
    let agg = report.aggregate;
    h = h
        .update_u64(agg.job_energy_pct.to_bits())
        .update_u64(agg.cpu_energy_pct.to_bits())
        .update_u64(agg.time_pct.to_bits());
    let r = report.repository;
    for v in [
        r.hits,
        r.approx_hits,
        r.misses,
        r.fallbacks,
        r.errors,
        r.evictions,
        r.publications,
    ] {
        h = h.update_u64(v);
    }
    if let Some(s) = &report.service {
        for p in [s.latency_s, s.queue_wait_s, s.queue_depth] {
            for v in [p.p50, p.p95, p.p99, p.max] {
                h = h.update_u64(v.to_bits());
            }
        }
        h = h
            .update_u64(s.makespan_s.to_bits())
            .update_u64(s.churn_events as u64)
            .update_u64(s.replaced_jobs)
            .update_u64(s.truncated_jobs)
            .update_u64(s.events);
        if let Some(n) = &s.replication {
            for v in [
                n.gossip_rounds,
                n.applied,
                n.superseded,
                n.repair_pulls,
                n.repair_released,
                n.repair_abandoned,
                n.crashes,
                n.restarts,
            ] {
                h = h.update_u64(v);
            }
        }
    }
    h.finish()
}

/// The correctness gate and liveness guards for one iteration (served
/// through the replica set when `replicated`). Returns
/// every failed check, and how many trace jobs are missing from the
/// report.
pub fn check(setup: &Setup, replicated: bool, served: &Served) -> (Vec<String>, usize) {
    let mut failures = Vec::new();
    let report = &served.report;
    let mut names: Vec<&str> = report.jobs.iter().map(|j| j.job.as_str()).collect();
    names.sort_unstable();
    let missing = setup
        .trace
        .iter()
        .filter(|a| names.binary_search(&a.name.as_str()).is_err())
        .count();
    if missing > 0 || report.jobs.len() != setup.trace.len() {
        failures.push(format!(
            "{} of {} trace jobs missing, {} reported",
            missing,
            setup.trace.len(),
            report.jobs.len()
        ));
    }
    let Some(summary) = &report.service else {
        failures.push("no service summary".into());
        return (failures, missing);
    };
    if !(summary.quiesced && summary.monotone) {
        failures.push(format!(
            "event core: quiesced {} monotone {}",
            summary.quiesced, summary.monotone
        ));
    }
    let repo = report.repository;
    match setup.workload {
        Workload::TinyHit => {
            if repo.hits != setup.trace.len() as u64 || repo.misses != 0 {
                failures.push(format!(
                    "liveness: tiny_hit must hit every lookup, got {} hits / {} misses",
                    repo.hits, repo.misses
                ));
            }
        }
        Workload::PaperMix | Workload::PaperMixReplicated => {
            let published = report
                .jobs
                .iter()
                .filter(|j| {
                    j.published_version.is_some()
                        && j.accounting
                            .online
                            .is_some_and(|o| o.explored_iterations > 0)
                })
                .count();
            if published == 0 {
                failures.push("liveness: no calibration was published".into());
            }
            if repo.evictions == 0 {
                failures.push("liveness: the repository never evicted".into());
            }
            let planned = setup.faults.node_churn_events();
            if planned == 0 || summary.churn_events != planned {
                failures.push(format!(
                    "liveness: {} of {planned} churn events honored",
                    summary.churn_events
                ));
            }
            let share = repo.fallbacks as f64 / repo.lookups().max(1) as f64;
            if !replicated && share >= FALLBACK_CEILING {
                failures.push(format!(
                    "liveness: fallback share {share:.3} at or above {FALLBACK_CEILING}"
                ));
            }
            if report.online_summary().drift_events == 0 {
                failures.push("liveness: no drift event fired".into());
            }
        }
    }
    if replicated {
        match (&summary.replication, &served.transport) {
            (Some(n), Some(t)) => {
                if !(n.converged && n.net_idle) {
                    failures.push(format!(
                        "replication: converged {} net idle {}",
                        n.converged, n.net_idle
                    ));
                }
                if t.dropped == 0 {
                    failures.push("liveness: no message was dropped".into());
                }
                if n.crashes != 1 || n.restarts != 1 {
                    failures.push(format!(
                        "liveness: {} crashes / {} restarts honored, want 1 / 1",
                        n.crashes, n.restarts
                    ));
                }
                if n.repair_pulls == 0 {
                    failures.push("liveness: no read-repair activity".into());
                }
            }
            _ => failures.push("replicated run without replication summary".into()),
        }
    }
    (failures, missing)
}
