//! End-to-end and per-layer benchmark of the tune-once/serve-many
//! service pipeline.
//!
//! ```text
//! cargo run --release --offline --manifest-path svcbench/Cargo.toml -- \
//!     --workload paper_mix --seed 1 --seconds 20 --trace 0
//! ```
//!
//! One process serves one workload on one thread. It sets the workload
//! up, then serves the generated trace repeatedly for `--seconds`,
//! repeating the set-up at even intervals in between (`setup_s` is the
//! median round). `jobs_per_s` is the best iteration's: on a shared host
//! the machine's speed swings by a third over periods of seconds to
//! minutes, and the fastest of many short iterations is the one least
//! slowed by other tenants.
//!
//! * `--trace 0` measures with tracing off and prints the end-to-end
//!   metrics;
//! * `--trace 1` alternates untraced and traced serving calls, then
//!   times public layer calls standalone, and prints the per-layer
//!   metrics. Attributed layer busy time plus `rrl.service.unattributed_s`
//!   adds up to the traced wall time; the breakdown goes to stderr and
//!   the spans to `.bench_out/`.
//!
//! Every serving call passes the correctness gate: every trace job is
//! in the report, the event core quiesced monotonically, a replicated
//! run converged with the network idle, the workload's liveness guards
//! hold, and a digest of the deterministic outputs is identical across
//! iterations, traced or not, and across runs of one seed and build. The
//! last stdout line is one JSON object; any failed check makes the exit
//! code non-zero.

mod layers;
mod probes;
mod serve;
mod stats;
mod workload;

use std::process::ExitCode;
use std::time::{Duration, Instant};

use kernels::Fnv1a;

use crate::layers::{Busy, SpanLog, TimedRecorder, TimedStrategy};
use crate::serve::{check, digest, seed_store, serve_once, Served, Tracing};
use crate::stats::{best, median, peak_rss_mb};
use crate::workload::{
    calibration_strategy, set_up, Setup, SetupTimes, Workload, DEFAULT_SEED, HELDOUT_SEED,
};

/// Serving iterations measured at least, however short `--seconds` is.
const MIN_ITERATIONS: usize = 3;
/// Untraced/traced pairs a traced run makes at least.
const MIN_PAIRS: usize = 2;
/// ROADMAP's recording budget: traced wall over untraced wall.
const TRACE_BUDGET: f64 = 1.15;
/// Where spans and per-seed digests are written, relative to the
/// working directory.
const OUT_DIR: &str = ".bench_out";

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

const USAGE: &str = "usage: svcbench --workload tiny_hit|paper_mix|paper_mix_replicated \
                     [--seed N] [--seconds S] [--trace 0|1]";

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = DEFAULT_SEED;
    let mut seconds = 20.0;
    let mut trace = false;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(&value).ok_or(format!("unknown workload {value}"))?)
            }
            "--seed" => {
                seed = match value.strip_prefix("0x") {
                    Some(hex) => u64::from_str_radix(hex, 16),
                    None => value.parse(),
                }
                .map_err(|e| format!("--seed {value}: {e}"))?
            }
            "--seconds" => {
                seconds = value
                    .parse::<f64>()
                    .ok()
                    .filter(|s| s.is_finite() && *s > 0.0)
                    .ok_or(format!("--seconds {value}: want a positive number"))?
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace {value}: want 0 or 1")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
    })
}

/// One reported metric.
struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
}

fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

/// The correctness gate's running tally over every serving call.
#[derive(Default)]
struct Gate {
    attempted: u64,
    failed: u64,
    failures: Vec<String>,
    digest: Option<u64>,
}

impl Gate {
    fn ok(&self) -> bool {
        self.failures.is_empty()
    }

    /// Check one serving call; returns it when it produced a report.
    fn admit(
        &mut self,
        setup: &Setup,
        replicated: bool,
        result: Result<Served, String>,
    ) -> Option<Served> {
        let jobs = setup.trace.len() as u64;
        self.attempted += jobs;
        let served = match result {
            Ok(served) => served,
            Err(e) => {
                self.failed += jobs;
                self.failures.push(e);
                return None;
            }
        };
        let (mut failures, missing) = check(setup, replicated, &served);
        // The unreplicated companion run of the replicated workload has
        // outputs of its own; only same-kind runs must agree.
        if replicated == setup.workload.replicated() {
            let d = digest(&served.report);
            match self.digest {
                None => self.digest = Some(d),
                Some(first) if first != d => failures.push(format!(
                    "digest {d:016x} differs from the first iteration's {first:016x}"
                )),
                Some(_) => {}
            }
        }
        if failures.is_empty() {
            self.failed += missing as u64;
        } else {
            self.failed += jobs;
            self.failures.extend(failures);
        }
        Some(served)
    }

    /// Compare the run's digest with the one an earlier run of this seed
    /// and build left behind, or leave it for the next run.
    fn check_across_runs(&mut self, args: &Args) {
        let Some(d) = self.digest else { return };
        let Some(build) = build_id() else { return };
        let path = format!(
            "{OUT_DIR}/digest-{}-{:x}-{build:016x}",
            args.workload.name(),
            args.seed
        );
        match std::fs::read_to_string(&path) {
            Ok(previous) if previous.trim() != format!("{d:016x}") => {
                self.failures.push(format!(
                    "digest {d:016x} differs from an earlier run of this seed ({})",
                    previous.trim()
                ));
            }
            Ok(_) => {}
            Err(_) => {
                let _ = std::fs::create_dir_all(OUT_DIR)
                    .and_then(|()| std::fs::write(&path, format!("{d:016x}\n")));
            }
        }
    }
}

/// Identifies this build of the benchmark: size and modification time
/// of the running executable.
fn build_id() -> Option<u64> {
    let meta = std::fs::metadata(std::env::current_exe().ok()?).ok()?;
    let modified = meta
        .modified()
        .ok()?
        .duration_since(std::time::UNIX_EPOCH)
        .ok()?;
    Some(
        Fnv1a::new()
            .update_u64(meta.len())
            .update_u64(modified.as_nanos() as u64)
            .finish(),
    )
}

/// Digest of a set-up's inputs: every set-up round must produce the same
/// trace and the same design-time advice.
fn setup_digest(setup: &Setup) -> u64 {
    let mut h = Fnv1a::new();
    for job in &setup.trace {
        h = h
            .update(job.name.as_bytes())
            .update_u64(job.arrival_s.to_bits())
            .update_u64(job.bench.fingerprint());
    }
    if let Some(design) = &setup.design {
        for (_, advice) in &design.advice {
            h = h.update(advice.tuning_model.to_json().as_bytes());
        }
    }
    h.finish()
}

/// The workload's set-up rounds. The first builds the set-up the run
/// serves; the others are spread over the measuring window, so that
/// `setup_s` samples the host over the whole run rather than its first
/// seconds (a shared host's speed swings over periods of seconds).
struct SetupRounds {
    times: Vec<SetupTimes>,
    digest: u64,
}

impl SetupRounds {
    /// Run one set-up round, timing each stage.
    fn round(args: &Args) -> (Setup, SetupTimes) {
        let mut times = SetupTimes::default();
        let setup = set_up(args.workload, args.seed, &mut times);
        let start = Instant::now();
        seed_store(&setup);
        times.seed_s = start.elapsed().as_secs_f64();
        (setup, times)
    }

    /// The first round; its set-up is the one served.
    fn first(args: &Args) -> (Setup, Self) {
        let (setup, times) = Self::round(args);
        let digest = setup_digest(&setup);
        (
            setup,
            Self {
                times: vec![times],
                digest,
            },
        )
    }

    /// Run the rounds due once `progress` of the measuring window has
    /// passed (1 runs every round left). Every round must produce the
    /// first round's inputs.
    fn catch_up(&mut self, args: &Args, gate: &mut Gate, progress: f64) {
        let rounds = args.workload.setup_rounds();
        while self.times.len() < rounds && progress >= self.times.len() as f64 / rounds as f64 {
            let (setup, times) = Self::round(args);
            self.times.push(times);
            if setup_digest(&setup) != self.digest {
                gate.failures
                    .push("set-up is not deterministic for the seed".into());
            }
        }
    }

    /// Median over rounds of one stage (or of the total).
    fn median(&self, stage: fn(&SetupTimes) -> f64) -> f64 {
        median(&self.times.iter().map(stage).collect::<Vec<_>>())
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("svcbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    eprintln!(
        "svcbench: workload {} seed {:#x} (default {DEFAULT_SEED:#x}, held out {HELDOUT_SEED:#x}), \
         {} s, trace {}",
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    let mut gate = Gate::default();
    let (setup, mut rounds) = SetupRounds::first(&args);
    let metrics = if args.trace {
        traced_run(&args, &setup, &mut rounds, &mut gate)
    } else {
        untraced_run(&args, &setup, &mut rounds, &mut gate)
    };
    eprintln!(
        "svcbench: set-up median {:.4} s over {} rounds: tracegen {:.4} s, train {:.4} s, \
         tune {:.4} s, seeding {:.4} s",
        rounds.median(SetupTimes::total),
        rounds.times.len(),
        rounds.median(|s| s.tracegen_s),
        rounds.median(|s| s.train_s),
        rounds.median(|s| s.tune_s),
        rounds.median(|s| s.seed_s),
    );
    gate.check_across_runs(&args);
    for failure in &gate.failures {
        eprintln!("svcbench: FAILED: {failure}");
    }
    eprintln!(
        "svcbench: {} jobs attempted, {} failed (jobs_failed_ratio {})",
        gate.attempted,
        gate.failed,
        gate.failed as f64 / gate.attempted.max(1) as f64
    );
    println!("{}", result_line(&gate, &metrics));
    if gate.ok() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn result_line(gate: &Gate, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            let value = if m.value.is_finite() { m.value } else { 0.0 };
            format!(
                "\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
                m.name, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        gate.ok(),
        gate.attempted.max(1),
        gate.failed,
        body.join(", ")
    )
}

/// Call `iteration` with the share of `seconds` passed so far until
/// `seconds` have passed and at least `min` iterations ran, or until it
/// returns `false` (a failed check).
fn repeat_for(seconds: f64, min: usize, mut iteration: impl FnMut(f64) -> bool) {
    let start = Instant::now();
    let deadline = start + Duration::from_secs_f64(seconds);
    let mut done = 0;
    while done < min || Instant::now() < deadline {
        if !iteration(start.elapsed().as_secs_f64() / seconds) {
            break;
        }
        done += 1;
    }
}

/// `--trace 0`: the end-to-end metrics, with tracing off.
fn untraced_run(
    args: &Args,
    setup: &Setup,
    rounds: &mut SetupRounds,
    gate: &mut Gate,
) -> Vec<Metric> {
    let replicated = args.workload.replicated();
    // Warm-up: caches fill and lazy set-up finishes before timing.
    gate.admit(setup, replicated, serve_once(setup, replicated, None));
    let mut rates = Vec::new();
    // The last iteration's deterministic figures; its report is dropped
    // before the next iteration, so no two reports are ever held at once.
    let (mut saving, mut p99) = (0.0, 0.0);
    repeat_for(args.seconds, MIN_ITERATIONS, |progress| {
        rounds.catch_up(args, gate, progress);
        if !gate.ok() {
            return false;
        }
        match gate.admit(setup, replicated, serve_once(setup, replicated, None)) {
            Some(served) if gate.ok() => {
                rates.push(served.jobs_per_s());
                saving = served.report.aggregate.job_energy_pct;
                p99 = served
                    .report
                    .service
                    .as_ref()
                    .map_or(0.0, |v| v.latency_s.p99);
                true
            }
            _ => false,
        }
    });
    rounds.catch_up(args, gate, 1.0);
    eprintln!(
        "svcbench: {} measured iterations, jobs/s median {:.0}, best {:.0}",
        rates.len(),
        median(&rates),
        best(&rates)
    );
    vec![
        metric("jobs_per_s", best(&rates), "1/s"),
        metric("setup_s", rounds.median(SetupTimes::total), "s"),
        metric("peak_rss_mb", peak_rss_mb().unwrap_or(0.0), "MiB"),
        metric("energy_saving_pct", saving, "%"),
        metric("latency_p99_vs", p99, "vs"),
        metric(
            "jobs_ok_ratio",
            (gate.attempted - gate.failed) as f64 / gate.attempted.max(1) as f64,
            "ratio",
        ),
    ]
}

/// What one traced iteration recorded, owned so it outlives the
/// iteration's wrappers.
struct TracedIteration {
    served: Served,
    snapshot: obskit::MetricsSnapshot,
    recorder_s: f64,
    strategy_calls: u64,
    strategy_s: f64,
    repository_calls: u64,
    repository_s: f64,
    spans_json: String,
}

fn traced_iteration(setup: &Setup, replicated: bool, gate: &mut Gate) -> Option<TracedIteration> {
    let spans = SpanLog::new();
    let recorder = TimedRecorder::new();
    let repository = Busy::default();
    let random = calibration_strategy();
    let strategy = TimedStrategy::new(&random, &spans);
    let tracing = Tracing {
        spans: &spans,
        recorder: &recorder,
        repository: &repository,
        strategy: &strategy,
    };
    let served = gate.admit(
        setup,
        replicated,
        serve_once(setup, replicated, Some(&tracing)),
    )?;
    Some(TracedIteration {
        served,
        snapshot: recorder.registry.snapshot(),
        recorder_s: recorder.busy.seconds(),
        strategy_calls: strategy.busy.calls(),
        strategy_s: strategy.busy.seconds(),
        repository_calls: repository.calls(),
        repository_s: repository.seconds(),
        spans_json: spans.to_json(),
    })
}

fn counter(snapshot: &obskit::MetricsSnapshot, name: &str) -> f64 {
    snapshot
        .counters
        .iter()
        .filter(|(series, _)| series == name || series.starts_with(&format!("{name}/")))
        .map(|(_, v)| *v)
        .sum::<u64>() as f64
}

fn histogram(snapshot: &obskit::MetricsSnapshot, name: &str) -> obskit::HistogramSnapshot {
    snapshot
        .histograms
        .iter()
        .find(|(series, _)| series == name)
        .map(|(_, h)| *h)
        .unwrap_or_default()
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// `--trace 1`: alternate untraced and traced serving calls, time the
/// layers' public calls standalone, and attribute the traced wall.
fn traced_run(
    args: &Args,
    setup: &Setup,
    rounds: &mut SetupRounds,
    gate: &mut Gate,
) -> Vec<Metric> {
    let replicated = args.workload.replicated();
    gate.admit(setup, replicated, serve_once(setup, replicated, None));
    let mut plain = Vec::new();
    let mut plain_serve = Vec::new();
    let mut traced_walls = Vec::new();
    let mut unreplicated = Vec::new();
    let mut last: Option<TracedIteration> = None;
    repeat_for(args.seconds, MIN_PAIRS, |progress| {
        rounds.catch_up(args, gate, progress);
        if !gate.ok() {
            return false;
        }
        let Some(served) = gate.admit(setup, replicated, serve_once(setup, replicated, None))
        else {
            return false;
        };
        plain.push(served.wall_s());
        plain_serve.push(served.serve_s);
        if replicated {
            // The same trace through one repository: what the net layer
            // adds is the difference.
            let Some(single) = gate.admit(setup, false, serve_once(setup, false, None)) else {
                return false;
            };
            unreplicated.push(single.serve_s);
        }
        let Some(traced) = traced_iteration(setup, replicated, gate) else {
            return false;
        };
        traced_walls.push(traced.served.wall_s());
        last = Some(traced);
        gate.ok()
    });
    rounds.catch_up(args, gate, 1.0);
    let Some(t) = last else {
        return Vec::new();
    };
    // rrl.net: the replicated workload's own run, or for paper_mix a
    // replicated companion of the same trace, untraced for its wall and
    // traced for its counters.
    let companion = (args.workload == Workload::PaperMix).then(|| {
        let wall = gate
            .admit(setup, true, serve_once(setup, true, None))
            .map(|s| s.serve_s);
        (wall, traced_iteration(setup, true, gate))
    });
    let net_run = if replicated {
        Some(&t)
    } else {
        companion.as_ref().and_then(|(_, traced)| traced.as_ref())
    };
    let _ = std::fs::create_dir_all(OUT_DIR).and_then(|()| {
        std::fs::write(
            format!(
                "{OUT_DIR}/spans-{}-{:x}.json",
                args.workload.name(),
                args.seed
            ),
            &t.spans_json,
        )
    });

    let report = &t.served.report;
    let summary = report.service.clone().unwrap_or_default();
    let jobs = report.jobs.len() as f64;
    let wall = t.served.wall_s();

    // simkit: the event loop itself.
    let events = summary.events as f64;
    let dispatch = histogram(&t.snapshot, "kernel.dispatch_ns");
    let heap_depth = histogram(&t.snapshot, "kernel.heap_depth_dist").p50;
    let raw_dispatch_ns = probes::raw_dispatch_ns(summary.events, heap_depth);
    let simkit_s = events * raw_dispatch_ns * 1e-9;

    // rrl.repository: measured by the wrapper, or for a replica set from
    // standalone lookups times the run's lookups.
    let stats = report.repository;
    let (repo_calls, repo_s, call_p50, call_p99) = match &t.served.repository_call_ns {
        Some(sketch) => {
            let qs = sketch.percentiles(&[0.50, 0.99]);
            (
                t.repository_calls as f64,
                t.repository_s,
                qs[0] as f64,
                qs[1] as f64,
            )
        }
        None => {
            let (mean, p50, p99) = probes::replica_call_ns(setup);
            let calls = (stats.lookups() + stats.fallbacks) as f64;
            (calls, calls * mean * 1e-9, p50, p99)
        }
    };
    let lookups = stats.lookups() as f64;

    // rrl.session, rrl.sacct and rrl.online: standalone replays.
    let calibrating: Vec<&rrl::JobOutcome> = report
        .jobs
        .iter()
        .filter(|j| probes::calibrated(j))
        .collect();
    let session_events: u64 = report
        .jobs
        .iter()
        .filter(|j| !probes::calibrated(j))
        .map(probes::region_events)
        .sum();
    let all_events: u64 = report.jobs.iter().map(probes::region_events).sum();
    let region_event_ns = probes::session_region_event_ns(setup, report);
    let session_s = session_events as f64 * region_event_ns * 1e-9;
    let (baseline_run_ns, baseline_event_ns) = probes::baseline_ns(setup, report);
    let baseline_s = all_events as f64 * baseline_event_ns * 1e-9;
    let online = report.online_summary();
    let published = calibrating
        .iter()
        .filter(|j| j.published_version.is_some())
        .count() as f64;
    let explored = calibrating
        .iter()
        .filter_map(|j| j.accounting.online)
        .map(|o| u64::from(o.explored_iterations))
        .sum::<u64>() as f64;
    let (calibration_ms, planning_ms) = probes::calibration_ms(setup, report).unwrap_or((0.0, 0.0));
    let online_s = calibrating.len() as f64 * (calibration_ms - planning_ms).max(0.0) * 1e-3;

    // rrl.net: counters from the replicated run, per-round and
    // per-message cost from standalone gossip, codec cost from frames.
    let replication = net_run
        .and_then(|n| n.served.report.service.as_ref())
        .and_then(|s| s.replication)
        .unwrap_or_default();
    let transport = net_run.and_then(|n| n.served.transport).unwrap_or_default();
    let (frame_ns, (round_ns, message_ns)) = match net_run {
        Some(_) => (probes::frame_roundtrip_ns(setup), probes::net_costs(setup)),
        None => (0.0, (0.0, 0.0)),
    };
    let messages = (transport.sent + transport.delivered) as f64 / 2.0;
    let codec_s = messages * frame_ns * 1e-9;
    let net_s = (replication.gossip_rounds as f64 * round_ns + messages * message_ns) * 1e-9;
    let wall_share = match &companion {
        _ if replicated => 1.0 - ratio(median(&unreplicated), median(&plain_serve)),
        Some((Some(replicated_s), _)) => 1.0 - ratio(median(&plain_serve), *replicated_s),
        _ => 0.0,
    };
    let session_transitions =
        net_run.map_or(0.0, |n| counter(&n.snapshot, "net.session_transitions"));

    let layers = [
        ("simkit", simkit_s),
        ("rrl.repository", repo_s),
        ("rrl.session", session_s),
        ("rrl.sacct", baseline_s),
        ("rrl.online", online_s),
        ("ptf.exploration", t.strategy_s),
        // Only a replicated traced run spends its own wall in the net
        // layer; paper_mix's companion is timed apart.
        ("rrl.net", if replicated { net_s } else { 0.0 }),
        ("rrl.cluster.report", t.served.report_s),
        ("obskit", t.recorder_s),
    ];
    let attributed: f64 = layers.iter().map(|(_, s)| s).sum();
    let unattributed = wall - attributed;
    eprintln!("svcbench: traced wall {wall:.4} s, by layer:");
    for (name, s) in layers
        .iter()
        .chain([("rrl.service.unattributed", unattributed)].iter())
    {
        eprintln!("  {name:<26} {s:>10.4} s {:>7.2} %", 100.0 * s / wall);
    }
    let overhead = ratio(median(&traced_walls), median(&plain));
    eprintln!(
        "svcbench: trace overhead {overhead:.3} (traced/untraced wall; recording budget {TRACE_BUDGET}, reported only)"
    );

    let design_runs = setup.design.as_ref().map_or(0, |d| d.engine_runs());

    vec![
        metric("simkit.events", events, "count"),
        metric("simkit.events_per_job", ratio(events, jobs), "count"),
        metric("simkit.dispatch_ns_p50", dispatch.p50 as f64, "ns"),
        metric("simkit.dispatch_ns_p99", dispatch.p99 as f64, "ns"),
        metric("simkit.raw_dispatch_ns", raw_dispatch_ns, "ns"),
        metric("simkit.busy_s", simkit_s, "s"),
        metric("rrl.service.unattributed_s", unattributed, "s"),
        metric(
            "rrl.service.admissions",
            counter(&t.snapshot, "service.admissions"),
            "count",
        ),
        metric(
            "rrl.service.parked",
            counter(&t.snapshot, "service.parked"),
            "count",
        ),
        metric(
            "rrl.service.calib_released",
            counter(&t.snapshot, "service.calib_released"),
            "count",
        ),
        metric(
            "rrl.service.replaced",
            summary.replaced_jobs as f64,
            "count",
        ),
        metric(
            "rrl.service.truncated",
            summary.truncated_jobs as f64,
            "count",
        ),
        metric(
            "rrl.service.churn_events",
            counter(&t.snapshot, "service.churn_events"),
            "count",
        ),
        metric(
            "rrl.service.queue_wait_vs_p50",
            summary.queue_wait_s.p50,
            "vs",
        ),
        metric(
            "rrl.service.queue_wait_vs_p99",
            summary.queue_wait_s.p99,
            "vs",
        ),
        metric(
            "rrl.service.queue_depth_p99",
            summary.queue_depth.p99,
            "count",
        ),
        metric("rrl.repository.calls", repo_calls, "count"),
        metric("rrl.repository.busy_s", repo_s, "s"),
        metric("rrl.repository.call_ns_p50", call_p50, "ns"),
        metric("rrl.repository.call_ns_p99", call_p99, "ns"),
        metric("rrl.repository.hits", stats.hits as f64, "count"),
        metric("rrl.repository.misses", stats.misses as f64, "count"),
        metric("rrl.repository.fallbacks", stats.fallbacks as f64, "count"),
        metric("rrl.repository.evictions", stats.evictions as f64, "count"),
        metric(
            "rrl.repository.publications",
            stats.publications as f64,
            "count",
        ),
        metric(
            "rrl.repository.hit_ratio",
            ratio(stats.hits as f64, lookups),
            "ratio",
        ),
        metric(
            "rrl.repository.fallback_ratio",
            ratio(stats.fallbacks as f64, lookups),
            "ratio",
        ),
        metric(
            "kernels.fingerprint_ns",
            probes::fingerprint_ns(setup),
            "ns",
        ),
        metric("rrl.session.region_events", session_events as f64, "count"),
        metric("rrl.session.region_event_ns", region_event_ns, "ns"),
        metric("rrl.session.busy_s", session_s, "s"),
        metric("rrl.sacct.baseline_runs", jobs, "count"),
        metric("rrl.sacct.baseline_ns", baseline_run_ns, "ns"),
        metric("rrl.sacct.baseline_busy_s", baseline_s, "s"),
        metric(
            "rrl.online.calibrations",
            online.calibrations as f64,
            "count",
        ),
        metric("rrl.online.calibrations_published", published, "count"),
        metric(
            "rrl.online.publish_ratio",
            ratio(published, calibrating.len() as f64),
            "ratio",
        ),
        metric("rrl.online.explored_iterations", explored, "count"),
        metric(
            "rrl.online.drift_events",
            online.drift_events as f64,
            "count",
        ),
        metric(
            "rrl.online.recalibrated_regions",
            online.recalibrated_regions as f64,
            "count",
        ),
        metric("rrl.online.calibration_ms", calibration_ms, "ms"),
        metric("rrl.online.busy_s", online_s, "s"),
        metric("ptf.exploration_calls", t.strategy_calls as f64, "count"),
        metric("ptf.exploration_busy_s", t.strategy_s, "s"),
        metric("ptf.train_s", rounds.median(|s| s.train_s), "s"),
        metric("ptf.tune_s", rounds.median(|s| s.tune_s), "s"),
        metric("ptf.engine_runs", design_runs as f64, "count"),
        metric("bench.tracegen_s", rounds.median(|s| s.tracegen_s), "s"),
        metric("bench.seed_s", rounds.median(|s| s.seed_s), "s"),
        metric(
            "rrl.net.gossip_rounds",
            replication.gossip_rounds as f64,
            "count",
        ),
        metric("rrl.net.sent", transport.sent as f64, "count"),
        metric("rrl.net.delivered", transport.delivered as f64, "count"),
        metric("rrl.net.dropped", transport.dropped as f64, "count"),
        metric("rrl.net.duplicated", transport.duplicated as f64, "count"),
        metric("rrl.net.applied", replication.applied as f64, "count"),
        metric("rrl.net.superseded", replication.superseded as f64, "count"),
        metric(
            "rrl.net.repair_pulls",
            replication.repair_pulls as f64,
            "count",
        ),
        metric(
            "rrl.net.repair_released",
            replication.repair_released as f64,
            "count",
        ),
        metric(
            "rrl.net.repair_abandoned",
            replication.repair_abandoned as f64,
            "count",
        ),
        metric("rrl.net.session_transitions", session_transitions, "count"),
        metric(
            "rrl.net.applied_ratio",
            ratio(
                replication.applied as f64,
                (replication.applied + replication.superseded) as f64,
            ),
            "ratio",
        ),
        metric("rrl.net.round_ns", round_ns, "ns"),
        metric("rrl.net.message_ns", message_ns, "ns"),
        metric("rrl.net.busy_s", net_s, "s"),
        metric("rrl.net.frame_roundtrip_ns", frame_ns, "ns"),
        metric("rrl.net.codec_busy_s", codec_s, "s"),
        metric("rrl.net.wall_share", wall_share, "ratio"),
        metric("rrl.cluster.report_s", t.served.report_s, "s"),
        metric(
            "rrl.cluster.report_bytes",
            t.served.report_bytes as f64,
            "bytes",
        ),
        metric("obskit.trace_overhead", overhead, "ratio"),
        metric("obskit.busy_s", t.recorder_s, "s"),
        metric("bench.traced_wall_s", wall, "s"),
    ]
}
