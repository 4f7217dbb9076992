//! Virtual-time kernel hot paths: raw event dispatch through
//! `simkit::Kernel`, a pre-scheduled 1M-arrival trace through the bare
//! kernel, and the discrete-event service driving a 1M-job,
//! hours-of-virtual-time arrival trace.
//!
//! The service bench is the subsystem's scale claim: one million jobs
//! arriving over ~4 hours of virtual time, placed, queued, admitted,
//! stepped to completion and accounted — in seconds of wall clock,
//! because virtual time costs nothing to skip. CI archives the numbers
//! as `BENCH_vtime.json` via the harness's `CRITERION_SUMMARY_JSON`
//! hook and diffs them against the committed baseline.

use criterion::{black_box, criterion_group, criterion_main, Criterion};

use kernels::toy_benchmark;
use ptf::TuningModel;
use rrl::{ClusterScheduler, JobArrival, ServiceConfig, TuningModelRepository};
use simkit::{EventSink, Kernel, Process, Time};
use simnode::{Cluster, SystemConfig};

const KERNEL_EVENTS: u64 = 1_000_000;
const KERNEL_ARRIVALS: u32 = 1_000_000;
const SERVICE_JOBS: usize = 1_000_000;
const NODES: u32 = 64;

/// A self-rescheduling timer chain: every handled event schedules its
/// successor at a staggered future time until the budget is spent. This
/// keeps the heap busy (1 024 interleaved chains) without pre-building a
/// million-entry heap, so the measurement is dispatch + reschedule.
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
            // Distinct per-chain delays interleave the chains in the heap.
            sink.schedule_in(1 + chain % 97, chain);
        }
        Ok(())
    }
}

/// Raw kernel throughput: pop, clock advance, dispatch, reschedule —
/// one million events through 1 024 interleaved timer chains.
fn bench_kernel_dispatch(c: &mut Criterion) {
    let mut group = c.benchmark_group("vtime/kernel");
    group.bench_function("dispatch_1m_events", |b| {
        b.iter(|| {
            let mut kernel = Kernel::new();
            for chain in 0..1024u64 {
                kernel.schedule_at(1 + chain % 97, chain);
            }
            let mut process = TimerChains {
                remaining: KERNEL_EVENTS,
            };
            kernel.run(&mut process).expect("infallible");
            assert!(kernel.is_quiesced());
            black_box(kernel.processed())
        })
    });
    group.finish();
}

/// One pre-scheduled arrival, or the follow-up it schedules.
enum Arrival {
    Arrive(u32),
    Finish,
}

/// Each arrival schedules one follow-up 1-3 k ticks later; with an
/// arrival every 10 ticks about 200 follow-ups are pending at once.
struct ArrivalTrace;

impl Process<Arrival> for ArrivalTrace {
    type Error = std::convert::Infallible;

    fn handle(
        &mut self,
        _now: Time,
        event: Arrival,
        sink: &mut dyn EventSink<Arrival>,
    ) -> Result<(), Self::Error> {
        if let Arrival::Arrive(i) = event {
            sink.schedule_in(
                1_000 + u64::from(i.wrapping_mul(7_919) % 2_000),
                Arrival::Finish,
            );
        }
        Ok(())
    }
}

/// The service's event shape without the service: one million arrivals
/// scheduled up front in time order, each scheduling one follow-up
/// while the trace drains, so the queue holds the whole trace plus a
/// small active set.
fn bench_kernel_arrivals(c: &mut Criterion) {
    let mut group = c.benchmark_group("vtime/kernel");
    group.bench_function("arrivals_1m", |b| {
        b.iter(|| {
            let mut kernel = Kernel::new();
            for i in 0..KERNEL_ARRIVALS {
                kernel.schedule_at(u64::from(i) * 10, Arrival::Arrive(i));
            }
            kernel.run(&mut ArrivalTrace).expect("infallible");
            assert_eq!(kernel.processed(), 2 * u64::from(KERNEL_ARRIVALS));
            black_box(kernel.now())
        })
    });
    group.finish();
}

/// The scale claim: a 1M-job trace arriving over ~4 hours of virtual
/// time, all hitting one pre-stored model across 64 nodes. Minimal
/// per-job work (one region, one phase iteration) so the measurement is
/// the event loop — arrival, placement, admission, step, finish,
/// accounting — not the region simulator.
fn bench_service_trace(c: &mut Criterion) {
    let cluster = Cluster::new(NODES, 0xBEE5);
    let bench = toy_benchmark("svc", 1e10, 1);
    let cfg = SystemConfig::new(24, 2400, 1900);
    let model = TuningModel::new(&bench.name, &[("omp parallel:1".into(), cfg)], cfg);
    let fallback = SystemConfig::new(24, 2400, 1700);

    let mut group = c.benchmark_group("vtime/service");
    group.bench_function(format!("jobs_{}k", SERVICE_JOBS / 1000), |b| {
        b.iter(|| {
            let mut repo = TuningModelRepository::new().with_fallback(fallback);
            repo.insert(&bench, &model);
            let mut sched = ClusterScheduler::new(&cluster).expect("non-empty cluster");
            // ~14.4 ms mean interarrival ⇒ the millionth job arrives
            // 4 hours of virtual time after the first.
            let trace: Vec<JobArrival> = (0..SERVICE_JOBS)
                .map(|i| JobArrival {
                    name: format!("j{i}"),
                    bench: bench.clone(),
                    arrival_s: i as f64 * 0.0144,
                })
                .collect();
            let report = sched
                .run_service(trace, &mut repo, &ServiceConfig::default())
                .expect("service run succeeds");
            let summary = report.service.as_ref().expect("summary present");
            assert!(summary.quiesced && summary.monotone);
            assert_eq!(report.jobs.len(), SERVICE_JOBS);
            black_box(summary.makespan_s)
        })
    });
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10).measurement_time(std::time::Duration::from_secs(5)).warm_up_time(std::time::Duration::from_millis(500));
    targets = bench_kernel_dispatch, bench_kernel_arrivals, bench_service_trace
}
criterion_main!(benches);
