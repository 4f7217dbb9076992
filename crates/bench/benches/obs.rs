//! Telemetry overhead on the hot path: the same workload as `vtime.rs`'s
//! kernel dispatch, run once with the [`obskit::NoopRecorder`] (recording
//! off — the default every existing call site gets) and once with a full
//! [`obskit::Registry`] attached.
//!
//! The pair is the overhead budget the observability layer promises:
//! `dispatch_1m_noop` must stay within 15 % of the unrecorded
//! `vtime/kernel/dispatch_1m_events` baseline (the noop path is one
//! `enabled()` check and then the plain loop), and `dispatch_1m_recorded`
//! documents the cost of block-batched full recording. CI archives the
//! numbers as `BENCH_obs.json` via the harness's `CRITERION_SUMMARY_JSON`
//! hook and diffs them against the committed baseline.

use criterion::{black_box, criterion_group, criterion_main, Criterion};

use obskit::{NoopRecorder, Recorder, Registry};
use simkit::{EventSink, Kernel, Process, Time};

const KERNEL_EVENTS: u64 = 1_000_000;

/// The `vtime.rs` timer-chain process, verbatim: every handled event
/// schedules its successor until the budget is spent, keeping 1 024
/// interleaved chains in the heap so the measurement is dispatch +
/// reschedule.
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

fn run_chains(recorder: &dyn Recorder) -> u64 {
    let mut kernel = Kernel::new();
    for chain in 0..1024u64 {
        kernel.schedule_at(1 + chain % 97, chain);
    }
    let mut process = TimerChains {
        remaining: KERNEL_EVENTS,
    };
    kernel
        .run_recorded(&mut process, recorder)
        .expect("infallible");
    assert!(kernel.is_quiesced());
    kernel.processed()
}

/// Kernel dispatch with recording off (the everyone-else path) and on.
fn bench_recorded_dispatch(c: &mut Criterion) {
    let mut group = c.benchmark_group("obs/kernel");
    group.bench_function("dispatch_1m_noop", |b| {
        b.iter(|| black_box(run_chains(&NoopRecorder)))
    });
    group.bench_function("dispatch_1m_recorded", |b| {
        b.iter(|| {
            let registry = Registry::new();
            let processed = run_chains(&registry);
            let snapshot = registry.snapshot();
            assert_eq!(snapshot.counter_sum("kernel.events"), processed);
            black_box(processed)
        })
    });
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10).measurement_time(std::time::Duration::from_secs(5)).warm_up_time(std::time::Duration::from_millis(500));
    targets = bench_recorded_dispatch
}
criterion_main!(benches);
