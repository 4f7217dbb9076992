//! Tracing from outside the program: timing wrappers around the public
//! seams the serving call goes through, and an in-memory span log.
//!
//! Nothing here is compiled into the program. Each wrapper forwards to
//! the real implementation and adds the wall time it spent there to its
//! layer's busy time; the span log keeps name, start, end and parent of
//! every wrapped call, with the serving call as root, and is written out
//! once the run ends.

use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use kernels::{BenchmarkSpec, QuantileSketch};
use obskit::{Key, MetricsSnapshot, Recorder, Registry, Track, VirtualUs};
use ptf::{ExplorationInputs, ExplorationPlan, SearchStrategy, TuningError, TuningModel};
use rrl::{RepositoryHandle, RepositoryStats, RuntimeError, ServedModel};

/// No parent: a root span.
pub const NO_PARENT: u32 = u32::MAX;

/// One wall-clock span, in nanoseconds since the log's epoch.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: u32,
}

/// Spans kept in memory until the run ends.
#[derive(Debug)]
pub struct SpanLog {
    epoch: Instant,
    spans: Mutex<Vec<Span>>,
    /// The open root span new child spans attach to.
    root: AtomicU32,
}

impl SpanLog {
    pub fn new() -> Self {
        Self {
            epoch: Instant::now(),
            spans: Mutex::new(Vec::new()),
            root: AtomicU32::new(NO_PARENT),
        }
    }

    fn ns(&self, at: Instant) -> u64 {
        u64::try_from(at.duration_since(self.epoch).as_nanos()).unwrap_or(u64::MAX)
    }

    /// Record a finished span under the open root; returns its id.
    pub fn record(&self, name: &'static str, start: Instant, end: Instant) -> u32 {
        let parent = self.root.load(Ordering::Relaxed);
        self.push(name, start, end, parent)
    }

    fn push(&self, name: &'static str, start: Instant, end: Instant, parent: u32) -> u32 {
        let mut spans = self.spans.lock().expect("span log is never poisoned");
        spans.push(Span {
            name,
            start_ns: self.ns(start),
            end_ns: self.ns(end),
            parent,
        });
        (spans.len() - 1) as u32
    }

    /// Open a root span: calls recorded until [`SpanLog::close_root`]
    /// become its children.
    pub fn open_root(&self, name: &'static str, start: Instant) -> u32 {
        let id = self.push(name, start, start, NO_PARENT);
        self.root.store(id, Ordering::Relaxed);
        id
    }

    pub fn close_root(&self, id: u32, end: Instant) {
        self.root.store(NO_PARENT, Ordering::Relaxed);
        let end_ns = self.ns(end);
        self.spans.lock().expect("span log is never poisoned")[id as usize].end_ns = end_ns;
    }

    pub fn to_json(&self) -> String {
        let spans = self.spans.lock().expect("span log is never poisoned");
        let rows: Vec<String> = spans
            .iter()
            .map(|s| {
                let parent = if s.parent == NO_PARENT {
                    "null".to_string()
                } else {
                    s.parent.to_string()
                };
                format!(
                    "{{\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent}}}",
                    s.name, s.start_ns, s.end_ns
                )
            })
            .collect();
        format!("{{\"spans\":[\n{}\n]}}\n", rows.join(",\n"))
    }
}

/// Wall nanoseconds from `start` to now.
fn since(start: Instant) -> u64 {
    u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// Busy time and call count of one layer, shareable across threads.
#[derive(Debug, Default)]
pub struct Busy {
    calls: AtomicU64,
    ns: AtomicU64,
}

impl Busy {
    fn add(&self, ns: u64) {
        self.calls.fetch_add(1, Ordering::Relaxed);
        self.ns.fetch_add(ns, Ordering::Relaxed);
    }

    pub fn calls(&self) -> u64 {
        self.calls.load(Ordering::Relaxed)
    }

    pub fn seconds(&self) -> f64 {
        self.ns.load(Ordering::Relaxed) as f64 * 1e-9
    }
}

/// A [`RepositoryHandle`] that times every call into the wrapped
/// repository.
pub struct TimedRepository<'r> {
    inner: &'r mut dyn RepositoryHandle,
    spans: &'r SpanLog,
    busy: &'r Busy,
    /// Per-call wall nanoseconds.
    pub call_ns: QuantileSketch,
}

impl<'r> TimedRepository<'r> {
    pub fn new(inner: &'r mut dyn RepositoryHandle, spans: &'r SpanLog, busy: &'r Busy) -> Self {
        Self {
            inner,
            spans,
            busy,
            call_ns: QuantileSketch::new(),
        }
    }

    fn timed<T>(
        &mut self,
        name: &'static str,
        call: impl FnOnce(&mut dyn RepositoryHandle) -> T,
    ) -> T {
        let start = Instant::now();
        let out = call(&mut *self.inner);
        let end = Instant::now();
        let ns = u64::try_from(end.duration_since(start).as_nanos()).unwrap_or(u64::MAX);
        self.busy.add(ns);
        self.call_ns.record(ns);
        self.spans.record(name, start, end);
        out
    }
}

impl RepositoryHandle for TimedRepository<'_> {
    fn serve(&mut self, bench: &BenchmarkSpec) -> Result<ServedModel, RuntimeError> {
        self.timed("repository.serve", |r| r.serve(bench))
    }

    fn serve_stored(&mut self, bench: &BenchmarkSpec) -> Result<Option<ServedModel>, RuntimeError> {
        self.timed("repository.serve_stored", |r| r.serve_stored(bench))
    }

    fn serve_fallback(&mut self, bench: &BenchmarkSpec) -> Result<ServedModel, RuntimeError> {
        self.timed("repository.serve_fallback", |r| r.serve_fallback(bench))
    }

    fn publish_online(
        &mut self,
        bench: &BenchmarkSpec,
        model: &TuningModel,
        expected: Vec<(String, f64)>,
    ) -> u32 {
        self.timed("repository.publish_online", |r| {
            r.publish_online(bench, model, expected)
        })
    }

    fn stats(&self) -> RepositoryStats {
        self.inner.stats()
    }
}

/// A [`SearchStrategy`] that times every exploration plan it produces.
#[derive(Debug)]
pub struct TimedStrategy<'s> {
    inner: &'s dyn SearchStrategy,
    spans: &'s SpanLog,
    pub busy: Busy,
}

impl<'s> TimedStrategy<'s> {
    pub fn new(inner: &'s dyn SearchStrategy, spans: &'s SpanLog) -> Self {
        Self {
            inner,
            spans,
            busy: Busy::default(),
        }
    }
}

impl SearchStrategy for TimedStrategy<'_> {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn exploration(&self, inputs: &ExplorationInputs<'_>) -> Result<ExplorationPlan, TuningError> {
        let start = Instant::now();
        let plan = self.inner.exploration(inputs);
        self.busy.add(since(start));
        self.spans.record("ptf.exploration", start, Instant::now());
        plan
    }
}

/// An [`obskit::Recorder`] that forwards to a [`Registry`] and counts
/// the wall time spent recording — obskit's own share of a traced run.
pub struct TimedRecorder {
    pub registry: Registry,
    pub busy: Busy,
}

impl TimedRecorder {
    pub fn new() -> Self {
        Self {
            registry: Registry::new(),
            busy: Busy::default(),
        }
    }

    fn timed<T>(&self, call: impl FnOnce(&Registry) -> T) -> T {
        let start = Instant::now();
        let out = call(&self.registry);
        self.busy.add(since(start));
        out
    }
}

impl Recorder for TimedRecorder {
    fn enabled(&self) -> bool {
        true
    }

    fn counter_add_at(&self, key: Key, index: u32, delta: u64) {
        self.timed(|r| r.counter_add_at(key, index, delta))
    }

    fn gauge_set_at(&self, key: Key, index: u32, value: i64) {
        self.timed(|r| r.gauge_set_at(key, index, value))
    }

    fn histogram_record_at(&self, key: Key, index: u32, value: u64) {
        self.timed(|r| r.histogram_record_at(key, index, value))
    }

    fn span(&self, track: Track, name: Key, ts_us: VirtualUs, dur_us: u64) {
        self.timed(|r| r.span(track, name, ts_us, dur_us))
    }

    fn instant(&self, track: Track, name: Key, ts_us: VirtualUs) {
        self.timed(|r| r.instant(track, name, ts_us))
    }

    fn telemetry(&self) -> Option<MetricsSnapshot> {
        self.timed(|r| r.telemetry())
    }
}
