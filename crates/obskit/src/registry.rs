//! The metrics store and its exporters.

use std::collections::{BTreeMap, BTreeSet};
use std::sync::{Mutex, MutexGuard};
use std::time::Instant;

use kernels::QuantileSketch;

use crate::timeline::{TimelineBuffer, TimelineEvent};
use crate::{json_escape, Key, Recorder, Track, TrackKind, VirtualUs, NO_INDEX};

/// Default bound on the timeline ring.
const DEFAULT_TIMELINE_CAPACITY: usize = 65_536;

/// One stored series. A key is bound to whichever kind touched it
/// first; calls with a mismatched kind are ignored rather than
/// panicking (the registry must never take an instrumented path down).
enum Cell {
    Counter(u64),
    Gauge(i64),
    Histogram(QuantileSketch),
}

/// Everything a [`Registry`] records, behind its one lock.
struct Store {
    series: BTreeMap<(Key, u32), Cell>,
    timeline: TimelineBuffer,
}

/// The recording [`Recorder`]: a map of counters, gauges, and
/// histograms plus a bounded timeline ring, behind one mutex. Every
/// instrumented subsystem records from the thread driving its run, so
/// the lock is never contended; it is there so the registry stays
/// `Send + Sync` and can be shared by reference (or `Arc`) between the
/// subsystems of one run. Export with [`Registry::snapshot`] /
/// [`Registry::export_chrome_trace`].
pub struct Registry {
    store: Mutex<Store>,
    epoch: Instant,
}

impl Default for Registry {
    fn default() -> Self {
        Self::new()
    }
}

impl Registry {
    /// A fresh registry with the default timeline bound (65 536
    /// events).
    pub fn new() -> Self {
        Self::with_timeline_capacity(DEFAULT_TIMELINE_CAPACITY)
    }

    /// A fresh registry retaining at most `capacity` timeline events
    /// (oldest evicted first; evictions are counted, not silent).
    pub fn with_timeline_capacity(capacity: usize) -> Self {
        Registry {
            store: Mutex::new(Store {
                series: BTreeMap::new(),
                timeline: TimelineBuffer::with_capacity(capacity),
            }),
            epoch: Instant::now(),
        }
    }

    fn store(&self) -> MutexGuard<'_, Store> {
        self.store.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Run `f` against the cell for `(key, index)`, creating it with
    /// `make` on first touch.
    fn with_cell(
        &self,
        key: Key,
        index: u32,
        make: impl FnOnce() -> Cell,
        f: impl FnOnce(&mut Cell),
    ) {
        f(self.store().series.entry((key, index)).or_insert_with(make));
    }

    /// Wall-clock nanoseconds since this registry was created.
    pub fn wall_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// The timeline events currently retained, oldest first.
    pub fn timeline_events(&self) -> Vec<TimelineEvent> {
        self.store().timeline.events().copied().collect()
    }

    /// The retained timeline rendered with virtual-time fields only —
    /// the sequence two recorded reruns of the same seed must agree on.
    pub fn deterministic_timeline(&self) -> Vec<String> {
        self.store()
            .timeline
            .events()
            .map(TimelineEvent::deterministic_line)
            .collect()
    }

    /// A point-in-time view of every metric plus timeline totals,
    /// sorted by series name.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let mut counters = BTreeMap::new();
        let mut gauges = BTreeMap::new();
        let mut histograms = BTreeMap::new();
        let store = self.store();
        for (&(key, index), cell) in &store.series {
            let name = series_name(key, index);
            match cell {
                Cell::Counter(v) => {
                    counters.insert(name, *v);
                }
                Cell::Gauge(v) => {
                    gauges.insert(name, *v);
                }
                Cell::Histogram(sketch) => {
                    histograms.insert(name, HistogramSnapshot::from_sketch(sketch));
                }
            }
        }
        let timeline = &store.timeline;
        MetricsSnapshot {
            counters: counters.into_iter().collect(),
            gauges: gauges.into_iter().collect(),
            histograms: histograms.into_iter().collect(),
            spans: timeline.spans(),
            instants: timeline.instants(),
            dropped_events: timeline.dropped(),
        }
    }

    /// Export the timeline as a Chrome `trace_event` JSON document
    /// (Perfetto-loadable). Tracks become named processes/threads;
    /// span timestamps are **virtual** microseconds, with the wall
    /// clock kept as a span argument.
    pub fn export_chrome_trace(&self) -> String {
        let events = self.timeline_events();
        let tracks: BTreeSet<Track> = events.iter().map(TimelineEvent::track).collect();
        let kinds: BTreeSet<TrackKind> = tracks.iter().map(|t| t.kind).collect();
        let mut out: Vec<String> = Vec::with_capacity(events.len() + tracks.len() + kinds.len());
        for kind in &kinds {
            out.push(format!(
                "{{\"ph\":\"M\",\"pid\":{},\"tid\":0,\"name\":\"process_name\",\
                 \"args\":{{\"name\":\"{}\"}}}}",
                kind.pid(),
                kind.process_name()
            ));
        }
        for track in &tracks {
            out.push(format!(
                "{{\"ph\":\"M\",\"pid\":{},\"tid\":{},\"name\":\"thread_name\",\
                 \"args\":{{\"name\":\"{} {}\"}}}}",
                track.kind.pid(),
                track.index,
                track.kind.thread_prefix(),
                track.index
            ));
        }
        out.extend(events.iter().map(TimelineEvent::chrome_json));
        format!("{{\"traceEvents\":[\n{}\n]}}\n", out.join(",\n"))
    }
}

impl Recorder for Registry {
    fn enabled(&self) -> bool {
        true
    }

    fn counter_add_at(&self, key: Key, index: u32, delta: u64) {
        self.with_cell(
            key,
            index,
            || Cell::Counter(0),
            |cell| {
                if let Cell::Counter(v) = cell {
                    *v = v.wrapping_add(delta);
                }
            },
        );
    }

    fn gauge_set_at(&self, key: Key, index: u32, value: i64) {
        self.with_cell(
            key,
            index,
            || Cell::Gauge(0),
            |cell| {
                if let Cell::Gauge(v) = cell {
                    *v = value;
                }
            },
        );
    }

    fn histogram_record_at(&self, key: Key, index: u32, value: u64) {
        self.with_cell(
            key,
            index,
            || Cell::Histogram(QuantileSketch::new()),
            |cell| {
                if let Cell::Histogram(sketch) = cell {
                    sketch.record(value);
                }
            },
        );
    }

    fn span(&self, track: Track, name: Key, ts_us: VirtualUs, dur_us: u64) {
        let wall_ns = self.wall_ns();
        self.store().timeline.push(TimelineEvent::Span {
            track,
            name,
            ts_us,
            dur_us,
            wall_ns,
        });
    }

    fn instant(&self, track: Track, name: Key, ts_us: VirtualUs) {
        self.store()
            .timeline
            .push(TimelineEvent::Instant { track, name, ts_us });
    }

    fn telemetry(&self) -> Option<MetricsSnapshot> {
        Some(self.snapshot().deterministic())
    }
}

/// Rendered series name: bare key, or `key/index` for indexed series.
fn series_name(key: Key, index: u32) -> String {
    if index == NO_INDEX {
        key.to_string()
    } else {
        format!("{key}/{index}")
    }
}

/// True when a rendered series name denotes a wall-clock-derived value
/// (base key suffixed `_ns`; see the crate docs' naming scheme).
fn is_wall_derived(name: &str) -> bool {
    let base = name.split('/').next().unwrap_or(name);
    base.ends_with("_ns")
}

/// A histogram reduced to the fields every report wants. Percentiles
/// come from [`QuantileSketch::percentiles`], so they are deterministic
/// and order-independent.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct HistogramSnapshot {
    /// Samples recorded.
    pub count: u64,
    /// Smallest sample (0 when empty).
    pub min: u64,
    /// Largest sample (0 when empty).
    pub max: u64,
    /// Median.
    pub p50: u64,
    /// 95th percentile.
    pub p95: u64,
    /// 99th percentile.
    pub p99: u64,
}

impl HistogramSnapshot {
    /// Reduce a sketch to the snapshot fields.
    pub fn from_sketch(sketch: &QuantileSketch) -> Self {
        let qs = sketch.percentiles(&[0.50, 0.95, 0.99]);
        HistogramSnapshot {
            count: sketch.count(),
            min: sketch.min(),
            max: sketch.max(),
            p50: qs[0],
            p95: qs[1],
            p99: qs[2],
        }
    }

    fn to_json(self) -> String {
        format!(
            "{{\"count\":{},\"min\":{},\"max\":{},\"p50\":{},\"p95\":{},\"p99\":{}}}",
            self.count, self.min, self.max, self.p50, self.p95, self.p99
        )
    }
}

/// A point-in-time view of a [`Registry`]: every series sorted by
/// name, plus timeline totals. Comparable (`PartialEq`) so the testkit
/// determinism invariant can diff two recorded runs directly.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct MetricsSnapshot {
    /// Counters, sorted by series name.
    pub counters: Vec<(String, u64)>,
    /// Gauges, sorted by series name.
    pub gauges: Vec<(String, i64)>,
    /// Histograms, sorted by series name.
    pub histograms: Vec<(String, HistogramSnapshot)>,
    /// Spans ever pushed to the timeline.
    pub spans: u64,
    /// Instants ever pushed to the timeline.
    pub instants: u64,
    /// Timeline events evicted by the ring bound.
    pub dropped_events: u64,
}

impl MetricsSnapshot {
    /// The snapshot with every wall-clock-derived *value* blanked
    /// (series whose base key ends in `_ns`): histograms keep only
    /// their sample count, counters and gauges are zeroed. What
    /// remains is a pure function of the virtual-time execution, so
    /// two recorded reruns of the same seed compare equal.
    pub fn deterministic(&self) -> MetricsSnapshot {
        let mut out = self.clone();
        for (name, value) in &mut out.counters {
            if is_wall_derived(name) {
                *value = 0;
            }
        }
        for (name, value) in &mut out.gauges {
            if is_wall_derived(name) {
                *value = 0;
            }
        }
        for (name, hist) in &mut out.histograms {
            if is_wall_derived(name) {
                *hist = HistogramSnapshot {
                    count: hist.count,
                    ..HistogramSnapshot::default()
                };
            }
        }
        out
    }

    /// Total over counters whose series name starts with `prefix`
    /// (handy for summing an indexed family like `net.replica_restarts/`).
    pub fn counter_sum(&self, prefix: &str) -> u64 {
        self.counters
            .iter()
            .filter(|(name, _)| name.starts_with(prefix))
            .map(|(_, v)| v)
            .sum()
    }

    /// Render the snapshot as a deterministic JSON document (keys
    /// sorted; wall-derived values included as recorded — call
    /// [`MetricsSnapshot::deterministic`] first if they must not be).
    pub fn to_json(&self) -> String {
        let counters: Vec<String> = self
            .counters
            .iter()
            .map(|(name, v)| format!("    \"{}\": {v}", json_escape(name)))
            .collect();
        let gauges: Vec<String> = self
            .gauges
            .iter()
            .map(|(name, v)| format!("    \"{}\": {v}", json_escape(name)))
            .collect();
        let histograms: Vec<String> = self
            .histograms
            .iter()
            .map(|(name, h)| format!("    \"{}\": {}", json_escape(name), h.to_json()))
            .collect();
        format!(
            "{{\n  \"counters\": {{\n{}\n  }},\n  \"gauges\": {{\n{}\n  }},\n  \
             \"histograms\": {{\n{}\n  }},\n  \"timeline\": {{\"spans\": {}, \
             \"instants\": {}, \"dropped\": {}}}\n}}\n",
            counters.join(",\n"),
            gauges.join(",\n"),
            histograms.join(",\n"),
            self.spans,
            self.instants,
            self.dropped_events
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate_and_sort_by_name() {
        let reg = Registry::new();
        reg.counter_add("b.two", 2);
        reg.counter_add("a.one", 1);
        reg.counter_add("b.two", 3);
        let snap = reg.snapshot();
        assert_eq!(
            snap.counters,
            vec![("a.one".to_string(), 1), ("b.two".to_string(), 5)]
        );
    }

    #[test]
    fn indexed_series_render_with_slash() {
        let reg = Registry::new();
        reg.counter_add_at("repo.hits", 3, 7);
        reg.counter_add_at("repo.hits", 0, 1);
        let snap = reg.snapshot();
        assert_eq!(
            snap.counters,
            vec![
                ("repo.hits/0".to_string(), 1),
                ("repo.hits/3".to_string(), 7)
            ]
        );
        assert_eq!(snap.counter_sum("repo.hits/"), 8);
    }

    #[test]
    fn gauges_keep_last_value() {
        let reg = Registry::new();
        reg.gauge_set("k.depth", 10);
        reg.gauge_set("k.depth", 4);
        assert_eq!(reg.snapshot().gauges, vec![("k.depth".to_string(), 4)]);
    }

    #[test]
    fn histograms_report_percentiles() {
        let reg = Registry::new();
        for v in 1..=100u64 {
            reg.histogram_record("lat_us", v);
        }
        let snap = reg.snapshot();
        let (name, h) = &snap.histograms[0];
        assert_eq!(name, "lat_us");
        assert_eq!(h.count, 100);
        assert_eq!(h.min, 1);
        assert_eq!(h.max, 100);
        assert_eq!(h.p50, 50);
    }

    #[test]
    fn kind_mismatch_is_ignored_not_fatal() {
        let reg = Registry::new();
        reg.counter_add("x.mixed", 1);
        reg.gauge_set("x.mixed", 9);
        reg.histogram_record("x.mixed", 9);
        assert_eq!(reg.snapshot().counters, vec![("x.mixed".to_string(), 1)]);
        assert!(reg.snapshot().gauges.is_empty());
    }

    #[test]
    fn deterministic_view_blanks_wall_series_only() {
        let reg = Registry::new();
        reg.histogram_record("lock_wait_ns", 123_456);
        reg.histogram_record("queue_us", 10);
        let det = reg.snapshot().deterministic();
        let by_name: BTreeMap<&str, &HistogramSnapshot> = det
            .histograms
            .iter()
            .map(|(n, h)| (n.as_str(), h))
            .collect();
        let wall = by_name["lock_wait_ns"];
        assert_eq!((wall.count, wall.max, wall.p99), (1, 0, 0));
        let virt = by_name["queue_us"];
        assert_eq!((virt.count, virt.max), (1, 10));
    }

    #[test]
    fn chrome_export_carries_metadata_and_events() {
        let reg = Registry::new();
        reg.span(Track::node(2), "job", 100, 50);
        reg.instant(Track::net(), "drop", 7);
        let trace = reg.export_chrome_trace();
        assert!(trace.starts_with("{\"traceEvents\":["));
        assert!(trace.contains("\"process_name\""));
        assert!(trace.contains("\"name\":\"node 2\""));
        assert!(trace.contains("\"ph\":\"X\""));
        assert!(trace.contains("\"ph\":\"i\""));
    }

    #[test]
    fn telemetry_returns_deterministic_snapshot() {
        let reg = Registry::new();
        reg.counter_add("a.count", 2);
        reg.span(Track::kernel(), "run", 0, 10);
        let t = Recorder::telemetry(&reg).expect("registry keeps telemetry");
        assert_eq!(t.counters, vec![("a.count".to_string(), 2)]);
        assert_eq!(t.spans, 1);
    }

    #[test]
    fn snapshot_json_is_valid_shape() {
        let reg = Registry::new();
        reg.counter_add("a", 1);
        reg.gauge_set("g", -2);
        reg.histogram_record("h_us", 3);
        let json = reg.snapshot().to_json();
        assert!(json.contains("\"counters\""));
        assert!(json.contains("\"a\": 1"));
        assert!(json.contains("\"g\": -2"));
        assert!(json.contains("\"timeline\""));
    }
}
