//! # obskit — offline, virtual-time-aware telemetry
//!
//! A telemetry layer for the discrete-event stack, in the same offline
//! shim style as the rest of the workspace: no external crates, no
//! background threads, no global state. Instrumented code talks to one
//! seam — the [`Recorder`] trait — and every call site is compiled
//! against either a [`NoopRecorder`] (a branch and nothing else: no
//! allocation, no clock read) or a [`Registry`] that actually stores
//! the data.
//!
//! Three layers:
//!
//! 1. **Metrics** — a [`Registry`] of counters, gauges, and
//!    histograms (histograms reuse [`kernels::QuantileSketch`], so
//!    percentiles are deterministic and order-independent). Metrics are
//!    addressed by *static* keys ([`Key`] is `&'static str`) plus an
//!    optional small integer index for per-node / per-replica series, so
//!    the hot path never formats a string; names are materialised only
//!    at snapshot time.
//! 2. **Timeline** — structured spans and instants carrying *virtual*
//!    timestamps ([`simkit`-style] microsecond ticks) plus a wall-clock
//!    annotation, pushed into a bounded ring ([`TimelineBuffer`]) that
//!    drops the oldest events under pressure and counts what it
//!    dropped.
//! 3. **Exporters** — a deterministic JSON metrics snapshot
//!    ([`MetricsSnapshot::to_json`]) and a Chrome `trace_event` file
//!    ([`Registry::export_chrome_trace`]) loadable in Perfetto, where
//!    each [`Track`] (node / replica / kernel / net) becomes a
//!    named thread and span timestamps are virtual microseconds.
//!
//! ## Key naming scheme
//!
//! Keys are dot-separated `subsystem.metric` literals. Two suffix
//! conventions carry meaning:
//!
//! - `*_us` — the value is **virtual** microseconds. Deterministic:
//!   identical across recorded reruns of the same seed.
//! - `*_ns` — the value is **wall-clock** nanoseconds. Never
//!   deterministic; [`MetricsSnapshot::deterministic`] blanks these
//!   values (keeping only the deterministic *count* of samples) so the
//!   testkit invariant can compare recorded reruns bit for bit.
//!
//! Indexed series (`counter_add_at` and friends) render as
//! `key/index` in snapshots — e.g. `net.replica_restarts/3` counts
//! replica 3's restarts.
//!
//! [`simkit`-style]: Track

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod registry;
mod timeline;

pub use registry::{HistogramSnapshot, MetricsSnapshot, Registry};
pub use timeline::{TimelineBuffer, TimelineEvent};

/// A metric or span name. Static by design: the hot path never
/// allocates, and two call sites naming the same literal address the
/// same series.
pub type Key = &'static str;

/// The index value meaning "this series is not indexed".
pub const NO_INDEX: u32 = u32::MAX;

/// Virtual time in microseconds — layout-compatible with
/// `simkit::Time` (obskit sits *below* simkit in the dependency graph,
/// so it spells the alias out rather than importing it).
pub type VirtualUs = u64;

/// What a timeline track is attached to. Each kind becomes one Perfetto
/// process; the index becomes the thread within it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum TrackKind {
    /// A cluster node (service placement target).
    Node,
    /// A replica in the replicated-serving tier.
    Replica,
    /// The event kernel itself.
    Kernel,
    /// The simulated network fabric.
    Net,
}

impl TrackKind {
    /// Stable Perfetto process id for this kind. Ids are never reused,
    /// so traces from different versions stay comparable; 3 is retired.
    pub fn pid(self) -> u32 {
        match self {
            TrackKind::Node => 1,
            TrackKind::Replica => 2,
            TrackKind::Kernel => 4,
            TrackKind::Net => 5,
        }
    }

    /// Human name for the Perfetto process.
    pub fn process_name(self) -> &'static str {
        match self {
            TrackKind::Node => "nodes",
            TrackKind::Replica => "replicas",
            TrackKind::Kernel => "kernel",
            TrackKind::Net => "net",
        }
    }

    /// Human prefix for threads of this kind ("node 3", "replica 0"…).
    pub fn thread_prefix(self) -> &'static str {
        match self {
            TrackKind::Node => "node",
            TrackKind::Replica => "replica",
            TrackKind::Kernel => "kernel",
            TrackKind::Net => "net",
        }
    }
}

/// A timeline track: where a span or instant is drawn. Maps to a
/// (process, thread) pair in the exported Chrome trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Track {
    /// What this track is attached to.
    pub kind: TrackKind,
    /// Which one (node id, replica id…).
    pub index: u32,
}

impl Track {
    /// The track of cluster node `index`.
    pub fn node(index: u32) -> Self {
        Track {
            kind: TrackKind::Node,
            index,
        }
    }

    /// The track of replica `index`.
    pub fn replica(index: u32) -> Self {
        Track {
            kind: TrackKind::Replica,
            index,
        }
    }

    /// The event kernel's own track.
    pub fn kernel() -> Self {
        Track {
            kind: TrackKind::Kernel,
            index: 0,
        }
    }

    /// The simulated network fabric's track.
    pub fn net() -> Self {
        Track {
            kind: TrackKind::Net,
            index: 0,
        }
    }
}

/// The instrumentation seam. Code under observation takes
/// `&dyn Recorder` and calls these methods unconditionally; whether
/// anything happens is the recorder's business. [`NoopRecorder`] makes
/// every call a returned branch — zero allocation, zero clock reads —
/// while [`Registry`] stores metrics and timeline events for later
/// export.
///
/// Hot loops that cannot afford even a virtual call per iteration
/// should check [`Recorder::enabled`] once and batch (see
/// `simkit::Kernel::run_recorded`, which flushes counters in blocks).
pub trait Recorder: Send + Sync {
    /// False when every other method is a no-op — callers may use this
    /// to skip clock reads and batching machinery entirely.
    fn enabled(&self) -> bool;

    /// Add `delta` to the counter `key`, series `index`
    /// ([`NO_INDEX`] for unindexed counters).
    fn counter_add_at(&self, key: Key, index: u32, delta: u64);

    /// Set the gauge `key`, series `index`, to `value`.
    fn gauge_set_at(&self, key: Key, index: u32, value: i64);

    /// Record `value` into the histogram `key`, series `index`.
    fn histogram_record_at(&self, key: Key, index: u32, value: u64);

    /// Record a completed span on `track`: it covered virtual time
    /// `[ts_us, ts_us + dur_us]`. The recorder attaches its own
    /// wall-clock annotation at emission time.
    fn span(&self, track: Track, name: Key, ts_us: VirtualUs, dur_us: u64);

    /// Record a point event on `track` at virtual time `ts_us`.
    fn instant(&self, track: Track, name: Key, ts_us: VirtualUs);

    /// A deterministic metrics snapshot, if this recorder keeps one
    /// (wall-derived values already blanked). `None` for no-ops.
    fn telemetry(&self) -> Option<MetricsSnapshot> {
        None
    }

    /// Add `delta` to the unindexed counter `key`.
    fn counter_add(&self, key: Key, delta: u64) {
        self.counter_add_at(key, NO_INDEX, delta);
    }

    /// Set the unindexed gauge `key` to `value`.
    fn gauge_set(&self, key: Key, value: i64) {
        self.gauge_set_at(key, NO_INDEX, value);
    }

    /// Record `value` into the unindexed histogram `key`.
    fn histogram_record(&self, key: Key, value: u64) {
        self.histogram_record_at(key, NO_INDEX, value);
    }
}

/// The disabled recorder: every method returns immediately. This is
/// what un-instrumented entry points pass down, so "recording off" is
/// one predictable branch per call site.
#[derive(Debug, Clone, Copy, Default)]
pub struct NoopRecorder;

impl Recorder for NoopRecorder {
    fn enabled(&self) -> bool {
        false
    }

    fn counter_add_at(&self, _key: Key, _index: u32, _delta: u64) {}

    fn gauge_set_at(&self, _key: Key, _index: u32, _value: i64) {}

    fn histogram_record_at(&self, _key: Key, _index: u32, _value: u64) {}

    fn span(&self, _track: Track, _name: Key, _ts_us: VirtualUs, _dur_us: u64) {}

    fn instant(&self, _track: Track, _name: Key, _ts_us: VirtualUs) {}
}

/// JSON string escaping for the exporters (names are mostly static
/// identifiers, but the format must stay valid whatever they hold).
pub(crate) fn json_escape(raw: &str) -> String {
    let mut out = String::with_capacity(raw.len());
    for c in raw.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn noop_recorder_is_disabled_and_inert() {
        let noop = NoopRecorder;
        assert!(!noop.enabled());
        noop.counter_add("x.y", 1);
        noop.gauge_set("x.g", -3);
        noop.histogram_record("x.h_us", 12);
        noop.span(Track::node(0), "job", 10, 5);
        noop.instant(Track::kernel(), "tick", 0);
        assert!(noop.telemetry().is_none());
    }

    #[test]
    fn tracks_map_to_stable_pids() {
        assert_eq!(Track::node(3).kind.pid(), 1);
        assert_eq!(Track::replica(1).kind.pid(), 2);
        assert_eq!(Track::kernel().kind.pid(), 4);
        assert_eq!(Track::net().kind.pid(), 5);
    }

    #[test]
    fn json_escape_handles_controls_and_quotes() {
        assert_eq!(json_escape("plain"), "plain");
        assert_eq!(json_escape("a\"b\\c\n"), "a\\\"b\\\\c\\n");
        assert_eq!(json_escape("\u{1}"), "\\u0001");
    }
}
