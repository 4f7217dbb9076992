//! Snapshot-serving concurrent tuning-model repository.
//!
//! [`SharedRepository`] is the `&self` counterpart of
//! [`TuningModelRepository`](crate::TuningModelRepository), partitioned
//! across N shards by a hash of the *application* component of the
//! [`ModelKey`]. Hashing the application (not the full key) keeps
//! everything that must stay transactionally consistent shard-local: the
//! per-application version high-water mark, and the candidate set
//! [`MatchPolicy::Application`] resolves against.
//!
//! Since PR 9 the **read path is lock-free**: each shard publishes an
//! immutable [`snapcell::SnapCell`] snapshot of its model map, and
//! `serve`/`serve_stored`/`serve_fallback` (including application-level
//! resolution) run entirely against that snapshot — no lock on a hit.
//! Entry recency (`last_used`) and the shard's LRU clock are atomics
//! shared between the snapshot and its writer, so serve-time touches
//! keep feeding eviction order exactly as the locked path did. Writers
//! (publish / insert / evict / version bump) stay serialized per shard
//! behind a mutex and copy-on-publish a fresh snapshot; see
//! `docs/ARCHITECTURE.md` § "Snapshot serving" for the memory-ordering
//! argument.
//!
//! Serving statistics are kept as double-entry lock-free aggregates:
//! every operation folds the exact [`RepositoryStats`] delta it caused
//! into its shard's atomic tally *and* the repository-wide one, so
//! [`SharedRepository::stats`] equals [`SharedRepository::shard_stats`]
//! at any quiescent point by construction. With a telemetry recorder
//! attached, read operations record a `repo.snapshot_age` histogram
//! (how many publications the served snapshot trailed the shard's
//! latest — 0 unless a publish raced the load) in place of the retired
//! `repo.lock_wait_ns` lock-acquisition timing.
//!
//! The pre-snapshot `RwLock`-striped implementation survives behind
//! [`SharedRepository::new_locked`] as the differential-testing oracle:
//! testkit invariant 8 re-runs every scenario on both backends and
//! asserts per-job bit-identity.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

use kernels::BenchmarkSpec;
use obskit::Recorder;
use parking_lot::RwLock;
use ptf::Advice;
use ptf::TuningModel;
use simnode::SystemConfig;
use snapcell::SnapCell;

use crate::error::RuntimeError;
use crate::repository::{
    MatchPolicy, ModelKey, ModelProvenance, ModelSource, RepositoryHandle, RepositoryStats,
    ServedModel, Shard,
};

/// Lock-free mirror of [`RepositoryStats`], one atomic per field.
#[derive(Debug, Default)]
struct AtomicStats {
    hits: AtomicU64,
    approx_hits: AtomicU64,
    misses: AtomicU64,
    fallbacks: AtomicU64,
    errors: AtomicU64,
    evictions: AtomicU64,
    publications: AtomicU64,
}

impl AtomicStats {
    /// Fold one operation's shard-stat delta into the aggregates.
    fn add(&self, delta: &RepositoryStats) {
        // Relaxed is enough: the counters are monotonic event tallies
        // with no ordering relationship to the model data they describe.
        self.hits.fetch_add(delta.hits, Ordering::Relaxed);
        self.approx_hits
            .fetch_add(delta.approx_hits, Ordering::Relaxed);
        self.misses.fetch_add(delta.misses, Ordering::Relaxed);
        self.fallbacks.fetch_add(delta.fallbacks, Ordering::Relaxed);
        self.errors.fetch_add(delta.errors, Ordering::Relaxed);
        self.evictions.fetch_add(delta.evictions, Ordering::Relaxed);
        self.publications
            .fetch_add(delta.publications, Ordering::Relaxed);
    }

    fn snapshot(&self) -> RepositoryStats {
        RepositoryStats {
            hits: self.hits.load(Ordering::Relaxed),
            approx_hits: self.approx_hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            fallbacks: self.fallbacks.load(Ordering::Relaxed),
            errors: self.errors.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            publications: self.publications.load(Ordering::Relaxed),
        }
    }
}

/// `Mutex::lock` that shrugs off poisoning (a writer that panicked must
/// not wedge every later publish).
fn lock_ignore_poison<T>(mutex: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    match mutex.lock() {
        Ok(g) => g,
        Err(poisoned) => poisoned.into_inner(),
    }
}

/// The shard an application's entries live in: FNV-1a over the
/// application name, modulo the shard count.
fn shard_index(application: &str, shards: usize) -> usize {
    (kernels::fnv1a(application.as_bytes()) % shards as u64) as usize
}

/// One stored entry as the snapshot path shares it between the shard
/// writer and every published snapshot: the serialized model, a
/// race-filled parse memo, the provenance, and an *atomic* recency stamp
/// so lock-free serves keep feeding LRU order.
#[derive(Debug)]
struct ViewEntry {
    json: String,
    /// Memoized parse of `json`, filled on the first successful serve.
    /// Racing readers may parse twice; `OnceLock` keeps exactly one
    /// result. Corrupt entries never fill it, so they surface
    /// [`RuntimeError::Parse`] on every serve — same as the locked path.
    parsed: OnceLock<TuningModel>,
    provenance: ModelProvenance,
    last_used: AtomicU64,
}

/// The immutable per-shard snapshot readers serve from: the model map
/// (sharing [`ViewEntry`]s with the writer via `Arc`) plus the
/// read-path configuration.
#[derive(Debug, Default)]
struct ShardView {
    models: BTreeMap<ModelKey, Arc<ViewEntry>>,
    fallback: Option<SystemConfig>,
    policy: MatchPolicy,
}

/// The writer-side authoritative state of one snapshot shard. Only ever
/// touched under [`SnapShard::writer`]; every mutation republishes a
/// fresh [`ShardView`] before the lock drops.
#[derive(Debug, Default)]
struct SnapWriter {
    models: BTreeMap<ModelKey, Arc<ViewEntry>>,
    /// Per-application version high-water mark — kept apart from the
    /// live entries so LRU eviction can never regress a version.
    versions: BTreeMap<String, u32>,
    fallback: Option<SystemConfig>,
    capacity: Option<usize>,
    policy: MatchPolicy,
}

/// One snapshot-serving shard: serialized writer state, the published
/// read snapshot, the shard's per-op statistics truth, and the shared
/// LRU clock both paths stamp recency from.
#[derive(Debug)]
struct SnapShard {
    writer: Mutex<SnapWriter>,
    view: SnapCell<ShardView>,
    stats: AtomicStats,
    clock: AtomicU64,
}

impl Default for SnapShard {
    fn default() -> Self {
        Self {
            writer: Mutex::new(SnapWriter::default()),
            view: SnapCell::new(ShardView::default()),
            stats: AtomicStats::default(),
            clock: AtomicU64::new(0),
        }
    }
}

impl SnapShard {
    /// Advance the shared LRU clock and return the new stamp.
    fn tick(&self) -> u64 {
        self.clock.fetch_add(1, Ordering::Relaxed) + 1
    }

    /// Republish the writer's current state as a fresh snapshot. Called
    /// with the writer mutex held, so publishes are serialized and every
    /// snapshot is a fully-constructed view.
    fn republish(&self, writer: &SnapWriter) {
        self.view.publish(ShardView {
            models: writer.models.clone(),
            fallback: writer.fallback,
            policy: writer.policy,
        });
    }

    /// The snapshot-path twin of [`Shard::store`]: assign the
    /// application-lineage version, install the entry, enforce the LRU
    /// bound, republish. Returns the version and the stat delta.
    fn store(
        &self,
        key: ModelKey,
        json: String,
        source: ModelSource,
        expected: Vec<(String, f64)>,
    ) -> (u32, RepositoryStats) {
        let mut writer = lock_ignore_poison(&self.writer);
        let version = writer.versions.get(&key.application).map_or(1, |v| v + 1);
        writer.versions.insert(key.application.clone(), version);
        self.insert_entry(&mut writer, key, json, source, expected, version);
        let delta = RepositoryStats {
            publications: 1,
            evictions: Self::enforce_capacity(&mut writer),
            ..RepositoryStats::default()
        };
        self.republish(&writer);
        (version, delta)
    }

    /// The snapshot-path twin of [`Shard::store_replicated`]: install at
    /// exactly `version`; the application's high-water mark only ever
    /// advances.
    fn store_replicated(
        &self,
        key: ModelKey,
        json: String,
        source: ModelSource,
        expected: Vec<(String, f64)>,
        version: u32,
    ) -> RepositoryStats {
        let mut writer = lock_ignore_poison(&self.writer);
        let high = writer.versions.get(&key.application).copied().unwrap_or(0);
        writer
            .versions
            .insert(key.application.clone(), high.max(version));
        self.insert_entry(&mut writer, key, json, source, expected, version);
        let delta = RepositoryStats {
            publications: 1,
            evictions: Self::enforce_capacity(&mut writer),
            ..RepositoryStats::default()
        };
        self.republish(&writer);
        delta
    }

    fn insert_entry(
        &self,
        writer: &mut SnapWriter,
        key: ModelKey,
        json: String,
        source: ModelSource,
        expected: Vec<(String, f64)>,
        version: u32,
    ) {
        let entry = Arc::new(ViewEntry {
            json,
            parsed: OnceLock::new(),
            provenance: ModelProvenance {
                version,
                source,
                expected,
            },
            last_used: AtomicU64::new(self.tick()),
        });
        writer.models.insert(key, entry);
    }

    /// Evict least-recently-used entries until the capacity bound holds;
    /// returns how many were displaced. Reads the entries' atomic
    /// recency stamps under the writer mutex — a racing serve can bump a
    /// stamp mid-scan, which at worst spares the entry this round
    /// (approximate LRU, same tolerance the invariant suite grants the
    /// locked path under declared eviction pressure).
    fn enforce_capacity(writer: &mut SnapWriter) -> u64 {
        let mut evicted = 0;
        if let Some(cap) = writer.capacity {
            while writer.models.len() > cap {
                let lru = writer
                    .models
                    .iter()
                    .min_by_key(|(_, e)| e.last_used.load(Ordering::Relaxed))
                    .map(|(k, _)| k.clone())
                    .expect("len > cap > 0 implies an entry");
                writer.models.remove(&lru);
                evicted += 1;
            }
        }
        evicted
    }

    /// The stored entry `serve` would answer for `bench` under the
    /// snapshot's match policy — exact key, or the most recently used
    /// same-application entry under [`MatchPolicy::Application`].
    fn resolve<'a>(
        view: &'a ShardView,
        bench: &BenchmarkSpec,
    ) -> Option<(&'a Arc<ViewEntry>, bool)> {
        let key = ModelKey::of(bench);
        if let Some(entry) = view.models.get(&key) {
            return Some((entry, true));
        }
        if view.policy == MatchPolicy::Application {
            return view
                .models
                .iter()
                .filter(|(k, _)| k.application == key.application)
                .max_by_key(|(_, e)| e.last_used.load(Ordering::Relaxed))
                .map(|(_, e)| (e, false));
        }
        None
    }

    /// Wait-free [`Shard::serve_stored`] against `view`: no lock taken,
    /// identical counting and error semantics.
    fn serve_stored(
        &self,
        view: &ShardView,
        bench: &BenchmarkSpec,
        delta: &mut RepositoryStats,
    ) -> Result<Option<ServedModel>, RuntimeError> {
        let Some((entry, exact)) = Self::resolve(view, bench) else {
            delta.misses += 1;
            return Ok(None);
        };
        entry.last_used.store(self.tick(), Ordering::Relaxed);
        let model = match entry.parsed.get() {
            Some(model) => model.clone(),
            None => match TuningModel::from_json(&entry.json) {
                // Two racing first serves may both parse; `get_or_init`
                // keeps one result and the loser's copy is dropped.
                Ok(model) => entry.parsed.get_or_init(|| model).clone(),
                Err(e) => {
                    delta.errors += 1;
                    return Err(RuntimeError::Parse(e));
                }
            },
        };
        delta.hits += 1;
        if !exact {
            delta.approx_hits += 1;
        }
        Ok(Some(ServedModel {
            model,
            source: entry.provenance.source,
            provenance: Some(entry.provenance.clone()),
        }))
    }

    /// Wait-free [`Shard::serve_fallback`] against `view`.
    fn serve_fallback(
        view: &ShardView,
        bench: &BenchmarkSpec,
        delta: &mut RepositoryStats,
    ) -> Result<ServedModel, RuntimeError> {
        match view.fallback {
            Some(config) => {
                delta.fallbacks += 1;
                Ok(ServedModel::fallback(TuningModel::new(
                    &bench.name,
                    &[],
                    config,
                )))
            }
            None => Err(RuntimeError::NoModel {
                application: bench.name.clone(),
                fingerprint: bench.fingerprint(),
            }),
        }
    }
}

/// The two interchangeable shard backends. [`Backend::Snapshot`] is the
/// production path; [`Backend::Locked`] is the pre-PR-9 `RwLock`-striped
/// implementation kept as the differential-testing oracle.
enum Backend {
    Snapshot(Vec<SnapShard>),
    Locked(Vec<RwLock<Shard>>),
}

/// A sharded, internally synchronized tuning-model repository for
/// concurrent serving.
///
/// Semantics are identical to
/// [`TuningModelRepository`](crate::TuningModelRepository) — the shards
/// mirror the same [`Shard`](crate::repository) state machine — but
/// every method takes `&self`, so one `SharedRepository` can serve any
/// number of threads at once, and the entire read path (`serve`, `serve_stored`,
/// `serve_fallback`, `contains`, `provenance`, `len`) is lock-free
/// against per-shard immutable snapshots. Differences a single-threaded
/// caller can observe:
///
/// * **Capacity is per shard.** [`SharedRepository::with_capacity`]
///   divides the requested total evenly (rounding up), and each shard
///   LRU-bounds independently; a skewed application-hash distribution can
///   therefore evict before the global total is reached.
/// * **Version lineage and application matching are exact** — entries of
///   one application always share a shard.
/// * **Statistics are lock-free.** [`SharedRepository::stats`] reads the
///   atomic aggregates; they equal the sum of the per-shard totals at any
///   quiescent point.
pub struct SharedRepository {
    backend: Backend,
    stats: AtomicStats,
    /// The requested global capacity (before per-shard division).
    capacity: Option<usize>,
    /// Telemetry sink for per-shard serving counters and read-path
    /// snapshot-age timing; `None` costs one branch per operation.
    recorder: Option<Arc<dyn Recorder>>,
}

impl std::fmt::Debug for SharedRepository {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SharedRepository")
            .field("shards", &self.shard_count())
            .field("len", &self.len())
            .field("capacity", &self.capacity)
            .field("stats", &self.stats.snapshot())
            .finish()
    }
}

impl SharedRepository {
    /// An empty repository striped across `shards` snapshot segments
    /// (clamped to ≥ 1), with no fallback and unbounded capacity.
    pub fn new(shards: usize) -> Self {
        let shards = shards.max(1);
        Self {
            backend: Backend::Snapshot((0..shards).map(|_| SnapShard::default()).collect()),
            stats: AtomicStats::default(),
            capacity: None,
            recorder: None,
        }
    }

    /// The pre-snapshot `RwLock`-striped backend, kept **only** as the
    /// differential-testing oracle: testkit invariant 8 re-runs every
    /// scenario against this constructor and asserts per-job
    /// bit-identity with the snapshot path. Not a production surface.
    #[doc(hidden)]
    pub fn new_locked(shards: usize) -> Self {
        let shards = shards.max(1);
        Self {
            backend: Backend::Locked((0..shards).map(|_| RwLock::new(Shard::default())).collect()),
            stats: AtomicStats::default(),
            capacity: None,
            recorder: None,
        }
    }

    /// Serve `config` as a static single-scenario model whenever no
    /// stored model matches (builder form).
    #[must_use]
    pub fn with_fallback(self, config: SystemConfig) -> Self {
        match &self.backend {
            Backend::Snapshot(shards) => {
                for shard in shards {
                    let mut writer = lock_ignore_poison(&shard.writer);
                    writer.fallback = Some(config);
                    shard.republish(&writer);
                }
            }
            Backend::Locked(shards) => {
                for shard in shards {
                    shard.write().fallback = Some(config);
                }
            }
        }
        self
    }

    /// Bound the repository to roughly `capacity` stored models in total:
    /// each shard is bounded to `capacity.div_ceil(shards)` entries and
    /// evicts its own least-recently-used entry independently (builder
    /// form). Zero is treated as unbounded.
    #[must_use]
    pub fn with_capacity(mut self, capacity: usize) -> Self {
        self.capacity = (capacity > 0).then_some(capacity);
        let per_shard = self.capacity.map(|c| c.div_ceil(self.shard_count()));
        match &self.backend {
            Backend::Snapshot(shards) => {
                for shard in shards {
                    lock_ignore_poison(&shard.writer).capacity = per_shard;
                }
            }
            Backend::Locked(shards) => {
                for shard in shards {
                    shard.write().capacity = per_shard;
                }
            }
        }
        self
    }

    /// Select the serve-time key matching policy (builder form).
    #[must_use]
    pub fn with_match_policy(self, policy: MatchPolicy) -> Self {
        match &self.backend {
            Backend::Snapshot(shards) => {
                for shard in shards {
                    let mut writer = lock_ignore_poison(&shard.writer);
                    writer.policy = policy;
                    shard.republish(&writer);
                }
            }
            Backend::Locked(shards) => {
                for shard in shards {
                    shard.write().policy = policy;
                }
            }
        }
        self
    }

    /// Attach a telemetry recorder (builder form). Every repository
    /// operation then emits per-shard hit/miss/fallback/eviction/
    /// publication counters (series `repo.hits/<shard>` etc.), and every
    /// read records a `repo.snapshot_age` histogram — how many
    /// publications the served snapshot trailed the shard's latest
    /// (0 unless a publish raced the load). `Arc` rather than a borrow
    /// because the repository may be shared across threads and outlives
    /// any one run.
    #[must_use]
    pub fn with_recorder(mut self, recorder: Arc<dyn Recorder>) -> Self {
        self.recorder = Some(recorder);
        self
    }

    /// Number of shard segments.
    pub fn shard_count(&self) -> usize {
        match &self.backend {
            Backend::Snapshot(shards) => shards.len(),
            Backend::Locked(shards) => shards.len(),
        }
    }

    /// The requested global capacity bound, if any.
    pub fn capacity(&self) -> Option<usize> {
        self.capacity
    }

    /// The configured fallback, if any.
    pub fn fallback(&self) -> Option<SystemConfig> {
        match &self.backend {
            Backend::Snapshot(shards) => shards[0].view.load().fallback,
            Backend::Locked(shards) => shards[0].read().fallback,
        }
    }

    /// The serve-time key matching policy.
    pub fn match_policy(&self) -> MatchPolicy {
        match &self.backend {
            Backend::Snapshot(shards) => shards[0].view.load().policy,
            Backend::Locked(shards) => shards[0].read().policy,
        }
    }

    /// Emit the per-shard serving counters for one operation's delta.
    fn record_counters(recorder: &dyn Recorder, idx: usize, delta: &RepositoryStats) {
        let shard = idx as u32;
        for (key, value) in [
            ("repo.hits", delta.hits + delta.approx_hits),
            ("repo.misses", delta.misses),
            ("repo.fallbacks", delta.fallbacks),
            ("repo.evictions", delta.evictions),
            ("repo.publications", delta.publications),
        ] {
            if value > 0 {
                recorder.counter_add_at(key, shard, value);
            }
        }
    }

    /// Run a lock-free read `op` against `application`'s shard snapshot,
    /// then fold the stat delta `op` reported into both the shard's and
    /// the repository's lock-free tallies. Routing every read through
    /// here (and every mutation through [`Self::snap_write`]) is what
    /// keeps the two statistics views equal by construction.
    fn snap_read<T>(
        &self,
        shards: &[SnapShard],
        application: &str,
        op: impl FnOnce(&SnapShard, &ShardView, &mut RepositoryStats) -> T,
    ) -> T {
        let idx = shard_index(application, shards.len());
        let shard = &shards[idx];
        let snap = shard.view.load();
        let mut delta = RepositoryStats::default();
        let out = op(shard, &snap, &mut delta);
        shard.stats.add(&delta);
        self.stats.add(&delta);
        if let Some(recorder) = self.recorder.as_deref().filter(|r| r.enabled()) {
            let age = shard.view.version().saturating_sub(snap.version());
            recorder.histogram_record("repo.snapshot_age", age);
            Self::record_counters(recorder, idx, &delta);
        }
        out
    }

    /// Run a serialized write `op` against `application`'s shard (the op
    /// takes the shard writer mutex itself and republishes the snapshot
    /// before returning), then fold its stat delta into both tallies.
    fn snap_write<T>(
        &self,
        shards: &[SnapShard],
        application: &str,
        op: impl FnOnce(&SnapShard) -> (T, RepositoryStats),
    ) -> T {
        let idx = shard_index(application, shards.len());
        let (out, delta) = op(&shards[idx]);
        shards[idx].stats.add(&delta);
        self.stats.add(&delta);
        if let Some(recorder) = self.recorder.as_deref().filter(|r| r.enabled()) {
            Self::record_counters(recorder, idx, &delta);
        }
        out
    }

    /// Locked-backend dispatch: run `op` under the write lock of
    /// `application`'s shard, then fold the operation's stat delta into
    /// the lock-free aggregates.
    fn with_shard<T>(&self, application: &str, op: impl FnOnce(&mut Shard) -> T) -> T {
        let Backend::Locked(shards) = &self.backend else {
            unreachable!("with_shard is the locked backend's dispatch");
        };
        let idx = shard_index(application, shards.len());
        let mut shard = shards[idx].write();
        let before = shard.stats;
        let out = op(&mut shard);
        let after = shard.stats;
        drop(shard);
        let delta = RepositoryStats {
            hits: after.hits - before.hits,
            approx_hits: after.approx_hits - before.approx_hits,
            misses: after.misses - before.misses,
            fallbacks: after.fallbacks - before.fallbacks,
            errors: after.errors - before.errors,
            evictions: after.evictions - before.evictions,
            publications: after.publications - before.publications,
        };
        if let Some(recorder) = self.recorder.as_deref().filter(|r| r.enabled()) {
            Self::record_counters(recorder, idx, &delta);
        }
        self.stats.add(&delta);
        out
    }

    /// Store a design-time advice's tuning model (see
    /// [`TuningModelRepository::publish`](crate::TuningModelRepository::publish)).
    /// Returns the assigned application-lineage version.
    pub fn publish(&self, advice: &Advice) -> u32 {
        let application = advice.tuning_model.application.clone();
        match &self.backend {
            Backend::Snapshot(shards) => {
                let key = ModelKey {
                    application: application.clone(),
                    fingerprint: advice.benchmark_fingerprint,
                };
                let expected = advice
                    .region_best
                    .iter()
                    .map(|(name, _, energy)| (name.clone(), *energy))
                    .collect();
                self.snap_write(shards, &application, |shard| {
                    shard.store(
                        key,
                        advice.tuning_model.to_json(),
                        ModelSource::Repository,
                        expected,
                    )
                })
            }
            Backend::Locked(_) => self.with_shard(&application, |shard| shard.publish(advice)),
        }
    }

    /// Store a model the online tuner converged (see
    /// [`TuningModelRepository::publish_online`](crate::TuningModelRepository::publish_online)).
    pub fn publish_online(
        &self,
        bench: &BenchmarkSpec,
        model: &TuningModel,
        expected: Vec<(String, f64)>,
    ) -> u32 {
        match &self.backend {
            Backend::Snapshot(shards) => self.snap_write(shards, &bench.name, |shard| {
                shard.store(
                    ModelKey::of(bench),
                    model.to_json(),
                    ModelSource::Online,
                    expected,
                )
            }),
            Backend::Locked(_) => self.with_shard(&bench.name, |shard| {
                shard.publish_online(bench, model, expected)
            }),
        }
    }

    /// Store an entry whose application-lineage version was assigned by
    /// the replication layer (see [`crate::net::reconcile`]): the entry
    /// is installed at exactly `version` and the application's
    /// high-water mark only ever advances. `source` distinguishes a
    /// locally published model ([`ModelSource::Online`])
    /// from one applied off the wire
    /// ([`ModelSource::Replicated`]).
    pub fn publish_replicated(
        &self,
        application: &str,
        fingerprint: u64,
        json: &str,
        source: crate::repository::ModelSource,
        expected: Vec<(String, f64)>,
        version: u32,
    ) {
        let key = ModelKey {
            application: application.to_string(),
            fingerprint,
        };
        match &self.backend {
            Backend::Snapshot(shards) => self.snap_write(shards, application, |shard| {
                (
                    (),
                    shard.store_replicated(key, json.to_string(), source, expected, version),
                )
            }),
            Backend::Locked(_) => {
                self.with_shard(application, |shard| {
                    shard.store_replicated(key, json.to_string(), source, expected, version)
                });
            }
        }
    }

    /// Store a tuning model for a benchmark (replaces any previous entry
    /// for the same workload; no drift expectations are recorded).
    pub fn insert(&self, bench: &BenchmarkSpec, model: &TuningModel) {
        match &self.backend {
            Backend::Snapshot(shards) => {
                self.snap_write(shards, &bench.name, |shard| {
                    shard.store(
                        ModelKey::of(bench),
                        model.to_json(),
                        ModelSource::Repository,
                        Vec::new(),
                    )
                });
            }
            Backend::Locked(_) => {
                self.with_shard(&bench.name, |shard| {
                    shard.store(
                        ModelKey::of(bench),
                        model.to_json(),
                        ModelSource::Repository,
                        Vec::new(),
                    )
                });
            }
        }
    }

    /// Serve a stored model or the calibration fallback (see
    /// [`TuningModelRepository::serve`](crate::TuningModelRepository::serve)).
    /// On the snapshot backend this is lock-free: the whole lookup —
    /// resolution, parse-memo fill, fallback — runs against the shard's
    /// immutable snapshot without taking any lock.
    pub fn serve(&self, bench: &BenchmarkSpec) -> Result<ServedModel, RuntimeError> {
        match &self.backend {
            Backend::Snapshot(shards) => {
                self.snap_read(shards, &bench.name, |shard, view, delta| {
                    match shard.serve_stored(view, bench, delta)? {
                        Some(served) => Ok(served),
                        None => SnapShard::serve_fallback(view, bench, delta),
                    }
                })
            }
            Backend::Locked(_) => self.with_shard(&bench.name, |shard| shard.serve(bench)),
        }
    }

    /// Serve a stored model, or record a miss and return `Ok(None)` (see
    /// [`TuningModelRepository::serve_stored`](crate::TuningModelRepository::serve_stored)).
    pub fn serve_stored(&self, bench: &BenchmarkSpec) -> Result<Option<ServedModel>, RuntimeError> {
        match &self.backend {
            Backend::Snapshot(shards) => {
                self.snap_read(shards, &bench.name, |shard, view, delta| {
                    shard.serve_stored(view, bench, delta)
                })
            }
            Backend::Locked(_) => self.with_shard(&bench.name, |shard| shard.serve_stored(bench)),
        }
    }

    /// Serve the calibration fallback without a storage lookup (see
    /// [`TuningModelRepository::serve_fallback`](crate::TuningModelRepository::serve_fallback)).
    pub fn serve_fallback(&self, bench: &BenchmarkSpec) -> Result<ServedModel, RuntimeError> {
        match &self.backend {
            Backend::Snapshot(shards) => self.snap_read(shards, &bench.name, |_, view, delta| {
                SnapShard::serve_fallback(view, bench, delta)
            }),
            Backend::Locked(_) => self.with_shard(&bench.name, |shard| shard.serve_fallback(bench)),
        }
    }

    /// Whether a stored model matches this benchmark's workload exactly.
    pub fn contains(&self, bench: &BenchmarkSpec) -> bool {
        match &self.backend {
            Backend::Snapshot(shards) => {
                let idx = shard_index(&bench.name, shards.len());
                shards[idx]
                    .view
                    .load()
                    .models
                    .contains_key(&ModelKey::of(bench))
            }
            Backend::Locked(shards) => {
                let idx = shard_index(&bench.name, shards.len());
                shards[idx].read().contains(bench)
            }
        }
    }

    /// Provenance of the stored entry for this benchmark's exact
    /// workload, if any (cloned out of the shard — a lock or snapshot
    /// cannot be held across the return).
    pub fn provenance(&self, bench: &BenchmarkSpec) -> Option<ModelProvenance> {
        match &self.backend {
            Backend::Snapshot(shards) => {
                let idx = shard_index(&bench.name, shards.len());
                shards[idx]
                    .view
                    .load()
                    .models
                    .get(&ModelKey::of(bench))
                    .map(|e| e.provenance.clone())
            }
            Backend::Locked(shards) => {
                let idx = shard_index(&bench.name, shards.len());
                shards[idx].read().provenance(bench).cloned()
            }
        }
    }

    /// Number of stored models across all shards.
    pub fn len(&self) -> usize {
        match &self.backend {
            Backend::Snapshot(shards) => shards.iter().map(|s| s.view.load().models.len()).sum(),
            Backend::Locked(shards) => shards.iter().map(|s| s.read().models.len()).sum(),
        }
    }

    /// True when no models are stored.
    pub fn is_empty(&self) -> bool {
        match &self.backend {
            Backend::Snapshot(shards) => shards.iter().all(|s| s.view.load().models.is_empty()),
            Backend::Locked(shards) => shards.iter().all(|s| s.read().models.is_empty()),
        }
    }

    /// Serving statistics so far — read lock-free from the atomic
    /// aggregates.
    pub fn stats(&self) -> RepositoryStats {
        self.stats.snapshot()
    }

    /// The sum of the per-shard statistics — the per-shard source of
    /// truth the repository-wide [`SharedRepository::stats`] mirrors.
    /// Exposed so tests (and monitoring) can assert the two views agree;
    /// they do at any point with no operation in flight.
    pub fn shard_stats(&self) -> RepositoryStats {
        match &self.backend {
            Backend::Snapshot(shards) => shards
                .iter()
                .map(|s| s.stats.snapshot())
                .fold(RepositoryStats::default(), |acc, s| acc.merged(&s)),
            Backend::Locked(shards) => shards
                .iter()
                .map(|s| s.read().stats)
                .fold(RepositoryStats::default(), |acc, s| acc.merged(&s)),
        }
    }
}

/// The sweep loop ([`ClusterScheduler::run`](crate::ClusterScheduler::run))
/// serves from a shared repository exactly as from a local one: every
/// method forwards to its `&self` twin.
impl RepositoryHandle for SharedRepository {
    fn serve(&mut self, bench: &BenchmarkSpec) -> Result<ServedModel, RuntimeError> {
        SharedRepository::serve(self, bench)
    }

    fn serve_stored(&mut self, bench: &BenchmarkSpec) -> Result<Option<ServedModel>, RuntimeError> {
        SharedRepository::serve_stored(self, bench)
    }

    fn serve_fallback(&mut self, bench: &BenchmarkSpec) -> Result<ServedModel, RuntimeError> {
        SharedRepository::serve_fallback(self, bench)
    }

    fn publish_online(
        &mut self,
        bench: &BenchmarkSpec,
        model: &TuningModel,
        expected: Vec<(String, f64)>,
    ) -> u32 {
        SharedRepository::publish_online(self, bench, model, expected)
    }

    fn stats(&self) -> RepositoryStats {
        SharedRepository::stats(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::repository::ModelSource;

    fn bench_named(name: &str) -> BenchmarkSpec {
        let mut b = kernels::benchmark("miniMD").unwrap();
        b.name = name.to_string();
        b
    }

    fn model(app: &str) -> TuningModel {
        TuningModel::new(
            app,
            &[("compute_force".into(), SystemConfig::new(24, 2500, 1500))],
            SystemConfig::new(24, 2500, 1500),
        )
    }

    #[test]
    fn shared_serve_matches_single_threaded_semantics() {
        let repo = SharedRepository::new(4).with_fallback(SystemConfig::new(24, 2400, 1700));
        let b = bench_named("app");
        repo.insert(&b, &model("app"));
        assert!(repo.contains(&b));
        assert_eq!(repo.len(), 1);

        let served = repo.serve(&b).expect("hit");
        assert_eq!(served.source, ModelSource::Repository);
        assert_eq!(served.model, model("app"));

        let other = bench_named("unknown");
        let served = repo.serve(&other).expect("fallback");
        assert_eq!(served.source, ModelSource::Fallback);

        let s = repo.stats();
        assert_eq!((s.hits, s.misses, s.fallbacks), (1, 1, 1));
        assert_eq!(s, repo.shard_stats(), "atomic view mirrors shard truth");
    }

    #[test]
    fn versions_are_per_application_across_shards() {
        let repo = SharedRepository::new(8);
        let a = bench_named("alpha");
        let b = bench_named("beta");
        assert_eq!(repo.publish_online(&a, &model("alpha"), vec![]), 1);
        assert_eq!(repo.publish_online(&b, &model("beta"), vec![]), 1);
        assert_eq!(repo.publish_online(&a, &model("alpha"), vec![]), 2);
        assert_eq!(repo.provenance(&a).unwrap().version, 2);
        assert_eq!(repo.provenance(&b).unwrap().version, 1);
    }

    #[test]
    fn concurrent_serving_counts_every_lookup_exactly_once() {
        // The double-count regression, concurrent edition: N threads ×
        // hits + misses + publications under eviction pressure, and at
        // the end the atomic aggregate must equal the per-shard truth
        // and the exact expected totals.
        let repo = SharedRepository::new(4)
            .with_fallback(SystemConfig::taurus_default())
            .with_capacity(8);
        let stored = bench_named("hot-app");
        repo.insert(&stored, &model("hot-app"));

        const THREADS: usize = 8;
        const PER_THREAD: u64 = 50;
        std::thread::scope(|s| {
            for t in 0..THREADS {
                let repo = &repo;
                let stored = &stored;
                s.spawn(move || {
                    let cold = bench_named(&format!("cold-{t}"));
                    for i in 0..PER_THREAD {
                        repo.serve(stored).expect("hit");
                        repo.serve(&cold).expect("fallback");
                        if i % 10 == 0 {
                            let churn = bench_named(&format!("churn-{t}-{i}"));
                            repo.insert(&churn, &model("churn"));
                        }
                    }
                });
            }
        });

        let s = repo.stats();
        let expected_each = (THREADS as u64) * PER_THREAD;
        assert_eq!(s.hits, expected_each, "one hit per stored serve");
        assert_eq!(s.misses, expected_each, "one miss per cold serve");
        assert_eq!(s.fallbacks, expected_each);
        assert_eq!(s.lookups(), 2 * expected_each);
        assert_eq!(s.publications, 1 + THREADS as u64 * 5);
        assert!(s.evictions > 0, "churn must exceed the bound");
        assert_eq!(s, repo.shard_stats(), "no drift between the two views");
        assert!(repo.len() <= 8 * repo.shard_count(), "per-shard bounds");
    }

    #[test]
    fn per_shard_capacity_divides_the_total() {
        let repo = SharedRepository::new(4).with_capacity(8);
        assert_eq!(repo.capacity(), Some(8));
        // 2 per shard: flooding one shard's applications evicts there
        // while other shards stay unaffected.
        for i in 0..32 {
            let b = bench_named(&format!("app-{i}"));
            repo.insert(&b, &model("x"));
        }
        assert!(repo.len() <= 8, "per-shard bound enforced: {}", repo.len());
        assert!(repo.stats().evictions >= 24);
    }
}
