//! Lock-striped concurrent tuning-model repository.
//!
//! [`SharedRepository`] is the `&self` counterpart of
//! [`TuningModelRepository`](crate::TuningModelRepository), partitioned
//! across N shards by a hash of the *application* component of the
//! [`ModelKey`]. Hashing the application (not the full key) keeps
//! everything that must stay transactionally consistent shard-local: the
//! per-application version high-water mark, and the candidate set
//! [`MatchPolicy::Application`] resolves against.
//!
//! Each shard is the repository's own `Shard` behind a
//! `parking_lot::RwLock`, so both repository types share one
//! implementation of store, evict, resolve and serve. A serve takes its
//! shard's *write* lock, because it stamps the entry's LRU recency; the
//! read-only queries (`contains`, `provenance`, `len`, ...) take read
//! locks. See `docs/ARCHITECTURE.md` § "Shard locking" for the
//! measurement that chose the lock over a lock-free snapshot read path.
//!
//! Serving statistics are kept double-entry: every operation folds the
//! exact [`RepositoryStats`] delta it caused into its shard's tally
//! *and* the repository-wide atomic one, so [`SharedRepository::stats`]
//! equals [`SharedRepository::shard_stats`] at any quiescent point by
//! construction.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use kernels::BenchmarkSpec;
use obskit::Recorder;
use parking_lot::RwLock;
use ptf::Advice;
use ptf::TuningModel;
use simnode::SystemConfig;

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

/// The shard an application's entries live in: FNV-1a over the
/// application name, modulo the shard count.
fn shard_index(application: &str, shards: usize) -> usize {
    (kernels::fnv1a(application.as_bytes()) % shards as u64) as usize
}

/// A sharded, internally synchronized tuning-model repository for
/// concurrent serving.
///
/// Semantics are identical to
/// [`TuningModelRepository`](crate::TuningModelRepository) — every shard
/// is the same [`Shard`](crate::repository) state machine — but every
/// method takes `&self`, so one `SharedRepository` can serve any number
/// of threads at once; operations on different shards never contend.
/// Differences a single-threaded caller can observe:
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
    shards: Vec<RwLock<Shard>>,
    stats: AtomicStats,
    /// The requested global capacity (before per-shard division).
    capacity: Option<usize>,
    /// Telemetry sink for per-shard serving counters; `None` costs one
    /// branch per operation.
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
    /// An empty repository striped across `shards` lock segments
    /// (clamped to ≥ 1), with no fallback and unbounded capacity.
    pub fn new(shards: usize) -> Self {
        Self {
            shards: (0..shards.max(1))
                .map(|_| RwLock::new(Shard::default()))
                .collect(),
            stats: AtomicStats::default(),
            capacity: None,
            recorder: None,
        }
    }

    /// Serve `config` as a static single-scenario model whenever no
    /// stored model matches (builder form).
    #[must_use]
    pub fn with_fallback(self, config: SystemConfig) -> Self {
        for shard in &self.shards {
            shard.write().fallback = Some(config);
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
        for shard in &self.shards {
            shard.write().capacity = per_shard;
        }
        self
    }

    /// Select the serve-time key matching policy (builder form).
    #[must_use]
    pub fn with_match_policy(self, policy: MatchPolicy) -> Self {
        for shard in &self.shards {
            shard.write().policy = policy;
        }
        self
    }

    /// Attach a telemetry recorder (builder form). Every repository
    /// operation then emits per-shard hit/miss/fallback/eviction/
    /// publication counters (series `repo.hits/<shard>` etc.). `Arc`
    /// rather than a borrow because the repository may be shared across
    /// threads and outlives any one run.
    #[must_use]
    pub fn with_recorder(mut self, recorder: Arc<dyn Recorder>) -> Self {
        self.recorder = Some(recorder);
        self
    }

    /// Number of shard segments.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// The requested global capacity bound, if any.
    pub fn capacity(&self) -> Option<usize> {
        self.capacity
    }

    /// The configured fallback, if any.
    pub fn fallback(&self) -> Option<SystemConfig> {
        self.shards[0].read().fallback
    }

    /// The serve-time key matching policy.
    pub fn match_policy(&self) -> MatchPolicy {
        self.shards[0].read().policy
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

    /// The lock guarding `application`'s shard.
    fn shard(&self, application: &str) -> &RwLock<Shard> {
        &self.shards[shard_index(application, self.shards.len())]
    }

    /// Run `op` under the write lock of `application`'s shard, then fold
    /// the stat delta it caused into the atomic aggregates. Routing every
    /// counted operation through here is what keeps the two statistics
    /// views equal by construction.
    fn with_shard<T>(&self, application: &str, op: impl FnOnce(&mut Shard) -> T) -> T {
        let idx = shard_index(application, self.shards.len());
        let mut shard = self.shards[idx].write();
        let before = shard.stats;
        let out = op(&mut shard);
        let delta = shard.stats.since(&before);
        drop(shard);
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
        self.with_shard(&advice.tuning_model.application, |shard| {
            shard.publish(advice)
        })
    }

    /// Store a model the online tuner converged (see
    /// [`TuningModelRepository::publish_online`](crate::TuningModelRepository::publish_online)).
    pub fn publish_online(
        &self,
        bench: &BenchmarkSpec,
        model: &TuningModel,
        expected: Vec<(String, f64)>,
    ) -> u32 {
        self.with_shard(&bench.name, |shard| {
            shard.publish_online(bench, model, expected)
        })
    }

    /// Store an entry whose application-lineage version was assigned by
    /// the replication layer (see [`crate::net::reconcile`]): the entry
    /// is installed at exactly `version` and the application's
    /// high-water mark only ever advances. It keeps `json` as shipped and
    /// is parsed on its first serve; a corrupt one fails every serve with
    /// [`RuntimeError::Parse`]. `source` distinguishes a
    /// locally published model ([`ModelSource::Online`])
    /// from one applied off the wire
    /// ([`ModelSource::Replicated`]).
    pub fn publish_replicated(
        &self,
        application: &str,
        fingerprint: u64,
        json: &str,
        source: ModelSource,
        expected: Vec<(String, f64)>,
        version: u32,
    ) {
        let key = ModelKey {
            application: application.to_string(),
            fingerprint,
        };
        self.with_shard(application, |shard| {
            shard.store_replicated(key, json.to_string(), source, expected, version)
        });
    }

    /// Store a tuning model for a benchmark (replaces any previous entry
    /// for the same workload; no drift expectations are recorded).
    pub fn insert(&self, bench: &BenchmarkSpec, model: &TuningModel) {
        self.with_shard(&bench.name, |shard| shard.insert(bench, model));
    }

    /// Serve a stored model or the calibration fallback (see
    /// [`TuningModelRepository::serve`](crate::TuningModelRepository::serve)).
    pub fn serve(&self, bench: &BenchmarkSpec) -> Result<ServedModel, RuntimeError> {
        self.with_shard(&bench.name, |shard| shard.serve(bench))
    }

    /// Serve a stored model, or record a miss and return `Ok(None)` (see
    /// [`TuningModelRepository::serve_stored`](crate::TuningModelRepository::serve_stored)).
    pub fn serve_stored(&self, bench: &BenchmarkSpec) -> Result<Option<ServedModel>, RuntimeError> {
        self.with_shard(&bench.name, |shard| shard.serve_stored(bench))
    }

    /// Serve the calibration fallback without a storage lookup (see
    /// [`TuningModelRepository::serve_fallback`](crate::TuningModelRepository::serve_fallback)).
    pub fn serve_fallback(&self, bench: &BenchmarkSpec) -> Result<ServedModel, RuntimeError> {
        self.with_shard(&bench.name, |shard| shard.serve_fallback(bench))
    }

    /// Whether a stored model matches this benchmark's workload exactly.
    pub fn contains(&self, bench: &BenchmarkSpec) -> bool {
        self.shard(&bench.name).read().contains(bench)
    }

    /// Provenance of the stored entry for this benchmark's exact
    /// workload, if any (cloned out of the shard — a lock cannot be held
    /// across the return).
    pub fn provenance(&self, bench: &BenchmarkSpec) -> Option<ModelProvenance> {
        self.shard(&bench.name).read().provenance(bench).cloned()
    }

    /// Number of stored models across all shards.
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| s.read().models.len()).sum()
    }

    /// True when no models are stored.
    pub fn is_empty(&self) -> bool {
        self.shards.iter().all(|s| s.read().models.is_empty())
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
        self.shards
            .iter()
            .map(|s| s.read().stats)
            .fold(RepositoryStats::default(), |acc, s| acc.merged(&s))
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

    /// The shared twin of the repository's corrupt-wire-entry test: a
    /// corrupt replicated entry is a `Parse` error on every serve, and
    /// each one counts in both statistics views.
    #[test]
    fn corrupt_wire_entry_errors_on_every_serve() {
        let b = bench_named("app");
        let repo = SharedRepository::new(4).with_fallback(SystemConfig::taurus_default());
        repo.publish_replicated(
            "app",
            b.fingerprint(),
            "{not json",
            ModelSource::Replicated,
            Vec::new(),
            1,
        );
        for serves in 1..=3 {
            assert!(matches!(repo.serve(&b), Err(RuntimeError::Parse(_))));
            let s = repo.stats();
            assert_eq!((s.hits, s.misses, s.errors), (0, 0, serves));
        }
        assert!(matches!(repo.serve_stored(&b), Err(RuntimeError::Parse(_))));
        assert_eq!(repo.stats().errors, 4);
        assert_eq!(repo.stats(), repo.shard_stats());
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
        // and exactly what the threads were served. Churn can evict
        // "hot-app" itself (two churn inserts into its shard with no
        // serve in between make it the LRU entry), so its serves are
        // counted as observed rather than assumed to hit.
        let repo = SharedRepository::new(4)
            .with_fallback(SystemConfig::taurus_default())
            .with_capacity(8);
        let stored = bench_named("hot-app");
        repo.insert(&stored, &model("hot-app"));

        const THREADS: usize = 8;
        const PER_THREAD: u64 = 50;
        let hot_hits: u64 = std::thread::scope(|s| {
            let handles: Vec<_> = (0..THREADS)
                .map(|t| {
                    let repo = &repo;
                    let stored = &stored;
                    s.spawn(move || {
                        let cold = bench_named(&format!("cold-{t}"));
                        let mut hits = 0;
                        for i in 0..PER_THREAD {
                            let hot = repo.serve(stored).expect("hit or fallback");
                            if hot.source != ModelSource::Fallback {
                                hits += 1;
                            }
                            let cold = repo.serve(&cold).expect("fallback");
                            assert_eq!(cold.source, ModelSource::Fallback);
                            if i % 10 == 0 {
                                let churn = bench_named(&format!("churn-{t}-{i}"));
                                repo.insert(&churn, &model("churn"));
                            }
                        }
                        hits
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).sum()
        });

        let s = repo.stats();
        let expected_each = (THREADS as u64) * PER_THREAD;
        assert!(hot_hits > 0, "hot-app is stored before the threads start");
        assert_eq!(s.hits, hot_hits, "one hit per served stored model");
        assert_eq!(
            s.misses,
            2 * expected_each - hot_hits,
            "one miss per cold serve and per evicted hot serve"
        );
        assert_eq!(s.fallbacks, s.misses, "every miss answered by the fallback");
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
