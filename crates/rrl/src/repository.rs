//! Cluster-scale tuning-model serving.
//!
//! Design time produces one tuning model per `(application, workload)`;
//! production resubmits the same codes over and over. The
//! [`TuningModelRepository`] closes that loop: it stores models keyed by
//! application name plus benchmark fingerprint and serves them to
//! [`crate::RuntimeSession`]s with hit/miss statistics. A model published
//! in-process is stored as the [`TuningModel`] value handed over, so a
//! serve is a clone, never a parse. Only an entry applied off the wire by
//! replication keeps its JSON (the `SCOREP_RRL_TMM_PATH` file format),
//! parsed once on its first serve; a corrupt one fails every serve with
//! [`RuntimeError::Parse`]. When no model
//! matches, a configurable *calibration fallback* (the best-known static
//! configuration, Table V style) is served instead, so an untuned job
//! still runs at a sensible static operating point rather than the
//! platform default.
//!
//! Every stored entry carries a [`ModelProvenance`] record: a
//! monotonically increasing version per application, whether the model
//! came from design-time analysis or from the runtime's
//! [`OnlineTuner`](crate::OnlineTuner), and the per-region energy
//! expectations the [`DriftDetector`](crate::DriftDetector) compares live
//! measurements against. A bounded repository
//! ([`TuningModelRepository::with_capacity`]) evicts the
//! least-recently-used entry when full, and an application-level
//! [`MatchPolicy`] can serve the latest model for an application whose
//! exact workload fingerprint missed — trading exactness for warm starts,
//! with the drift detector guarding against the model having gone stale.
//!
//! All of the above — map, LRU clock, version lineage, stats — lives in
//! the one `TuningModelRepository` struct behind a `&mut self` API; every
//! replica of a [`crate::ReplicaSet`] holds one.

use std::collections::BTreeMap;

use kernels::BenchmarkSpec;
use ptf::{Advice, TuningModel};
use serde::{Deserialize, Serialize};
use simnode::SystemConfig;

use crate::error::RuntimeError;

/// Key under which a tuning model is stored: the application name plus
/// the workload fingerprint of the benchmark it was tuned for.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct ModelKey {
    /// Application name.
    pub application: String,
    /// Workload fingerprint (`BenchmarkSpec::fingerprint`).
    pub fingerprint: u64,
}

impl ModelKey {
    /// The key for a benchmark.
    pub fn of(bench: &BenchmarkSpec) -> Self {
        Self {
            application: bench.name.clone(),
            fingerprint: bench.fingerprint(),
        }
    }
}

/// Where a served model came from.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ModelSource {
    /// A stored design-time tuning model matched the job's application +
    /// workload.
    Repository,
    /// A model the runtime's online tuner calibrated and published back
    /// matched the job's application + workload.
    Online,
    /// No model matched; the calibration fallback configuration was
    /// served as a single-scenario static model.
    Fallback,
    /// A model published on *another* replica and applied here by
    /// anti-entropy sync (see [`crate::net`]). Locally published models
    /// keep their [`ModelSource::Online`] / [`ModelSource::Repository`]
    /// origin; this source marks entries whose publisher was remote.
    Replicated,
}

/// Version and origin of a stored tuning model, plus the per-region
/// energy expectations drift detection compares against.
#[derive(Debug, Clone, PartialEq)]
pub struct ModelProvenance {
    /// Monotonically increasing version per *application*: 1 for the
    /// first publication, bumped on every re-publication — whether the
    /// same workload (a drift-triggered re-calibration) or a changed
    /// workload of a known application.
    pub version: u32,
    /// Whether the model came from design-time analysis
    /// ([`ModelSource::Repository`]) or from the runtime's online tuner
    /// ([`ModelSource::Online`]).
    pub source: ModelSource,
    /// Expected node energy per region instance at the model's chosen
    /// configuration, joules — `(region, energy)`. Empty when the
    /// publisher recorded no expectations (drift detection is then
    /// inactive for jobs served this model).
    pub expected: Vec<(String, f64)>,
}

/// A tuning model served for one job, with its provenance.
#[derive(Debug, Clone)]
pub struct ServedModel {
    /// The model the session will resolve scenarios against.
    pub model: TuningModel,
    /// Whether it came from the repository, the online tuner's published
    /// work, or the fallback.
    pub source: ModelSource,
    /// Version/origin/expectations of the stored entry (`None` for
    /// fallback serves).
    pub provenance: Option<ModelProvenance>,
}

impl ServedModel {
    /// A fallback-served static model with no provenance.
    pub fn fallback(model: TuningModel) -> Self {
        Self {
            model,
            source: ModelSource::Fallback,
            provenance: None,
        }
    }
}

/// Serving statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RepositoryStats {
    /// Lookups answered by a stored model.
    pub hits: u64,
    /// Hits served by application-level matching — the fingerprint
    /// differed but [`MatchPolicy::Application`] served the latest model
    /// for the application anyway (subset of [`RepositoryStats::hits`]).
    pub approx_hits: u64,
    /// Lookups that found no stored model.
    pub misses: u64,
    /// Misses answered by the calibration fallback (the rest errored).
    pub fallbacks: u64,
    /// Lookups that found a stored entry that failed to parse.
    pub errors: u64,
    /// Entries evicted by the LRU capacity bound.
    pub evictions: u64,
    /// Models published (insert/publish/publish_online), including
    /// re-publications that bumped a version.
    pub publications: u64,
}

impl RepositoryStats {
    /// Total lookups served (including ones that errored).
    pub fn lookups(&self) -> u64 {
        self.hits + self.misses + self.errors
    }

    /// Fraction of lookups answered by a stored model (0.0 when no
    /// lookups have happened yet).
    pub fn hit_rate(&self) -> f64 {
        let total = self.lookups();
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }

    /// Component-wise sum — how per-replica statistics aggregate into a
    /// fleet-wide view.
    pub(crate) fn merged(&self, other: &RepositoryStats) -> RepositoryStats {
        RepositoryStats {
            hits: self.hits + other.hits,
            approx_hits: self.approx_hits + other.approx_hits,
            misses: self.misses + other.misses,
            fallbacks: self.fallbacks + other.fallbacks,
            errors: self.errors + other.errors,
            evictions: self.evictions + other.evictions,
            publications: self.publications + other.publications,
        }
    }
}

/// Exact or relaxed key matching for [`TuningModelRepository::serve`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum MatchPolicy {
    /// Serve only a model whose application *and* workload fingerprint
    /// match (the safe default: a changed workload never runs a foreign
    /// model).
    #[default]
    Exact,
    /// On an exact miss, serve the most recently stored model for the
    /// same application even though the fingerprint differs. The served
    /// model may be stale for the new workload — pair this policy with
    /// the [`DriftDetector`](crate::DriftDetector), which flags the
    /// staleness at runtime and triggers a scoped re-calibration.
    Application,
}

/// The model of one stored entry, in the form it arrived in.
#[derive(Debug)]
enum EntryModel {
    /// A model published in-process (`publish`, `publish_online`,
    /// `insert`): stored as handed over. `TuningModel` holds no floats,
    /// so this is exactly what a JSON round trip would serve.
    Parsed(TuningModel),
    /// An entry applied off the wire (`store_replicated`): its JSON,
    /// replaced by the parsed model on the first serve that succeeds. A
    /// corrupt entry stays JSON, so every serve of it fails.
    Wire(String),
}

impl EntryModel {
    /// The served model, parsing a wire entry in place on first use.
    fn get(&mut self) -> Result<&TuningModel, RuntimeError> {
        if let Self::Wire(json) = self {
            *self = Self::Parsed(TuningModel::from_json(json).map_err(RuntimeError::Parse)?);
        }
        match self {
            Self::Parsed(model) => Ok(model),
            Self::Wire(_) => unreachable!("a wire entry is parsed above or returned an error"),
        }
    }
}

/// One stored entry: the model, its provenance, and the LRU recency
/// stamp.
#[derive(Debug)]
struct StoredEntry {
    model: EntryModel,
    provenance: ModelProvenance,
    last_used: u64,
}

/// Stores tuning models and serves them per job.
///
/// Models published in-process are kept as values; an entry replicated
/// in off the wire keeps its JSON (what a `SCOREP_RRL_TMM_PATH` file
/// contains) until its first serve parses it, and a corrupt one surfaces
/// as [`RuntimeError::Parse`] at serve time instead of a panic.
///
/// This is the one repository type: the map, the per-application version
/// lineage, the LRU clock and bound, the fallback, the match policy and
/// the serving statistics, behind a `&mut self` API. A [`crate::Replica`]
/// holds one too, so a replicated fleet serves under the same semantics,
/// capacity bound included.
#[derive(Debug, Default)]
pub struct TuningModelRepository {
    models: BTreeMap<ModelKey, StoredEntry>,
    /// Per-application version high-water mark. Kept separately from the
    /// live entries so LRU eviction can never make a version number
    /// regress.
    versions: BTreeMap<String, u32>,
    fallback: Option<SystemConfig>,
    capacity: Option<usize>,
    policy: MatchPolicy,
    clock: u64,
    stats: RepositoryStats,
}

impl TuningModelRepository {
    /// Empty repository with no fallback and unbounded capacity.
    pub fn new() -> Self {
        Self::default()
    }

    /// Serve `config` as a static single-scenario model whenever no
    /// stored model matches (builder form).
    #[must_use]
    pub fn with_fallback(mut self, config: SystemConfig) -> Self {
        self.fallback = Some(config);
        self
    }

    /// Bound the repository to at most `capacity` stored models; storing
    /// beyond the bound evicts the least-recently-used entry (builder
    /// form). A capacity of zero is treated as unbounded.
    #[must_use]
    pub fn with_capacity(mut self, capacity: usize) -> Self {
        self.capacity = (capacity > 0).then_some(capacity);
        self
    }

    /// Select the serve-time key matching policy (builder form).
    #[must_use]
    pub fn with_match_policy(mut self, policy: MatchPolicy) -> Self {
        self.policy = policy;
        self
    }

    /// Set or replace the calibration fallback configuration.
    pub fn set_fallback(&mut self, config: SystemConfig) {
        self.fallback = Some(config);
    }

    /// The configured fallback, if any.
    pub fn fallback(&self) -> Option<SystemConfig> {
        self.fallback
    }

    /// The configured capacity bound, if any.
    pub fn capacity(&self) -> Option<usize> {
        self.capacity
    }

    /// The serve-time key matching policy.
    pub fn match_policy(&self) -> MatchPolicy {
        self.policy
    }

    /// Store the tuning model a design-time session produced, under the
    /// advice's own application + fingerprint — the design-time → runtime
    /// handoff. The advice's per-region energies become the entry's drift
    /// expectations. Returns the assigned version.
    pub fn publish(&mut self, advice: &Advice) -> u32 {
        let key = ModelKey {
            application: advice.tuning_model.application.clone(),
            fingerprint: advice.benchmark_fingerprint,
        };
        let expected = advice
            .region_best
            .iter()
            .map(|(name, _, energy)| (name.clone(), *energy))
            .collect();
        self.store(
            key,
            EntryModel::Parsed(advice.tuning_model.clone()),
            ModelSource::Repository,
            expected,
        )
    }

    /// Store a model the runtime's online tuner converged for `bench`,
    /// with its measured per-region energy expectations. Returns the
    /// assigned version (1 for a first publication, otherwise the stored
    /// version + 1).
    pub fn publish_online(
        &mut self,
        bench: &BenchmarkSpec,
        model: &TuningModel,
        expected: Vec<(String, f64)>,
    ) -> u32 {
        self.store(
            ModelKey::of(bench),
            EntryModel::Parsed(model.clone()),
            ModelSource::Online,
            expected,
        )
    }

    /// Store a tuning model for a benchmark (replaces any previous entry
    /// for the same workload; no drift expectations are recorded).
    pub fn insert(&mut self, bench: &BenchmarkSpec, model: &TuningModel) {
        self.store(
            ModelKey::of(bench),
            EntryModel::Parsed(model.clone()),
            ModelSource::Repository,
            Vec::new(),
        );
    }

    /// Store a model under the next version of its application lineage.
    fn store(
        &mut self,
        key: ModelKey,
        model: EntryModel,
        source: ModelSource,
        expected: Vec<(String, f64)>,
    ) -> u32 {
        // Versions follow the *application* lineage: re-publishing the
        // same workload bumps it, and so does publishing a model for a
        // changed workload of an already-known application (the drift →
        // re-calibrate → re-publish path). The high-water mark survives
        // LRU eviction of the entries themselves.
        let version = self.versions.get(&key.application).map_or(1, |v| v + 1);
        self.versions.insert(key.application.clone(), version);
        self.put(key, model, source, expected, version);
        version
    }

    /// Insert an entry at the next LRU stamp, count the publication and
    /// evict least-recently-used entries until the capacity bound holds.
    fn put(
        &mut self,
        key: ModelKey,
        model: EntryModel,
        source: ModelSource,
        expected: Vec<(String, f64)>,
        version: u32,
    ) {
        self.clock += 1;
        self.models.insert(
            key,
            StoredEntry {
                model,
                provenance: ModelProvenance {
                    version,
                    source,
                    expected,
                },
                last_used: self.clock,
            },
        );
        self.stats.publications += 1;
        if let Some(cap) = self.capacity {
            while self.models.len() > cap {
                let lru = self
                    .models
                    .iter()
                    .min_by_key(|(_, e)| e.last_used)
                    .map(|(k, _)| k.clone())
                    .expect("len > cap > 0 implies an entry");
                self.models.remove(&lru);
                self.stats.evictions += 1;
            }
        }
    }

    /// Store an entry whose version was assigned *elsewhere* — by the
    /// reconciliation layer of a replica set, which stamps publications
    /// with a per-application version agreed across replicas (see
    /// [`crate::net::reconcile`]). Unlike a local publication the version
    /// is not bumped here; the application's high-water mark only
    /// advances (an out-of-order stale apply can never regress the
    /// lineage). Everything else — LRU clock, capacity bound,
    /// publication counting — behaves exactly like a local store. The
    /// entry keeps `json` as it came off the wire and is parsed on its
    /// first serve.
    pub(crate) fn store_replicated(
        &mut self,
        key: ModelKey,
        json: String,
        source: ModelSource,
        expected: Vec<(String, f64)>,
        version: u32,
    ) {
        let high = self.versions.get(&key.application).copied().unwrap_or(0);
        self.versions
            .insert(key.application.clone(), high.max(version));
        self.put(key, EntryModel::Wire(json), source, expected, version);
    }

    /// Whether a stored model matches this benchmark's workload exactly.
    pub fn contains(&self, bench: &BenchmarkSpec) -> bool {
        self.models.contains_key(&ModelKey::of(bench))
    }

    /// Provenance of the stored entry for this benchmark's exact
    /// workload, if any.
    pub fn provenance(&self, bench: &BenchmarkSpec) -> Option<&ModelProvenance> {
        self.models.get(&ModelKey::of(bench)).map(|e| &e.provenance)
    }

    /// Number of stored models.
    pub fn len(&self) -> usize {
        self.models.len()
    }

    /// True when no models are stored.
    pub fn is_empty(&self) -> bool {
        self.models.is_empty()
    }

    /// Serving statistics so far.
    pub fn stats(&self) -> RepositoryStats {
        self.stats
    }

    /// The stored key `serve` would answer for `bench` under the current
    /// match policy: the exact key, or — under
    /// [`MatchPolicy::Application`] — the most recently stored entry for
    /// the same application.
    fn resolve(&self, bench: &BenchmarkSpec) -> Option<(ModelKey, bool)> {
        let key = ModelKey::of(bench);
        if self.models.contains_key(&key) {
            return Some((key, true));
        }
        if self.policy == MatchPolicy::Application {
            return self
                .models
                .iter()
                .filter(|(k, _)| k.application == key.application)
                .max_by_key(|(_, e)| e.last_used)
                .map(|(k, _)| (k.clone(), false));
        }
        None
    }

    /// Serve a model for a job about to run `bench`.
    ///
    /// A stored model whose key matches (exactly, or at application level
    /// under [`MatchPolicy::Application`]) is returned with its
    /// provenance (a replicated entry is parsed on its first serve); the
    /// reported [`ModelSource`] is the stored entry's origin (design-time
    /// repository or online tuner). On a miss the calibration fallback —
    /// if configured — is wrapped as a zero-scenario model whose phase
    /// configuration is the fallback, so every region of the job runs
    /// statically at that configuration. Without a fallback the miss is a
    /// [`RuntimeError::NoModel`].
    pub fn serve(&mut self, bench: &BenchmarkSpec) -> Result<ServedModel, RuntimeError> {
        if let Some(served) = self.serve_stored(bench)? {
            return Ok(served);
        }
        self.serve_fallback(bench)
    }

    /// Serve the calibration fallback for `bench` without a storage
    /// lookup — the companion to [`Self::serve_stored`] for callers whose
    /// miss handling ultimately falls back anyway (the cluster
    /// scheduler's degraded path after a failed online calibration). The
    /// miss was already recorded by `serve_stored`; this only counts the
    /// fallback serve, never a second miss. Errors with
    /// [`RuntimeError::NoModel`] when no fallback is configured.
    pub fn serve_fallback(&mut self, bench: &BenchmarkSpec) -> Result<ServedModel, RuntimeError> {
        match self.fallback {
            Some(config) => {
                self.stats.fallbacks += 1;
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

    /// Serve a stored model for `bench`, or record a miss and return
    /// `Ok(None)` without consulting the fallback — the serve primitive
    /// for callers with their own miss handling (the cluster scheduler's
    /// online-calibration path). Corrupt entries still surface as
    /// [`RuntimeError::Parse`].
    pub fn serve_stored(
        &mut self,
        bench: &BenchmarkSpec,
    ) -> Result<Option<ServedModel>, RuntimeError> {
        let Some((key, exact)) = self.resolve(bench) else {
            self.stats.misses += 1;
            return Ok(None);
        };
        self.clock += 1;
        let clock = self.clock;
        let entry = self.models.get_mut(&key).expect("resolved key exists");
        entry.last_used = clock;
        let model = match entry.model.get() {
            Ok(model) => model.clone(),
            Err(e) => {
                self.stats.errors += 1;
                return Err(e);
            }
        };
        let source = entry.provenance.source;
        let provenance = Some(entry.provenance.clone());
        self.stats.hits += 1;
        if !exact {
            self.stats.approx_hits += 1;
        }
        Ok(Some(ServedModel {
            model,
            source,
            provenance,
        }))
    }
}

/// The serving surface the cluster event loops need — what
/// [`ClusterScheduler::run`](crate::ClusterScheduler::run) and
/// [`ClusterScheduler::run_service`](crate::ClusterScheduler::run_service)
/// abstract over so the same loop serves from a plain local repository
/// or one replica of a replicated set ([`crate::net::Replica`]), without
/// the loop knowing which.
///
/// Implementations must preserve the local-repository semantics the
/// invariant suite pins down: `serve_stored` records exactly one miss
/// per cold lookup, `publish_online` returns the application-lineage
/// version it assigned, and `stats` reflects every operation.
pub trait RepositoryHandle {
    /// Serve a stored model or the calibration fallback (see
    /// [`TuningModelRepository::serve`]).
    fn serve(&mut self, bench: &BenchmarkSpec) -> Result<ServedModel, RuntimeError>;

    /// Serve a stored model, or record a miss and return `Ok(None)` (see
    /// [`TuningModelRepository::serve_stored`]).
    fn serve_stored(&mut self, bench: &BenchmarkSpec) -> Result<Option<ServedModel>, RuntimeError>;

    /// Serve the calibration fallback without a storage lookup (see
    /// [`TuningModelRepository::serve_fallback`]).
    fn serve_fallback(&mut self, bench: &BenchmarkSpec) -> Result<ServedModel, RuntimeError>;

    /// Store a model the online tuner converged; returns the assigned
    /// application-lineage version (see
    /// [`TuningModelRepository::publish_online`]).
    fn publish_online(
        &mut self,
        bench: &BenchmarkSpec,
        model: &TuningModel,
        expected: Vec<(String, f64)>,
    ) -> u32;

    /// Serving statistics so far.
    fn stats(&self) -> RepositoryStats;
}

impl RepositoryHandle for TuningModelRepository {
    fn serve(&mut self, bench: &BenchmarkSpec) -> Result<ServedModel, RuntimeError> {
        TuningModelRepository::serve(self, bench)
    }

    fn serve_stored(&mut self, bench: &BenchmarkSpec) -> Result<Option<ServedModel>, RuntimeError> {
        TuningModelRepository::serve_stored(self, bench)
    }

    fn serve_fallback(&mut self, bench: &BenchmarkSpec) -> Result<ServedModel, RuntimeError> {
        TuningModelRepository::serve_fallback(self, bench)
    }

    fn publish_online(
        &mut self,
        bench: &BenchmarkSpec,
        model: &TuningModel,
        expected: Vec<(String, f64)>,
    ) -> u32 {
        TuningModelRepository::publish_online(self, bench, model, expected)
    }

    fn stats(&self) -> RepositoryStats {
        TuningModelRepository::stats(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bench() -> BenchmarkSpec {
        kernels::benchmark("miniMD").unwrap()
    }

    fn model() -> TuningModel {
        TuningModel::new(
            "miniMD",
            &[("compute_force".into(), SystemConfig::new(24, 2500, 1500))],
            SystemConfig::new(24, 2500, 1500),
        )
    }

    #[test]
    fn serve_hits_stored_model() {
        let b = bench();
        let mut repo = TuningModelRepository::new();
        repo.insert(&b, &model());
        assert!(repo.contains(&b));
        assert_eq!(repo.len(), 1);
        let served = repo.serve(&b).expect("hit");
        assert_eq!(served.source, ModelSource::Repository);
        assert_eq!(served.model, model());
        let prov = served.provenance.expect("stored entries have provenance");
        assert_eq!(prov.version, 1);
        assert!(prov.expected.is_empty(), "insert records no expectations");
        assert_eq!(repo.stats().hits, 1);
        assert_eq!(repo.stats().misses, 0);
        assert!((repo.stats().hit_rate() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn miss_without_fallback_is_no_model() {
        let b = bench();
        let mut repo = TuningModelRepository::new();
        let err = repo.serve(&b).unwrap_err();
        assert!(matches!(err, RuntimeError::NoModel { .. }));
        assert_eq!(repo.stats().misses, 1);
        assert_eq!(repo.stats().fallbacks, 0);
        assert_eq!(repo.stats().hit_rate(), 0.0);
    }

    #[test]
    fn miss_with_fallback_serves_static_model() {
        let b = bench();
        let fb = SystemConfig::new(24, 2400, 1700);
        let mut repo = TuningModelRepository::new().with_fallback(fb);
        assert_eq!(repo.fallback(), Some(fb));
        let served = repo.serve(&b).expect("fallback");
        assert_eq!(served.source, ModelSource::Fallback);
        assert!(served.provenance.is_none());
        assert_eq!(served.model.scenario_count(), 0);
        assert_eq!(served.model.lookup("anything"), fb);
        assert_eq!(repo.stats().fallbacks, 1);
    }

    #[test]
    fn workload_change_misses() {
        let b = bench();
        let mut repo = TuningModelRepository::new().with_fallback(SystemConfig::taurus_default());
        repo.insert(&b, &model());
        let mut scaled = b.clone();
        scaled.phase_iterations *= 2;
        let served = repo.serve(&scaled).expect("fallback on changed workload");
        assert_eq!(served.source, ModelSource::Fallback);
        assert_eq!(repo.stats().hits, 0);
        assert_eq!(repo.stats().misses, 1);
    }

    #[test]
    fn application_policy_serves_latest_on_fingerprint_miss() {
        let b = bench();
        let mut repo = TuningModelRepository::new().with_match_policy(MatchPolicy::Application);
        repo.insert(&b, &model());
        let mut scaled = b.clone();
        scaled.regions[0].character.instr_per_iter *= 1.5;
        assert!(!repo.contains(&scaled), "fingerprint differs");
        let served = repo.serve(&scaled).expect("application-level match");
        assert_eq!(served.source, ModelSource::Repository);
        assert_eq!(served.model, model());
        let s = repo.stats();
        assert_eq!((s.hits, s.approx_hits, s.misses), (1, 1, 0));
        // A different application still misses.
        let other = kernels::benchmark("Lulesh").unwrap();
        assert!(matches!(
            repo.serve(&other),
            Err(RuntimeError::NoModel { .. })
        ));
        assert_eq!(repo.stats().misses, 1);
    }

    #[test]
    fn corrupt_entry_surfaces_as_parse_error_and_is_counted() {
        let b = bench();
        let mut repo = TuningModelRepository::new();
        repo.models.insert(
            ModelKey::of(&b),
            StoredEntry {
                model: EntryModel::Wire("{not json".into()),
                provenance: ModelProvenance {
                    version: 1,
                    source: ModelSource::Repository,
                    expected: Vec::new(),
                },
                last_used: 0,
            },
        );
        let err = repo.serve(&b).unwrap_err();
        assert!(matches!(err, RuntimeError::Parse(_)));
        let s = repo.stats();
        assert_eq!((s.hits, s.misses, s.errors), (0, 0, 1));
        assert_eq!(s.lookups(), 1, "failed serves still count as traffic");
        assert_eq!(s.hit_rate(), 0.0);
    }

    /// A model applied off the wire is stored as its JSON and parsed on
    /// first serve. A corrupt one never parses, so every serve of it is
    /// a `Parse` error and counts one more error.
    #[test]
    fn corrupt_wire_entry_errors_on_every_serve() {
        let b = bench();
        let mut repo = TuningModelRepository::new().with_fallback(SystemConfig::taurus_default());
        repo.store_replicated(
            ModelKey::of(&b),
            "{not json".into(),
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
    }

    #[test]
    fn stats_hit_rate_mixes() {
        let b = bench();
        let mut repo = TuningModelRepository::new().with_fallback(SystemConfig::taurus_default());
        repo.insert(&b, &model());
        let mut other = b.clone();
        other.name = "renamed".into();
        repo.serve(&b).unwrap();
        repo.serve(&b).unwrap();
        repo.serve(&other).unwrap();
        let s = repo.stats();
        assert_eq!((s.hits, s.misses, s.fallbacks), (2, 1, 1));
        assert_eq!(s.lookups(), 3);
        assert!((s.hit_rate() - 2.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn republication_bumps_the_version() {
        let b = bench();
        let mut repo = TuningModelRepository::new();
        repo.insert(&b, &model());
        let v = repo.publish_online(&b, &model(), vec![("compute_force".into(), 120.0)]);
        assert_eq!(v, 2);
        let prov = repo.provenance(&b).expect("stored");
        assert_eq!(prov.version, 2);
        assert_eq!(prov.source, ModelSource::Online);
        assert_eq!(prov.expected, vec![("compute_force".to_string(), 120.0)]);
        let served = repo.serve(&b).unwrap();
        assert_eq!(served.source, ModelSource::Online);
        assert_eq!(repo.stats().publications, 2);
    }

    #[test]
    fn capacity_bound_evicts_least_recently_used() {
        let mut benches: Vec<BenchmarkSpec> = Vec::new();
        for i in 0..4 {
            let mut b = bench();
            b.name = format!("app-{i}");
            benches.push(b);
        }
        let mut repo = TuningModelRepository::new().with_capacity(3);
        assert_eq!(repo.capacity(), Some(3));
        for b in &benches[..3] {
            repo.insert(b, &model());
        }
        // Touch app-0 so app-1 becomes the LRU entry.
        repo.serve(&benches[0]).unwrap();
        repo.insert(&benches[3], &model());
        assert_eq!(repo.len(), 3);
        assert_eq!(repo.stats().evictions, 1);
        assert!(repo.contains(&benches[0]), "recently served survives");
        assert!(!repo.contains(&benches[1]), "LRU entry evicted");
        assert!(repo.contains(&benches[2]) && repo.contains(&benches[3]));
    }

    #[test]
    fn version_lineage_survives_eviction() {
        let a = bench();
        let mut other = bench();
        other.name = "other-app".into();
        let mut repo = TuningModelRepository::new().with_capacity(1);
        assert_eq!(repo.publish_online(&a, &model(), vec![]), 1);
        assert_eq!(repo.publish_online(&a, &model(), vec![]), 2);
        // `other` evicts every miniMD entry…
        repo.insert(&other, &model());
        assert!(!repo.contains(&a));
        assert_eq!(repo.stats().evictions, 1);
        // …but the application's version lineage never regresses.
        assert_eq!(repo.publish_online(&a, &model(), vec![]), 3);
        assert_eq!(repo.provenance(&a).unwrap().version, 3);
    }

    #[test]
    fn serve_fallback_counts_only_the_fallback() {
        let b = bench();
        let mut repo = TuningModelRepository::new();
        assert!(matches!(
            repo.serve_fallback(&b),
            Err(RuntimeError::NoModel { .. })
        ));
        repo.set_fallback(SystemConfig::new(24, 2400, 1700));
        let served = repo.serve_fallback(&b).expect("fallback configured");
        assert_eq!(served.source, ModelSource::Fallback);
        let s = repo.stats();
        assert_eq!((s.misses, s.fallbacks), (0, 1), "no extra miss recorded");
    }

    #[test]
    fn zero_capacity_means_unbounded() {
        let repo = TuningModelRepository::new().with_capacity(0);
        assert_eq!(repo.capacity(), None);
    }

    #[test]
    fn serve_stored_records_miss_without_fallback_consultation() {
        let b = bench();
        let mut repo = TuningModelRepository::new().with_fallback(SystemConfig::taurus_default());
        assert!(repo
            .serve_stored(&b)
            .expect("miss is not an error")
            .is_none());
        let s = repo.stats();
        assert_eq!((s.misses, s.fallbacks), (1, 0));
    }

    /// Regression test for the miss-accounting invariant under eviction
    /// pressure: every logical lookup is counted exactly once in
    /// `lookups()` no matter how it was answered, a miss answered by
    /// `serve_fallback` after `serve_stored` is *one* miss + *one*
    /// fallback (never a double-counted miss), and the eviction counter
    /// advances once per displaced entry.
    #[test]
    fn stats_stay_consistent_under_eviction_pressure() {
        let mut benches: Vec<BenchmarkSpec> = (0..6)
            .map(|i| {
                let mut b = bench();
                b.name = format!("churn-{i}");
                b
            })
            .collect();
        benches.push(bench()); // one more distinct application
        let mut repo = TuningModelRepository::new()
            .with_capacity(2)
            .with_fallback(SystemConfig::taurus_default());

        // Publish all seven apps through a 2-entry bound: 5 evictions.
        for b in &benches {
            repo.insert(b, &model());
        }
        assert_eq!(repo.len(), 2);
        assert_eq!(repo.stats().evictions, 5);
        assert_eq!(repo.stats().publications, 7);

        // Serve all seven: the two survivors hit; the five evicted miss
        // and fall back. The explicit miss-then-fallback split path must
        // count exactly like the combined `serve`.
        for (i, b) in benches.iter().enumerate() {
            if i % 2 == 0 {
                repo.serve(b).unwrap();
            } else if repo.serve_stored(b).unwrap().is_none() {
                repo.serve_fallback(b).unwrap();
            }
        }
        let s = repo.stats();
        assert_eq!(s.hits, 2, "the two retained entries hit");
        assert_eq!(s.misses, 5, "one miss per evicted entry, never double");
        assert_eq!(s.fallbacks, 5, "every miss answered by the fallback");
        assert_eq!(s.lookups(), 7, "one lookup per job");
        assert!((s.hit_rate() - 2.0 / 7.0).abs() < 1e-12);

        // A fresh application displaces the LRU entry; re-publishing an
        // already-stored key replaces in place (replacement is not
        // displacement, so the eviction counter must not advance).
        let mut fresh = bench();
        fresh.name = "churn-fresh".into();
        repo.insert(&fresh, &model());
        assert_eq!(repo.stats().evictions, 5 + 1, "insert displaced the LRU");
        repo.insert(&fresh, &model());
        assert_eq!(
            repo.stats().evictions,
            6,
            "re-publishing a stored key evicts nothing"
        );
    }
}
