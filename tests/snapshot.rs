//! Concurrency stress tests for the lock-striped shared repository.
//!
//! Publishes and serves of one shard are serialised by its lock, so
//! these tests race writers publishing version-bumped models against
//! readers serving by [`MatchPolicy::Application`] and assert what that
//! serialisation promises:
//!
//! * readers only ever observe *fully published* models — a served
//!   model always equals the exact model some writer published, never a
//!   torn intermediate;
//! * application-lineage versions never regress — per writer on the
//!   publish side, and per reader on the serve side: the most recently
//!   used entry is always the latest publication, because a serve only
//!   re-stamps the entry that already holds the newest recency;
//! * the global and per-shard statistics stay double-entry equal after
//!   the dust settles.
//!
//! The seeded test drives the race through [`testkit::SpinPermits`], so
//! the interleaving of guarded steps is a pure function of the seed: a
//! failure names the seed, and re-running the test replays the same
//! schedule.

use std::sync::{Arc, Barrier, Mutex};
use std::thread;

use ptf::TuningModel;
use rrl::{MatchPolicy, SharedRepository};
use simnode::SystemConfig;
use testkit::{taurus_fallback, toy_benchmark, SpinPermits};

const WRITERS: usize = 3;
const READERS: usize = 4;
const WRITES_PER_WRITER: usize = 12;
const READS_PER_READER: usize = 20;

/// The configuration writer `w` publishes at its `k`-th step — a pure
/// function of `(w, k)`, so readers can rebuild the expected model from
/// the label embedded in a served model.
fn config_for(w: usize, k: usize) -> SystemConfig {
    SystemConfig::new(24, 2000 + (w * 100 + k * 10) as u32, 1500 + (k * 20) as u32)
}

/// The model writer `w` publishes at its `k`-th step. The single region
/// name `w{w}-k{k}` tags the model with its origin; a reader decodes the
/// tag and compares the whole served model against this function's
/// output — any torn or partially visible publish fails the equality.
fn model_for(w: usize, k: usize) -> TuningModel {
    TuningModel::new(
        "stress",
        &[(format!("w{w}-k{k}"), config_for(w, k))],
        config_for(w, k),
    )
}

/// Decode the `w{w}-k{k}` origin tag of a served model.
fn decode_tag(tag: &str) -> Option<(usize, usize)> {
    let rest = tag.strip_prefix('w')?;
    let (w, k) = rest.split_once("-k")?;
    Some((w.parse().ok()?, k.parse().ok()?))
}

/// Assert a served model is exactly what some writer published.
fn assert_fully_published(model: &TuningModel, context: &str) {
    assert_eq!(
        model.scenarios.len(),
        1,
        "{context}: published models hold one scenario, got {model:?}"
    );
    let tag = model.scenarios[0]
        .regions
        .first()
        .unwrap_or_else(|| panic!("{context}: scenario without a region: {model:?}"));
    let (w, k) = decode_tag(tag)
        .unwrap_or_else(|| panic!("{context}: unparseable origin tag {tag:?} in {model:?}"));
    assert_eq!(
        *model,
        model_for(w, k),
        "{context}: torn publish — served model does not match what writer {w} published at step {k}"
    );
}

/// Run the writer/reader race once. When `schedule` is `Some(seed)`, all
/// repository steps are serialised through a [`SpinPermits`] schedule
/// derived from the seed (deterministic, replayable interleavings); when
/// `None`, the threads free-run (true parallelism, same assertions).
fn race(schedule: Option<u64>) {
    let repo = Arc::new(
        SharedRepository::new(4)
            .with_match_policy(MatchPolicy::Application)
            .with_fallback(taurus_fallback()),
    );
    let permits = schedule.map(|seed| Arc::new(SpinPermits::new(seed, WRITERS + READERS)));
    let context = match schedule {
        Some(seed) => format!("SpinPermits seed {seed:#x}"),
        None => "free-running".to_string(),
    };
    let start = Arc::new(Barrier::new(WRITERS + READERS));
    let published = Arc::new(Mutex::new(Vec::new()));
    let served_hits = Arc::new(Mutex::new((0u64, 0u64)));

    thread::scope(|scope| {
        for w in 0..WRITERS {
            let repo = Arc::clone(&repo);
            let permits = permits.clone();
            let published = Arc::clone(&published);
            let start = Arc::clone(&start);
            let context = context.clone();
            scope.spawn(move || {
                // Same application, distinct per-writer fingerprint: all
                // writers bump one shared lineage.
                let bench = toy_benchmark("stress", 1.0 + w as f64, 4);
                start.wait();
                let mut last = 0u32;
                let mut mine = Vec::with_capacity(WRITES_PER_WRITER);
                for k in 0..WRITES_PER_WRITER {
                    let turn = permits.as_ref().map(|p| p.gate(w));
                    let version = repo.publish_online(&bench, &model_for(w, k), Vec::new());
                    drop(turn);
                    assert!(
                        version > last,
                        "{context}: writer {w} saw its lineage regress: {version} after {last}"
                    );
                    last = version;
                    mine.push(version);
                }
                if let Some(p) = &permits {
                    p.retire(w);
                }
                published.lock().unwrap().extend(mine);
            });
        }
        for r in 0..READERS {
            let me = WRITERS + r;
            let repo = Arc::clone(&repo);
            let permits = permits.clone();
            let served_hits = Arc::clone(&served_hits);
            let start = Arc::clone(&start);
            let context = context.clone();
            scope.spawn(move || {
                // A fingerprint nobody publishes: every successful serve
                // goes through the Application-policy approximate match.
                let probe = toy_benchmark("stress", 900.0 + r as f64, 4);
                start.wait();
                let mut high = 0u32;
                let (mut hits, mut misses) = (0u64, 0u64);
                for _ in 0..READS_PER_READER {
                    let turn = permits.as_ref().map(|p| p.gate(me));
                    let outcome = repo.serve_stored(&probe);
                    drop(turn);
                    match outcome {
                        Ok(Some(served)) => {
                            assert_fully_published(&served.model, &context);
                            let version = served
                                .provenance
                                .as_ref()
                                .unwrap_or_else(|| {
                                    panic!("{context}: stored serve without provenance")
                                })
                                .version;
                            assert!(
                                version >= high,
                                "{context}: reader {r} high-water regressed: \
                                 {version} after {high}"
                            );
                            let bound = (WRITERS * WRITES_PER_WRITER) as u32;
                            assert!(
                                (1..=bound).contains(&version),
                                "{context}: version {version} outside the published range"
                            );
                            high = high.max(version);
                            hits += 1;
                        }
                        Ok(None) => misses += 1,
                        Err(e) => panic!("{context}: reader {r} serve errored: {e:?}"),
                    }
                }
                if let Some(p) = &permits {
                    p.retire(me);
                }
                let mut totals = served_hits.lock().unwrap();
                totals.0 += hits;
                totals.1 += misses;
            });
        }
    });

    let total_published = (WRITERS * WRITES_PER_WRITER) as u64;
    let mut versions = published.lock().unwrap().clone();
    versions.sort_unstable();
    assert_eq!(
        versions,
        (1..=total_published as u32).collect::<Vec<_>>(),
        "{context}: the shared lineage must hand out every version exactly once"
    );

    let (hits, misses) = *served_hits.lock().unwrap();
    let stats = repo.stats();
    assert_eq!(
        stats,
        repo.shard_stats(),
        "{context}: global and per-shard stats diverged"
    );
    assert_eq!(stats.publications, total_published, "{context}");
    assert_eq!(
        stats.hits + stats.misses,
        (READERS * READS_PER_READER) as u64,
        "{context}: every reader lookup counts exactly once"
    );
    assert_eq!(stats.hits, hits, "{context}");
    assert_eq!(stats.misses, misses, "{context}");
    assert_eq!(
        stats.approx_hits, stats.hits,
        "{context}: probe fingerprints are never stored, so every hit is approximate"
    );
    assert_eq!(stats.errors, 0, "{context}");
    assert_eq!(
        stats.evictions, 0,
        "{context}: no capacity bound configured"
    );

    // After the race the most recent entry is the last one published, so
    // a fresh serve observes the lineage high-water mark.
    let final_serve = repo
        .serve_stored(&toy_benchmark("stress", 999.0, 4))
        .expect("final serve")
        .expect("models were published");
    assert_eq!(
        final_serve.provenance.expect("stored provenance").version,
        total_published as u32,
        "{context}: final serve must observe the lineage high-water mark"
    );
}

/// Deterministic interleavings: the same seed replays the same schedule,
/// so any failure message naming the seed is a complete repro line.
#[test]
fn seeded_schedules_serve_only_fully_published_snapshots() {
    for seed in [0xA11CE, 0x5EED5, 0xF1E1D, 0xCAB1E] {
        race(Some(seed));
    }
}

/// Free-running race: true parallelism, checking the same invariants as
/// the seeded schedules (untorn models, unique lineage versions,
/// non-decreasing reader high-water marks, exact stats accounting).
#[test]
fn free_running_race_serves_only_fully_published_snapshots() {
    for _ in 0..4 {
        race(None);
    }
}
