//! The invariant catalog: what every scenario run must satisfy.
//!
//! [`check`] runs a scenario through both event loops and verifies, in
//! order (the numbers stay stable across retirements: invariant 1 checked
//! a threaded loop, 2 and 3 a lock-striped repository type, and 8 a
//! snapshot read backend, none of which exist any more):
//!
//! 4. **Version integrity** — within one run, no application is assigned
//!    a duplicate version, and the sweep run assigns versions in
//!    strictly increasing submission order; the per-application
//!    high-water mark never regresses, even under eviction.
//! 5. **Event core** — the discrete-event service run quiesces with an
//!    empty heap and a monotone virtual clock on *every* scenario, and
//!    on the overlapping scenario class (zero-interarrival trace, no
//!    churn, no eviction pressure — where the service loop and the
//!    sweep loop are defined to coincide) its per-job accounting is
//!    bit-identical to the sweep over the local repository.
//! 6. **Replication** (scenarios carrying a
//!    [`NetPlan`](crate::scenario::NetPlan)) — the replicated execution
//!    is bit-identical across reruns, every replica converges to the
//!    same model map (a successful `converge()` already means every live
//!    link is settled), and each application's winner is the
//!    stamp-maximal publication (highest version, highest publisher id
//!    on ties) — no matter which messages the plan dropped, duplicated,
//!    delayed or partitioned away.
//! 7. **Observability** — attaching an `obskit` recorder to the service
//!    run changes nothing observable (per-job accounting and summary are
//!    bit-identical to the unrecorded run, telemetry snapshot aside), and
//!    two recorded runs of the same scenario emit identical virtual-time
//!    event sequences and deterministic metric snapshots.
//! 9. **In-loop replication** (scenarios whose `NetPlan` sets a gossip
//!    cadence) — the replicated *service* run, gossiping between job
//!    events with replica crash/restart and read-repair live, ends
//!    converged with the net idle and **no trailing batch pass**; it is
//!    bit-identical across reruns; every replica holds the same map; a
//!    batch `converge()` run afterwards as the oracle finds nothing left
//!    to send or apply; and (churn-free schedules) each application's
//!    winner is the stamp-maximal publication.
//!
//! A failed invariant comes back as a [`Failure`] whose `Display`
//! includes a `testkit::replay("…")` line — paste it into a test (or
//! feed it to [`crate::replay`]) to re-run the exact scenario.

use std::collections::BTreeMap;
use std::fmt;

use rrl::{ClusterReport, Stamp};

use crate::runner::{run_scenario, ReplicatedRun, ScenarioRun};
use crate::scenario::Scenario;

/// One violated invariant.
#[derive(Debug, Clone, PartialEq)]
pub enum Violation {
    /// A replay line did not parse, or a job of a scenario names a
    /// workload the scenario does not carry.
    Malformed {
        /// Parse or validation error detail.
        detail: String,
    },
    /// An event loop refused the scenario outright.
    RunError {
        /// Which loop errored.
        event_loop: &'static str,
        /// The runtime error it returned.
        error: String,
    },
    /// Version numbering broke (duplicate, or out of submission order).
    VersionIntegrity {
        /// The offending application.
        application: String,
        /// What broke.
        detail: String,
    },
    /// After convergence, two replicas held different model maps.
    ReplicaDivergence {
        /// Which replicas disagree, and on what.
        detail: String,
    },
    /// A replica converged on an entry that is not the stamp-maximal
    /// publication for its application.
    WrongWinner {
        /// The application whose winner is wrong.
        application: String,
        /// Expected vs observed stamps.
        detail: String,
    },
    /// Re-executing the replicated scenario produced a different
    /// outcome — replication must be a pure function of the scenario.
    ReplicationNondeterminism,
    /// The discrete-event service run broke a kernel guarantee: it
    /// failed to quiesce with an empty heap, its virtual clock
    /// regressed, or (on the overlapping scenario class) its per-job
    /// accounting diverged from the sequential sweep.
    EventCore {
        /// What broke, with rendered sweep vs event-loop values where
        /// the divergence is per-field.
        detail: String,
    },
    /// Telemetry recording broke determinism: a recorded service run
    /// diverged from the unrecorded run (recording must never perturb
    /// execution), or two recorded runs of the same scenario produced
    /// different virtual-time event sequences or metric snapshots.
    Observability {
        /// What diverged, with rendered values where per-field.
        detail: String,
    },
    /// The in-loop replicated service run broke its contract: it ended
    /// unconverged (or with the net not idle), a rerun diverged, the
    /// replicas' maps disagreed, a trailing batch `converge()` oracle
    /// still had entries to apply, or a converged winner was not the
    /// stamp-maximal publication.
    InloopReplication {
        /// What broke, with rendered values where per-field.
        detail: String,
    },
}

impl Violation {
    /// A stable short label — what the shrinker compares to make sure a
    /// reduced scenario still fails *the same way*.
    pub fn kind(&self) -> &'static str {
        match self {
            Violation::Malformed { .. } => "malformed",
            Violation::RunError { .. } => "run-error",
            Violation::VersionIntegrity { .. } => "version-integrity",
            Violation::ReplicaDivergence { .. } => "replica-divergence",
            Violation::WrongWinner { .. } => "wrong-winner",
            Violation::ReplicationNondeterminism => "replication-nondeterminism",
            Violation::EventCore { .. } => "event-core",
            Violation::Observability { .. } => "observability",
            Violation::InloopReplication { .. } => "inloop-replication",
        }
    }
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Violation::Malformed { detail } => write!(f, "malformed scenario: {detail}"),
            Violation::RunError { event_loop, error } => {
                write!(f, "{event_loop} event loop errored: {error}")
            }
            Violation::VersionIntegrity {
                application,
                detail,
            } => write!(
                f,
                "version integrity violated for `{application}`: {detail}"
            ),
            Violation::ReplicaDivergence { detail } => {
                write!(f, "replicas diverged after convergence: {detail}")
            }
            Violation::WrongWinner {
                application,
                detail,
            } => write!(
                f,
                "wrong reconciliation winner for `{application}`: {detail}"
            ),
            Violation::ReplicationNondeterminism => write!(
                f,
                "replicated execution is not deterministic: a rerun of the same \
                 scenario produced a different outcome"
            ),
            Violation::EventCore { detail } => {
                write!(f, "event-core invariant violated: {detail}")
            }
            Violation::Observability { detail } => {
                write!(f, "observability invariant violated: {detail}")
            }
            Violation::InloopReplication { detail } => {
                write!(f, "in-loop replication invariant violated: {detail}")
            }
        }
    }
}

/// A violation bound to the scenario that produced it, with the one-line
/// repro.
#[derive(Debug, Clone)]
pub struct Failure {
    /// What broke.
    pub violation: Violation,
    /// The scenario's replay line ([`Scenario::to_replay`]).
    pub replay: String,
}

impl fmt::Display for Failure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "scenario invariant violated: {}", self.violation)?;
        write!(f, "reproduce with: testkit::replay(r#\"{}\"#)", self.replay)
    }
}

impl std::error::Error for Failure {}

/// Bit identity of two values through their `Debug` renderings. f64's
/// `Debug` round-trips exactly, renders every NaN alike and keeps the
/// sign of zero, so unlike `==` this holds for NaN against NaN (a 0/0
/// saving computed identically in both runs) and fails for 0.0 against
/// −0.0.
pub(crate) fn bit_identical<T: std::fmt::Debug + ?Sized>(a: &T, b: &T) -> bool {
    format!("{a:?}") == format!("{b:?}")
}

fn fail(scenario: &Scenario, violation: Violation) -> Box<Failure> {
    Box::new(Failure {
        violation,
        replay: scenario.to_replay(),
    })
}

/// Run `scenario` and check the full invariant catalog (see the module
/// docs). Returns the run for further scenario-specific assertions.
pub fn check(scenario: &Scenario) -> Result<ScenarioRun, Box<Failure>> {
    let run = run_scenario(scenario).map_err(|v| fail(scenario, v))?;
    version_integrity(&run.sequential).map_err(|v| fail(scenario, v))?;
    event_core(scenario, &run).map_err(|v| fail(scenario, v))?;
    observability(&run).map_err(|v| fail(scenario, v))?;
    if let Some(replicated) = &run.replicated {
        replication(replicated).map_err(|v| fail(scenario, v))?;
    }
    if let Some(inloop) = &run.inloop {
        inloop_replication(scenario, inloop).map_err(|v| fail(scenario, v))?;
    }
    Ok(run)
}

/// Invariant 4: per-application version assignment is duplicate-free and
/// strictly increasing in submission order. LRU eviction must never hand
/// a version out twice — the high-water mark survives the entries.
fn version_integrity(report: &ClusterReport) -> Result<(), Violation> {
    let mut per_app: BTreeMap<&str, Vec<u32>> = BTreeMap::new();
    for job in &report.jobs {
        if let Some(version) = job.published_version {
            per_app.entry(&job.benchmark).or_default().push(version);
        }
    }
    for (application, versions) in per_app {
        let mut sorted = versions.clone();
        sorted.sort_unstable();
        sorted.dedup();
        if sorted.len() != versions.len() {
            return Err(Violation::VersionIntegrity {
                application: application.to_string(),
                detail: format!("duplicate published versions: {versions:?}"),
            });
        }
        if versions.windows(2).any(|w| w[0] >= w[1]) {
            return Err(Violation::VersionIntegrity {
                application: application.to_string(),
                detail: format!("publications out of submission order: {versions:?}"),
            });
        }
    }
    Ok(())
}

/// Invariant 5: the discrete-event service quiesces cleanly everywhere,
/// and coincides bit for bit with the sequential sweep on the
/// overlapping scenario class — a zero-interarrival trace (every job
/// arrives at the same instant, so admission order is submission
/// order), a stable fleet, and no eviction pressure.
fn event_core(scenario: &Scenario, run: &ScenarioRun) -> Result<(), Violation> {
    let service = &run.service;
    let Some(summary) = &service.service else {
        return Err(Violation::EventCore {
            detail: "service report carries no ServiceSummary".into(),
        });
    };
    if !summary.monotone {
        return Err(Violation::EventCore {
            detail: "virtual clock regressed during the service run".into(),
        });
    }
    if !summary.quiesced {
        return Err(Violation::EventCore {
            detail: "event heap was not empty at quiesce".into(),
        });
    }
    let zero_interarrival = scenario
        .jobs
        .windows(2)
        .all(|pair| pair[1].arrival_s == pair[0].arrival_s);
    if !zero_interarrival || !scenario.faults.churn.is_empty() || scenario.eviction_pressure() {
        return Ok(());
    }

    macro_rules! field {
        ($name:expr, $sweep:expr, $event:expr) => {
            if !bit_identical(&$sweep, &$event) {
                return Err(Violation::EventCore {
                    detail: format!(
                        "{} diverged: sweep {:?} vs event loop {:?}",
                        $name, $sweep, $event
                    ),
                });
            }
        };
    }

    let seq = &run.sequential;
    field!("jobs.len", seq.jobs.len(), service.jobs.len());
    for (s, e) in seq.jobs.iter().zip(&service.jobs) {
        let job = |field: &str| format!("job `{}` {field}", s.job);
        field!(job("submission order"), s.job, e.job);
        field!(job("placement"), s.node_id, e.node_id);
        field!(
            job("accounting.record"),
            s.accounting.record,
            e.accounting.record
        );
        field!(
            job("accounting.regions"),
            s.accounting.regions,
            e.accounting.regions
        );
        field!(
            job("switches"),
            s.accounting.switches,
            e.accounting.switches
        );
        field!(
            job("model source"),
            s.accounting.source,
            e.accounting.source
        );
        field!(
            job("online activity"),
            s.accounting.online,
            e.accounting.online
        );
        field!(job("baseline"), s.default, e.default);
        field!(job("savings"), s.savings, e.savings);
        field!(
            job("published version"),
            s.published_version,
            e.published_version
        );
        field!(job("drift events"), s.drift, e.drift);
        field!(job("rejection"), s.rejection, e.rejection);
        field!(job("abort point"), s.aborted_at, e.aborted_at);
    }
    field!("total_tuned", seq.total_tuned, service.total_tuned);
    field!("total_default", seq.total_default, service.total_default);
    field!("aggregate savings", seq.aggregate, service.aggregate);
    field!("nodes_used", seq.nodes_used, service.nodes_used);
    field!(
        "repository.hits",
        seq.repository.hits,
        service.repository.hits
    );
    field!(
        "repository.misses",
        seq.repository.misses,
        service.repository.misses
    );
    field!(
        "repository.fallbacks",
        seq.repository.fallbacks,
        service.repository.fallbacks
    );
    field!(
        "repository.publications",
        seq.repository.publications,
        service.repository.publications
    );
    Ok(())
}

/// Invariant 7: telemetry recording is free of observable effects and is
/// itself deterministic. A recorded service run must be bit-identical to
/// the unrecorded run — same per-job accounting, same
/// [`rrl::ServiceSummary`] once the telemetry snapshot is stripped — and
/// two recorded runs of the same scenario must emit identical
/// virtual-time event sequences and deterministic metric snapshots
/// (wall-clock-derived values are excluded by construction).
fn observability(run: &ScenarioRun) -> Result<(), Violation> {
    let observed = &run.observed;
    if !observed.reruns_match {
        return Err(Violation::Observability {
            detail: "two recorded runs of the same scenario diverged \
                     (timeline, metrics snapshot, or summary)"
                .into(),
        });
    }
    let (Some(plain), Some(recorded)) = (&run.service.service, &observed.report.service) else {
        return Err(Violation::Observability {
            detail: "a service report carries no ServiceSummary".into(),
        });
    };
    if recorded.telemetry.is_none() {
        return Err(Violation::Observability {
            detail: "recorded run produced no telemetry snapshot".into(),
        });
    }
    let mut stripped = recorded.clone();
    stripped.telemetry = None;
    if !bit_identical(plain, &stripped) {
        return Err(Violation::Observability {
            detail: format!(
                "recording perturbed the service summary: unrecorded {plain:?} vs \
                 recorded (telemetry stripped) {stripped:?}"
            ),
        });
    }

    macro_rules! field {
        ($name:expr, $plain:expr, $recorded:expr) => {
            if !bit_identical(&$plain, &$recorded) {
                return Err(Violation::Observability {
                    detail: format!(
                        "{} diverged under recording: unrecorded {:?} vs recorded {:?}",
                        $name, $plain, $recorded
                    ),
                });
            }
        };
    }
    let (plain, recorded) = (&run.service, &observed.report);
    field!("jobs.len", plain.jobs.len(), recorded.jobs.len());
    for (p, r) in plain.jobs.iter().zip(&recorded.jobs) {
        let job = |field: &str| format!("job `{}` {field}", p.job);
        field!(job("submission order"), p.job, r.job);
        field!(job("placement"), p.node_id, r.node_id);
        field!(
            job("accounting.record"),
            p.accounting.record,
            r.accounting.record
        );
        field!(
            job("accounting.regions"),
            p.accounting.regions,
            r.accounting.regions
        );
        field!(
            job("switches"),
            p.accounting.switches,
            r.accounting.switches
        );
        field!(
            job("model source"),
            p.accounting.source,
            r.accounting.source
        );
        field!(job("baseline"), p.default, r.default);
        field!(job("savings"), p.savings, r.savings);
        field!(
            job("published version"),
            p.published_version,
            r.published_version
        );
        field!(job("drift events"), p.drift, r.drift);
        field!(job("rejection"), p.rejection, r.rejection);
        field!(job("abort point"), p.aborted_at, r.aborted_at);
    }
    field!("aggregate savings", plain.aggregate, recorded.aggregate);
    field!("repository stats", plain.repository, recorded.repository);
    Ok(())
}

/// Invariant 6: the replicated execution is deterministic, converges,
/// and picks the stamp-maximal winner per application.
fn replication(run: &ReplicatedRun) -> Result<(), Violation> {
    if !run.reruns_match {
        return Err(Violation::ReplicationNondeterminism);
    }
    let Some(first) = run.model_maps.first() else {
        return Ok(());
    };
    for (id, map) in run.model_maps.iter().enumerate().skip(1) {
        if map != first {
            let culprit = first
                .iter()
                .find(|(app, digest)| map.get(*app) != Some(digest))
                .map(|(app, _)| app.clone())
                .or_else(|| map.keys().find(|app| !first.contains_key(*app)).cloned());
            return Err(Violation::ReplicaDivergence {
                detail: format!("replica {id} disagrees with replica 0 on {culprit:?}"),
            });
        }
    }
    // The expected winner per application: the stamp-maximal local
    // publication, over the independent per-replica histories.
    let mut expected: BTreeMap<&str, Stamp> = BTreeMap::new();
    for (application, stamp) in &run.published {
        let entry = expected.entry(application.as_str()).or_insert(*stamp);
        *entry = (*entry).max(*stamp);
    }
    for (application, stamp) in &expected {
        let held = first.get(*application).map(|digest| digest.stamp);
        if held != Some(*stamp) {
            return Err(Violation::WrongWinner {
                application: (*application).to_string(),
                detail: format!("expected winner {stamp}, converged map holds {held:?}"),
            });
        }
    }
    if let Some(orphan) = first
        .keys()
        .find(|app| !expected.contains_key(app.as_str()))
    {
        return Err(Violation::WrongWinner {
            application: orphan.clone(),
            detail: "converged entry with no publication history".into(),
        });
    }
    Ok(())
}

/// Invariant 9: in-loop anti-entropy finishes the job *inside* the
/// service loop. The run must end converged with the net idle (no
/// trailing batch pass), be a pure function of the scenario (the rerun
/// is bit-identical), leave every replica on the same model map, and
/// agree with the batch `converge()` oracle — which, run afterwards,
/// must find nothing left to send or apply. On churn-free schedules the
/// converged winners must also be the stamp-maximal publications; with
/// replica crashes in the schedule that history check is skipped, since
/// a crash may legitimately lose a publication that never got a gossip
/// round (the oracle no-op check still holds either way).
fn inloop_replication(
    scenario: &Scenario,
    run: &crate::runner::InloopRun,
) -> Result<(), Violation> {
    if !run.reruns_match {
        return Err(Violation::InloopReplication {
            detail: "a rerun of the same scenario produced a different outcome".into(),
        });
    }
    let Some(summary) = run.report.service.as_ref().and_then(|s| s.replication) else {
        return Err(Violation::InloopReplication {
            detail: "service report carries no ReplicationSummary".into(),
        });
    };
    if !summary.converged {
        return Err(Violation::InloopReplication {
            detail: format!("run ended unconverged: {summary:?}"),
        });
    }
    if !summary.net_idle {
        return Err(Violation::InloopReplication {
            detail: format!("net not idle at quiesce: {summary:?}"),
        });
    }
    if summary.gossip_rounds == 0 {
        return Err(Violation::InloopReplication {
            detail: "no gossip round ever ran despite a nonzero cadence".into(),
        });
    }
    let Some(first) = run.model_maps.first() else {
        return Err(Violation::InloopReplication {
            detail: "no replicas in the in-loop run".into(),
        });
    };
    for (id, map) in run.model_maps.iter().enumerate().skip(1) {
        if map != first {
            let culprit = first
                .iter()
                .find(|(app, digest)| map.get(*app) != Some(digest))
                .map(|(app, _)| app.clone())
                .or_else(|| map.keys().find(|app| !first.contains_key(*app)).cloned());
            return Err(Violation::InloopReplication {
                detail: format!("replica {id} disagrees with replica 0 on {culprit:?}"),
            });
        }
    }
    if !run.oracle_noop {
        return Err(Violation::InloopReplication {
            detail: "batch converge() oracle still sent frames, applied entries \
                     or changed a replica's map after the in-loop run"
                .into(),
        });
    }
    if scenario.faults.replica_churn.is_empty() {
        let mut expected: BTreeMap<&str, Stamp> = BTreeMap::new();
        for (application, stamp) in &run.published {
            let entry = expected.entry(application.as_str()).or_insert(*stamp);
            *entry = (*entry).max(*stamp);
        }
        for (application, stamp) in &expected {
            let held = first.get(*application).map(|digest| digest.stamp);
            if held != Some(*stamp) {
                return Err(Violation::InloopReplication {
                    detail: format!(
                        "wrong winner for `{application}`: expected stamp-maximal \
                         {stamp}, converged map holds {held:?}"
                    ),
                });
            }
        }
        if let Some(orphan) = first
            .keys()
            .find(|app| !expected.contains_key(app.as_str()))
        {
            return Err(Violation::InloopReplication {
                detail: format!("converged entry `{orphan}` has no publication history"),
            });
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn violation_kinds_are_stable_labels() {
        let v = Violation::VersionIntegrity {
            application: "app".into(),
            detail: "x".into(),
        };
        assert_eq!(v.kind(), "version-integrity");
        assert!(v.to_string().contains("version integrity"));
        let v = Violation::EventCore {
            detail: "clock regressed".into(),
        };
        assert_eq!(v.kind(), "event-core");
        assert!(v.to_string().contains("clock regressed"));
        let v = Violation::InloopReplication {
            detail: "run ended unconverged".into(),
        };
        assert_eq!(v.kind(), "inloop-replication");
        assert!(v.to_string().contains("unconverged"));
        let f = Failure {
            violation: v,
            replay: "{}".into(),
        };
        let text = f.to_string();
        assert!(text.contains("testkit::replay(r#\"{}\"#)"), "{text}");
    }

    #[test]
    fn bit_identity_equates_nan_and_separates_signed_zeros() {
        assert!(bit_identical(&f64::NAN, &f64::NAN));
        assert!(!bit_identical(&0.0f64, &-0.0f64));
        assert!(bit_identical(&[1.5f64, f64::NAN], &[1.5f64, f64::NAN]));
        assert!(!bit_identical(&1.0f64, &1.0000000000000002f64));
    }
}
