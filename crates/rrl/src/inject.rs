//! Deterministic fault injection for the cluster runtime.
//!
//! The scenario engine (`testkit`) needs to drive the runtime through its
//! unhappy paths — jobs dying mid-run, calibrations that cannot converge,
//! workloads drifting away from their published expectations — without a
//! `cfg(test)` fork of either event loop. [`FaultInjector`] is that seam:
//! one trait object threaded into [`ClusterScheduler::run`] /
//! [`run_service`](crate::ClusterScheduler::run_service) (via
//! [`ClusterScheduler::with_faults`](crate::ClusterScheduler::with_faults))
//! and into the [`OnlineTuner`](crate::OnlineTuner), consulted at the
//! three points where a real cluster misbehaves:
//!
//! * **Job abort** — [`FaultInjector::abort_phase`]: the job stops at
//!   phase iteration *k* (truncated run, accounting collected up to the
//!   abort, savings compared against an equally truncated baseline). A
//!   calibration *leader* that aborts before converging fails its
//!   workload's calibration, so same-workload followers degrade to the
//!   fallback — in both event loops.
//! * **Calibration failure** — [`FaultInjector::fail_calibration`]: a
//!   cold workload's calibration is refused at admission, exactly like an
//!   exploration-budget failure (the leader runs degraded, followers
//!   serve the fallback).
//! * **Drift shift** — [`FaultInjector::drift_scale`]: the per-region
//!   energy a monitoring job feeds its
//!   [`DriftDetector`](crate::DriftDetector) is scaled by the returned
//!   factor, simulating a workload that shifted away from the published
//!   expectations mid-run. The job's *accounting* is untouched — only the
//!   detector's view shifts, so the fault exercises detection and scoped
//!   re-calibration, not the ledger.
//!
//! Every hook is a pure function of the job identity (name, region,
//! iteration), never of wall-clock time or thread identity — which is
//! what keeps the sweep and service loops observing identical faults, and
//! any faulted run bit-identical to its replay.
//!
//! [`ClusterScheduler::run`]: crate::ClusterScheduler::run
//!
//! The discrete-event service
//! ([`ClusterScheduler::run_service`](crate::ClusterScheduler::run_service))
//! additionally consults [`FaultInjector::node_churn`] once at start-up
//! for the run's node join/drain/fail schedule, honored mid-run at the
//! scheduled virtual timestamps.

use serde::{Deserialize, Serialize};

/// What happens to a node at a [`ChurnEvent`]'s timestamp.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ChurnKind {
    /// The node (re-)joins the fleet and accepts placements again.
    Join,
    /// The node stops accepting work; queued jobs are re-placed, running
    /// jobs finish normally.
    Drain,
    /// The node fails: queued jobs are re-placed, running jobs are
    /// truncated at their next phase boundary (accounting collected up to
    /// the truncation, like an abort).
    Fail,
}

/// One scheduled node-membership change for a service run.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ChurnEvent {
    /// Virtual timestamp of the change, seconds from service start.
    pub at_s: f64,
    /// Fleet node index the change applies to.
    pub node: u32,
    /// Join, drain, or fail.
    pub kind: ChurnKind,
}

/// What happens to a replica at a [`ReplicaChurnEvent`]'s timestamp.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ReplicaChurnKind {
    /// The replica crashes: its repository, replication log and version
    /// vector are lost, its sessions (both directions) die, and jobs
    /// route to the next alive replica until it restarts.
    Crash,
    /// The replica restarts empty and catches up from its peers: every
    /// link is born dirty again, so the first gossip rounds after the
    /// restart replay the fleet's winners into it.
    Restart,
}

/// One scheduled replica crash or restart for an in-loop replicated
/// service run (see `ClusterScheduler::run_service_replicated`).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ReplicaChurnEvent {
    /// Virtual timestamp of the change, seconds from service start.
    pub at_s: f64,
    /// Replica id the change applies to.
    pub replica: u32,
    /// Crash or restart.
    pub kind: ReplicaChurnKind,
}

/// Deterministic fault decisions for one scheduler run.
///
/// Implementations must be `Sync` (one injector, borrowed by a transport
/// or a scheduler run, may be shared between threads that run independent
/// scenarios) and must answer from the *arguments alone* so the two
/// event loops — and two runs of the same scenario — observe identical
/// faults. All hooks default to "no fault"; implement only the kinds a
/// scenario uses.
pub trait FaultInjector: Sync {
    /// Abort `job` when it reaches this phase iteration: the job runs
    /// `min(abort_phase, bench.phase_iterations)` iterations and then
    /// finishes normally (truncated accounting, truncated baseline).
    /// Values are clamped to ≥ 1 — a job always runs at least one phase.
    /// `None` (the default) lets the job run to completion.
    fn abort_phase(&self, job: &str) -> Option<u32> {
        let _ = job;
        None
    }

    /// Refuse `job`'s cold-workload calibration at admission, as if its
    /// exploration plan had not fit the phase loop. The job runs degraded
    /// on the calibration fallback path; same-workload followers do too.
    fn fail_calibration(&self, job: &str) -> bool {
        let _ = job;
        false
    }

    /// Factor applied to the region energy `job` feeds its drift detector
    /// for `region` at phase `iteration` (1.0 = no shift). Return e.g.
    /// 1.5 from iteration *k* onwards to simulate a mid-run workload
    /// shift that fires the detector.
    ///
    /// Asked only for measurements a detector reads: an unfiltered exit
    /// of a region the served model carried an expectation for, while
    /// that region is not re-calibrating.
    fn drift_scale(&self, job: &str, region: &str, iteration: u32) -> f64 {
        let _ = (job, region, iteration);
        1.0
    }

    // ----- replication transport hooks (see `crate::net::transport`) ----
    //
    // The simulated transport consults these per message. Like the
    // scheduler hooks above they must be pure functions of their
    // arguments — here the monotone message id (and, for partitions, the
    // virtual tick) — so a faulted replication run is bit-identical to
    // its replay. All default to a healthy network.

    /// Extra delivery delay for the message, in virtual ticks, on top of
    /// the transport's 1-tick minimum. Varying this per message id is
    /// what reorders deliveries.
    fn delay_ticks(&self, msg_id: u64) -> u64 {
        let _ = msg_id;
        0
    }

    /// Drop the message entirely (it is counted, never delivered).
    fn drop_message(&self, msg_id: u64) -> bool {
        let _ = msg_id;
        false
    }

    /// Deliver the message twice: a duplicate copy is scheduled one tick
    /// after the original.
    fn duplicate_message(&self, msg_id: u64) -> bool {
        let _ = msg_id;
        false
    }

    /// Whether the link `from → to` is partitioned at virtual `tick`.
    /// Messages sent across a partitioned link are dropped at the
    /// sender (and counted as partitioned, not as plain drops).
    fn partitioned(&self, tick: u64, from: u32, to: u32) -> bool {
        let _ = (tick, from, to);
        false
    }

    // ----- service churn hook (see `ClusterScheduler::run_service`) -----

    /// The node join/drain/fail schedule for a discrete-event service
    /// run. Consulted once at service start; every event fires at its
    /// virtual timestamp regardless of what the cluster is doing. The
    /// default is a stable fleet.
    fn node_churn(&self) -> Vec<ChurnEvent> {
        Vec::new()
    }

    /// The replica crash/restart schedule for an in-loop replicated
    /// service run (`ClusterScheduler::run_service_replicated`).
    /// Consulted once at service start, like [`node_churn`]; every event
    /// fires at its virtual timestamp. The default is a stable replica
    /// set.
    ///
    /// [`node_churn`]: FaultInjector::node_churn
    fn replica_churn(&self) -> Vec<ReplicaChurnEvent> {
        Vec::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// An injector that keeps every default hook.
    struct Healthy;

    impl FaultInjector for Healthy {}

    #[test]
    fn no_faults_is_inert() {
        let f = Healthy;
        assert_eq!(f.abort_phase("j"), None);
        assert!(!f.fail_calibration("j"));
        assert_eq!(f.drift_scale("j", "r", 3), 1.0);
        assert_eq!(f.delay_ticks(7), 0);
        assert!(!f.drop_message(7));
        assert!(!f.duplicate_message(7));
        assert!(!f.partitioned(0, 1, 2));
        assert!(f.node_churn().is_empty());
        assert!(f.replica_churn().is_empty());
    }

    #[test]
    fn churn_events_round_trip_through_serde() {
        let event = ChurnEvent {
            at_s: 12.5,
            node: 3,
            kind: ChurnKind::Drain,
        };
        let json = serde_json::to_string(&event).unwrap();
        let back: ChurnEvent = serde_json::from_str(&json).unwrap();
        assert_eq!(back, event);

        let event = ReplicaChurnEvent {
            at_s: 30.0,
            replica: 1,
            kind: ReplicaChurnKind::Crash,
        };
        let json = serde_json::to_string(&event).unwrap();
        let back: ReplicaChurnEvent = serde_json::from_str(&json).unwrap();
        assert_eq!(back, event);
    }

    #[test]
    fn injectors_are_object_safe_and_sync() {
        fn takes(_: &dyn FaultInjector) {}
        fn sync<T: Sync>(_: &T) {}
        takes(&Healthy);
        sync(&Healthy);
    }
}
