//! # rrl — the READEX Runtime Library analog
//!
//! The production half of the paper's workflow (Section V-D): the tuning
//! model generated at design time is handed to the RRL, which performs
//! Runtime Application Tuning — "dynamically adjusts the system
//! configuration during application runtime according to the generated
//! tuning model" — through the Score-P PCPs. This crate serves that model
//! at cluster scale:
//!
//! * [`repository`] — the [`TuningModelRepository`]: stores serialized
//!   tuning models keyed by application + workload fingerprint — each
//!   entry carrying a [`ModelProvenance`] version/origin record and the
//!   drift expectations — serves them with hit/miss statistics, optional
//!   LRU capacity bounding and application-level matching
//!   ([`MatchPolicy`]), and a calibration fallback (a best-known static
//!   configuration) when no model matches,
//! * [`session`] — the event-driven [`RuntimeSession`]: one handle per
//!   job, driven by explicit `region_enter` / `region_exit` /
//!   `phase_complete` events through the scenario→configuration resolver
//!   and the node's frequency/thread switching; every transition returns
//!   `Result<_, `[`RuntimeError`]`>`,
//! * [`online`] — the online adaptation engine: on a repository miss the
//!   [`OnlineTuner`] calibrates in-situ (the job's early phase iterations
//!   explore the design-time search strategy's candidates against live
//!   region measurements) and publishes the converged model back
//!   ([`ModelSource::Online`]); on a hit the [`DriftDetector`] flags
//!   stale models and triggers scoped re-calibration,
//! * [`cluster`] — the [`ClusterScheduler`]: multiplexes many concurrent
//!   sessions across the nodes of a simulated cluster (round-robin
//!   placement), gates cold workloads behind a single
//!   online calibration when [`OnlineTuning`] is attached, and reports
//!   per-job and aggregate savings ([`ClusterScheduler::run`], over any
//!   [`RepositoryHandle`]),
//! * [`inject`] — deterministic fault injection: the [`FaultInjector`]
//!   seam both event loops, the online tuner and the simulated network
//!   honor (job aborts at a phase boundary, refused calibrations,
//!   injected drift shifts, message delay/drop/duplication/partition),
//!   so a scenario engine can drive the unhappy paths without forking
//!   the runtime,
//! * [`service`] — the long-lived cluster service on the `simkit`
//!   discrete-event kernel: [`ClusterScheduler::run_service`] drives a
//!   timestamped [`JobArrival`] trace in virtual time with per-node run
//!   queues, mid-run node join/drain/fail churn
//!   ([`FaultInjector::node_churn`]) and latency/queue-depth percentiles
//!   in the report ([`ServiceSummary`]),
//! * [`net`] — replicated serving: a seeded fault-injectable
//!   [`SimTransport`], a length-framed versioned wire format, and
//!   [`ReplicaSet`] — N replica repositories converged to bit-identical
//!   model maps by stamp-ordered anti-entropy sync (a [`Replica`] is a
//!   [`RepositoryHandle`] the scheduler serves from),
//! * [`sacct`] — SLURM-style job accounting: the job-level Table VI
//!   record plus the per-region energy/time breakdown,
//! * [`savings`] — default-vs-tuned comparisons including the
//!   configuration-setting performance reduction and the combined
//!   DVFS/UFS/Score-P overhead decomposition of Section V-E.
//!
//! ```text
//! repository.publish(&advice);                   // design-time handoff
//! let served = repository.serve(&bench)?;        // hit, or fallback
//! let mut job = RuntimeSession::start("job-1", &bench, &node, served)?;
//! job.run_to_completion()?;                      // or event-by-event
//! println!("{}", job.finish()?.format_sacct());
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]
#![warn(rust_2018_idioms)]

mod baseline;
pub mod cluster;
pub mod error;
pub mod inject;
pub mod net;
pub mod online;
pub mod repository;
pub mod sacct;
pub mod savings;
pub mod service;
pub mod session;

pub use cluster::{
    ClusterReport, ClusterScheduler, JobOutcome, JobRejection, OnlineSummary, OnlineTuning,
};
pub use error::RuntimeError;
pub use inject::{ChurnEvent, ChurnKind, FaultInjector, ReplicaChurnEvent, ReplicaChurnKind};
pub use net::{
    ConvergeCulprit, ConvergeReport, NetError, Replica, ReplicaConfig, ReplicaSet, SimTransport,
    Stamp, TransportStats,
};
pub use online::{
    DriftDetector, DriftEvent, ModelPublication, OnlineConfig, OnlineOutcome, OnlineTuner,
};
pub use repository::{
    MatchPolicy, ModelKey, ModelProvenance, ModelSource, RepositoryHandle, RepositoryStats,
    ServedModel, TuningModelRepository,
};
pub use sacct::{JobAccounting, JobRecord, OnlineActivity, RegionAccounting};
pub use savings::{compare_static_dynamic, BenchmarkComparison, ComparisonError, Savings};
pub use service::{
    GossipConfig, JobArrival, Percentiles, ReplicationSummary, ServiceConfig, ServiceSummary,
};
pub use session::{RegionExit, RuntimeSession};
