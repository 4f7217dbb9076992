//! Errors on the user-facing runtime path.
//!
//! Every operation of the event-driven runtime API — repository serving
//! (from a [`crate::TuningModelRepository`] or one [`crate::Replica`]),
//! [`crate::RuntimeSession`] transitions, [`crate::ClusterScheduler`]
//! placement and execution — returns `Result<_, RuntimeError>`. Nothing on
//! this path panics: a corrupt model file, a foreign configuration or a
//! mis-sequenced region event all surface as values.

use std::fmt;

use simnode::SystemConfig;

/// Why a runtime operation could not proceed.
#[derive(Debug)]
#[non_exhaustive]
pub enum RuntimeError {
    /// Stored bytes were not a valid tuning model.
    Parse(serde_json::Error),
    /// The repository holds no model for this application/workload and no
    /// calibration fallback is configured.
    NoModel {
        /// Application that requested a model.
        application: String,
        /// Workload fingerprint that missed.
        fingerprint: u64,
    },
    /// A region event named a region the benchmark does not contain, so
    /// the simulator cannot execute it.
    UnknownRegion {
        /// Application whose session received the event.
        application: String,
        /// The unresolvable region name.
        region: String,
    },
    /// An event arrived while a region was still open. Regions are flat
    /// (the phase loop executes them in sequence), so `region_enter`,
    /// `phase_complete` and `finish` all require the previous region to
    /// have exited.
    RegionStillOpen {
        /// The region that is still open.
        open: String,
        /// The event that was attempted.
        event: String,
    },
    /// `region_exit` without a matching `region_enter`.
    NoOpenRegion {
        /// The region whose exit was requested.
        requested: String,
    },
    /// `region_exit` for a different region than the open one.
    RegionMismatch {
        /// The region currently open.
        open: String,
        /// The region whose exit was requested.
        requested: String,
    },
    /// A served tuning model contains a configuration the target node
    /// cannot apply (thread count beyond the topology or a frequency
    /// outside the DVFS/UFS domains).
    UnsupportedConfig {
        /// Application whose model carried the configuration.
        application: String,
        /// The offending configuration.
        config: SystemConfig,
    },
    /// The job's launch (initial) configuration cannot be applied on this
    /// node — the caller's fault, not the model's.
    UnsupportedInitial {
        /// The offending launch configuration.
        config: SystemConfig,
    },
    /// A cluster scheduler was created over a cluster with no nodes.
    EmptyCluster,
    /// A scheduled job could not run on the node it was placed on: the
    /// node's capabilities ([`simnode::Node::supports`]) rejected the
    /// served model or launch configuration, *and* the scheduler's
    /// degraded path (a static run at the node-clamped default) was
    /// impossible too. Unlike the session-level
    /// [`RuntimeError::UnsupportedConfig`], this names the job and the
    /// node, so scenario reports and shrinker output can point at the
    /// culprit placement. (Ordinarily a capability-gap rejection does
    /// *not* surface as an error at all — the scheduler degrades the job
    /// and records a [`JobRejection`](crate::JobRejection) in its
    /// outcome.)
    JobRejected {
        /// The job that was placed on an incapable node.
        job: String,
        /// The node that rejected it.
        node_id: u32,
        /// Application whose model carried the configuration.
        application: String,
        /// The rejected configuration.
        config: SystemConfig,
    },
    /// Online calibration needs more exploration iterations than the job
    /// has phase iterations, so the tuner cannot converge before the job
    /// ends. Launch the job at the calibration fallback instead, or pick a
    /// cheaper [`SearchStrategy`](ptf::SearchStrategy).
    ExplorationBudget {
        /// Application whose calibration was planned.
        application: String,
        /// Exploration iterations the plan needs (worst case).
        needed: u32,
        /// Phase iterations the job actually has.
        available: u32,
    },
    /// Drift-triggered re-calibration of a region was refused: the job
    /// does not have enough remaining visits of the region to measure the
    /// re-exploration neighbourhood, or the session is not in a state that
    /// can re-calibrate (still calibrating, or serving a model without
    /// drift expectations).
    RecalibrationRefused {
        /// Application whose session refused.
        application: String,
        /// The region that would have been re-calibrated.
        region: String,
        /// Region visits the scoped re-exploration needs.
        needed: u32,
        /// Region visits remaining before the job finishes.
        remaining: u32,
    },
    /// The online tuner could not generate its exploration candidates —
    /// the design-time strategy machinery rejected the analysis inputs
    /// (e.g. the model-based strategy without a trained energy model).
    Planning(ptf::TuningError),
    /// Replicated serving failed below the repository: a wire-format,
    /// session or convergence error from the [`crate::net`] stack (e.g.
    /// in-loop gossip that could not settle within its round bound).
    Replication(crate::net::NetError),
    /// The discrete-event service quiesced with jobs still unfinished —
    /// its event heap ran dry while queued work remained, which a
    /// well-formed churn schedule cannot cause (queued jobs are re-placed
    /// off drained and failed nodes, and placement falls back to the full
    /// fleet when every node is unavailable). Indicates an internal
    /// scheduling bug, not a scenario problem.
    ServiceStalled {
        /// Jobs that never finished.
        unfinished: usize,
    },
}

impl fmt::Display for RuntimeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RuntimeError::Parse(e) => write!(f, "stored tuning model is corrupt: {e}"),
            RuntimeError::NoModel {
                application,
                fingerprint,
            } => write!(
                f,
                "no tuning model for `{application}` (workload {fingerprint:016x}) \
                 and no calibration fallback configured"
            ),
            RuntimeError::UnknownRegion {
                application,
                region,
            } => write!(f, "application `{application}` has no region `{region}`"),
            RuntimeError::RegionStillOpen { open, event } => {
                write!(f, "cannot {event} while region `{open}` is still open")
            }
            RuntimeError::NoOpenRegion { requested } => write!(
                f,
                "region_exit(`{requested}`) without a matching region_enter"
            ),
            RuntimeError::RegionMismatch { open, requested } => {
                write!(f, "region_exit(`{requested}`) while `{open}` is open")
            }
            RuntimeError::UnsupportedConfig {
                application,
                config,
            } => write!(
                f,
                "model for `{application}` serves {config}, which this node cannot apply"
            ),
            RuntimeError::UnsupportedInitial { config } => write!(
                f,
                "initial configuration {config} cannot be applied on this node"
            ),
            RuntimeError::EmptyCluster => {
                write!(f, "cluster scheduler needs at least one node")
            }
            RuntimeError::JobRejected {
                job,
                node_id,
                application,
                config,
            } => write!(
                f,
                "job `{job}` ({application}) rejected by node {node_id}: \
                 it cannot apply {config} and no degraded configuration fits"
            ),
            RuntimeError::ExplorationBudget {
                application,
                needed,
                available,
            } => write!(
                f,
                "online calibration of `{application}` exhausted its exploration budget: \
                 needs {needed} exploration iterations but the job has only {available} \
                 phase iterations"
            ),
            RuntimeError::RecalibrationRefused {
                application,
                region,
                needed,
                remaining,
            } => write!(
                f,
                "drift re-calibration of `{region}` in `{application}` refused: \
                 needs {needed} more visits of the region, only {remaining} remain"
            ),
            RuntimeError::Planning(e) => {
                write!(f, "online exploration planning failed: {e}")
            }
            RuntimeError::Replication(e) => {
                write!(f, "replicated serving failed: {e}")
            }
            RuntimeError::ServiceStalled { unfinished } => write!(
                f,
                "discrete-event service quiesced with {unfinished} unfinished job(s)"
            ),
        }
    }
}

impl std::error::Error for RuntimeError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            RuntimeError::Parse(e) => Some(e),
            RuntimeError::Planning(e) => Some(e),
            RuntimeError::Replication(e) => Some(e),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_names_the_condition() {
        let e = RuntimeError::NoModel {
            application: "Lulesh".into(),
            fingerprint: 0xABCD,
        };
        assert!(format!("{e}").contains("Lulesh"));
        assert!(format!("{e}").contains("000000000000abcd"));

        let e = RuntimeError::RegionMismatch {
            open: "a".into(),
            requested: "b".into(),
        };
        let s = format!("{e}");
        assert!(s.contains("`a`") && s.contains("`b`"));

        let e = RuntimeError::UnsupportedConfig {
            application: "x".into(),
            config: SystemConfig::new(24, 2600, 3000),
        };
        assert!(format!("{e}").contains("2.6"));

        let e = RuntimeError::UnsupportedInitial {
            config: SystemConfig::new(48, 2500, 3000),
        };
        assert!(format!("{e}").contains("initial configuration"));

        assert!(format!("{}", RuntimeError::EmptyCluster).contains("node"));

        let e = RuntimeError::JobRejected {
            job: "job-7".into(),
            node_id: 3,
            application: "Lulesh".into(),
            config: SystemConfig::new(24, 2500, 3000),
        };
        let s = format!("{e}");
        assert!(
            s.contains("job-7") && s.contains("node 3") && s.contains("Lulesh"),
            "{s}"
        );

        let e = RuntimeError::ExplorationBudget {
            application: "Lulesh".into(),
            needed: 63,
            available: 30,
        };
        let s = format!("{e}");
        assert!(s.contains("exploration budget") && s.contains("63") && s.contains("30"));

        let e = RuntimeError::RecalibrationRefused {
            application: "miniMD".into(),
            region: "compute_force".into(),
            needed: 9,
            remaining: 2,
        };
        let s = format!("{e}");
        assert!(s.contains("re-calibration") && s.contains("compute_force"));
        assert!(s.contains('9') && s.contains('2'));

        let e = RuntimeError::Planning(ptf::TuningError::MissingModel {
            strategy: "model-based-neighbourhood",
        });
        assert!(format!("{e}").contains("planning failed"));

        let e = RuntimeError::Replication(crate::net::NetError::UnknownReplica {
            replica: 9,
            replicas: 4,
        });
        let s = format!("{e}");
        assert!(
            s.contains("replicated serving failed") && s.contains('9'),
            "{s}"
        );
    }

    #[test]
    fn planning_has_a_source() {
        use std::error::Error as _;
        let e = RuntimeError::Planning(ptf::TuningError::EmptyCandidates {
            stage: "online phase exploration",
        });
        assert!(e.source().is_some());
    }

    #[test]
    fn io_and_parse_have_sources() {
        use std::error::Error as _;
        let parse = RuntimeError::Parse(serde_json::from_str::<u32>("x").unwrap_err());
        assert!(parse.source().is_some());
        let net = RuntimeError::Replication(crate::net::NetError::ConvergeTimeout {
            ticks: 10,
            culprit: None,
        });
        assert!(net.source().is_some());
        let plain = RuntimeError::EmptyCluster;
        assert!(plain.source().is_none());
    }
}
