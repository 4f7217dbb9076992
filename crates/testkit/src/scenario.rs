//! The [`Scenario`] value: one fully-specified cluster experiment.
//!
//! A scenario is *data*, not code — a fleet description, a workload
//! population, a job trace, repository settings and a [`FaultPlan`] —
//! and every part of it serialises, so a failing scenario round-trips
//! through [`Scenario::to_replay`] into a one-line repro. Everything the
//! runner needs (nodes, repositories, pre-stored models, the fault
//! injector) is *derived* from this value deterministically: building the
//! same scenario twice yields bit-identical runs.

use kernels::BenchmarkSpec;
use ptf::TuningModel;
use rrl::{
    ChurnEvent, FaultInjector, ReplicaChurnEvent, RuntimeSession, ServedModel,
    TuningModelRepository,
};
use serde::{Deserialize, Serialize};
use simnode::{Cluster, Node, SystemConfig, Topology};

/// One node of the scenario's fleet.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct NodeSpec {
    /// Manufacturing power-variability factor ([`Node::with_variability`]).
    pub variability: f64,
    /// PMU counter noise standard deviation.
    pub counter_noise_sd: f64,
    /// Cores per socket (2 sockets). The Taurus reference is 12; smaller
    /// values are *capability gaps* — 24-thread tuning models are
    /// rejected by [`Node::supports`] on such nodes, and the scheduler
    /// degrades those jobs.
    pub cores_per_socket: u32,
}

impl NodeSpec {
    /// Cores per socket of the full-capability Taurus reference node.
    pub const FULL_CORES: u32 = 12;

    /// Whether this node rejects full-width (24-thread) configurations.
    pub fn is_gapped(&self) -> bool {
        self.cores_per_socket < Self::FULL_CORES
    }
}

/// The scenario's fleet: seeded, heterogeneous, possibly gapped.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FleetSpec {
    /// Seed for the per-node RNG streams.
    pub seed: u64,
    /// The nodes, in id order.
    pub nodes: Vec<NodeSpec>,
}

impl FleetSpec {
    /// Materialise the fleet as a [`Cluster`].
    pub fn build(&self) -> Cluster {
        let nodes = self
            .nodes
            .iter()
            .enumerate()
            .map(|(id, spec)| {
                let mut node = Node::new(id as u32, self.seed)
                    .with_variability(spec.variability)
                    .with_counter_noise(spec.counter_noise_sd);
                if spec.cores_per_socket != NodeSpec::FULL_CORES {
                    let mut topo = Topology::taurus_haswell();
                    topo.cores_per_socket = spec.cores_per_socket;
                    node = node.with_topology(topo);
                }
                node
            })
            .collect();
        Cluster::from_nodes(nodes)
    }
}

/// How a workload is pre-seeded into the repositories.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum StoredModel {
    /// Cold: the first job misses (and calibrates when online tuning is
    /// attached).
    None,
    /// A design-time model is pre-stored without drift expectations
    /// (hits serve it; drift detection stays inactive).
    Design,
    /// A model is pre-published with per-region expectations measured on
    /// a golden node, arming the drift detector for every hit — the
    /// target for injected drift shifts.
    Calibrated,
}

/// One member of the scenario's workload population.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct WorkloadSpec {
    /// The benchmark jobs of this workload run (kernel-catalog specs or
    /// generated synthetics, with any size jitter already applied — the
    /// fingerprint *is* the workload identity).
    pub bench: BenchmarkSpec,
    /// Repository pre-seeding for this workload.
    pub stored: StoredModel,
}

/// One job of the arrival trace.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct JobSpec {
    /// Job name (the key every fault hook matches on).
    pub name: String,
    /// Index into [`Scenario::workloads`].
    pub workload: usize,
    /// Arrival time in seconds since trace start, from the interarrival
    /// model. Jobs are submitted in arrival order; the absolute values
    /// document the trace shape (Poisson vs. bursty) in replays.
    pub arrival_s: f64,
}

/// Repository settings shared by every run of the scenario.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RepositorySpec {
    /// Calibration fallback served on misses.
    pub fallback: Option<SystemConfig>,
    /// LRU capacity bound (0 = unbounded). A bound below the number of
    /// publishing workloads forces mid-run eviction.
    pub capacity: usize,
}

/// Online-adaptation settings (attached when present).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct OnlineSpec {
    /// `RandomSearch` candidate-pool size for calibrations.
    pub search_pool: usize,
    /// `RandomSearch` seed.
    pub search_seed: u64,
}

/// Abort `job` when it reaches phase iteration `phase`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AbortFault {
    /// The job to truncate.
    pub job: String,
    /// The phase boundary it stops at (clamped to ≥ 1 by the runtime).
    pub phase: u32,
}

/// Scale the drift-detector view of `region`'s energy for `job` from
/// `from_iteration` onwards — a mid-run workload shift.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DriftShiftFault {
    /// The monitoring job whose detector is shifted.
    pub job: String,
    /// The region that "shifted".
    pub region: String,
    /// First phase iteration the shift applies to.
    pub from_iteration: u32,
    /// Energy scale factor (≥ ~1.4 reliably clears the default ±15 %
    /// drift band on any fleet node).
    pub factor: f64,
}

/// The scenario's deterministic fault plan — its [`FaultInjector`]
/// implementation is what the scheduler honors.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct FaultPlan {
    /// Jobs truncated at a phase boundary.
    pub aborts: Vec<AbortFault>,
    /// Jobs whose cold-workload calibration is refused at admission.
    pub calibration_failures: Vec<String>,
    /// Injected mid-run workload shifts.
    pub drift_shifts: Vec<DriftShiftFault>,
    /// Node join/drain/fail schedule for the discrete-event service run
    /// (the sweep loop ignores it). `default` keeps pre-churn replay
    /// lines parseable.
    #[serde(default)]
    pub churn: Vec<ChurnEvent>,
    /// Replica crash/restart schedule for the in-loop replicated service
    /// run (every other loop ignores it). `default` keeps pre-in-loop
    /// replay lines parseable.
    #[serde(default)]
    pub replica_churn: Vec<ReplicaChurnEvent>,
}

impl FaultPlan {
    /// Whether the plan injects nothing.
    pub fn is_empty(&self) -> bool {
        self.aborts.is_empty()
            && self.calibration_failures.is_empty()
            && self.drift_shifts.is_empty()
            && self.churn.is_empty()
            && self.replica_churn.is_empty()
    }

    /// Total injected faults.
    pub fn len(&self) -> usize {
        self.aborts.len()
            + self.calibration_failures.len()
            + self.drift_shifts.len()
            + self.churn.len()
            + self.replica_churn.len()
    }

    /// Drop every fault that names a job not in `jobs` (the shrinker
    /// calls this after dropping jobs).
    pub fn retain_jobs(&mut self, jobs: &[JobSpec]) {
        let alive = |name: &str| jobs.iter().any(|j| j.name == name);
        self.aborts.retain(|f| alive(&f.job));
        self.calibration_failures.retain(|j| alive(j));
        self.drift_shifts.retain(|f| alive(&f.job));
    }
}

impl FaultInjector for FaultPlan {
    fn abort_phase(&self, job: &str) -> Option<u32> {
        self.aborts.iter().find(|f| f.job == job).map(|f| f.phase)
    }

    fn fail_calibration(&self, job: &str) -> bool {
        self.calibration_failures.iter().any(|j| j == job)
    }

    fn drift_scale(&self, job: &str, region: &str, iteration: u32) -> f64 {
        self.drift_shifts
            .iter()
            .find(|f| f.job == job && f.region == region && iteration >= f.from_iteration)
            .map_or(1.0, |f| f.factor)
    }

    fn node_churn(&self) -> Vec<ChurnEvent> {
        self.churn.clone()
    }

    fn replica_churn(&self) -> Vec<ReplicaChurnEvent> {
        self.replica_churn.clone()
    }
}

/// A partition window: between `from_tick` (inclusive) and `to_tick`
/// (exclusive), the `isolated` replicas cannot exchange messages with
/// the rest of the set — in either direction. Windows end, so
/// partitions always heal.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PartitionWindow {
    /// First virtual tick of the window.
    pub from_tick: u64,
    /// First virtual tick after the window.
    pub to_tick: u64,
    /// The replica ids on the small side of the split.
    pub isolated: Vec<u32>,
}

/// The scenario's replicated-serving plan: how many replicas, and the
/// seeded network-fault schedule the sync between them runs under.
///
/// Every fault decision is a pure function of `(fault_seed, message id)`
/// — hashed through FNV-1a, never drawn from mutable RNG state — so two
/// executions of the same plan fault the exact same messages. The plan
/// implements the network half of the [`FaultInjector`] seam; the
/// runner threads it into the replica set's transport.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct NetPlan {
    /// Replica count (clamped to ≥ 2 by the runner).
    pub replicas: u32,
    /// Seed for the per-message fault decisions.
    pub fault_seed: u64,
    /// Per-message drop probability, in permille.
    pub drop_permille: u16,
    /// Per-message duplication probability, in permille.
    pub duplicate_permille: u16,
    /// Extra delivery delay drawn uniformly from `0..=jitter` ticks
    /// (unequal delays reorder messages).
    pub delay_jitter_ticks: u64,
    /// Partition windows.
    pub partitions: Vec<PartitionWindow>,
    /// Gossip cadence for the **in-loop** replicated service run, in
    /// virtual microseconds. `0` (the default) keeps replication
    /// batch-only — exactly what every pre-in-loop scenario meant — so
    /// legacy replay lines parse and mean the same thing.
    #[serde(default)]
    pub gossip_cadence_us: u64,
    /// Whether the in-loop run serves repository misses by targeted
    /// read-repair pulls before falling back to cold calibration. Only
    /// consulted when `gossip_cadence_us > 0`.
    #[serde(default)]
    pub read_repair: bool,
}

impl NetPlan {
    /// The pure per-message decision stream: one independent u64 per
    /// `(seed, message id, salt)` triple.
    fn decision(&self, msg_id: u64, salt: u64) -> u64 {
        kernels::Fnv1a::new()
            .update_u64(self.fault_seed)
            .update_u64(msg_id)
            .update_u64(salt)
            .finish()
    }
}

impl FaultInjector for NetPlan {
    fn delay_ticks(&self, msg_id: u64) -> u64 {
        if self.delay_jitter_ticks == 0 {
            return 0;
        }
        self.decision(msg_id, 1) % (self.delay_jitter_ticks + 1)
    }

    fn drop_message(&self, msg_id: u64) -> bool {
        u64::from(self.drop_permille) > self.decision(msg_id, 2) % 1000
    }

    fn duplicate_message(&self, msg_id: u64) -> bool {
        u64::from(self.duplicate_permille) > self.decision(msg_id, 3) % 1000
    }

    fn partitioned(&self, tick: u64, from: u32, to: u32) -> bool {
        self.partitions.iter().any(|w| {
            tick >= w.from_tick
                && tick < w.to_tick
                && (w.isolated.contains(&from) != w.isolated.contains(&to))
        })
    }
}

/// One fully-specified, serialisable cluster experiment.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Scenario {
    /// The generator seed this scenario was derived from (informational
    /// once generated — the scenario body is self-contained).
    pub seed: u64,
    /// The fleet.
    pub fleet: FleetSpec,
    /// The workload population.
    pub workloads: Vec<WorkloadSpec>,
    /// The job arrival trace, in submission order.
    pub jobs: Vec<JobSpec>,
    /// Repository settings.
    pub repository: RepositorySpec,
    /// Online adaptation, if attached.
    pub online: Option<OnlineSpec>,
    /// The fault plan.
    pub faults: FaultPlan,
    /// Replicated serving, if exercised: replica count plus the seeded
    /// network-fault schedule. `default` keeps pre-net replay lines
    /// parseable.
    #[serde(default)]
    pub net: Option<NetPlan>,
}

/// A model + optional measured expectations, ready to pre-seed a
/// repository.
pub(crate) struct StoredEntry {
    pub bench: BenchmarkSpec,
    pub model: TuningModel,
    /// `Some` ⇒ publish with expectations (drift-armed); `None` ⇒ plain
    /// design-time insert.
    pub expected: Option<Vec<(String, f64)>>,
}

/// The deterministic per-region configuration pool stored models draw
/// from (all valid Haswell DVFS/UFS states at full width).
fn model_configs() -> [SystemConfig; 4] {
    [
        SystemConfig::new(24, 2500, 1500),
        SystemConfig::new(24, 2400, 2000),
        SystemConfig::new(24, 2500, 2000),
        SystemConfig::new(24, 2200, 1800),
    ]
}

impl Scenario {
    /// Materialise the fleet.
    pub fn build_fleet(&self) -> Cluster {
        self.fleet.build()
    }

    /// Whether the repository bound can evict mid-run — the regime where
    /// the service loop is not promised to match the sweep loop (the
    /// `event_core` invariant skips its per-job comparison there).
    ///
    /// A bound that can never bite is *not* pressure: the comparison is
    /// against the worst-case entry population (pre-stored models plus,
    /// when online, one publication per cold workload — drift
    /// re-publications replace in place).
    pub fn eviction_pressure(&self) -> bool {
        if self.repository.capacity == 0 {
            return false;
        }
        let stored = self
            .workloads
            .iter()
            .filter(|w| w.stored != StoredModel::None)
            .count();
        let publishable = if self.online.is_some() {
            self.workloads.len()
        } else {
            stored
        };
        self.repository.capacity < publishable
    }

    /// The pre-seeded entries, with expectations measured (for
    /// [`StoredModel::Calibrated`]) by a probe run on a golden node —
    /// identical for every repository the scenario seeds.
    pub(crate) fn stored_entries(&self) -> Vec<StoredEntry> {
        let probe_node = Node::exact(0);
        self.workloads
            .iter()
            .filter(|w| w.stored != StoredModel::None)
            .map(|w| {
                let model = synthetic_model(&w.bench);
                let expected = (w.stored == StoredModel::Calibrated)
                    .then(|| measure_expectations(&w.bench, &model, &probe_node));
                StoredEntry {
                    bench: w.bench.clone(),
                    model,
                    expected,
                }
            })
            .collect()
    }

    /// Build and pre-seed the repository.
    pub fn build_repository(&self) -> TuningModelRepository {
        self.build_repository_from(&self.stored_entries())
    }

    /// [`Scenario::build_repository`] seeded from pre-measured entries —
    /// so a runner seeding one repository per run pays the probe
    /// measurements once.
    pub(crate) fn build_repository_from(&self, entries: &[StoredEntry]) -> TuningModelRepository {
        let mut repo = TuningModelRepository::new().with_capacity(self.repository.capacity);
        if let Some(fb) = self.repository.fallback {
            repo.set_fallback(fb);
        }
        for entry in entries {
            match &entry.expected {
                Some(expected) => {
                    repo.publish_online(&entry.bench, &entry.model, expected.clone());
                }
                None => repo.insert(&entry.bench, &entry.model),
            }
        }
        repo
    }

    /// Drop workloads no remaining job references (remapping job indices)
    /// and faults naming dropped jobs — shrinker housekeeping that keeps
    /// a reduced scenario self-consistent.
    pub fn prune(&mut self) {
        self.faults.retain_jobs(&self.jobs);
        let mut used: Vec<bool> = vec![false; self.workloads.len()];
        for job in &self.jobs {
            used[job.workload] = true;
        }
        let mut remap: Vec<usize> = vec![usize::MAX; self.workloads.len()];
        let mut kept = 0usize;
        for (i, used) in used.iter().enumerate() {
            if *used {
                remap[i] = kept;
                kept += 1;
            }
        }
        let mut idx = 0usize;
        self.workloads.retain(|_| {
            let keep = used[idx];
            idx += 1;
            keep
        });
        for job in &mut self.jobs {
            job.workload = remap[job.workload];
        }
    }

    /// Serialise the scenario as a one-line replay string for
    /// [`crate::replay`].
    pub fn to_replay(&self) -> String {
        serde_json::to_string(self).expect("scenario serialises")
    }

    /// Parse a replay string produced by [`Scenario::to_replay`]. A line
    /// whose job names a workload the scenario does not have is rejected,
    /// naming the job.
    pub fn from_replay(line: &str) -> Result<Self, String> {
        let scenario: Self = serde_json::from_str(line.trim())
            .map_err(|e| format!("unparseable replay line: {e}"))?;
        if let Some(job) = scenario
            .jobs
            .iter()
            .find(|job| job.workload >= scenario.workloads.len())
        {
            return Err(format!(
                "job `{}` names workload {}, but the scenario has {} workload(s)",
                job.name,
                job.workload,
                scenario.workloads.len()
            ));
        }
        Ok(scenario)
    }
}

/// The deterministic stored model for a workload: one configuration per
/// region from the fixed pool (chosen by region-name hash), plus a fixed
/// phase configuration.
pub(crate) fn synthetic_model(bench: &BenchmarkSpec) -> TuningModel {
    let pool = model_configs();
    let pairs: Vec<(String, SystemConfig)> = bench
        .regions
        .iter()
        .map(|r| {
            let idx = (kernels::fnv1a(r.name.as_bytes()) % pool.len() as u64) as usize;
            (r.name.clone(), pool[idx])
        })
        .collect();
    TuningModel::new(&bench.name, &pairs, SystemConfig::new(24, 2500, 2100))
}

/// Measure per-region-instance energy expectations for `model` on a
/// golden node — what a real publication would have recorded.
fn measure_expectations(
    bench: &BenchmarkSpec,
    model: &TuningModel,
    node: &Node,
) -> Vec<(String, f64)> {
    let served = ServedModel {
        model: model.clone(),
        source: rrl::ModelSource::Online,
        provenance: None,
    };
    let mut probe = RuntimeSession::start("testkit-probe", bench, node, served)
        .expect("stored models are valid on the golden node");
    probe.run_to_completion().expect("probe run succeeds");
    let accounting = probe.finish().expect("probe finishes");
    accounting
        .regions
        .iter()
        .map(|r| (r.region.clone(), r.node_energy_j / r.visits as f64))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_scenario() -> Scenario {
        Scenario {
            seed: 7,
            fleet: FleetSpec {
                seed: 7,
                nodes: vec![
                    NodeSpec {
                        variability: 1.02,
                        counter_noise_sd: 0.001,
                        cores_per_socket: 12,
                    },
                    NodeSpec {
                        variability: 0.97,
                        counter_noise_sd: 0.0,
                        cores_per_socket: 6,
                    },
                ],
            },
            workloads: vec![
                WorkloadSpec {
                    bench: kernels::toy_benchmark("wl0", 2e10, 8),
                    stored: StoredModel::Design,
                },
                WorkloadSpec {
                    bench: kernels::toy_benchmark("wl1", 1e10, 8),
                    stored: StoredModel::None,
                },
            ],
            jobs: vec![
                JobSpec {
                    name: "j0".into(),
                    workload: 0,
                    arrival_s: 0.0,
                },
                JobSpec {
                    name: "j1".into(),
                    workload: 1,
                    arrival_s: 1.5,
                },
            ],
            repository: RepositorySpec {
                fallback: Some(SystemConfig::new(24, 2400, 1700)),
                capacity: 0,
            },
            online: None,
            faults: FaultPlan {
                aborts: vec![AbortFault {
                    job: "j1".into(),
                    phase: 3,
                }],
                ..FaultPlan::default()
            },
            net: None,
        }
    }

    #[test]
    fn replay_round_trips() {
        let s = tiny_scenario();
        let line = s.to_replay();
        assert!(!line.contains('\n'), "replay is one line");
        let back = Scenario::from_replay(&line).expect("parses");
        assert_eq!(s, back);
        assert!(Scenario::from_replay("{nope").is_err());
    }

    #[test]
    fn replay_lines_without_a_net_plan_still_parse() {
        // A pre-net replay line round-trips through `#[serde(default)]`.
        let s = tiny_scenario();
        let line = s.to_replay();
        let legacy = line
            .replace(",\"net\":null", "")
            .replace("\"net\":null,", "");
        assert_ne!(legacy, line, "the key was present and got stripped");
        let back = Scenario::from_replay(&legacy).expect("legacy line parses");
        assert_eq!(back.net, None);
        assert_eq!(back, s);
    }

    #[test]
    fn replay_lines_with_a_worker_count_still_parse() {
        // Lines from before the threaded loop was removed carry a
        // `workers` count; the parser ignores the unknown field.
        let s = tiny_scenario();
        let line = s.to_replay();
        let legacy = line.replace("\"online\":null", "\"online\":null,\"workers\":4");
        assert_ne!(legacy, line, "the count was spliced in");
        let back = Scenario::from_replay(&legacy).expect("legacy line parses");
        assert_eq!(back, s);
    }

    #[test]
    fn replay_lines_without_a_churn_schedule_still_parse() {
        // A pre-service replay line round-trips through `#[serde(default)]`.
        let s = tiny_scenario();
        let line = s.to_replay();
        let legacy = line
            .replace(",\"churn\":[]", "")
            .replace("\"churn\":[],", "");
        assert_ne!(legacy, line, "the key was present and got stripped");
        let back = Scenario::from_replay(&legacy).expect("legacy line parses");
        assert!(back.faults.churn.is_empty());
        assert_eq!(back, s);
    }

    #[test]
    fn churn_schedule_rides_the_fault_plan() {
        use rrl::ChurnKind;
        let mut s = tiny_scenario();
        s.faults.churn.push(ChurnEvent {
            at_s: 2.5,
            node: 1,
            kind: ChurnKind::Drain,
        });
        assert_eq!(s.faults.len(), 2);
        assert!(!s.faults.is_empty());
        // The schedule surfaces through the injector seam and the
        // replay artefact alike.
        let f: &dyn FaultInjector = &s.faults;
        assert_eq!(f.node_churn(), s.faults.churn);
        assert_eq!(Scenario::from_replay(&s.to_replay()).unwrap(), s);
        // A churn-only plan is still a plan (the runner must attach it).
        let only_churn = FaultPlan {
            churn: s.faults.churn.clone(),
            ..FaultPlan::default()
        };
        assert!(!only_churn.is_empty());
        // Churn names nodes, not jobs: job pruning leaves it alone.
        let mut pruned = s.clone();
        pruned.jobs.clear();
        pruned.prune();
        assert_eq!(pruned.faults.churn, s.faults.churn);
    }

    #[test]
    fn replica_churn_rides_the_fault_plan() {
        use rrl::ReplicaChurnKind;
        let mut s = tiny_scenario();
        s.faults.replica_churn.push(ReplicaChurnEvent {
            at_s: 1.0,
            replica: 1,
            kind: ReplicaChurnKind::Crash,
        });
        s.faults.replica_churn.push(ReplicaChurnEvent {
            at_s: 2.0,
            replica: 1,
            kind: ReplicaChurnKind::Restart,
        });
        assert_eq!(s.faults.len(), 3);
        // The schedule surfaces through the injector seam and the
        // replay artefact alike.
        let f: &dyn FaultInjector = &s.faults;
        assert_eq!(f.replica_churn(), s.faults.replica_churn);
        assert_eq!(Scenario::from_replay(&s.to_replay()).unwrap(), s);
        // A replica-churn-only plan is still a plan (the runner must
        // attach it for the in-loop run to see the schedule).
        let only_replica_churn = FaultPlan {
            replica_churn: s.faults.replica_churn.clone(),
            ..FaultPlan::default()
        };
        assert!(!only_replica_churn.is_empty());
        // Replica churn names replicas, not jobs: job pruning leaves it
        // alone.
        let mut pruned = s.clone();
        pruned.jobs.clear();
        pruned.prune();
        assert_eq!(pruned.faults.replica_churn, s.faults.replica_churn);
        // And a pre-in-loop replay line (no `replica_churn` key) still
        // parses through `#[serde(default)]`.
        let legacy_line = tiny_scenario().to_replay();
        let legacy = legacy_line
            .replace(",\"replica_churn\":[]", "")
            .replace("\"replica_churn\":[],", "");
        assert_ne!(legacy, legacy_line, "the key was present and got stripped");
        let back = Scenario::from_replay(&legacy).expect("legacy line parses");
        assert!(back.faults.replica_churn.is_empty());
        assert_eq!(back, tiny_scenario());
    }

    #[test]
    fn inloop_gossip_knobs_ride_the_net_plan() {
        let mut s = tiny_scenario();
        s.net = Some(NetPlan {
            replicas: 3,
            fault_seed: 7,
            drop_permille: 0,
            duplicate_permille: 0,
            delay_jitter_ticks: 0,
            partitions: Vec::new(),
            gossip_cadence_us: 5_000,
            read_repair: true,
        });
        assert_eq!(Scenario::from_replay(&s.to_replay()).unwrap(), s);
        // A pre-in-loop replay line (no gossip keys) defaults to the
        // batch-only meaning: cadence 0, no read-repair.
        let line = s.to_replay();
        let legacy = line
            .replace(",\"gossip_cadence_us\":5000", "")
            .replace(",\"read_repair\":true", "");
        assert_ne!(legacy, line, "both keys were present and got stripped");
        let back = Scenario::from_replay(&legacy).expect("legacy line parses");
        let plan = back.net.expect("plan survives");
        assert_eq!(plan.gossip_cadence_us, 0);
        assert!(!plan.read_repair);
    }

    #[test]
    fn net_plan_round_trips_and_decides_purely() {
        let plan = NetPlan {
            replicas: 4,
            fault_seed: 99,
            drop_permille: 150,
            duplicate_permille: 80,
            delay_jitter_ticks: 3,
            partitions: vec![PartitionWindow {
                from_tick: 5,
                to_tick: 20,
                isolated: vec![2],
            }],
            gossip_cadence_us: 0,
            read_repair: false,
        };
        let mut s = tiny_scenario();
        s.net = Some(plan.clone());
        assert_eq!(Scenario::from_replay(&s.to_replay()).unwrap(), s);

        let f: &dyn FaultInjector = &plan;
        // Pure: the same message id always gets the same decision.
        for id in 0..200u64 {
            assert_eq!(f.delay_ticks(id), f.delay_ticks(id));
            assert_eq!(f.drop_message(id), f.drop_message(id));
            assert_eq!(f.duplicate_message(id), f.duplicate_message(id));
            assert!(f.delay_ticks(id) <= 3);
        }
        // The permille knobs actually fire, roughly in proportion.
        let drops = (0..1000).filter(|id| f.drop_message(*id)).count();
        assert!((50..350).contains(&drops), "{drops} drops out of 1000");
        let dups = (0..1000).filter(|id| f.duplicate_message(*id)).count();
        assert!((20..200).contains(&dups), "{dups} duplicates out of 1000");
        // Partition: only crossings of the isolation boundary, only
        // inside the window.
        assert!(f.partitioned(5, 2, 0) && f.partitioned(5, 0, 2));
        assert!(!f.partitioned(5, 0, 1), "same side is unaffected");
        assert!(!f.partitioned(20, 2, 0), "window closed");
        assert!(!f.partitioned(4, 2, 0), "window not yet open");
    }

    #[test]
    fn zeroed_net_plan_is_fault_free() {
        let plan = NetPlan {
            replicas: 2,
            fault_seed: 1,
            drop_permille: 0,
            duplicate_permille: 0,
            delay_jitter_ticks: 0,
            partitions: Vec::new(),
            gossip_cadence_us: 0,
            read_repair: false,
        };
        let f: &dyn FaultInjector = &plan;
        for id in 0..100u64 {
            assert_eq!(f.delay_ticks(id), 0);
            assert!(!f.drop_message(id));
            assert!(!f.duplicate_message(id));
        }
        assert!(!f.partitioned(0, 0, 1));
    }

    #[test]
    fn fleet_builds_with_gaps_and_overrides() {
        let s = tiny_scenario();
        let fleet = s.build_fleet();
        assert_eq!(fleet.len(), 2);
        assert_eq!(fleet.node(0).variability(), 1.02);
        assert_eq!(fleet.node(1).topology().max_threads(), 12);
        assert!(!fleet.node(1).supports(&SystemConfig::taurus_default()));
    }

    #[test]
    fn repositories_seed_identically() {
        let s = tiny_scenario();
        let repo = s.build_repository();
        let premeasured = s.build_repository_from(&s.stored_entries());
        assert_eq!(repo.len(), 1);
        assert_eq!(premeasured.len(), 1);
        assert!(repo.contains(&s.workloads[0].bench));
        assert!(premeasured.contains(&s.workloads[0].bench));
        assert!(!s.eviction_pressure());
    }

    #[test]
    fn fault_plan_implements_the_injector() {
        let s = tiny_scenario();
        let f: &dyn FaultInjector = &s.faults;
        assert_eq!(f.abort_phase("j1"), Some(3));
        assert_eq!(f.abort_phase("j0"), None);
        assert!(!f.fail_calibration("j0"));
        assert_eq!(f.drift_scale("j0", "omp parallel:1", 5), 1.0);
        assert_eq!(s.faults.len(), 1);
        assert!(!s.faults.is_empty());
    }

    #[test]
    fn drift_fault_scales_from_iteration() {
        let mut plan = FaultPlan::default();
        plan.drift_shifts.push(DriftShiftFault {
            job: "m".into(),
            region: "r".into(),
            from_iteration: 4,
            factor: 1.5,
        });
        assert_eq!(plan.drift_scale("m", "r", 3), 1.0);
        assert_eq!(plan.drift_scale("m", "r", 4), 1.5);
        assert_eq!(plan.drift_scale("m", "other", 9), 1.0);
        assert_eq!(plan.drift_scale("other", "r", 9), 1.0);
    }

    #[test]
    fn prune_drops_unreferenced_workloads_and_stale_faults() {
        let mut s = tiny_scenario();
        s.jobs.remove(1); // j1 gone: workload 1 unused, abort fault stale
        s.prune();
        assert_eq!(s.workloads.len(), 1);
        assert_eq!(s.jobs[0].workload, 0);
        assert!(s.faults.is_empty());
    }

    #[test]
    fn calibrated_entries_carry_measured_expectations() {
        let mut s = tiny_scenario();
        s.workloads[0].stored = StoredModel::Calibrated;
        let entries = s.stored_entries();
        assert_eq!(entries.len(), 1);
        let expected = entries[0].expected.as_ref().expect("measured");
        assert_eq!(expected.len(), 1, "one region, one expectation");
        assert!(expected[0].1 > 0.0);
        // Deterministic: a second measurement is bit-identical.
        assert_eq!(expected, s.stored_entries()[0].expected.as_ref().unwrap());
    }
}
