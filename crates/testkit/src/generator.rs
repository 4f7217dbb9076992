//! Seeded scenario generation: seed → [`Scenario`].
//!
//! The generator samples every messy property the ROADMAP promises the
//! runtime handles — bursty or Poisson job arrivals over a mixed workload
//! population (kernel-catalog specs plus size-jittered synthetics),
//! heterogeneous fleets with power-variability spreads and capability
//! gaps, repository pressure that forces mid-run eviction, and a
//! [`FaultPlan`] of job aborts, refused calibrations and mid-run drift
//! shifts — from one `u64` seed through a splitmix64 stream. The same
//! seed always yields the same [`Scenario`], byte for byte.

use crate::scenario::{
    AbortFault, DriftShiftFault, FaultPlan, FleetSpec, JobSpec, NetPlan, NodeSpec, OnlineSpec,
    PartitionWindow, RepositorySpec, Scenario, StoredModel, WorkloadSpec,
};
use kernels::{splitmix64, BenchmarkSpec};
use rrl::{ChurnEvent, ChurnKind, ReplicaChurnEvent, ReplicaChurnKind};
use simnode::SystemConfig;

/// Uniform f64 in `[0, 1)`.
fn unit(state: &mut u64) -> f64 {
    (splitmix64(state) >> 11) as f64 / (1u64 << 53) as f64
}

/// Uniform usize in `[0, n)` (n > 0).
fn below(state: &mut u64, n: usize) -> usize {
    (splitmix64(state) % n as u64) as usize
}

/// The job interarrival model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ArrivalModel {
    /// Exponential interarrivals with the given mean (s) — a Poisson
    /// process, the steady-traffic shape.
    Poisson {
        /// Mean interarrival time, seconds.
        mean_s: f64,
    },
    /// Back-to-back bursts of `burst` jobs separated by `gap_s` — the
    /// resubmission-wave shape. The sweep loop has no time model: there
    /// arrival times only document the trace shape (and perturb the
    /// sampling stream) and submission order is what it sees; the
    /// service loop honors them. Waiting behind calibrations comes from
    /// workload composition (cold workloads + skewed popularity).
    Bursty {
        /// Jobs per burst.
        burst: usize,
        /// Gap between bursts, seconds.
        gap_s: f64,
    },
}

/// Knobs for [`ScenarioGenerator`]. The defaults describe a small but
/// fully mixed scenario: heterogeneous fleet, warm *and* cold workloads,
/// faults on roughly a fifth of the jobs.
#[derive(Debug, Clone, PartialEq)]
pub struct GeneratorConfig {
    /// Jobs in the arrival trace.
    pub jobs: usize,
    /// Fleet size.
    pub nodes: usize,
    /// Workload-population size.
    pub workloads: usize,
    /// Interarrival model.
    pub arrivals: ArrivalModel,
    /// Attach online adaptation (calibrate-on-miss, drift monitoring).
    pub online: bool,
    /// Fraction of workloads pre-stored in the repository (drift-armed
    /// [`StoredModel::Calibrated`] entries when online, plain
    /// [`StoredModel::Design`] entries otherwise).
    pub stored_fraction: f64,
    /// Fraction of nodes with a capability gap (12 threads instead of
    /// 24), whose jobs the scheduler must degrade when served full-width
    /// models.
    pub capability_gap_fraction: f64,
    /// Bound the repositories below the publishing-workload count so the
    /// LRU evicts *mid-run*.
    pub eviction_pressure: bool,
    /// Fraction of jobs carrying an injected fault.
    pub fault_fraction: f64,
    /// Relative size jitter applied per workload (0.2 ⇒ ±20 % work).
    pub size_jitter: f64,
    /// Include a kernel-catalog benchmark (miniMD) in the population when
    /// it fits the calibration budget.
    pub catalog_workloads: bool,
    /// Replicas for the replicated-serving execution (0 disables it —
    /// the default — so every pre-existing profile generates byte
    /// for byte what it did before the net layer existed).
    pub replicas: usize,
    /// Node join/drain/fail events scheduled across the arrival window
    /// for the discrete-event service run (0 — the default — keeps the
    /// fleet stable and every pre-churn profile byte-identical).
    pub churn_events: usize,
    /// Drive the replicated execution **in-loop**: draw a gossip cadence
    /// (and read-repair) into the [`NetPlan`] so the runner also runs
    /// the trace through `run_service_replicated`, gossiping between job
    /// events instead of converging in one trailing batch. `false` — the
    /// default — keeps every pre-in-loop profile byte-identical. Only
    /// meaningful with `replicas > 0`.
    pub inloop_gossip: bool,
    /// Replica crash/restart pairs scheduled across the arrival window
    /// for the in-loop replicated run (0 — the default — keeps the
    /// replica set stable and every pre-in-loop profile byte-identical).
    /// Each event is a crash followed by a later restart of the same
    /// replica, and windows never overlap, so at most one replica is
    /// down at a time and the set always heals.
    pub replica_churn_events: usize,
}

impl Default for GeneratorConfig {
    fn default() -> Self {
        Self {
            jobs: 16,
            nodes: 4,
            workloads: 3,
            arrivals: ArrivalModel::Poisson { mean_s: 30.0 },
            online: true,
            stored_fraction: 0.4,
            capability_gap_fraction: 0.25,
            eviction_pressure: false,
            fault_fraction: 0.2,
            size_jitter: 0.2,
            catalog_workloads: true,
            replicas: 0,
            churn_events: 0,
            inloop_gossip: false,
            replica_churn_events: 0,
        }
    }
}

/// Seed → [`Scenario`]. One generator, many seeds: a scenario matrix.
#[derive(Debug, Clone, Default)]
pub struct ScenarioGenerator {
    cfg: GeneratorConfig,
}

impl ScenarioGenerator {
    /// A generator with the given knobs.
    pub fn new(cfg: GeneratorConfig) -> Self {
        Self { cfg }
    }

    /// The knobs in use.
    pub fn config(&self) -> &GeneratorConfig {
        &self.cfg
    }

    /// Generate the scenario for `seed` (pure: same seed, same scenario).
    pub fn generate(&self, seed: u64) -> Scenario {
        let cfg = &self.cfg;
        let mut rng = seed ^ 0x7E57_4B17_5EED_0001;

        let fleet = self.gen_fleet(seed, &mut rng);
        let workloads = self.gen_workloads(seed, &mut rng);
        let jobs = self.gen_jobs(&workloads, &mut rng);
        let mut faults = self.gen_faults(&workloads, &jobs, &mut rng);
        // Drawn strictly after every pre-existing draw: profiles with
        // `replicas: 0` consume the identical splitmix64 prefix and so
        // generate the identical scenario they always did.
        let mut net = self.gen_net(&mut rng);
        // Same append-only rule for the churn draws: `churn_events: 0`
        // profiles never reach them.
        faults.churn = self.gen_churn(&jobs, &mut rng);
        // And for the in-loop draws, appended after everything above:
        // `inloop_gossip: false` / `replica_churn_events: 0` profiles
        // consume the identical splitmix64 prefix they always did.
        if let Some(plan) = net.as_mut() {
            self.gen_inloop(plan, &mut rng);
        }
        faults.replica_churn = self.gen_replica_churn(&jobs, &mut rng);

        let publishing = workloads.len();
        let capacity = if cfg.eviction_pressure {
            (publishing / 2).max(1)
        } else {
            0
        };

        Scenario {
            seed,
            fleet,
            workloads,
            jobs,
            repository: RepositorySpec {
                fallback: Some(SystemConfig::new(24, 2400, 1700)),
                capacity,
            },
            online: cfg.online.then_some(OnlineSpec {
                search_pool: 10,
                search_seed: seed ^ 0x5EED,
            }),
            faults,
            net,
        }
    }

    /// A hostile-but-healing network: moderate drop/duplicate rates, a
    /// little reorder jitter, and one partition window isolating a
    /// random replica early on (it heals, so convergence stays
    /// reachable).
    fn gen_net(&self, rng: &mut u64) -> Option<NetPlan> {
        if self.cfg.replicas == 0 {
            return None;
        }
        let replicas = self.cfg.replicas.max(2) as u32;
        Some(NetPlan {
            replicas,
            fault_seed: splitmix64(rng),
            drop_permille: 20 + below(rng, 61) as u16,
            duplicate_permille: 10 + below(rng, 41) as u16,
            delay_jitter_ticks: below(rng, 4) as u64,
            partitions: vec![PartitionWindow {
                from_tick: 0,
                to_tick: 8 + below(rng, 25) as u64,
                isolated: vec![below(rng, replicas as usize) as u32],
            }],
            // Drawn later (append-only) by `gen_inloop`, so profiles
            // without the knob stay byte-identical.
            gossip_cadence_us: 0,
            read_repair: false,
        })
    }

    /// A node-membership schedule spread across the arrival window:
    /// drains and fails hit random nodes mid-trace, and every
    /// drain/fail is followed by a re-join later in the window so the
    /// fleet heals (capacity loss is transient, the way maintenance
    /// windows and crash-reboot cycles behave).
    fn gen_churn(&self, jobs: &[JobSpec], rng: &mut u64) -> Vec<ChurnEvent> {
        if self.cfg.churn_events == 0 {
            return Vec::new();
        }
        let span = jobs.last().map_or(1.0, |j| j.arrival_s.max(1.0));
        let nodes = self.cfg.nodes.max(1);
        let mut events = Vec::with_capacity(self.cfg.churn_events);
        while events.len() < self.cfg.churn_events {
            let node = below(rng, nodes) as u32;
            let kind = if below(rng, 2) == 0 {
                ChurnKind::Drain
            } else {
                ChurnKind::Fail
            };
            let at_s = unit(rng) * span * 0.8;
            events.push(ChurnEvent { at_s, node, kind });
            if events.len() < self.cfg.churn_events {
                // Heal: the node re-joins somewhere later in the window.
                let rejoin = at_s + unit(rng) * (span - at_s).max(0.1);
                events.push(ChurnEvent {
                    at_s: rejoin,
                    node,
                    kind: ChurnKind::Join,
                });
            }
        }
        events
    }

    /// The in-loop gossip knobs: a cadence short enough that several
    /// rounds interleave with the job events, read-repair on — the
    /// serving-while-syncing regime the in-loop invariant exists for.
    fn gen_inloop(&self, plan: &mut NetPlan, rng: &mut u64) {
        if !self.cfg.inloop_gossip {
            return;
        }
        plan.gossip_cadence_us = 2_000 + below(rng, 8) as u64 * 1_000;
        plan.read_repair = true;
    }

    /// A replica crash/restart schedule for the in-loop run: each draw
    /// is a crash followed by a later restart of the same replica, and
    /// windows are laid out sequentially (the next crash starts after
    /// the previous restart) so at most one replica is down at a time —
    /// the set degrades but never loses quorum for serving.
    fn gen_replica_churn(&self, jobs: &[JobSpec], rng: &mut u64) -> Vec<ReplicaChurnEvent> {
        if self.cfg.replica_churn_events == 0 || self.cfg.replicas == 0 {
            return Vec::new();
        }
        let replicas = self.cfg.replicas.max(2);
        let span = jobs.last().map_or(1.0, |j| j.arrival_s.max(1.0));
        let mut events = Vec::with_capacity(self.cfg.replica_churn_events * 2);
        let mut cursor = 0.0f64;
        for _ in 0..self.cfg.replica_churn_events {
            let replica = below(rng, replicas) as u32;
            let crash_at = cursor + unit(rng) * span * 0.3;
            let restart_at = crash_at + 0.05 + unit(rng) * span * 0.2;
            events.push(ReplicaChurnEvent {
                at_s: crash_at,
                replica,
                kind: ReplicaChurnKind::Crash,
            });
            events.push(ReplicaChurnEvent {
                at_s: restart_at,
                replica,
                kind: ReplicaChurnKind::Restart,
            });
            cursor = restart_at;
        }
        events
    }

    fn gen_fleet(&self, seed: u64, rng: &mut u64) -> FleetSpec {
        let nodes = (0..self.cfg.nodes.max(1))
            .map(|_| {
                let gapped = unit(rng) < self.cfg.capability_gap_fraction;
                NodeSpec {
                    // ±6 % spread — wider than the default sampling, still
                    // inside the ±15 % drift band so only *injected*
                    // shifts fire detectors.
                    variability: 1.0 + (unit(rng) - 0.5) * 0.12,
                    counter_noise_sd: unit(rng) * 0.004,
                    cores_per_socket: if gapped { 6 } else { NodeSpec::FULL_CORES },
                }
            })
            .collect();
        FleetSpec { seed, nodes }
    }

    fn gen_workloads(&self, seed: u64, rng: &mut u64) -> Vec<WorkloadSpec> {
        let cfg = &self.cfg;
        let mut out = Vec::with_capacity(cfg.workloads.max(1));
        for w in 0..cfg.workloads.max(1) {
            let bench = if cfg.catalog_workloads && cfg.online && w == 1 {
                // One catalog spec in the mix: miniMD's 25 iterations
                // fund a pool-10 calibration.
                kernels::benchmark("miniMD").expect("catalog has miniMD")
            } else {
                self.gen_synthetic(seed, w, rng)
            };
            let stored = if unit(rng) < cfg.stored_fraction {
                if cfg.online {
                    StoredModel::Calibrated
                } else {
                    StoredModel::Design
                }
            } else {
                StoredModel::None
            };
            out.push(WorkloadSpec { bench, stored });
        }
        out
    }

    /// A synthetic multi-region workload: clearly significant regions
    /// (≫ 100 ms at the calibration point) with distinct memory
    /// intensities, plus an insignificant filler — sizes jittered per
    /// workload so no two populations share a fingerprint.
    fn gen_synthetic(&self, seed: u64, w: usize, rng: &mut u64) -> BenchmarkSpec {
        use kernels::{ProgrammingModel, RegionSpec, Suite};
        use simnode::RegionCharacter;

        let jitter = 1.0 + (unit(rng) - 0.5) * 2.0 * self.cfg.size_jitter;
        let n_regions = 1 + below(rng, 3);
        let mut regions = Vec::with_capacity(n_regions + 1);
        for r in 0..n_regions {
            let instr = (1.5e10 + unit(rng) * 2.0e10) * jitter;
            let dram_ratio = 0.3 + unit(rng) * 2.5;
            regions.push(RegionSpec::new(
                format!("region_{r}"),
                RegionCharacter::builder(instr)
                    .ipc(1.2 + unit(rng))
                    .parallel(0.99)
                    .dram_bytes(dram_ratio * instr)
                    .stalls(0.2 + 0.4 * unit(rng))
                    .build(),
            ));
        }
        regions.push(RegionSpec::new(
            "filler",
            RegionCharacter::builder(5e7).build(),
        ));
        // Online calibrations need the thread sweep + analysis + pool +
        // verification to fit; offline runs can be much shorter.
        let iterations = if self.cfg.online {
            28 + below(rng, 14) as u32
        } else {
            6 + below(rng, 8) as u32
        };
        BenchmarkSpec::new(
            format!("wl{w}-{seed:016x}"),
            Suite::Npb,
            ProgrammingModel::Hybrid,
            iterations,
            regions,
        )
    }

    fn gen_jobs(&self, workloads: &[WorkloadSpec], rng: &mut u64) -> Vec<JobSpec> {
        let cfg = &self.cfg;
        let mut arrival = 0.0f64;
        let mut jobs = Vec::with_capacity(cfg.jobs);
        for i in 0..cfg.jobs {
            arrival += match cfg.arrivals {
                ArrivalModel::Poisson { mean_s } => {
                    // Inverse-CDF exponential draw.
                    -mean_s * (1.0 - unit(rng)).ln()
                }
                ArrivalModel::Bursty { burst, gap_s } => {
                    if i % burst.max(1) == 0 && i > 0 {
                        gap_s
                    } else {
                        0.0
                    }
                }
            };
            // Skewed popularity: half the traffic resubmits workload 0.
            let w = if unit(rng) < 0.5 {
                0
            } else {
                below(rng, workloads.len())
            };
            jobs.push(JobSpec {
                name: format!("j{i}-w{w}"),
                workload: w,
                arrival_s: arrival,
            });
        }
        jobs
    }

    fn gen_faults(&self, workloads: &[WorkloadSpec], jobs: &[JobSpec], rng: &mut u64) -> FaultPlan {
        let mut plan = FaultPlan::default();
        // At most one drift shift per *workload*: concurrent same-app
        // re-publications would assign versions in finish order rather
        // than submission order — scenario faults stay inside the
        // version-integrity contract.
        let mut drifted: Vec<usize> = Vec::new();
        // One calibration-failure injection per workload too (only the
        // leader's admission consults it, but keeping the plan minimal
        // makes shrunk scenarios easier to read).
        let mut calibration_failed: Vec<usize> = Vec::new();
        for job in jobs {
            if unit(rng) >= self.cfg.fault_fraction {
                continue;
            }
            let workload = &workloads[job.workload];
            let iterations = workload.bench.phase_iterations;
            let drift_armed = self.cfg.online
                && workload.stored == StoredModel::Calibrated
                && !drifted.contains(&job.workload);
            let cold = workload.stored == StoredModel::None;
            match below(rng, 3) {
                // A mid-run drift shift on a monitored workload.
                0 if drift_armed => {
                    drifted.push(job.workload);
                    plan.drift_shifts.push(DriftShiftFault {
                        job: job.name.clone(),
                        region: workload.bench.regions[0].name.clone(),
                        from_iteration: iterations / 4,
                        factor: 1.4 + unit(rng) * 0.5,
                    });
                }
                // A refused calibration on a cold workload.
                1 if self.cfg.online && cold && !calibration_failed.contains(&job.workload) => {
                    calibration_failed.push(job.workload);
                    plan.calibration_failures.push(job.name.clone());
                }
                // Default: abort the job somewhere inside its phase loop.
                _ => {
                    let phase = 1 + below(rng, iterations.saturating_sub(1).max(1) as usize) as u32;
                    plan.aborts.push(AbortFault {
                        job: job.name.clone(),
                        phase,
                    });
                }
            }
        }
        plan
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_scenario() {
        let generator = ScenarioGenerator::default();
        let a = generator.generate(42);
        let b = generator.generate(42);
        assert_eq!(a, b, "generation is pure");
        let c = generator.generate(43);
        assert_ne!(a, c, "different seeds differ");
    }

    #[test]
    fn generated_scenarios_are_well_formed() {
        let generator = ScenarioGenerator::new(GeneratorConfig {
            jobs: 24,
            nodes: 5,
            workloads: 4,
            ..GeneratorConfig::default()
        });
        for seed in 0..8u64 {
            let s = generator.generate(seed);
            assert_eq!(s.jobs.len(), 24);
            assert_eq!(s.fleet.nodes.len(), 5);
            assert_eq!(s.workloads.len(), 4);
            // Arrival order is submission order and non-decreasing.
            for pair in s.jobs.windows(2) {
                assert!(pair[1].arrival_s >= pair[0].arrival_s);
            }
            for job in &s.jobs {
                assert!(job.workload < s.workloads.len());
            }
            // Every fault names a real job.
            let mut pruned = s.clone();
            pruned.faults.retain_jobs(&pruned.jobs);
            assert_eq!(pruned.faults, s.faults);
            // Replay round-trips the whole artefact.
            assert_eq!(Scenario::from_replay(&s.to_replay()).unwrap(), s);
        }
    }

    #[test]
    fn bursty_arrivals_cluster_in_bursts() {
        let generator = ScenarioGenerator::new(GeneratorConfig {
            jobs: 9,
            arrivals: ArrivalModel::Bursty {
                burst: 3,
                gap_s: 100.0,
            },
            ..GeneratorConfig::default()
        });
        let s = generator.generate(1);
        assert_eq!(s.jobs[0].arrival_s, s.jobs[2].arrival_s);
        assert!(s.jobs[3].arrival_s >= s.jobs[2].arrival_s + 100.0);
    }

    #[test]
    fn replicas_knob_gates_the_net_plan() {
        let plain = ScenarioGenerator::default().generate(11);
        assert_eq!(plain.net, None, "default profile stays net-free");

        let generator = ScenarioGenerator::new(GeneratorConfig {
            replicas: 4,
            ..GeneratorConfig::default()
        });
        let s = generator.generate(11);
        let plan = s.net.clone().expect("replicas > 0 draws a plan");
        assert_eq!(plan.replicas, 4);
        assert!((20..=80).contains(&plan.drop_permille));
        assert!((10..=50).contains(&plan.duplicate_permille));
        assert!(plan.delay_jitter_ticks < 4);
        assert_eq!(plan.partitions.len(), 1);
        assert!(plan.partitions[0].isolated[0] < 4);
        assert!(plan.partitions[0].to_tick >= 8);
        // The net plan rides the replay artefact like everything else.
        assert_eq!(Scenario::from_replay(&s.to_replay()).unwrap(), s);
        // And the draw is appended, not interleaved: everything the
        // net-free profile generated is untouched.
        assert_eq!(s.jobs, plain.jobs);
        assert_eq!(s.fleet, plain.fleet);
        assert_eq!(s.workloads, plain.workloads);
        assert_eq!(s.faults, plain.faults);
    }

    #[test]
    fn churn_knob_gates_the_node_schedule() {
        let plain = ScenarioGenerator::default().generate(17);
        assert!(
            plain.faults.churn.is_empty(),
            "default profile stays stable"
        );

        let generator = ScenarioGenerator::new(GeneratorConfig {
            churn_events: 4,
            ..GeneratorConfig::default()
        });
        let s = generator.generate(17);
        assert_eq!(s.faults.churn.len(), 4);
        let span = s.jobs.last().unwrap().arrival_s.max(1.0);
        for event in &s.faults.churn {
            assert!((event.node as usize) < s.fleet.nodes.len());
            assert!(event.at_s >= 0.0 && event.at_s <= span);
        }
        // Every drain/fail heals: a later re-join of the same node.
        for (i, event) in s.faults.churn.iter().enumerate() {
            if event.kind != ChurnKind::Join && i + 1 < s.faults.churn.len() {
                let heal = &s.faults.churn[i + 1];
                assert_eq!(heal.kind, ChurnKind::Join);
                assert_eq!(heal.node, event.node);
                assert!(heal.at_s >= event.at_s);
            }
        }
        // The schedule rides the replay artefact like everything else.
        assert_eq!(Scenario::from_replay(&s.to_replay()).unwrap(), s);
        // And the draw is appended, not interleaved: everything the
        // churn-free profile generated is untouched.
        assert_eq!(s.jobs, plain.jobs);
        assert_eq!(s.fleet, plain.fleet);
        assert_eq!(s.workloads, plain.workloads);
        assert_eq!(s.net, plain.net);
        assert_eq!(s.faults.aborts, plain.faults.aborts);
        assert_eq!(s.faults.drift_shifts, plain.faults.drift_shifts);
    }

    #[test]
    fn inloop_knobs_gate_the_gossip_cadence_and_replica_churn() {
        use rrl::ReplicaChurnKind;
        let batch = ScenarioGenerator::new(GeneratorConfig {
            replicas: 3,
            ..GeneratorConfig::default()
        })
        .generate(23);
        let plan = batch.net.as_ref().expect("replicas draw a plan");
        assert_eq!(plan.gossip_cadence_us, 0, "batch-only by default");
        assert!(!plan.read_repair);
        assert!(batch.faults.replica_churn.is_empty());

        let generator = ScenarioGenerator::new(GeneratorConfig {
            replicas: 3,
            inloop_gossip: true,
            replica_churn_events: 2,
            ..GeneratorConfig::default()
        });
        let s = generator.generate(23);
        let plan = s.net.as_ref().expect("replicas draw a plan");
        assert!((2_000..10_000).contains(&plan.gossip_cadence_us));
        assert!(plan.read_repair);
        assert_eq!(s.faults.replica_churn.len(), 4, "two crash/restart pairs");
        // Every crash heals: the next event restarts the same replica
        // later, and windows never overlap (timestamps are monotone).
        for pair in s.faults.replica_churn.chunks(2) {
            assert_eq!(pair[0].kind, ReplicaChurnKind::Crash);
            assert_eq!(pair[1].kind, ReplicaChurnKind::Restart);
            assert_eq!(pair[0].replica, pair[1].replica);
            assert!((pair[0].replica as usize) < 3);
            assert!(pair[1].at_s > pair[0].at_s);
        }
        for pair in s.faults.replica_churn.windows(2) {
            assert!(pair[1].at_s >= pair[0].at_s);
        }
        // The schedule rides the replay artefact like everything else.
        assert_eq!(Scenario::from_replay(&s.to_replay()).unwrap(), s);
        // And the draws are appended, not interleaved: everything the
        // batch-only profile generated is untouched.
        assert_eq!(s.jobs, batch.jobs);
        assert_eq!(s.fleet, batch.fleet);
        assert_eq!(s.workloads, batch.workloads);
        assert_eq!(s.faults.aborts, batch.faults.aborts);
        assert_eq!(s.faults.churn, batch.faults.churn);
        assert_eq!(
            s.net.as_ref().map(|n| n.fault_seed),
            batch.net.as_ref().map(|n| n.fault_seed)
        );
    }

    #[test]
    fn eviction_pressure_bounds_the_repository() {
        let generator = ScenarioGenerator::new(GeneratorConfig {
            workloads: 4,
            eviction_pressure: true,
            ..GeneratorConfig::default()
        });
        let s = generator.generate(5);
        assert!(s.eviction_pressure());
        assert!(s.repository.capacity < s.workloads.len());
    }
}
