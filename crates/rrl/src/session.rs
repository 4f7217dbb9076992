//! The event-driven runtime session.
//!
//! [`RuntimeSession`] is the runtime mirror of the design-time
//! `TuningSession`: one handle per job, driven by explicit Score-P-shaped
//! events. `region_enter` resolves the region through the tuning model's
//! scenario classifier and switches the node's frequency/thread
//! configuration through the PCPs (charging the Section V-E transition
//! latencies); `region_exit` executes the region instance under the
//! applied configuration and accounts its time and energy per region;
//! `phase_complete` advances the phase loop; `finish` integrates the
//! accumulated power trace through the HDEEM sensor and returns the full
//! [`JobAccounting`]. Every transition returns
//! `Result<_, `[`RuntimeError`]`>` — mis-sequenced events, unknown
//! regions and unservable configurations are values, not panics.
//!
//! ```text
//! let served = repository.serve(&bench)?;          // model or fallback
//! let mut job = RuntimeSession::start("job-1", &bench, &node, served)?;
//! for _ in 0..bench.phase_iterations {
//!     for region in &bench.regions {
//!         job.region_enter(&region.name)?;         // classify + switch
//!         job.region_exit(&region.name)?;          // execute + account
//!     }
//!     job.phase_complete()?;
//! }
//! let accounting = job.finish()?;                  // sacct-style record
//! ```
//!
//! Accounting is deterministic and *interleaving-independent*: the HDEEM
//! measurement noise is seeded from the job name, the workload
//! fingerprint and the node id (one rule, `job_seed`), so a session
//! multiplexed among many others by the [`crate::ClusterScheduler`]
//! produces bit-identical results to the same session run alone, in
//! whatever order the sweep or the discrete-event loop advances it.
//!
//! Serving never draws PMU noise. `region_exit` executes the region
//! through [`ExecutionEngine::region_power`], which yields time and power
//! but derives no counters. So plain sessions, the
//! [`OnlineTuner`](crate::OnlineTuner)'s monitor and calibration
//! sessions, and the schedulers' default-run baselines leave their node's
//! counter-noise RNG untouched. Only design-time and instrumented runs
//! ([`ExecutionEngine::run_region`]) draw from it, among them the tuner's
//! analysis-stage counter-rate measurement, which runs only for search
//! strategies that read the rates (the model-based one).
//!
//! A session resolves what a region's events need once per region when it
//! opens: the served model's configuration, whether the instrumentation
//! filter hides the region, and its kind's overhead; a region's
//! accounting row is found once, on its first execution. The schedulers
//! drive regions by index; the name-keyed events resolve the name and
//! take the same path.
//!
//! A session memoises `region_power` for its node: it keeps each region's
//! last evaluation, keyed by everything the evaluation reads besides the
//! node (region, workload scale, configuration), so a memoised result is
//! the bit-identical value. A region's scale is constant unless its
//! workload varies across iterations, and its configuration changes only
//! while a calibration explores, so every other visit is a hit that
//! skips the power model's `pow`/`exp` calls; a miss costs one compare.

use kernels::BenchmarkSpec;
use ptf::experiments::Measurement;
use ptf::TuningModel;
use rand::rngs::StdRng;
use rand::SeedableRng;
use scorep_lite::region::RegionKind;
use scorep_lite::{InstrumentationConfig, PcpStack};
use simnode::hdeem::HdeemMeasurement;
use simnode::{ExecutionEngine, HdeemSensor, Node, PowerBreakdown, SystemConfig};

use crate::error::RuntimeError;
use crate::repository::{ModelSource, ServedModel};
use crate::sacct::{JobAccounting, JobRecord, RegionAccounting};

/// What one `region_exit` charged to the job.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RegionExit {
    /// Configuration the instance executed under.
    pub config: SystemConfig,
    /// Wall time charged, including residual instrumentation overhead,
    /// seconds.
    pub duration_s: f64,
    /// Node energy charged, joules.
    pub node_energy_j: f64,
    /// CPU (RAPL) energy charged, joules.
    pub cpu_energy_j: f64,
    /// Whether the region ran uninstrumented because of the filter file.
    pub filtered: bool,
}

impl From<&RegionExit> for Measurement {
    fn from(exit: &RegionExit) -> Self {
        Measurement {
            node_energy_j: exit.node_energy_j,
            cpu_energy_j: exit.cpu_energy_j,
            duration_s: exit.duration_s,
        }
    }
}

/// One region's last `region_power` evaluation: the iteration's workload
/// scale (`RegionSpec::scale_at`, as bits), the requested configuration,
/// and the iteration's time and power.
type PowerMemo = Option<(u64, SystemConfig, f64, PowerBreakdown)>;

/// What a session resolves once per region of its benchmark, so a region
/// event indexes where it would otherwise compare names.
struct RegionSlot {
    /// Index of the first region with this region's name: a name
    /// identifies a region, so that is the region every event of this
    /// name executes and is accounted as.
    first: usize,
    /// The served model's configuration for the region.
    config: SystemConfig,
    /// Whether the instrumentation filter hides the region.
    filtered: bool,
    /// Residual instrumentation overhead of the region's kind.
    overhead_frac: f64,
    /// The region's row in the accounting, once it has executed.
    row: Option<usize>,
    power: PowerMemo,
}

impl RegionSlot {
    /// The instrumentation-dependent half of a slot.
    fn instrument(&mut self, name: &str, inst: &InstrumentationConfig) {
        self.filtered = inst.is_filtered(name);
        self.overhead_frac = inst.overhead_frac(RegionKind::infer(name));
    }
}

/// A per-job runtime tuning session (see the module docs for the event
/// protocol).
pub struct RuntimeSession<'a> {
    job: String,
    bench: &'a BenchmarkSpec,
    node: &'a Node,
    model: TuningModel,
    source: ModelSource,
    inst: InstrumentationConfig,
    engine: ExecutionEngine,
    pcps: PcpStack,
    /// Piecewise-constant node-power trace for the HDEEM integration.
    segments: Vec<(f64, f64)>,
    /// Per-region accounting rows, in first-execution order.
    regions: Vec<RegionAccounting>,
    /// One slot per region of the benchmark.
    slots: Vec<RegionSlot>,
    /// The open region's index, resolved and validated at enter time.
    open: Option<usize>,
    phase_iter: u32,
    wall_s: f64,
    rapl_j: f64,
    instr_overhead_s: f64,
    lookups: u64,
    seed: u64,
}

impl<'a> RuntimeSession<'a> {
    /// Start a session for `job` running `bench` on `node` under the
    /// served model, from the platform-default configuration (what a
    /// freshly launched SLURM job starts at).
    pub fn start(
        job: impl Into<String>,
        bench: &'a BenchmarkSpec,
        node: &'a Node,
        served: ServedModel,
    ) -> Result<Self, RuntimeError> {
        Self::start_from(job, bench, node, served, SystemConfig::taurus_default())
    }

    /// [`Self::start`] from an explicit initial configuration (e.g. a job
    /// launched directly at its static optimum).
    pub fn start_from(
        job: impl Into<String>,
        bench: &'a BenchmarkSpec,
        node: &'a Node,
        served: ServedModel,
        initial: SystemConfig,
    ) -> Result<Self, RuntimeError> {
        Self::open(job, bench, bench.fingerprint(), node, served, initial)
    }

    /// [`Self::start_from`] for a caller that already holds the
    /// workload's fingerprint (the schedulers fingerprint each job once).
    pub(crate) fn open(
        job: impl Into<String>,
        bench: &'a BenchmarkSpec,
        fingerprint: u64,
        node: &'a Node,
        served: ServedModel,
        initial: SystemConfig,
    ) -> Result<Self, RuntimeError> {
        debug_assert_eq!(fingerprint, bench.fingerprint());
        let ServedModel { model, source, .. } = served;
        // Validate everything the model can ever serve up front, so no
        // later event can fail on an unapplicable configuration.
        for scenario in &model.scenarios {
            if !node.supports(&scenario.config) {
                return Err(RuntimeError::UnsupportedConfig {
                    application: model.application.clone(),
                    config: scenario.config,
                });
            }
        }
        if !node.supports(&model.phase_config) {
            return Err(RuntimeError::UnsupportedConfig {
                application: model.application.clone(),
                config: model.phase_config,
            });
        }
        // The launch configuration is the caller's, not the model's —
        // blame it separately so a bad launcher doesn't read as a corrupt
        // stored model.
        if !node.supports(&initial) {
            return Err(RuntimeError::UnsupportedInitial { config: initial });
        }
        let job = job.into();
        let seed = job_seed(&job, fingerprint, node);
        let inst = InstrumentationConfig::scorep_defaults();
        let slots = bench
            .regions
            .iter()
            .enumerate()
            .map(|(i, region)| {
                let mut slot = RegionSlot {
                    first: bench.regions[..i]
                        .iter()
                        .position(|r| r.name == region.name)
                        .unwrap_or(i),
                    config: model.lookup(&region.name),
                    filtered: false,
                    overhead_frac: 0.0,
                    row: None,
                    power: None,
                };
                slot.instrument(&region.name, &inst);
                slot
            })
            .collect();
        Ok(Self {
            job,
            bench,
            node,
            model,
            source,
            inst,
            engine: ExecutionEngine::new(),
            pcps: PcpStack::new(initial),
            segments: Vec::new(),
            regions: Vec::new(),
            slots,
            open: None,
            phase_iter: 0,
            wall_s: 0.0,
            rapl_j: 0.0,
            instr_overhead_s: 0.0,
            lookups: 0,
            seed,
        })
    }

    /// Replace the instrumentation settings (builder form — call before
    /// the first event). Production RRL runs default to
    /// [`InstrumentationConfig::scorep_defaults`]; pass
    /// [`InstrumentationConfig::uninstrumented`] for plain static runs or
    /// a filtered config for compile-time-filtered binaries.
    #[must_use]
    pub fn with_instrumentation(mut self, inst: InstrumentationConfig) -> Self {
        for (slot, region) in self.slots.iter_mut().zip(&self.bench.regions) {
            slot.instrument(&region.name, &inst);
        }
        self.inst = inst;
        self
    }

    /// The job name this session accounts under.
    pub fn job(&self) -> &str {
        &self.job
    }

    /// The benchmark this session executes.
    pub fn bench(&self) -> &'a BenchmarkSpec {
        self.bench
    }

    /// The node this session executes on.
    pub fn node(&self) -> &'a Node {
        self.node
    }

    /// Provenance of the model this session resolves scenarios against.
    pub fn source(&self) -> ModelSource {
        self.source
    }

    /// The deterministic per-job seed (job name ⊕ workload fingerprint ⊕
    /// node id) — shared with the online tuner's explore schedule.
    pub(crate) fn seed(&self) -> u64 {
        self.seed
    }

    /// The tuning model in use.
    pub fn model(&self) -> &TuningModel {
        &self.model
    }

    /// Phase iteration the next region event executes in.
    pub fn phase_iteration(&self) -> u32 {
        self.phase_iter
    }

    /// Virtual wall time accumulated so far (region durations plus
    /// configuration-switch latencies) — what `finish` will report as
    /// `elapsed_s`. The discrete-event service reads this after every
    /// event to place the *next* event on the virtual timeline.
    pub fn elapsed_s(&self) -> f64 {
        self.wall_s
    }

    /// Scenario lookups performed so far.
    pub fn lookups(&self) -> u64 {
        self.lookups
    }

    /// Configuration switches actually performed.
    pub fn switches(&self) -> u64 {
        self.pcps.switches()
    }

    /// Region-enter event: classify the region into its scenario and
    /// drive the node to that scenario's configuration through the PCPs.
    /// The transition latency (21 µs core / 20 µs uncore, Section V-E) is
    /// charged to the job's wall time. Returns the configuration the
    /// region will execute under.
    ///
    /// Filtered regions generate no event in a real Score-P binary; here
    /// they skip the lookup and the switch and simply run under the
    /// current configuration.
    pub fn region_enter(&mut self, region: &str) -> Result<SystemConfig, RuntimeError> {
        let idx = self.resolve_enter(region)?;
        self.region_enter_idx(idx, None)
    }

    /// The region index the name-keyed events resolve `region` to, after
    /// the protocol check they make first: no region may be open.
    pub(crate) fn resolve_enter(&self, region: &str) -> Result<usize, RuntimeError> {
        self.check_closed(|| format!("region_enter(`{region}`)"))?;
        self.bench
            .regions
            .iter()
            .position(|r| r.name == region)
            .ok_or_else(|| RuntimeError::UnknownRegion {
                application: self.bench.name.clone(),
                region: region.to_string(),
            })
    }

    /// The region `idx` is executed and accounted as (see
    /// [`RegionSlot::first`]); `idx` itself unless an earlier region of
    /// the benchmark has the same name.
    pub(crate) fn region_of(&self, idx: usize) -> usize {
        self.slots[idx].first
    }

    /// The one region-enter path, for `bench.regions[idx]`. Without an
    /// `explicit` configuration it is [`Self::region_enter`]. With one it
    /// bypasses the tuning model's scenario lookup: the exploration
    /// primitive the [`crate::OnlineTuner`] drives candidate measurements
    /// through. Protocol checks, filtering and switch-latency accounting
    /// are the same either way, but an explicit request does not count as
    /// a scenario lookup and must be applicable on this node. Drivers that
    /// walk the benchmark's regions by index call it directly.
    pub(crate) fn region_enter_idx(
        &mut self,
        idx: usize,
        explicit: Option<SystemConfig>,
    ) -> Result<SystemConfig, RuntimeError> {
        if let Some(config) = explicit {
            self.check_supported(config)?;
        }
        self.check_closed(|| format!("region_enter(`{}`)", self.bench.regions[idx].name))?;
        let idx = self.slots[idx].first;
        let slot = &self.slots[idx];
        let config = if slot.filtered {
            self.pcps.current()
        } else {
            let desired = match explicit {
                Some(config) => config,
                None => {
                    self.lookups += 1;
                    slot.config
                }
            };
            self.switch_to(desired);
            desired
        };
        self.open = Some(idx);
        Ok(config)
    }

    fn check_supported(&self, config: SystemConfig) -> Result<(), RuntimeError> {
        if self.node.supports(&config) {
            Ok(())
        } else {
            Err(RuntimeError::UnsupportedConfig {
                application: self.bench.name.clone(),
                config,
            })
        }
    }

    /// The check every event but `region_exit` makes first: no region may
    /// be open. `event` names the attempted event for the error.
    fn check_closed(&self, event: impl FnOnce() -> String) -> Result<(), RuntimeError> {
        match self.open {
            Some(open) => Err(RuntimeError::RegionStillOpen {
                open: self.bench.regions[open].name.clone(),
                event: event(),
            }),
            None => Ok(()),
        }
    }

    /// Drive the node to `desired` through the PCPs, charging the
    /// transition latency to the job's wall time.
    fn switch_to(&mut self, desired: SystemConfig) {
        let latency = self.pcps.apply(desired);
        if latency > 0.0 {
            // The switch stalls execution: wall time only, no power
            // segment (HDEEM integrates region power over regions).
            self.wall_s += latency;
        }
    }

    /// Region-exit event: execute the open region's current phase
    /// instance under the applied configuration, stretch it by the
    /// residual instrumentation overhead of its kind, and account time
    /// and energy to the job and to the region's breakdown entry.
    pub fn region_exit(&mut self, region: &str) -> Result<RegionExit, RuntimeError> {
        let idx = self.resolve_exit(region)?;
        self.region_exit_idx(idx)
    }

    /// The region index the name-keyed exit resolves `region` to: the open
    /// region's, when `region` names it.
    pub(crate) fn resolve_exit(&self, region: &str) -> Result<usize, RuntimeError> {
        let Some(open) = self.open else {
            return Err(RuntimeError::NoOpenRegion {
                requested: region.to_string(),
            });
        };
        let open_name = &self.bench.regions[open].name;
        if open_name != region {
            return Err(RuntimeError::RegionMismatch {
                open: open_name.clone(),
                requested: region.to_string(),
            });
        }
        Ok(open)
    }

    /// [`Self::region_exit`] of `bench.regions[idx]`.
    pub(crate) fn region_exit_idx(&mut self, idx: usize) -> Result<RegionExit, RuntimeError> {
        let requested = || self.bench.regions[idx].name.clone();
        let Some(open) = self.open else {
            return Err(RuntimeError::NoOpenRegion {
                requested: requested(),
            });
        };
        if open != self.slots[idx].first {
            return Err(RuntimeError::RegionMismatch {
                open: self.bench.regions[open].name.clone(),
                requested: requested(),
            });
        }
        self.open = None;
        // Resolved and validated by `region_enter`.
        let config = self.pcps.current();
        let (run_s, power) = self.region_power(open, config);

        let slot = &mut self.slots[open];
        let (duration, overhead) = if slot.filtered {
            (run_s, 0.0)
        } else {
            let stretched = run_s * (1.0 + slot.overhead_frac) + self.inst.probe_cost_s;
            (stretched, stretched - run_s)
        };
        let (node_j, cpu_j) = (power.node_w() * duration, power.cpu_w() * duration);

        self.wall_s += duration;
        self.instr_overhead_s += overhead;
        self.rapl_j += cpu_j;
        self.segments.push((power.node_w(), duration));

        // Charge the region's row, appending it on first execution (so
        // rows keep first-execution order).
        match slot.row {
            Some(row) => {
                let row = &mut self.regions[row];
                row.visits += 1;
                row.time_s += duration;
                row.node_energy_j += node_j;
                row.cpu_energy_j += cpu_j;
            }
            None => {
                slot.row = Some(self.regions.len());
                self.regions.push(RegionAccounting {
                    region: self.bench.regions[open].name.clone(),
                    visits: 1,
                    time_s: duration,
                    node_energy_j: node_j,
                    cpu_energy_j: cpu_j,
                });
            }
        }

        Ok(RegionExit {
            config,
            duration_s: duration,
            node_energy_j: node_j,
            cpu_energy_j: cpu_j,
            filtered: slot.filtered,
        })
    }

    /// [`ExecutionEngine::region_power`] of region `idx` in the current
    /// phase iteration under `config`, memoised (see the module docs).
    fn region_power(&mut self, idx: usize, config: SystemConfig) -> (f64, PowerBreakdown) {
        let spec = &self.bench.regions[idx];
        let scale = spec.scale_at(self.phase_iter).to_bits();
        let memo = &mut self.slots[idx].power;
        if let Some((s, c, run_s, power)) = *memo {
            if s == scale && c == config {
                return (run_s, power);
            }
        }
        let (run_s, power) =
            self.engine
                .region_power(&spec.character_at(self.phase_iter), &config, self.node);
        *memo = Some((scale, config, run_s, power));
        (run_s, power)
    }

    /// Phase-complete event: the main loop finished one iteration.
    /// Returns the new phase iteration index.
    pub fn phase_complete(&mut self) -> Result<u32, RuntimeError> {
        self.check_closed(|| "phase_complete".to_string())?;
        self.phase_iter += 1;
        Ok(self.phase_iter)
    }

    /// Drive the remaining phase iterations of the benchmark's phase loop
    /// through the event protocol (enter/exit every region in program
    /// order, then complete the phase).
    pub fn run_to_completion(&mut self) -> Result<(), RuntimeError> {
        while self.phase_iter < self.bench.phase_iterations {
            for idx in 0..self.bench.regions.len() {
                self.region_enter_idx(idx, None)?;
                self.region_exit_idx(idx)?;
            }
            self.phase_complete()?;
        }
        Ok(())
    }

    /// Finish the job: integrate the accumulated node-power trace through
    /// the HDEEM sensor (1 kSa/s, 5 ms start delay) and return the
    /// post-mortem accounting. The measurement noise is seeded from the
    /// job identity, so the result does not depend on what other sessions
    /// ran on the node in between.
    pub fn finish(self) -> Result<JobAccounting, RuntimeError> {
        self.check_closed(|| "finish".to_string())?;
        Ok(JobAccounting {
            record: self.window().record(self.seed),
            job: self.job,
            node_id: self.node.id(),
            regions: self.regions,
            switches: self.pcps.switches(),
            switch_time_s: self.pcps.total_latency_s(),
            instr_overhead_s: self.instr_overhead_s,
            scenario_lookups: self.lookups,
            source: self.source,
            online: None,
        })
    }

    /// Uninstrumented production run at one fixed configuration:
    /// launches at `config`, so no switches occur, and returns the
    /// accounting record.
    pub fn static_run(
        job: impl Into<String>,
        bench: &BenchmarkSpec,
        node: &Node,
        config: SystemConfig,
    ) -> Result<JobAccounting, RuntimeError> {
        RuntimeSession::static_session(job, bench, node, config)?.finish()
    }

    /// The completed, not yet finished session behind [`Self::static_run`].
    pub(crate) fn static_session(
        job: impl Into<String>,
        bench: &'a BenchmarkSpec,
        node: &'a Node,
        config: SystemConfig,
    ) -> Result<Self, RuntimeError> {
        let served = ServedModel::fallback(TuningModel::new(&bench.name, &[], config));
        let mut session = RuntimeSession::start_from(job, bench, node, served, config)?
            .with_instrumentation(InstrumentationConfig::uninstrumented());
        session.run_to_completion()?;
        Ok(session)
    }

    /// The job so far as HDEEM and `sacct` see it, before the noise draw.
    pub(crate) fn window(&self) -> JobWindow {
        JobWindow {
            window: HdeemSensor::taurus().measure_window(&self.segments),
            cpu_energy_j: self.rapl_j,
            elapsed_s: self.wall_s,
        }
    }
}

/// The one job-seed rule: job name ⊕ workload fingerprint ⊕ node id. It
/// seeds a job's HDEEM noise draw and the online tuner's explore
/// schedule, and makes both independent of what else ran on the node.
pub(crate) fn job_seed(job: &str, workload_fingerprint: u64, node: &Node) -> u64 {
    kernels::fnv1a(job.as_bytes())
        ^ workload_fingerprint
        ^ u64::from(node.id()).wrapping_mul(0x9E37_79B9_7F4A_7C15)
}

/// A completed phase loop as HDEEM and `sacct` see it before the job's
/// one noise draw. Nothing in it depends on the job's name, so one window
/// can stand for every job that ran the same workload, iteration count
/// and configuration on the same node.
#[derive(Debug, Clone, Copy)]
pub(crate) struct JobWindow {
    /// The noiseless HDEEM window over the node-power trace.
    pub(crate) window: HdeemMeasurement,
    pub(crate) cpu_energy_j: f64,
    pub(crate) elapsed_s: f64,
}

impl JobWindow {
    /// The job's `sacct` record: the window's energy after the noise draw
    /// seeded by `seed` (see `job_seed`).
    pub(crate) fn record(&self, seed: u64) -> JobRecord {
        let mut rng = StdRng::seed_from_u64(seed);
        JobRecord {
            job_energy_j: HdeemSensor::taurus()
                .add_noise(self.window, &mut rng)
                .energy_j,
            cpu_energy_j: self.cpu_energy_j,
            elapsed_s: self.elapsed_s,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lulesh_model() -> TuningModel {
        TuningModel::new(
            "Lulesh",
            &[
                (
                    "IntegrateStressForElems".into(),
                    SystemConfig::new(24, 2500, 2000),
                ),
                (
                    "CalcKinematicsForElems".into(),
                    SystemConfig::new(24, 2400, 2000),
                ),
            ],
            SystemConfig::new(24, 2500, 2100),
        )
    }

    fn served() -> ServedModel {
        ServedModel {
            model: lulesh_model(),
            source: ModelSource::Repository,
            provenance: None,
        }
    }

    #[test]
    fn event_protocol_enforced() {
        let bench = kernels::benchmark("Lulesh").unwrap();
        let node = Node::exact(0);
        let mut s = RuntimeSession::start("j", &bench, &node, served()).unwrap();

        assert!(matches!(
            s.region_exit("CalcQForElems"),
            Err(RuntimeError::NoOpenRegion { .. })
        ));
        assert!(matches!(
            s.region_enter("nonexistent"),
            Err(RuntimeError::UnknownRegion { .. })
        ));
        s.region_enter("CalcQForElems").unwrap();
        assert!(matches!(
            s.region_enter("CalcQForElems"),
            Err(RuntimeError::RegionStillOpen { .. })
        ));
        assert!(matches!(
            s.region_exit("CalcKinematicsForElems"),
            Err(RuntimeError::RegionMismatch { .. })
        ));
        assert!(matches!(
            s.phase_complete(),
            Err(RuntimeError::RegionStillOpen { .. })
        ));
        // The mismatch left the region open; the correct exit still works.
        s.region_exit("CalcQForElems").unwrap();
        assert_eq!(s.phase_complete().unwrap(), 1);
        // Finishing with an open region is an error too.
        s.region_enter("CalcQForElems").unwrap();
        assert!(matches!(
            s.finish(),
            Err(RuntimeError::RegionStillOpen { .. })
        ));
    }

    #[test]
    fn enter_switches_to_scenario_config() {
        let bench = kernels::benchmark("Lulesh").unwrap();
        let node = Node::exact(0);
        let mut s = RuntimeSession::start("j", &bench, &node, served()).unwrap();
        let cfg = s.region_enter("CalcKinematicsForElems").unwrap();
        assert_eq!(cfg, SystemConfig::new(24, 2400, 2000));
        assert_eq!(s.pcps.current(), cfg);
        let exit = s.region_exit("CalcKinematicsForElems").unwrap();
        assert_eq!(exit.config, cfg);
        assert!(exit.duration_s > 0.0);
        // Unknown region resolves to the phase config.
        let cfg2 = s.region_enter("CalcQForElems").unwrap();
        assert_eq!(cfg2, SystemConfig::new(24, 2500, 2100));
        assert_eq!(s.lookups(), 2);
        assert_eq!(s.switches(), 2);
    }

    #[test]
    fn enter_at_applies_explicit_config_without_lookup() {
        let bench = kernels::benchmark("Lulesh").unwrap();
        let node = Node::exact(0);
        let mut s = RuntimeSession::start("j", &bench, &node, served()).unwrap();
        let explored = SystemConfig::new(20, 2100, 1800);
        let q = s.resolve_enter("CalcQForElems").unwrap();
        let cfg = s.region_enter_idx(q, Some(explored)).unwrap();
        assert_eq!(cfg, explored);
        assert_eq!(s.pcps.current(), explored);
        let exit = s.region_exit("CalcQForElems").unwrap();
        assert_eq!(exit.config, explored);
        assert_eq!(s.lookups(), 0, "explicit requests are not scenario lookups");
        assert_eq!(s.switches(), 1);
        // Unsupported explicit requests are rejected before any state
        // changes; the protocol stays intact.
        assert!(matches!(
            s.region_enter_idx(q, Some(SystemConfig::new(48, 2100, 1800))),
            Err(RuntimeError::UnsupportedConfig { .. })
        ));
        s.region_enter("CalcQForElems").unwrap();
        s.region_exit("CalcQForElems").unwrap();
    }

    #[test]
    fn unsupported_model_config_rejected_at_start() {
        let bench = kernels::benchmark("Lulesh").unwrap();
        let node = Node::exact(0);
        let bad = ServedModel {
            model: TuningModel::new(
                "Lulesh",
                &[("CalcQForElems".into(), SystemConfig::new(24, 2600, 2000))],
                SystemConfig::new(24, 2500, 2100),
            ),
            source: ModelSource::Repository,
            provenance: None,
        };
        assert!(matches!(
            RuntimeSession::start("j", &bench, &node, bad),
            Err(RuntimeError::UnsupportedConfig { .. })
        ));
        let bad_phase = ServedModel {
            model: TuningModel::new("Lulesh", &[], SystemConfig::new(48, 2500, 2100)),
            source: ModelSource::Fallback,
            provenance: None,
        };
        assert!(matches!(
            RuntimeSession::start("j", &bench, &node, bad_phase),
            Err(RuntimeError::UnsupportedConfig { .. })
        ));
        // A bad *launch* configuration is the caller's fault and is
        // reported as such, not as a corrupt model.
        assert!(matches!(
            RuntimeSession::start_from(
                "j",
                &bench,
                &node,
                served(),
                SystemConfig::new(24, 2550, 3000)
            ),
            Err(RuntimeError::UnsupportedInitial { .. })
        ));
    }

    #[test]
    fn accounting_matches_instrumented_app() {
        // The event-driven session must reproduce the monolithic
        // InstrumentedApp run bit-for-bit on the deterministic
        // quantities (wall time, CPU energy, switches).
        use scorep_lite::instrument::TuningHook;
        use scorep_lite::InstrumentedApp;
        use simnode::RegionRun;

        struct ModelHook(TuningModel);
        impl TuningHook for ModelHook {
            fn config_for(&mut self, r: &str, _i: u32, _c: SystemConfig) -> SystemConfig {
                self.0.lookup(r)
            }
            fn on_region(&mut self, _r: &str, _i: u32, _run: &RegionRun) {}
        }

        let bench = kernels::benchmark("Lulesh").unwrap();
        let node = Node::exact(0);
        let app = InstrumentedApp::new(&bench, &node, InstrumentationConfig::scorep_defaults());
        let reference = app.run(&mut ModelHook(lulesh_model()));

        let mut s = RuntimeSession::start("j", &bench, &node, served()).unwrap();
        s.run_to_completion().unwrap();
        let acc = s.finish().unwrap();

        assert_eq!(acc.record.elapsed_s, reference.wall_time_s);
        assert_eq!(acc.record.cpu_energy_j, reference.cpu_energy_j);
        assert_eq!(acc.switches, reference.switches);
        assert_eq!(acc.switch_time_s, reference.switch_time_s);
        assert_eq!(acc.instr_overhead_s, reference.instr_overhead_s);
        // Job energy differs only by the session-seeded HDEEM noise draw.
        let rel = (acc.record.job_energy_j - reference.job_energy_j).abs() / reference.job_energy_j;
        assert!(rel < 0.01, "HDEEM views diverged: {rel}");
    }

    #[test]
    fn session_is_reproducible() {
        let bench = kernels::benchmark("Lulesh").unwrap();
        let node = Node::new(3, 77);
        let run = || {
            let mut s = RuntimeSession::start("job-42", &bench, &node, served()).unwrap();
            s.run_to_completion().unwrap();
            s.finish().unwrap()
        };
        let a = run();
        let b = run();
        assert_eq!(a.record, b.record, "same job identity, same accounting");
        // A different job name draws different HDEEM noise.
        let mut s = RuntimeSession::start("job-43", &bench, &node, served()).unwrap();
        s.run_to_completion().unwrap();
        let c = s.finish().unwrap();
        assert_eq!(a.record.elapsed_s, c.record.elapsed_s);
        assert_ne!(a.record.job_energy_j, c.record.job_energy_j);
    }

    #[test]
    fn filtered_regions_skip_lookup_and_overhead() {
        use scorep_lite::FilterFile;
        let bench = kernels::benchmark("Lulesh").unwrap();
        let node = Node::exact(0);
        let inst = InstrumentationConfig::scorep_defaults()
            .with_filter(FilterFile::from_names(["CalcQForElems"]));
        let mut s = RuntimeSession::start("j", &bench, &node, served())
            .unwrap()
            .with_instrumentation(inst);
        let cfg = s.region_enter("CalcQForElems").unwrap();
        assert_eq!(cfg, SystemConfig::taurus_default(), "no switch");
        let exit = s.region_exit("CalcQForElems").unwrap();
        assert!(exit.filtered);
        assert_eq!(s.lookups(), 0);
        assert_eq!(s.switches(), 0);
    }

    #[test]
    fn static_run_performs_no_switches() {
        let bench = kernels::benchmark("miniMD").unwrap();
        let node = Node::exact(0);
        let acc = RuntimeSession::static_run("s", &bench, &node, SystemConfig::new(24, 2500, 1500))
            .unwrap();
        assert_eq!(acc.switches, 0);
        assert_eq!(acc.switch_time_s, 0.0);
        assert_eq!(acc.instr_overhead_s, 0.0);
        // Every region event still resolves through the (static) model;
        // none of the lookups produces a switch.
        assert_eq!(
            acc.scenario_lookups,
            u64::from(bench.phase_iterations) * bench.regions.len() as u64
        );
        assert!(acc.record.elapsed_s > 0.0);
        assert!(acc.record.job_energy_j > acc.record.cpu_energy_j);
        assert_eq!(acc.source, ModelSource::Fallback);
    }

    #[test]
    fn tuned_static_config_saves_energy_on_minimd() {
        let bench = kernels::benchmark("miniMD").unwrap();
        let node = Node::exact(0);
        let default =
            RuntimeSession::static_run("d", &bench, &node, SystemConfig::taurus_default())
                .unwrap()
                .record;
        // Table V's static optimum for miniMD.
        let tuned =
            RuntimeSession::static_run("t", &bench, &node, SystemConfig::new(24, 2500, 1500))
                .unwrap()
                .record;
        assert!(tuned.job_energy_j < default.job_energy_j);
        assert!(tuned.cpu_energy_j < default.cpu_energy_j);
        // Compute-bound at the same CF: modest time change (the simulator
        // charges ~7 % for the uncore drop where the paper measured ~0 %).
        let dt = (tuned.elapsed_s - default.elapsed_s).abs() / default.elapsed_s;
        assert!(dt < 0.10, "time delta {dt}");
    }

    #[test]
    fn dynamic_session_saves_energy_versus_default() {
        let bench = kernels::benchmark("Lulesh").unwrap();
        let node = Node::exact(0);
        let default =
            RuntimeSession::static_run("d", &bench, &node, SystemConfig::taurus_default()).unwrap();
        let mut s = RuntimeSession::start("t", &bench, &node, served()).unwrap();
        s.run_to_completion().unwrap();
        let tuned = s.finish().unwrap();
        assert!(
            tuned.record.job_energy_j < default.record.job_energy_j,
            "dynamic tuning must save energy: {} vs {}",
            tuned.record.job_energy_j,
            default.record.job_energy_j
        );
        assert!(tuned.switches > u64::from(bench.phase_iterations));
    }
}
