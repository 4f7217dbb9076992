//! The instrumented application.
//!
//! Binds a benchmark spec to a node and executes its phase loop with
//! Score-P-style probes: region enter/exit events, per-kind residual
//! instrumentation overhead, optional filtering, PCP-driven configuration
//! switching and trace recording. PTF (design-time analysis) and the RRL
//! (production runs) both drive the application through the [`TuningHook`]
//! interface — the analog of Score-P's substrate plugin API.

use kernels::BenchmarkSpec;
use simnode::{CounterSet, ExecutionEngine, Node, RegionRun, SystemConfig};

use crate::filter::FilterFile;
use crate::metric::HdeemMetricPlugin;
use crate::pcp::PcpStack;
use crate::profile::CallTreeProfile;
use crate::region::RegionKind;
use crate::trace::TraceWriter;

/// Instrumentation settings.
#[derive(Debug, Clone)]
pub struct InstrumentationConfig {
    /// Cost of one probe pair (region enter + exit), seconds.
    pub probe_cost_s: f64,
    /// Residual relative overhead on OpenMP parallel constructs (cannot be
    /// filtered away — Section V-E).
    pub omp_overhead_frac: f64,
    /// Residual relative overhead on compiler-instrumented functions.
    pub func_overhead_frac: f64,
    /// Residual relative overhead on MPI routines.
    pub mpi_overhead_frac: f64,
    /// Regions suppressed at compile time by the filter file.
    pub filter: Option<FilterFile>,
    /// The PAPI presets recorded on region exits (Score-P's PAPI metric
    /// list; empty = no counters). Recording is only enabled for
    /// model-training and analysis trace runs; presets outside the list
    /// read zero in the trace.
    pub papi_metrics: CounterSet,
}

impl InstrumentationConfig {
    /// Overheads calibrated to the paper's Table VI column
    /// (DVFS/UFS/Score-P overhead between −1.27 % and −4.40 %).
    pub fn scorep_defaults() -> Self {
        Self {
            probe_cost_s: 2e-6,
            omp_overhead_frac: 0.040,
            func_overhead_frac: 0.014,
            mpi_overhead_frac: 0.020,
            filter: None,
            papi_metrics: CounterSet::NONE,
        }
    }

    /// Uninstrumented execution (the plain production binary).
    pub fn uninstrumented() -> Self {
        Self {
            probe_cost_s: 0.0,
            omp_overhead_frac: 0.0,
            func_overhead_frac: 0.0,
            mpi_overhead_frac: 0.0,
            filter: None,
            papi_metrics: CounterSet::NONE,
        }
    }

    /// With a filter file applied (compile-time filtering).
    pub fn with_filter(mut self, filter: FilterFile) -> Self {
        self.filter = Some(filter);
        self
    }

    /// Record the PAPI presets in `metrics` on region exits.
    pub fn with_papi_metrics(mut self, metrics: CounterSet) -> Self {
        self.papi_metrics = metrics;
        self
    }

    /// Residual relative overhead charged on instrumented regions of this
    /// kind (phase probes are free — the phase loop is annotated manually).
    pub fn overhead_frac(&self, kind: RegionKind) -> f64 {
        match kind {
            RegionKind::Phase => 0.0,
            RegionKind::Function => self.func_overhead_frac,
            RegionKind::OmpParallel => self.omp_overhead_frac,
            RegionKind::Mpi => self.mpi_overhead_frac,
        }
    }

    /// Whether `name` is suppressed at compile time by the filter file.
    /// Filtered regions execute uninstrumented: no probes, no tuning-hook
    /// events, no overhead — they run under whatever configuration is
    /// currently applied.
    pub fn is_filtered(&self, name: &str) -> bool {
        self.filter.as_ref().is_some_and(|f| f.contains(name))
    }
}

/// Steering interface: PTF experiments and the RRL implement this to pick
/// configurations per region instance.
pub trait TuningHook {
    /// Configuration to run this region instance under. Returning
    /// `current` unchanged means no switch.
    fn config_for(&mut self, region: &str, phase_iter: u32, current: SystemConfig) -> SystemConfig;

    /// Observation callback after each instrumented region instance.
    fn on_region(&mut self, _region: &str, _phase_iter: u32, _run: &RegionRun) {}
}

/// A hook that holds one fixed configuration for the whole run (static
/// tuning, default runs, DTA experiments at a fixed point).
#[derive(Debug, Clone, Copy)]
pub struct StaticHook(pub SystemConfig);

impl TuningHook for StaticHook {
    fn config_for(&mut self, _r: &str, _i: u32, _c: SystemConfig) -> SystemConfig {
        self.0
    }
}

/// Result of one application run.
#[derive(Debug, Clone)]
pub struct AppRunReport {
    /// Wall time including all overheads, seconds.
    pub wall_time_s: f64,
    /// Job (node) energy as SLURM/HDEEM reports it, joules.
    pub job_energy_j: f64,
    /// CPU energy as RAPL reports it, joules.
    pub cpu_energy_j: f64,
    /// Profile of the run.
    pub profile: CallTreeProfile,
    /// Number of configuration switches performed.
    pub switches: u64,
    /// Total DVFS/UFS/OpenMP switching latency, seconds.
    pub switch_time_s: f64,
    /// Total instrumentation overhead time (probes + residual), seconds.
    pub instr_overhead_s: f64,
}

/// A benchmark bound to a node with instrumentation.
pub struct InstrumentedApp<'a> {
    bench: &'a BenchmarkSpec,
    node: &'a Node,
    engine: ExecutionEngine,
    cfg: InstrumentationConfig,
}

impl<'a> InstrumentedApp<'a> {
    /// Instrument `bench` for execution on `node`.
    pub fn new(bench: &'a BenchmarkSpec, node: &'a Node, cfg: InstrumentationConfig) -> Self {
        Self {
            bench,
            node,
            engine: ExecutionEngine::new(),
            cfg,
        }
    }

    /// The benchmark under instrumentation.
    pub fn benchmark(&self) -> &BenchmarkSpec {
        self.bench
    }

    /// Run the full phase loop under `hook`, starting from the platform
    /// default configuration.
    pub fn run(&self, hook: &mut dyn TuningHook) -> AppRunReport {
        self.run_from(hook, SystemConfig::taurus_default(), None)
    }

    /// Run and also record an OTF2-lite trace.
    pub fn run_traced(&self, hook: &mut dyn TuningHook, writer: &mut TraceWriter) -> AppRunReport {
        self.run_from(hook, SystemConfig::taurus_default(), Some(writer))
    }

    /// Run starting from an explicit initial configuration.
    pub fn run_from(
        &self,
        hook: &mut dyn TuningHook,
        initial: SystemConfig,
        mut writer: Option<&mut TraceWriter>,
    ) -> AppRunReport {
        let mut pcps = PcpStack::new(initial);
        let mut profile = CallTreeProfile::new();
        let mut hdeem = HdeemMetricPlugin::new();
        let mut rapl_j = 0.0;
        let mut wall_s = 0.0;
        let mut instr_overhead_s = 0.0;
        let mut t_ns: u64 = 0;

        let phase_id = writer.as_mut().map(|w| w.define_region("PHASE"));

        for iter in 0..self.bench.phase_iterations {
            if let (Some(w), Some(pid)) = (writer.as_mut(), phase_id) {
                w.enter(pid, t_ns);
            }
            let phase_start_energy = hdeem.accumulated_j();

            for region in &self.bench.regions {
                let kind = RegionKind::infer(&region.name);
                let filtered = self.cfg.is_filtered(&region.name);

                // Filtered regions run uninstrumented: no probes, no hook,
                // no events — they execute under whatever configuration is
                // currently applied.
                let config = if filtered {
                    pcps.current()
                } else {
                    let desired = hook.config_for(&region.name, iter, pcps.current());
                    let switch_latency = pcps.apply(desired);
                    if switch_latency > 0.0 {
                        // The switch stalls execution; charge it at the
                        // (new) configuration's idle-ish power via the
                        // region power below — we fold it into wall time
                        // and let HDEEM integrate region power over it.
                        wall_s += switch_latency;
                    }
                    desired
                };

                let run = self.engine.run_region_recording(
                    &region.character_at(iter),
                    &config,
                    self.node,
                    self.cfg.papi_metrics,
                );

                // Residual instrumentation overhead stretches the region.
                let (duration, node_j, cpu_j, overhead) = if filtered {
                    (run.duration_s, run.node_energy_j, run.cpu_energy_j, 0.0)
                } else {
                    let frac = self.cfg.overhead_frac(kind);
                    let stretched = run.duration_s * (1.0 + frac) + self.cfg.probe_cost_s;
                    let overhead = stretched - run.duration_s;
                    (
                        stretched,
                        run.power.node_w() * stretched,
                        run.power.cpu_w() * stretched,
                        overhead,
                    )
                };

                wall_s += duration;
                instr_overhead_s += overhead;
                rapl_j += cpu_j;
                hdeem.record(run.power.node_w(), duration);

                if !filtered {
                    profile.record(&region.name, kind, duration, node_j, run.memory_boundness());
                    hook.on_region(&region.name, iter, &run);
                    if let Some(w) = writer.as_mut() {
                        let rid = w.define_region(&region.name);
                        w.enter(rid, t_ns);
                        t_ns += (duration * 1e9) as u64;
                        let counters =
                            (!self.cfg.papi_metrics.is_empty()).then(|| run.counters.clone());
                        w.leave(rid, t_ns, node_j, counters);
                    } else {
                        t_ns += (duration * 1e9) as u64;
                    }
                } else {
                    t_ns += (duration * 1e9) as u64;
                }
            }

            if let (Some(w), Some(pid)) = (writer.as_mut(), phase_id) {
                let phase_energy = hdeem.accumulated_j() - phase_start_energy;
                w.leave(pid, t_ns, phase_energy, None);
            }
        }

        profile.phase_iterations = self.bench.phase_iterations as u64;
        profile.wall_time_s = wall_s;

        AppRunReport {
            wall_time_s: wall_s,
            job_energy_j: hdeem.finish(self.node),
            cpu_energy_j: rapl_j,
            profile,
            switches: pcps.switches(),
            switch_time_s: pcps.total_latency_s(),
            instr_overhead_s,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::filter::FilterFile;

    fn lulesh() -> BenchmarkSpec {
        kernels::benchmark("Lulesh").unwrap()
    }

    #[test]
    fn uninstrumented_run_has_no_overhead() {
        let bench = lulesh();
        let node = Node::exact(0);
        let app = InstrumentedApp::new(&bench, &node, InstrumentationConfig::uninstrumented());
        let report = app.run(&mut StaticHook(SystemConfig::taurus_default()));
        assert_eq!(report.instr_overhead_s, 0.0);
        assert!(report.wall_time_s > 0.0);
        assert!(report.job_energy_j > report.cpu_energy_j);
        assert_eq!(
            report.switches, 0,
            "static config equals initial: no switches"
        );
    }

    #[test]
    fn instrumentation_adds_bounded_overhead() {
        let bench = lulesh();
        let node = Node::exact(0);
        let plain = InstrumentedApp::new(&bench, &node, InstrumentationConfig::uninstrumented())
            .run(&mut StaticHook(SystemConfig::taurus_default()));
        let inst = InstrumentedApp::new(&bench, &node, InstrumentationConfig::scorep_defaults())
            .run(&mut StaticHook(SystemConfig::taurus_default()));
        let slowdown = inst.wall_time_s / plain.wall_time_s - 1.0;
        assert!(slowdown > 0.005, "overhead too small: {slowdown}");
        assert!(slowdown < 0.06, "overhead too large: {slowdown}");
    }

    #[test]
    fn filtering_removes_probe_overhead_for_filtered_regions() {
        let bench = lulesh();
        let node = Node::exact(0);
        let filter = FilterFile::from_names(["CalcTimeConstraintsForElems", "CommSyncPosVel"]);
        let cfg = InstrumentationConfig::scorep_defaults().with_filter(filter);
        let app = InstrumentedApp::new(&bench, &node, cfg);
        let report = app.run(&mut StaticHook(SystemConfig::taurus_default()));
        assert!(report
            .profile
            .region("CalcTimeConstraintsForElems")
            .is_none());
        assert!(report.profile.region("IntegrateStressForElems").is_some());
    }

    #[test]
    fn switching_hook_pays_transition_latency() {
        struct Alternate;
        impl TuningHook for Alternate {
            fn config_for(&mut self, region: &str, _i: u32, c: SystemConfig) -> SystemConfig {
                // Flip core frequency per region to force switches.
                if region.len().is_multiple_of(2) {
                    c.with_core_mhz(2400)
                } else {
                    c.with_core_mhz(2500)
                }
            }
        }
        let bench = lulesh();
        let node = Node::exact(0);
        let app = InstrumentedApp::new(&bench, &node, InstrumentationConfig::scorep_defaults());
        let report = app.run(&mut Alternate);
        assert!(report.switches > 0);
        assert!(report.switch_time_s > 0.0);
        assert!(report.switch_time_s < 0.01 * report.wall_time_s);
    }

    #[test]
    fn profile_counts_phase_iterations_and_visits() {
        let bench = lulesh();
        let node = Node::exact(0);
        let app = InstrumentedApp::new(&bench, &node, InstrumentationConfig::scorep_defaults());
        let report = app.run(&mut StaticHook(SystemConfig::taurus_default()));
        assert_eq!(
            report.profile.phase_iterations,
            bench.phase_iterations as u64
        );
        let r = report.profile.region("IntegrateStressForElems").unwrap();
        assert_eq!(r.visits, bench.phase_iterations as u64);
    }

    #[test]
    fn trace_records_phase_and_region_events() {
        let bench = lulesh();
        let node = Node::exact(0);
        let cfg = InstrumentationConfig::scorep_defaults().with_papi_metrics(CounterSet::ALL);
        let app = InstrumentedApp::new(&bench, &node, cfg);
        let mut w = TraceWriter::new();
        app.run_traced(&mut StaticHook(SystemConfig::taurus_default()), &mut w);
        let trace = w.finish();
        // PHASE + 7 regions defined; events: per iteration 2 phase + 2×7 region.
        assert!(trace.registry.id("PHASE").is_some());
        let per_iter = 2 + 2 * bench.regions.len();
        assert_eq!(
            trace.events.len(),
            per_iter * bench.phase_iterations as usize
        );
    }

    #[test]
    fn lower_frequency_config_uses_less_power_but_more_time() {
        let bench = lulesh();
        let node = Node::exact(0);
        let app = InstrumentedApp::new(&bench, &node, InstrumentationConfig::uninstrumented());
        let fast = app.run(&mut StaticHook(SystemConfig::new(24, 2500, 3000)));
        let slow = app.run(&mut StaticHook(SystemConfig::new(24, 1200, 3000)));
        assert!(slow.wall_time_s > fast.wall_time_s * 1.5);
        assert!(slow.job_energy_j / slow.wall_time_s < fast.job_energy_j / fast.wall_time_s);
    }
}
