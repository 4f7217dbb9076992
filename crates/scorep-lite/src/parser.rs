//! The custom OTF2 post-processing tool.
//!
//! The paper implements its own OTF2 parser to extract training data from
//! traces: "Our tool reports energy values for the entire application run,
//! while PAPI values are reported individually for instances of the phase
//! region" (Section IV-A). [`parse_trace`] reproduces exactly that
//! contract.

use std::collections::HashMap;

use simnode::papi::CounterValues;

use crate::region::RegionId;
use crate::trace::{Otf2Trace, TraceEvent};

/// One phase-region instance extracted from a trace.
#[derive(Debug, Clone)]
pub struct PhaseInstance {
    /// Duration of the instance, seconds.
    pub duration_s: f64,
    /// Node energy over the instance, joules.
    pub node_energy_j: f64,
    /// Sum of the PAPI counters of all region instances inside this phase
    /// instance (present only if the trace recorded counters).
    pub counters: Option<CounterValues>,
}

/// Post-processing result.
#[derive(Debug, Clone)]
pub struct TraceSummary {
    /// Energy of the entire application run (sum over phase instances), J.
    pub total_node_energy_j: f64,
    /// Per phase-instance data, chronological.
    pub phase_instances: Vec<PhaseInstance>,
    /// Total time covered by phase instances, seconds.
    pub total_phase_time_s: f64,
}

impl TraceSummary {
    /// Counters of all phase instances summed, normalised per second of
    /// phase time — the "PAPI counters … normalized by dividing them with
    /// the execution time of one phase iteration" input the network uses
    /// (Section IV-C).
    pub fn counter_rates(&self) -> Option<CounterValues> {
        let mut acc = CounterValues::zeros();
        let mut any = false;
        for pi in &self.phase_instances {
            if let Some(c) = &pi.counters {
                acc.add_assign(c);
                any = true;
            }
        }
        if !any || self.total_phase_time_s <= 0.0 {
            return None;
        }
        Some(acc.scaled(1.0 / self.total_phase_time_s))
    }
}

/// Errors from trace post-processing.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ParseError {
    /// The trace has no `PHASE` region definition.
    NoPhaseRegion,
    /// Enter/leave events were not properly nested.
    UnbalancedEvents,
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ParseError::NoPhaseRegion => write!(f, "trace has no PHASE region"),
            ParseError::UnbalancedEvents => write!(f, "unbalanced enter/leave events"),
        }
    }
}

impl std::error::Error for ParseError {}

/// Extract the training-data summary from a trace.
pub fn parse_trace(trace: &Otf2Trace) -> Result<TraceSummary, ParseError> {
    let phase_id = trace
        .registry
        .id("PHASE")
        .ok_or(ParseError::NoPhaseRegion)?;

    let mut open_enters: HashMap<RegionId, u64> = HashMap::new();
    let mut phases = Vec::new();
    let mut in_phase = false;
    let mut phase_counters: Option<CounterValues> = None;

    for ev in &trace.events {
        match ev {
            TraceEvent::Enter { region, t_ns } => {
                if open_enters.insert(*region, *t_ns).is_some() {
                    return Err(ParseError::UnbalancedEvents);
                }
                if *region == phase_id {
                    in_phase = true;
                    phase_counters = None;
                }
            }
            TraceEvent::Leave {
                region,
                t_ns,
                node_energy_j,
                counters,
            } => {
                let Some(start) = open_enters.remove(region) else {
                    return Err(ParseError::UnbalancedEvents);
                };
                if *region == phase_id {
                    phases.push(PhaseInstance {
                        duration_s: (*t_ns - start) as f64 / 1e9,
                        node_energy_j: *node_energy_j,
                        counters: phase_counters.take(),
                    });
                    in_phase = false;
                } else if in_phase {
                    if let Some(c) = counters {
                        match &mut phase_counters {
                            Some(acc) => acc.add_assign(c),
                            None => phase_counters = Some(c.clone()),
                        }
                    }
                }
            }
        }
    }
    if !open_enters.is_empty() {
        return Err(ParseError::UnbalancedEvents);
    }

    Ok(TraceSummary {
        total_node_energy_j: phases.iter().map(|p| p.node_energy_j).sum(),
        total_phase_time_s: phases.iter().map(|p| p.duration_s).sum(),
        phase_instances: phases,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::instrument::{InstrumentationConfig, InstrumentedApp, StaticHook};
    use crate::trace::TraceWriter;
    use simnode::papi::PapiCounter;
    use simnode::{CounterSet, Node, SystemConfig};

    fn traced_run(record_counters: bool) -> Otf2Trace {
        let bench = kernels::benchmark("Lulesh").unwrap();
        let node = Node::exact(0);
        let mut cfg = InstrumentationConfig::scorep_defaults();
        if record_counters {
            cfg = cfg.with_papi_metrics(CounterSet::ALL);
        }
        let app = InstrumentedApp::new(&bench, &node, cfg);
        let mut w = TraceWriter::new();
        app.run_traced(&mut StaticHook(SystemConfig::calibration()), &mut w);
        w.finish()
    }

    #[test]
    fn one_phase_instance_per_iteration() {
        let trace = traced_run(false);
        let s = parse_trace(&trace).expect("parse");
        assert_eq!(s.phase_instances.len(), 30);
        assert!(s.total_node_energy_j > 0.0);
    }

    #[test]
    fn counters_aggregate_per_phase() {
        let trace = traced_run(true);
        let s = parse_trace(&trace).expect("parse");
        let first = s.phase_instances[0].counters.as_ref().expect("counters");
        // Phase instructions = sum over the 5 significant + 2 filler regions.
        let bench = kernels::benchmark("Lulesh").unwrap();
        let expected: f64 = bench
            .regions
            .iter()
            .map(|r| r.character.instr_per_iter)
            .sum();
        let got = first.get(PapiCounter::TotIns);
        assert!(
            (got - expected).abs() / expected < 1e-9,
            "got {got}, want {expected}"
        );
    }

    #[test]
    fn counter_rates_are_per_second() {
        let trace = traced_run(true);
        let s = parse_trace(&trace).expect("parse");
        let rates = s.counter_rates().expect("rates");
        // Phase instances differ (CalcQForElems carries work variation),
        // so the rate must equal the *sum* over instances divided by the
        // total phase time.
        let total_ins: f64 = s
            .phase_instances
            .iter()
            .map(|p| p.counters.as_ref().unwrap().get(PapiCounter::TotIns))
            .sum();
        let rate = rates.get(PapiCounter::TotIns);
        let expected = total_ins / s.total_phase_time_s;
        assert!((rate - expected).abs() / expected < 1e-9);
    }

    #[test]
    fn missing_phase_region_is_error() {
        let mut w = TraceWriter::new();
        let r = w.define_region("not_phase");
        w.enter(r, 0);
        w.leave(r, 10, 1.0, None);
        assert!(matches!(
            parse_trace(&w.finish()),
            Err(ParseError::NoPhaseRegion)
        ));
    }

    #[test]
    fn unbalanced_events_rejected() {
        let mut w = TraceWriter::new();
        let p = w.define_region("PHASE");
        w.enter(p, 0);
        let trace = w.finish();
        assert!(matches!(
            parse_trace(&trace),
            Err(ParseError::UnbalancedEvents)
        ));
    }
}
