//! Greedy scenario minimisation.
//!
//! [`shrink`] takes a failing [`Scenario`] and a predicate (typically
//! [`crate::check`] composed down to "did it fail, and how") and greedily
//! removes everything that does not contribute to the failure: the
//! node-churn schedule (collapsed *before* the job ddmin, so later
//! stages reason over a stable fleet), job-trace chunks (largest first,
//! ddmin style), individual faults, the net plan
//! (wholesale, then partition windows and fault knobs one at a time),
//! and trailing fleet nodes. After every accepted reduction the scenario
//! is [pruned](Scenario::prune) so unreferenced workloads and stale
//! faults disappear too. The result is a minimal scenario plus its
//! one-line `testkit::replay("…")` repro.
//!
//! The predicate returns the violation *label* so the shrinker only
//! accepts reductions that still fail **the same way** — a reduction that
//! trades a bit-identity violation for, say, a run error is rejected.

use crate::scenario::{FaultPlan, Scenario};

/// The result of a shrink: the minimal failing scenario.
#[derive(Debug, Clone)]
pub struct Shrunk {
    /// The reduced scenario.
    pub scenario: Scenario,
    /// The violation label the reduced scenario still triggers.
    pub violation: String,
    /// Scenario executions the search spent.
    pub attempts: usize,
}

impl Shrunk {
    /// The one-line repro for the reduced scenario.
    pub fn replay_line(&self) -> String {
        self.scenario.to_replay()
    }
}

/// Greedily minimise `scenario` against `fails` (which returns
/// `Some(violation-label)` when a candidate still fails the same way).
/// Returns `None` when the input scenario does not fail at all.
pub fn shrink(scenario: &Scenario, fails: &dyn Fn(&Scenario) -> Option<String>) -> Option<Shrunk> {
    let mut current = scenario.clone();
    let mut violation = fails(&current)?;
    let mut attempts = 1usize;

    // Accept `candidate` iff it still fails with the *same* label.
    let try_accept = |current: &mut Scenario,
                      violation: &mut String,
                      attempts: &mut usize,
                      candidate: Scenario|
     -> bool {
        *attempts += 1;
        match fails(&candidate) {
            Some(v) if v == *violation => {
                *current = candidate;
                true
            }
            // Still failing, but differently: accept only when the
            // caller's label is non-specific (empty).
            Some(v) if violation.is_empty() => {
                *violation = v;
                *current = candidate;
                true
            }
            _ => false,
        }
    };

    loop {
        let mut progressed = false;

        // 0. Churn collapse, before the job ddmin: a stable fleet makes
        //    every later job-trace candidate cheaper to reason about
        //    (and usually the churn schedule is ballast). Wholesale
        //    first, then one membership event at a time.
        if !current.faults.churn.is_empty() {
            let mut candidate = current.clone();
            candidate.faults.churn.clear();
            if try_accept(&mut current, &mut violation, &mut attempts, candidate) {
                progressed = true;
            } else {
                let mut i = 0;
                while i < current.faults.churn.len() {
                    let mut candidate = current.clone();
                    candidate.faults.churn.remove(i);
                    if try_accept(&mut current, &mut violation, &mut attempts, candidate) {
                        progressed = true;
                    } else {
                        i += 1;
                    }
                }
            }
        }

        // 1. Job-trace reduction, largest chunks first.
        let mut chunk = current.jobs.len() / 2;
        while chunk >= 1 {
            let mut start = 0usize;
            while start < current.jobs.len() && current.jobs.len() > 1 {
                if chunk >= current.jobs.len() {
                    break;
                }
                let mut candidate = current.clone();
                let end = (start + chunk).min(candidate.jobs.len());
                candidate.jobs.drain(start..end);
                candidate.prune();
                if try_accept(&mut current, &mut violation, &mut attempts, candidate) {
                    progressed = true;
                    // The drained range now holds fresh jobs: retry at
                    // the same position.
                } else {
                    start += chunk;
                }
            }
            if chunk == 1 {
                break;
            }
            chunk /= 2;
        }

        // 2. Fault reduction: the whole plan, then one fault at a time —
        //    one removal loop per fault kind, expressed as (len, remove)
        //    accessors so a new kind is one line here.
        if !current.faults.is_empty() {
            let mut candidate = current.clone();
            candidate.faults = Default::default();
            if try_accept(&mut current, &mut violation, &mut attempts, candidate) {
                progressed = true;
            } else {
                type FaultAccess = (fn(&FaultPlan) -> usize, fn(&mut FaultPlan, usize));
                const FAULT_KINDS: [FaultAccess; 4] = [
                    (
                        |p| p.aborts.len(),
                        |p, i| {
                            p.aborts.remove(i);
                        },
                    ),
                    (
                        |p| p.calibration_failures.len(),
                        |p, i| {
                            p.calibration_failures.remove(i);
                        },
                    ),
                    (
                        |p| p.drift_shifts.len(),
                        |p, i| {
                            p.drift_shifts.remove(i);
                        },
                    ),
                    (
                        |p| p.replica_churn.len(),
                        |p, i| {
                            p.replica_churn.remove(i);
                        },
                    ),
                ];
                for (len, remove) in FAULT_KINDS {
                    let mut i = 0;
                    while i < len(&current.faults) {
                        let mut candidate = current.clone();
                        remove(&mut candidate.faults, i);
                        if try_accept(&mut current, &mut violation, &mut attempts, candidate) {
                            progressed = true;
                        } else {
                            i += 1;
                        }
                    }
                }
            }
        }

        // 2b. Net-plan reduction: drop the plan wholesale, else thin it
        //     out — partitions one at a time, each fault knob zeroed,
        //     replica count collapsed to the 2-replica minimum.
        if current.net.is_some() {
            let mut candidate = current.clone();
            candidate.net = None;
            if try_accept(&mut current, &mut violation, &mut attempts, candidate) {
                progressed = true;
            } else {
                let mut i = 0;
                while i < current.net.as_ref().map_or(0, |n| n.partitions.len()) {
                    let mut candidate = current.clone();
                    candidate
                        .net
                        .as_mut()
                        .expect("checked")
                        .partitions
                        .remove(i);
                    if try_accept(&mut current, &mut violation, &mut attempts, candidate) {
                        progressed = true;
                    } else {
                        i += 1;
                    }
                }
                type NetKnob = fn(&mut crate::scenario::NetPlan) -> bool;
                const NET_KNOBS: [NetKnob; 6] = [
                    |n| std::mem::take(&mut n.drop_permille) != 0,
                    |n| std::mem::take(&mut n.duplicate_permille) != 0,
                    |n| std::mem::take(&mut n.delay_jitter_ticks) != 0,
                    // Collapsing the gossip cadence turns the in-loop
                    // run off wholesale (back to batch-only), and
                    // read-repair off sends misses to cold calibration
                    // — both big simplifications when not load-bearing.
                    |n| std::mem::take(&mut n.gossip_cadence_us) != 0,
                    |n| std::mem::take(&mut n.read_repair),
                    |n| {
                        if n.replicas > 2 {
                            n.replicas = 2;
                            true
                        } else {
                            false
                        }
                    },
                ];
                for zero in NET_KNOBS {
                    let mut candidate = current.clone();
                    if zero(candidate.net.as_mut().expect("checked"))
                        && try_accept(&mut current, &mut violation, &mut attempts, candidate)
                    {
                        progressed = true;
                    }
                }
            }
        }

        // 3. Fleet reduction: truncate to half, then drop one at a time.
        while current.fleet.nodes.len() > 1 {
            let mut candidate = current.clone();
            let target = (candidate.fleet.nodes.len() / 2).max(1);
            candidate.fleet.nodes.truncate(target);
            if try_accept(&mut current, &mut violation, &mut attempts, candidate) {
                progressed = true;
                continue;
            }
            let mut candidate = current.clone();
            candidate.fleet.nodes.pop();
            if try_accept(&mut current, &mut violation, &mut attempts, candidate) {
                progressed = true;
                continue;
            }
            break;
        }

        if !progressed {
            break;
        }
    }

    current.prune();
    Some(Shrunk {
        scenario: current,
        violation,
        attempts,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generator::{GeneratorConfig, ScenarioGenerator};

    #[test]
    fn shrink_none_when_scenario_passes() {
        let scenario = ScenarioGenerator::default().generate(1);
        assert!(shrink(&scenario, &|_| None).is_none());
    }

    #[test]
    fn shrink_minimises_against_a_structural_predicate() {
        // A pure structural predicate (no runtime execution) keeps this
        // unit test fast: "fails" while any job of workload 0 remains.
        let generator = ScenarioGenerator::new(GeneratorConfig {
            jobs: 12,
            nodes: 4,
            workloads: 3,
            online: false,
            replicas: 3,
            ..GeneratorConfig::default()
        });
        let scenario = generator.generate(9);
        let fails = |s: &Scenario| -> Option<String> {
            s.jobs
                .iter()
                .any(|j| s.workloads[j.workload].bench.name.starts_with("wl0"))
                .then(|| "has-wl0".to_string())
        };
        let shrunk = shrink(&scenario, &fails).expect("original fails");
        assert_eq!(shrunk.violation, "has-wl0");
        assert_eq!(shrunk.scenario.jobs.len(), 1, "one culprit job survives");
        assert_eq!(shrunk.scenario.net, None, "irrelevant net plan dropped");
        assert_eq!(shrunk.scenario.fleet.nodes.len(), 1);
        assert_eq!(
            shrunk.scenario.workloads.len(),
            1,
            "unreferenced workloads pruned"
        );
        assert!(shrunk.scenario.faults.len() <= 1);
        assert!(fails(&shrunk.scenario).is_some(), "still failing");
        // The repro line round-trips to the same minimal scenario.
        let back = Scenario::from_replay(&shrunk.replay_line()).unwrap();
        assert_eq!(back, shrunk.scenario);
    }

    #[test]
    fn shrink_collapses_irrelevant_churn_and_keeps_the_culprit_event() {
        use rrl::ChurnKind;
        let generator = ScenarioGenerator::new(GeneratorConfig {
            jobs: 8,
            online: false,
            churn_events: 6,
            ..GeneratorConfig::default()
        });
        let scenario = (0..16u64)
            .map(|seed| generator.generate(seed))
            .find(|s| s.faults.churn.iter().any(|e| e.kind == ChurnKind::Fail))
            .expect("some seed draws a Fail event");
        assert_eq!(scenario.faults.churn.len(), 6);
        // The failure needs one Fail event; every other membership
        // change (and the whole job/net/fleet ballast) should go.
        let fails = |s: &Scenario| -> Option<String> {
            s.faults
                .churn
                .iter()
                .any(|e| e.kind == ChurnKind::Fail)
                .then(|| "needs-a-fail".to_string())
        };
        let shrunk = shrink(&scenario, &fails).expect("original fails");
        assert_eq!(shrunk.violation, "needs-a-fail");
        assert_eq!(shrunk.scenario.faults.churn.len(), 1, "one culprit event");
        assert_eq!(shrunk.scenario.faults.churn[0].kind, ChurnKind::Fail);
        assert_eq!(shrunk.scenario.jobs.len(), 1);
        assert_eq!(shrunk.scenario.fleet.nodes.len(), 1);
        // The repro line round-trips to the same minimal scenario.
        let back = Scenario::from_replay(&shrunk.replay_line()).unwrap();
        assert_eq!(back, shrunk.scenario);
    }

    #[test]
    fn shrink_strips_inloop_knobs_and_replica_churn_when_ballast() {
        let generator = ScenarioGenerator::new(GeneratorConfig {
            jobs: 6,
            online: false,
            replicas: 3,
            inloop_gossip: true,
            replica_churn_events: 2,
            ..GeneratorConfig::default()
        });
        let scenario = generator.generate(7);
        assert!(scenario.net.as_ref().unwrap().gossip_cadence_us > 0);
        assert_eq!(scenario.faults.replica_churn.len(), 4);
        // The failure needs message drops only — the whole in-loop
        // apparatus (cadence, read-repair, crash/restart schedule) is
        // ballast the shrinker should strip.
        let fails = |s: &Scenario| -> Option<String> {
            s.net
                .as_ref()
                .is_some_and(|n| n.drop_permille > 0)
                .then(|| "needs-drops".to_string())
        };
        let shrunk = shrink(&scenario, &fails).expect("original fails");
        let net = shrunk.scenario.net.as_ref().expect("plan is load-bearing");
        assert!(net.drop_permille > 0, "the culprit knob survives");
        assert_eq!(net.gossip_cadence_us, 0, "in-loop cadence collapsed");
        assert!(!net.read_repair, "read-repair turned off");
        assert!(
            shrunk.scenario.faults.replica_churn.is_empty(),
            "crash/restart schedule dropped"
        );
    }

    #[test]
    fn shrink_thins_a_load_bearing_net_plan() {
        let generator = ScenarioGenerator::new(GeneratorConfig {
            jobs: 6,
            online: false,
            replicas: 4,
            ..GeneratorConfig::default()
        });
        let scenario = generator.generate(3);
        // The failure needs message drops; everything else in the plan
        // is ballast the shrinker should strip.
        let fails = |s: &Scenario| -> Option<String> {
            s.net
                .as_ref()
                .is_some_and(|n| n.drop_permille > 0)
                .then(|| "needs-drops".to_string())
        };
        let shrunk = shrink(&scenario, &fails).expect("original fails");
        let net = shrunk.scenario.net.as_ref().expect("plan is load-bearing");
        assert!(net.drop_permille > 0, "the culprit knob survives");
        assert_eq!(net.duplicate_permille, 0);
        assert_eq!(net.delay_jitter_ticks, 0);
        assert_eq!(net.replicas, 2);
        assert!(net.partitions.is_empty());
    }
}
