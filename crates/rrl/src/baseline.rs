//! The default-configuration baseline every finished job is compared
//! against, memoised per scheduler run.
//!
//! A job's baseline is its workload run uninstrumented at the
//! node-clamped platform default, over the job's effective phase
//! iterations (fewer than the workload's after an abort or a node
//! failure); [`RuntimeSession::static_run`] is the reference. Of that
//! run only the HDEEM noise draw depends on the job — it is seeded by
//! `job_seed` from the job name — so the simulation itself is keyed by
//! (workload fingerprint, iterations, node), run once per key, and every
//! later job with the same key pays for one noise draw. A service runs
//! the same workloads on the same nodes over and over, which is what
//! makes the memo pay.

use std::collections::HashMap;

use kernels::BenchmarkSpec;
use simnode::Cluster;

use crate::cluster::node_default;
use crate::error::RuntimeError;
use crate::sacct::JobRecord;
use crate::session::{job_seed, JobWindow, RuntimeSession};

/// One event loop's baseline memo over one fleet (each run owns its
/// own).
pub(crate) struct BaselineMemo<'c> {
    cluster: &'c Cluster,
    /// Keyed by node *index*: [`Cluster::from_nodes`] accepts repeated
    /// node ids, so an id does not name one node's power.
    runs: HashMap<(u64, u32, usize), Baseline>,
}

#[derive(Clone, Copy)]
struct Baseline {
    /// Fingerprint of the workload as run (with its iterations
    /// truncated), the workload input of the job seed.
    fingerprint: u64,
    window: JobWindow,
}

impl<'c> BaselineMemo<'c> {
    /// An empty memo for one run over `cluster`.
    pub(crate) fn new(cluster: &'c Cluster) -> Self {
        Self {
            cluster,
            runs: HashMap::new(),
        }
    }

    /// `job`'s baseline record: `bench` (whose fingerprint the caller
    /// already holds) over `iterations` phase iterations at the
    /// node-clamped default on node `node_idx`, bit-identical to
    /// [`RuntimeSession::static_run`] of the same job.
    pub(crate) fn record(
        &mut self,
        job: &str,
        bench: &BenchmarkSpec,
        fingerprint: u64,
        iterations: u32,
        node_idx: usize,
    ) -> Result<JobRecord, RuntimeError> {
        debug_assert_eq!(fingerprint, bench.fingerprint());
        let node = self.cluster.node(node_idx);
        let config = node_default(node);
        let key = (fingerprint, iterations, node_idx);
        let baseline = match self.runs.get(&key) {
            Some(&hit) => {
                // The simulated run launches at the default; leave the
                // node's MSRs where it would have.
                node.apply_frequencies(&config);
                hit
            }
            None => {
                let truncated;
                let (bench, fingerprint) = if iterations < bench.phase_iterations {
                    truncated = BenchmarkSpec {
                        phase_iterations: iterations,
                        ..bench.clone()
                    };
                    (&truncated, truncated.fingerprint())
                } else {
                    (bench, fingerprint)
                };
                let baseline = Baseline {
                    fingerprint,
                    window: RuntimeSession::static_session(job, bench, node, config)?.window(),
                };
                self.runs.insert(key, baseline);
                baseline
            }
        };
        Ok(baseline
            .window
            .record(job_seed(job, baseline.fingerprint, node)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simnode::{Node, SystemConfig, Topology};

    fn gapped(id: u32) -> Node {
        let mut topo = Topology::taurus_haswell();
        topo.cores_per_socket = 6;
        Node::new(id, 11).with_topology(topo)
    }

    fn truncated(bench: &BenchmarkSpec, iterations: u32) -> BenchmarkSpec {
        BenchmarkSpec {
            phase_iterations: iterations,
            ..bench.clone()
        }
    }

    fn assert_bitwise(a: &JobRecord, b: &JobRecord) {
        assert_eq!(a.job_energy_j.to_bits(), b.job_energy_j.to_bits());
        assert_eq!(a.cpu_energy_j.to_bits(), b.cpu_energy_j.to_bits());
        assert_eq!(a.elapsed_s.to_bits(), b.elapsed_s.to_bits());
    }

    #[test]
    fn memoised_baseline_matches_static_run_bitwise() {
        // Node 4 repeats node 0's id with another power: the memo must
        // not serve one's baseline for the other.
        let cluster = Cluster::from_nodes(vec![
            Node::exact(0),
            Node::new(1, 7),
            Node::new(2, 7).with_variability(1.08),
            gapped(3),
            Node::exact(0).with_variability(1.05),
        ]);
        let benches = [
            kernels::benchmark("Lulesh").unwrap(),
            kernels::benchmark("miniMD").unwrap(),
            kernels::toy_benchmark("toy", 1e10, 3),
        ];
        let mut memo = BaselineMemo::new(&cluster);
        // Two passes: the first fills the memo, the second is all hits.
        for _ in 0..2 {
            for (node_idx, node) in cluster.iter().enumerate() {
                for bench in &benches {
                    // A full run and an injected abort after 2 phases.
                    for iterations in [bench.phase_iterations, 2] {
                        for job in ["job-1", "job-2", "a-much-longer-job-name"] {
                            let reference = RuntimeSession::static_run(
                                job,
                                &truncated(bench, iterations),
                                node,
                                node_default(node),
                            )
                            .unwrap()
                            .record;
                            let memoised = memo
                                .record(job, bench, bench.fingerprint(), iterations, node_idx)
                                .unwrap();
                            assert_bitwise(&memoised, &reference);
                        }
                    }
                }
            }
        }
        assert_eq!(memo.runs.len(), cluster.len() * benches.len() * 2);
        // The gapped node's baseline ran at its clamped default.
        assert_eq!(
            node_default(cluster.node(3)),
            SystemConfig::new(12, 2500, 3000)
        );
    }
}
