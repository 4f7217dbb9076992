//! SLURM-style job accounting.
//!
//! "To measure job energy and time, we use the SLURM tool `sacct` which
//! allows users to query post-mortem job data … For measuring CPU energy
//! we utilize a lightweight runtime tool called `measure-rapl`"
//! (Section V-D). A [`JobRecord`] carries exactly those three job-level
//! values; a [`JobAccounting`] adds what `sacct` alone cannot see — the
//! per-region energy/time breakdown the RRL's region events make
//! possible, plus switch and instrumentation-overhead totals.

use serde::{Deserialize, Serialize};

use crate::repository::ModelSource;

/// Post-mortem job data for one run.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct JobRecord {
    /// Job (node) energy, joules — `sacct --format=ConsumedEnergy`.
    pub job_energy_j: f64,
    /// CPU (package) energy, joules — `measure-rapl`.
    pub cpu_energy_j: f64,
    /// Elapsed wall time, seconds — `sacct --format=Elapsed`.
    pub elapsed_s: f64,
}

impl JobRecord {
    /// Average several runs (the paper averages five).
    pub fn mean(records: &[JobRecord]) -> JobRecord {
        assert!(!records.is_empty(), "mean of zero records");
        let n = records.len() as f64;
        JobRecord {
            job_energy_j: records.iter().map(|r| r.job_energy_j).sum::<f64>() / n,
            cpu_energy_j: records.iter().map(|r| r.cpu_energy_j).sum::<f64>() / n,
            elapsed_s: records.iter().map(|r| r.elapsed_s).sum::<f64>() / n,
        }
    }

    /// `sacct`-style formatted line.
    pub fn format_sacct(&self) -> String {
        format!(
            "ConsumedEnergy={:.0}J CpuEnergy={:.0}J Elapsed={:.2}s",
            self.job_energy_j, self.cpu_energy_j, self.elapsed_s
        )
    }
}

/// Accounting for one region across a whole job.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RegionAccounting {
    /// Region name.
    pub region: String,
    /// Instances executed.
    pub visits: u64,
    /// Total wall time charged (including residual instrumentation
    /// overhead), seconds.
    pub time_s: f64,
    /// Total node energy charged, joules.
    pub node_energy_j: f64,
    /// Total CPU (RAPL) energy charged, joules.
    pub cpu_energy_j: f64,
}

/// What the online adaptation engine did during a job, recorded alongside
/// the `sacct` data so post-mortem queries can tell a calibration run from
/// a plain serving run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct OnlineActivity {
    /// Phase iterations spent exploring candidate configurations (thread
    /// sweep + analysis + phase search + verification).
    pub explored_iterations: u32,
    /// Drift events the detector fired during the run.
    pub drift_events: u32,
    /// Regions the session re-calibrated after a drift event.
    pub recalibrated_regions: u32,
    /// Whether the session converged a tuning model worth publishing back
    /// to the repository.
    pub publishable: bool,
}

/// Full post-mortem accounting for one job: the Table VI job-level record
/// plus the per-region breakdown and the runtime-tuning counters.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct JobAccounting {
    /// Job name.
    pub job: String,
    /// Node the job executed on.
    pub node_id: u32,
    /// The three job-level quantities of Table VI.
    pub record: JobRecord,
    /// Per-region energy/time breakdown, in first-execution order.
    pub regions: Vec<RegionAccounting>,
    /// Configuration switches performed.
    pub switches: u64,
    /// Total DVFS/UFS/OpenMP transition latency charged, seconds.
    pub switch_time_s: f64,
    /// Total residual instrumentation overhead charged, seconds.
    pub instr_overhead_s: f64,
    /// Scenario lookups the runtime performed.
    pub scenario_lookups: u64,
    /// Whether the job ran a stored tuning model or the calibration
    /// fallback.
    pub source: ModelSource,
    /// Online-adaptation activity, when the job ran under the
    /// [`OnlineTuner`](crate::OnlineTuner) (`None` for plain sessions).
    pub online: Option<OnlineActivity>,
}

impl JobAccounting {
    /// Look up one region's accounting entry.
    pub fn region(&self, name: &str) -> Option<&RegionAccounting> {
        self.regions.iter().find(|r| r.region == name)
    }

    /// Sum of the per-region wall times, seconds. Together with
    /// [`Self::switch_time_s`] this reconstructs the job's elapsed time.
    pub fn regions_time_s(&self) -> f64 {
        self.regions.iter().map(|r| r.time_s).sum()
    }

    /// Sum of the per-region node energies, joules (the exact trace the
    /// HDEEM-measured [`JobRecord::job_energy_j`] samples).
    pub fn regions_node_energy_j(&self) -> f64 {
        self.regions.iter().map(|r| r.node_energy_j).sum()
    }

    /// Sum of the per-region CPU energies, joules.
    pub fn regions_cpu_energy_j(&self) -> f64 {
        self.regions.iter().map(|r| r.cpu_energy_j).sum()
    }

    /// `sacct`-style multi-line report: the job line followed by one line
    /// per region with its share of the job energy.
    pub fn format_sacct(&self) -> String {
        let mut out = format!(
            "JobName={} NodeId={} {} Switches={} Source={:?}",
            self.job,
            self.node_id,
            self.record.format_sacct(),
            self.switches,
            self.source,
        );
        if let Some(online) = &self.online {
            out.push_str(&format!(
                " Online=[explored={} drift={} recalibrated={}]",
                online.explored_iterations, online.drift_events, online.recalibrated_regions,
            ));
        }
        out.push('\n');
        let total_j = self.regions_node_energy_j().max(f64::MIN_POSITIVE);
        for r in &self.regions {
            out.push_str(&format!(
                "  {:<34} Visits={:<5} Time={:.3}s Energy={:.0}J CpuEnergy={:.0}J ({:.1}%)\n",
                r.region,
                r.visits,
                r.time_s,
                r.node_energy_j,
                r.cpu_energy_j,
                100.0 * r.node_energy_j / total_j,
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mean_of_records() {
        let a = JobRecord {
            job_energy_j: 100.0,
            cpu_energy_j: 60.0,
            elapsed_s: 10.0,
        };
        let b = JobRecord {
            job_energy_j: 200.0,
            cpu_energy_j: 80.0,
            elapsed_s: 20.0,
        };
        let m = JobRecord::mean(&[a, b]);
        assert_eq!(m.job_energy_j, 150.0);
        assert_eq!(m.cpu_energy_j, 70.0);
        assert_eq!(m.elapsed_s, 15.0);
    }

    #[test]
    fn formatting() {
        let r = JobRecord {
            job_energy_j: 1234.5,
            cpu_energy_j: 678.9,
            elapsed_s: 42.123,
        };
        let s = r.format_sacct();
        assert!(s.contains("ConsumedEnergy=1235J") || s.contains("ConsumedEnergy=1234J"));
        assert!(s.contains("Elapsed=42.12s"));
    }

    #[test]
    #[should_panic(expected = "mean of zero records")]
    fn empty_mean_panics() {
        let _ = JobRecord::mean(&[]);
    }

    fn accounting() -> JobAccounting {
        JobAccounting {
            job: "job-1".into(),
            node_id: 2,
            record: JobRecord {
                job_energy_j: 995.0,
                cpu_energy_j: 600.0,
                elapsed_s: 10.0,
            },
            regions: vec![
                RegionAccounting {
                    region: "omp parallel:42".into(),
                    visits: 50,
                    time_s: 7.0,
                    node_energy_j: 700.0,
                    cpu_energy_j: 420.0,
                },
                RegionAccounting {
                    region: "filler".into(),
                    visits: 50,
                    time_s: 3.0,
                    node_energy_j: 300.0,
                    cpu_energy_j: 180.0,
                },
            ],
            switches: 100,
            switch_time_s: 0.002,
            instr_overhead_s: 0.1,
            scenario_lookups: 100,
            source: ModelSource::Repository,
            online: None,
        }
    }

    #[test]
    fn per_region_breakdown_sums_to_job_totals() {
        let acc = accounting();
        assert!((acc.regions_time_s() - 10.0).abs() < 1e-12);
        assert!((acc.regions_node_energy_j() - 1000.0).abs() < 1e-12);
        assert!((acc.regions_cpu_energy_j() - acc.record.cpu_energy_j).abs() < 1e-12);
        assert_eq!(acc.region("filler").unwrap().visits, 50);
        assert!(acc.region("nope").is_none());
    }

    #[test]
    fn sacct_report_includes_region_lines() {
        let acc = accounting();
        let s = acc.format_sacct();
        assert!(s.contains("JobName=job-1"), "{s}");
        assert!(s.contains("NodeId=2"), "{s}");
        assert!(s.contains("omp parallel:42"), "{s}");
        assert!(s.contains("(70.0%)"), "region energy share: {s}");
        assert!(s.contains("Switches=100"), "{s}");
        assert_eq!(s.lines().count(), 3, "job line + two region lines");
        assert!(!s.contains("Online="), "plain sessions show no online info");
    }

    use rand::rngs::StdRng;
    use rand::{Rng, RngCore, SeedableRng};

    fn random_rows(rng: &mut StdRng) -> Vec<RegionAccounting> {
        let n = rng.gen_index(8);
        (0..n)
            .map(|i| RegionAccounting {
                region: format!("region-{i}"),
                visits: rng.next_u64() % 1_000,
                time_s: (rng.next_u64() % 10_000) as f64 / 100.0,
                node_energy_j: (rng.next_u64() % 1_000_000) as f64 / 10.0,
                cpu_energy_j: (rng.next_u64() % 1_000_000) as f64 / 10.0,
            })
            .collect()
    }

    /// An independent copy of the `JobAccounting::format_sacct` body,
    /// kept as the rendering oracle.
    fn reference_format_sacct(acc: &JobAccounting) -> String {
        let mut out = format!(
            "JobName={} NodeId={} {} Switches={} Source={:?}",
            acc.job,
            acc.node_id,
            acc.record.format_sacct(),
            acc.switches,
            acc.source,
        );
        if let Some(online) = &acc.online {
            out.push_str(&format!(
                " Online=[explored={} drift={} recalibrated={}]",
                online.explored_iterations, online.drift_events, online.recalibrated_regions,
            ));
        }
        out.push('\n');
        let rows = &acc.regions;
        let total_j = rows
            .iter()
            .map(|r| r.node_energy_j)
            .sum::<f64>()
            .max(f64::MIN_POSITIVE);
        for r in rows {
            out.push_str(&format!(
                "  {:<34} Visits={:<5} Time={:.3}s Energy={:.0}J CpuEnergy={:.0}J ({:.1}%)\n",
                r.region,
                r.visits,
                r.time_s,
                r.node_energy_j,
                r.cpu_energy_j,
                100.0 * r.node_energy_j / total_j,
            ));
        }
        out
    }

    #[test]
    fn format_sacct_is_byte_identical_to_the_pre_flatten_renderer() {
        let mut rng = StdRng::seed_from_u64(0xF0_124A7);
        for i in 0..100 {
            let mut acc = accounting();
            acc.regions = random_rows(&mut rng);
            if i % 2 == 0 {
                acc.online = Some(OnlineActivity {
                    explored_iterations: (rng.next_u64() % 50) as u32,
                    drift_events: (rng.next_u64() % 5) as u32,
                    recalibrated_regions: (rng.next_u64() % 5) as u32,
                    publishable: true,
                });
            }
            assert_eq!(acc.format_sacct(), reference_format_sacct(&acc));
        }
    }

    #[test]
    fn sacct_report_shows_online_activity() {
        let mut acc = accounting();
        acc.online = Some(OnlineActivity {
            explored_iterations: 23,
            drift_events: 1,
            recalibrated_regions: 1,
            publishable: true,
        });
        let s = acc.format_sacct();
        assert!(
            s.contains("Online=[explored=23 drift=1 recalibrated=1]"),
            "{s}"
        );
        assert_eq!(s.lines().count(), 3, "online info extends the job line");
    }
}
