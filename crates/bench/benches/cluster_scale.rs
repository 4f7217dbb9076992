//! The cluster-scale serving benchmark: one full 1 024-job / 32-node
//! submission wave through the `ClusterScheduler`'s sweep loop.

use criterion::{black_box, criterion_group, criterion_main, Criterion};

use kernels::{BenchmarkSpec, ProgrammingModel, RegionSpec, Suite};
use ptf::TuningModel;
use rrl::{ClusterScheduler, TuningModelRepository};
use simnode::{Cluster, RegionCharacter, SystemConfig};

const JOBS: usize = 1024;
const NODES: u32 = 32;

fn workload(name: &str, instr: f64, ratio: f64, iterations: u32) -> BenchmarkSpec {
    BenchmarkSpec::new(
        name,
        Suite::Npb,
        ProgrammingModel::OpenMp,
        iterations,
        vec![RegionSpec::new(
            "omp parallel:1",
            RegionCharacter::builder(instr)
                .dram_bytes(ratio * instr)
                .build(),
        )],
    )
}

fn wave() -> (Vec<BenchmarkSpec>, Vec<TuningModel>) {
    let benches = vec![
        workload("stream-like", 1.2e10, 2.0, 10),
        workload("compute-like", 2.0e10, 0.3, 8),
        workload("mixed", 1.6e10, 1.0, 12),
    ];
    let configs = [
        SystemConfig::new(24, 2100, 2300),
        SystemConfig::new(24, 2500, 1500),
        SystemConfig::new(24, 2400, 1900),
    ];
    let models = benches
        .iter()
        .zip(configs)
        .map(|(b, cfg)| TuningModel::new(&b.name, &[("omp parallel:1".into(), cfg)], cfg))
        .collect();
    (benches, models)
}

fn submit_wave(sched: &mut ClusterScheduler<'_>, benches: &[BenchmarkSpec]) {
    for i in 0..JOBS {
        let bench = &benches[i % benches.len()];
        sched.submit(format!("job-{i:04}"), bench.clone());
    }
}

/// One full submission wave through the sweep loop.
fn bench_cluster_scale(c: &mut Criterion) {
    let cluster = Cluster::new(NODES, 0x5CA1E);
    let (benches, models) = wave();
    let mut group = c.benchmark_group("rrl/cluster_scale");
    group.sample_size(10);

    let mut repo = TuningModelRepository::new().with_fallback(SystemConfig::new(24, 2400, 1700));
    for (b, m) in benches.iter().zip(&models) {
        repo.insert(b, m);
    }
    group.bench_function(format!("sequential_{JOBS}x{NODES}"), |b| {
        b.iter(|| {
            let mut sched = ClusterScheduler::new(&cluster).unwrap();
            submit_wave(&mut sched, &benches);
            black_box(sched.run(&mut repo).unwrap().aggregate)
        })
    });
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10).measurement_time(std::time::Duration::from_secs(3)).warm_up_time(std::time::Duration::from_millis(500));
    targets = bench_cluster_scale
}
criterion_main!(benches);
