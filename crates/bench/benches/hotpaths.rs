//! Criterion benchmarks for the hot paths behind each paper artefact:
//! network inference (the Fig. 6/7 frequency sweeps), training epochs
//! (Fig. 5 LOOCV), the execution engine (every experiment), trace I/O
//! (Section IV-A data acquisition), PCP switching (Table VI dynamic runs),
//! the runtime-session region event + repository serve (cluster-scale
//! model serving) and the real host kernels.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};

use std::cell::RefCell;

use enermodel::adam::{Adam, AdamConfig};
use enermodel::nn::{EnergyNet, Gradients, NetConfig, Workspace};
use enermodel::train::{train, Dataset, TrainConfig};
use kernels::real;
use ptf::experiments::ExperimentsEngine;
use ptf::{EnergyModel, ExperimentCache, SearchSpace, TuningObjective};
use scorep_lite::{PcpStack, TraceReader, TraceWriter};
use simnode::papi::{CounterValues, PapiCounter};
use simnode::{ExecutionEngine, FreqDomain, Node, RegionCharacter, SystemConfig};

fn synthetic_dataset(n: usize) -> Dataset {
    let mut rows = Vec::with_capacity(n);
    let mut y = Vec::with_capacity(n);
    let mut groups = Vec::with_capacity(n);
    for i in 0..n {
        let f = i as f64;
        let row: Vec<f64> = (0..9)
            .map(|j| ((f * 0.37 + j as f64).sin() + 1.0) * 1e3)
            .collect();
        y.push(1.0 + 0.1 * (f * 0.11).cos());
        rows.push(row);
        groups.push(format!("g{}", i % 4));
    }
    Dataset::new(enermodel::linalg::Matrix::from_rows(&rows), y, groups)
}

/// Network inference: one full 14×18 frequency sweep, as executed in
/// tuning step 2 for every application (Fig. 6/7).
fn bench_nn_inference(c: &mut Criterion) {
    let data = synthetic_dataset(256);
    let model = EnergyModel::train(
        &data,
        &TrainConfig {
            epochs: 2,
            ..Default::default()
        },
    );
    let rates = [1e9, 2e9, 1e6, 1e7, 1e10, 5e8, 5e7];
    let core = FreqDomain::haswell_core();
    let uncore = FreqDomain::haswell_uncore();
    c.bench_function("nn/frequency_sweep_252", |b| {
        b.iter(|| black_box(model.best_frequencies(black_box(&rates), &core, &uncore)))
    });
}

/// One training epoch over 1k samples (the unit of Fig. 5's LOOCV cost).
fn bench_nn_training(c: &mut Criterion) {
    let data = synthetic_dataset(1000);
    c.bench_function("nn/train_epoch_1k", |b| {
        b.iter(|| {
            let report = train(
                &data,
                &TrainConfig {
                    epochs: 1,
                    ..Default::default()
                },
            );
            black_box(report.epoch_mse[0])
        })
    });
    // The same epoch for a 5-network committee, whose members train on
    // `min(5, available_parallelism)` workers.
    c.bench_function("nn/train_committee_5", |b| {
        b.iter(|| {
            let committee = EnergyModel::train_committee(
                &data,
                &TrainConfig {
                    epochs: 1,
                    ..Default::default()
                },
                5,
            );
            black_box(committee.predict_enorm(&[1e9; 7], 2000, 2000))
        })
    });
}

/// Steps an Adam step benchmark takes before it restarts from its
/// starting weights and optimizer state: one 1k-sample epoch's worth of
/// per-sample updates.
const ADAM_STEPS_PER_RESTART: u32 = 1000;

/// Steps `nn/adam_step_late` advances its network before it starts
/// timing: past t ≈ 37,400, where both of Adam's bias corrections have
/// rounded to 1.0, as in ~70 % of the steps of the paper's protocol.
const ADAM_LATE_START: u32 = 40_000;

/// Sample `t` of the stream `nn/adam_step_late` trains on: inputs spread
/// like standardised features and a target that depends on them, so the
/// network keeps learning instead of settling on its output bias.
fn adam_stream_sample(t: u32) -> ([f64; 9], f64) {
    let f = f64::from(t);
    let x: [f64; 9] = std::array::from_fn(|j| (f * 0.37 + 1.3 * j as f64).sin());
    let y = 0.8 + 0.3 * x[0] - 0.2 * x[1] + 0.25 * x[2].max(0.0) + 0.1 * x[3] * x[4];
    (x, y)
}

/// One training step on the paper's 86-parameter network: backprop into
/// the preallocated workspace and gradient buffer, then the Adam update,
/// exactly as the training loop runs it. The network and optimizer
/// restart every [`ADAM_STEPS_PER_RESTART`] steps.
///
/// `nn/adam_step` restarts from the initial weights and a fresh
/// optimizer and steps on one sample, so it times steps of the first
/// epoch like `nn/train_epoch_1k` does. `nn/adam_step_late` restarts
/// from a network trained [`ADAM_LATE_START`] steps on
/// [`adam_stream_sample`]'s stream and steps through the stream's next
/// samples, so it times the fully bias-saturated steps that dominate a
/// ten-epoch run.
fn bench_adam_step(c: &mut Criterion) {
    let initial = EnergyNet::new(&NetConfig::paper(1));
    let fresh_adam = Adam::new(&initial, AdamConfig::default());
    let one_sample = vec![([0.3; 9], 1.0); ADAM_STEPS_PER_RESTART as usize];
    bench_adam_steps_from(c, "nn/adam_step", &initial, &fresh_adam, &one_sample);

    let mut net = initial.clone();
    let mut adam = fresh_adam;
    let mut ws = Workspace::default();
    let mut grads = Gradients::zeros_like(&net);
    for t in 0..ADAM_LATE_START {
        let (x, y) = adam_stream_sample(t);
        net.backprop_into(&x, &[y], &mut ws, &mut grads);
        adam.step(&mut net, &grads);
    }
    let next: Vec<_> = (ADAM_LATE_START..ADAM_LATE_START + ADAM_STEPS_PER_RESTART)
        .map(adam_stream_sample)
        .collect();
    bench_adam_steps_from(c, "nn/adam_step_late", &net, &adam, &next);
}

/// Time Adam steps through `samples` (one per step) in order, restarting
/// from `start_net`, `start_adam` and the first sample every
/// [`ADAM_STEPS_PER_RESTART`] steps.
fn bench_adam_steps_from(
    c: &mut Criterion,
    name: &str,
    start_net: &EnergyNet,
    start_adam: &Adam,
    samples: &[([f64; 9], f64)],
) {
    assert_eq!(samples.len(), ADAM_STEPS_PER_RESTART as usize);
    let mut net = start_net.clone();
    let mut adam = start_adam.clone();
    let mut ws = Workspace::default();
    let mut grads = Gradients::zeros_like(&net);
    let mut steps = 0u32;
    c.bench_function(name, |b| {
        b.iter(|| {
            if steps == ADAM_STEPS_PER_RESTART {
                net.clone_from(start_net);
                adam.clone_from(start_adam);
                steps = 0;
            }
            let (x, y) = &samples[steps as usize];
            steps += 1;
            net.backprop_into(black_box(x), &[*y], &mut ws, &mut grads);
            adam.step(&mut net, &grads);
        })
    });
}

/// The execution engine: one region evaluation (the unit of every
/// experiment, sweep and exhaustive search), with and without counters.
fn bench_exec_engine(c: &mut Criterion) {
    let engine = ExecutionEngine::new();
    let node = Node::exact(0);
    let region = RegionCharacter::builder(2e10).dram_bytes(1.5e10).build();
    let cfg = SystemConfig::taurus_default();
    c.bench_function("exec/run_region", |b| {
        b.iter(|| black_box(engine.run_region(black_box(&region), &cfg, &node)))
    });
    // The exact node has no counter noise. A `Cluster::new` node does, so
    // there `run_region` pays one normal draw per PMU preset under the
    // node's RNG lock; `region_power`, the serving path, pays none.
    let noisy = Node::new(0, 0x5EED);
    c.bench_function("exec/run_region_noisy", |b| {
        b.iter(|| black_box(engine.run_region(black_box(&region), &cfg, &noisy)))
    });
    c.bench_function("exec/region_power", |b| {
        b.iter(|| black_box(engine.region_power(black_box(&region), &cfg, &noisy)))
    });
}

/// OTF2-lite trace write + read + post-processing for one phase of 100
/// region events with counters (the Section IV-A pipeline).
fn bench_trace_io(c: &mut Criterion) {
    c.bench_function("trace/write_read_parse_100", |b| {
        b.iter(|| {
            let mut w = TraceWriter::new();
            let phase = w.define_region("PHASE");
            let r = w.define_region("work");
            let mut t = 0u64;
            w.enter(phase, t);
            for _ in 0..100 {
                t += 10;
                w.enter(r, t);
                t += 1_000_000;
                let mut cv = CounterValues::zeros();
                cv.set(PapiCounter::TotIns, 1e9);
                w.leave(r, t, 55.0, Some(cv));
            }
            t += 10;
            w.leave(phase, t, 5500.0, None);
            let trace = w.finish();
            let bytes = trace.to_bytes();
            let back = TraceReader::read(&bytes).expect("parse");
            black_box(scorep_lite::parse_trace(&back).expect("summary"))
        })
    });
}

/// PCP configuration switch (both frequency domains + threads), the per-
/// region cost of the RRL's dynamic tuning.
fn bench_pcp_switch(c: &mut Criterion) {
    let node = Node::exact(0);
    let a = SystemConfig::new(24, 2500, 2000);
    let b2 = SystemConfig::new(20, 2400, 2300);
    c.bench_function("rrl/pcp_switch", |b| {
        let mut stack = PcpStack::new(a);
        let mut flip = false;
        b.iter(|| {
            flip = !flip;
            black_box(stack.apply(&node, if flip { b2 } else { a }))
        })
    });
}

/// Region verification with and without the batch experiment cache: the
/// hot path of sessions sharing one cache. The cached variant re-verifies
/// the same region × neighbourhood (a re-submitted application) and must
/// be serviced from the memo table.
fn bench_experiment_cache(c: &mut Criterion) {
    let node = Node::exact(0);
    let region = RegionCharacter::builder(2e10).dram_bytes(1.2e10).build();
    let space = SearchSpace::neighbourhood(SystemConfig::new(24, 2400, 1700), 1, vec![24]);
    let configs = space.configs();
    let mut group = c.benchmark_group("cache/region_verification");
    group.bench_function("uncached", |b| {
        b.iter(|| {
            let mut eng = ExperimentsEngine::new(&node);
            black_box(eng.try_best_for_region(&region, &configs, TuningObjective::Energy))
        })
    });
    let cache = RefCell::new(ExperimentCache::new());
    // Warm the cache once; the measured loop is all hits.
    ExperimentsEngine::with_cache(&node, &cache)
        .try_best_for_region(&region, &configs, TuningObjective::Energy)
        .expect("non-empty neighbourhood");
    group.bench_function("cached", |b| {
        b.iter(|| {
            let mut eng = ExperimentsEngine::with_cache(&node, &cache);
            black_box(eng.try_best_for_region(&region, &configs, TuningObjective::Energy))
        })
    });
    group.finish();
}

/// The runtime serving hot path: one `region_enter`/`region_exit` event
/// pair (scenario lookup + PCP config switch + region execution +
/// accounting) on a model whose scenarios alternate configurations, so
/// every enter actually switches; plus one repository serve (fingerprint
/// + clone of the stored model) and one publish-then-serve round.
fn bench_runtime_session(c: &mut Criterion) {
    use ptf::TuningModel;
    use rrl::{ModelSource, RuntimeSession, ServedModel, TuningModelRepository};

    let node = Node::exact(0);
    let bench = kernels::benchmark("Lulesh").unwrap();
    let tm = TuningModel::new(
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
    );
    let mut group = c.benchmark_group("rrl/runtime");

    group.bench_function("region_enter_exit", |b| {
        let served = ServedModel {
            model: tm.clone(),
            source: ModelSource::Repository,
            provenance: None,
        };
        let mut session = RuntimeSession::start("hotpath", &bench, &node, served).unwrap();
        let names: Vec<String> = bench.regions.iter().map(|r| r.name.clone()).collect();
        let mut i = 0usize;
        b.iter(|| {
            let name = &names[i % names.len()];
            i += 1;
            session.region_enter(name).unwrap();
            let exit = session.region_exit(name).unwrap();
            if i.is_multiple_of(names.len()) {
                session.phase_complete().unwrap();
            }
            black_box(exit)
        })
    });

    group.bench_function("repository_serve", |b| {
        let mut repo = TuningModelRepository::new();
        repo.insert(&bench, &tm);
        b.iter(|| black_box(repo.serve(&bench).unwrap()))
    });
    group.finish();

    // What a calibration leader and its first follower cost the
    // repository: publish the converged model with its drift
    // expectations, then serve it once.
    let expected: Vec<(String, f64)> = bench
        .regions
        .iter()
        .map(|r| (r.name.clone(), 100.0))
        .collect();
    let mut group = c.benchmark_group("rrl/repository");
    group.bench_function("publish_then_serve", |b| {
        let mut repo = TuningModelRepository::new();
        b.iter(|| {
            repo.publish_online(&bench, &tm, expected.clone());
            black_box(repo.serve(&bench).unwrap())
        })
    });
    group.finish();
}

/// The online adaptation engine's hot paths: one exploration region event
/// (schedule lookup + explicit PCP switch + region execution + observation
/// recording) in steady state — the tuner is rebuilt only when a full
/// calibration converges, so the rebuild amortises over the ~1000 events
/// of one calibration — plus one whole random-search calibration job, the
/// counter-rate measurement the model-based strategy pays, one
/// monitor-mode region event and one drift-watch observation.
fn bench_online_tuner(c: &mut Criterion) {
    use kernels::{BenchmarkSpec, ProgrammingModel, RegionSpec, Suite};
    use ptf::RandomSearch;
    use rrl::{DriftDetector, OnlineConfig, OnlineTuner};

    let node = Node::exact(0);
    let mk_region = |name: &str, ins: f64, ratio: f64| {
        RegionSpec::new(
            name,
            RegionCharacter::builder(ins)
                .dram_bytes(ratio * ins)
                .build(),
        )
    };
    // 300 phase iterations fund a full-space exploration (4 thread sweeps
    // + 1 analysis + 252 phase candidates).
    let bench = BenchmarkSpec::new(
        "online-hotpath",
        Suite::Npb,
        ProgrammingModel::Hybrid,
        300,
        vec![
            mk_region("hot_a", 2e10, 0.9),
            mk_region("hot_b", 1.5e10, 1.8),
            mk_region("hot_c", 1e10, 0.4),
        ],
    );
    let strategy = RandomSearch::new(252, 1); // clamps to the full space
    let names: Vec<String> = bench.regions.iter().map(|r| r.name.clone()).collect();
    let mut group = c.benchmark_group("rrl/online");

    group.bench_function("explore_step", |b| {
        let mk = || {
            OnlineTuner::calibrate(
                "hotpath",
                &bench,
                &node,
                &strategy,
                None,
                OnlineConfig::default(),
            )
            .expect("budget fits")
        };
        let mut tuner = mk();
        let mut idx = 0usize;
        b.iter(|| {
            if !tuner.is_exploring() {
                tuner = mk();
                idx = 0;
            }
            if idx < names.len() {
                let name = &names[idx];
                idx += 1;
                tuner.region_enter(name).unwrap();
                black_box(tuner.region_exit(name).unwrap())
            } else {
                idx = 0;
                tuner.phase_complete().unwrap();
                black_box(tuner.region_enter(&names[0]).unwrap());
                idx = 1;
                black_box(tuner.region_exit(&names[0]).unwrap())
            }
        })
    });

    // One cold job as a service calibrates it: an 8-sample random search
    // over miniMD on a noisy node, from launch to the converged model.
    group.bench_function("calibrate_random", |b| {
        let cluster = simnode::Cluster::new(1, 0x5EED);
        let minimd = kernels::benchmark("miniMD").unwrap();
        let random = RandomSearch::new(8, 7);
        b.iter(|| {
            let mut tuner = OnlineTuner::calibrate(
                "calibrate",
                &minimd,
                cluster.node(0),
                &random,
                None,
                OnlineConfig::default(),
            )
            .expect("budget fits");
            tuner.run_to_completion().unwrap();
            black_box(tuner.finish().unwrap())
        })
    });

    // The analysis stage's counter probe: one counter-recording traced
    // run of Lulesh's phase loop on a noisy node, then the trace
    // post-processing into the seven Table I rates.
    group.bench_function("phase_counter_rates", |b| {
        let noisy = Node::new(0, 0x5EED);
        let lulesh = kernels::benchmark("Lulesh").unwrap();
        b.iter(|| {
            black_box(ptf::phase_counter_rates(
                &lulesh,
                &noisy,
                SystemConfig::calibration(),
            ))
        })
    });

    // One monitor-mode region event on a repository hit: the served
    // model's lookup, the region's execution and its drift watch, on a
    // model served with its own calibration's expectations (the tuner is
    // rebuilt, by one repository serve, once the 300-iteration job ends).
    group.bench_function("monitor_event", |b| {
        let calibration_strategy = RandomSearch::new(8, 7);
        let mut calib = OnlineTuner::calibrate(
            "monitor-calib",
            &bench,
            &node,
            &calibration_strategy,
            None,
            OnlineConfig::default(),
        )
        .expect("budget fits");
        calib.run_to_completion().unwrap();
        let publication = calib.finish().unwrap().publication.expect("converged");
        let mut repo = rrl::TuningModelRepository::new();
        repo.publish_online(&bench, &publication.model, publication.expected);
        let mut mk = || {
            let served = repo.serve_stored(&bench).unwrap().expect("hit");
            OnlineTuner::monitor("monitor", &bench, &node, served, OnlineConfig::default()).unwrap()
        };
        let mut tuner = mk();
        let mut idx = 0usize;
        b.iter(|| {
            if idx == names.len() {
                idx = 0;
                tuner.phase_complete().unwrap();
                if tuner.phase_iteration() == bench.phase_iterations {
                    assert!(tuner.drift_events().is_empty(), "the watches stay quiet");
                    tuner = mk();
                }
            }
            let name = &names[idx];
            idx += 1;
            tuner.region_enter(name).unwrap();
            black_box(tuner.region_exit(name).unwrap())
        })
    });

    // One step of a region's drift watch.
    group.bench_function("drift_observe", |b| {
        let mut watches = [DriftDetector::new(100.0).expect("positive"); 3];
        let mut i = 0usize;
        b.iter(|| {
            i = i.wrapping_add(1);
            black_box(watches[i % watches.len()].observe(101.0))
        })
    });
    group.finish();
}

/// Real sequential kernels (the host-executable demo workloads).
fn bench_real_kernels(c: &mut Criterion) {
    let mut group = c.benchmark_group("real_kernels");
    group.sample_size(20);
    let n = 1 << 18;
    let bsrc = vec![1.0; n];
    let csrc = vec![2.0; n];
    let mut a = vec![0.0; n];
    group.bench_function(BenchmarkId::new("triad", n), |b| {
        b.iter(|| black_box(real::triad(&mut a, &bsrc, &csrc, 3.0)))
    });
    let m = 128;
    let am: Vec<f64> = (0..m * m).map(|i| (i % 7) as f64).collect();
    let bm: Vec<f64> = (0..m * m).map(|i| (i % 5) as f64).collect();
    let mut cm = vec![0.0; m * m];
    group.bench_function(BenchmarkId::new("dgemm", m), |b| {
        b.iter(|| {
            cm.iter_mut().for_each(|v| *v = 0.0);
            real::dgemm(m, &am, &bm, &mut cm);
            black_box(cm[0])
        })
    });
    group.bench_function("mc_transport_100k", |b| {
        b.iter(|| black_box(real::mc_transport(100_000, 1.0, 2.0)))
    });
    group.finish();
}

/// Ablation: committee size 1 vs 5 at inference time (the robustness
/// extension documented on `ptf::EnergyModel`).
fn bench_committee_ablation(c: &mut Criterion) {
    let data = synthetic_dataset(256);
    let cfg = TrainConfig {
        epochs: 2,
        ..Default::default()
    };
    let single = EnergyModel::train(&data, &cfg);
    let committee = EnergyModel::train_committee(&data, &cfg, 5);
    let rates = [1e9, 2e9, 1e6, 1e7, 1e10, 5e8, 5e7];
    let mut group = c.benchmark_group("ablation/committee");
    group.bench_function("k1", |b| {
        b.iter(|| black_box(single.predict_enorm(&rates, 2400, 1700)))
    });
    group.bench_function("k5", |b| {
        b.iter(|| black_box(committee.predict_enorm(&rates, 2400, 1700)))
    });
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(30).measurement_time(std::time::Duration::from_secs(2)).warm_up_time(std::time::Duration::from_millis(500));
    targets = bench_nn_inference, bench_nn_training, bench_adam_step, bench_exec_engine,
              bench_trace_io, bench_pcp_switch, bench_experiment_cache, bench_runtime_session,
              bench_online_tuner, bench_real_kernels, bench_committee_ablation
}
criterion_main!(benches);
