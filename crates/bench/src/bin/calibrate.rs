//! Calibration harness: prints the exhaustive energy optimum of every
//! benchmark phase (threads × CF × UCF) on a variability-free node, next
//! to the paper's reported optima for the test set. Used to keep the
//! simulator's characters honest; not one of the paper's artefacts itself.

use ptf::experiments::ExperimentsEngine;
use ptf::{SearchSpace, TuningObjective};
use simnode::Node;

fn main() {
    let node = Node::exact(0);
    let configs = SearchSpace::full(vec![12, 16, 20, 24]).configs();
    println!(
        "{:<14} {:>7} {:>6} {:>6} {:>9} {:>10}  paper (static, Table V)",
        "benchmark", "threads", "CF", "UCF", "T[s]", "E_node[J]"
    );
    let paper: &[(&str, &str)] = &[
        ("Lulesh", "24thr 2.4|1.7"),
        ("Amg2013", "16thr 2.5|2.3"),
        ("miniMD", "24thr 2.5|1.5"),
        ("BEM4I", "24thr 2.3|1.9"),
        ("Mcbenchmark", "20thr 1.6|2.5"),
    ];
    for b in kernels::all_benchmarks() {
        let (best, m) = ExperimentsEngine::new(&node)
            .try_best_for_region(&b.phase_character(), &configs, TuningObjective::Energy)
            .expect("the full space is not empty");
        let note = paper
            .iter()
            .find(|(n, _)| *n == b.name)
            .map(|(_, cfg)| format!("  <-- paper {cfg}"))
            .unwrap_or_default();
        println!(
            "{:<14} {:>7} {:>6.1} {:>6.1} {:>9.3} {:>10.1}{}",
            b.name,
            best.threads,
            best.core.ghz(),
            best.uncore.ghz(),
            m.duration_s,
            m.node_energy_j,
            note
        );
    }
}
