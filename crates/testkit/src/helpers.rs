//! Shared builders for the runtime's integration tests — the hand-rolled
//! `toy(...)` / Lulesh-model / fallback snippets that used to be
//! copy-pasted across `tests/runtime.rs`, `tests/online.rs` and the unit
//! tests live here (and in [`kernels::toy_benchmark`]) now.

use kernels::BenchmarkSpec;
use ptf::TuningModel;
use rrl::TuningModelRepository;
use simnode::SystemConfig;

pub use kernels::toy_benchmark;

/// The paper's Table III per-region configurations for Lulesh — the
/// canonical known-good stored model of the runtime tests.
pub fn lulesh_table3_model() -> TuningModel {
    TuningModel::new(
        "Lulesh",
        &[
            (
                "IntegrateStressForElems".into(),
                SystemConfig::new(24, 2500, 2000),
            ),
            (
                "CalcFBHourglassForceForElems".into(),
                SystemConfig::new(24, 2500, 2000),
            ),
            (
                "CalcKinematicsForElems".into(),
                SystemConfig::new(24, 2400, 2000),
            ),
            ("CalcQForElems".into(), SystemConfig::new(24, 2500, 2000)),
            (
                "ApplyMaterialPropertiesForElems".into(),
                SystemConfig::new(24, 2400, 2000),
            ),
        ],
        SystemConfig::new(24, 2500, 2100),
    )
}

/// The Table-V-style static fallback configuration the tests serve on
/// repository misses.
pub fn taurus_fallback() -> SystemConfig {
    SystemConfig::new(24, 2400, 1700)
}

/// A repository pre-loaded with the Lulesh Table III model and the test
/// fallback, plus the Lulesh benchmark it serves.
pub fn repo_with_lulesh() -> (TuningModelRepository, BenchmarkSpec) {
    let lulesh = kernels::benchmark("Lulesh").expect("catalog has Lulesh");
    let mut repo = TuningModelRepository::new().with_fallback(taurus_fallback());
    repo.insert(&lulesh, &lulesh_table3_model());
    (repo, lulesh)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lulesh_model_serves_through_the_repo() {
        let (mut repo, lulesh) = repo_with_lulesh();
        let served = repo.serve(&lulesh).expect("hit");
        assert_eq!(served.model, lulesh_table3_model());
        assert_eq!(repo.fallback(), Some(taurus_fallback()));
    }
}
