//! # kernels — the benchmark suite of Table II
//!
//! The paper trains and validates its energy model on 19 benchmarks drawn
//! from NPB 3.3, CORAL, Mantevo, LLCBench and the BEM4I library. The
//! binaries themselves are not portable into this environment, so each
//! benchmark is represented by a [`spec::BenchmarkSpec`]: a phase loop over
//! named regions, each carrying a frequency-invariant
//! [`simnode::RegionCharacter`] calibrated to that benchmark's published
//! compute/memory personality. The five *test-set* benchmarks (Lulesh,
//! Amg2013, miniMD, BEM4I, Mcbenchmark) additionally model the named
//! significant regions of Tables III and IV.
//!
//! [`real`] contains genuinely runnable sequential kernels (triad,
//! blocked dgemm, 2-D stencil, Monte-Carlo transport) so the
//! instrumentation API can be demonstrated on actual host code, as the
//! `real_kernels_instrumented` example does.

#![warn(missing_docs)]
#![forbid(unsafe_code)]
#![warn(rust_2018_idioms)]

pub mod catalog;
pub mod hash;
pub mod quantile;
pub mod real;
pub mod spec;
pub mod suites;

pub use catalog::{
    all_benchmarks, benchmark, test_set, toy_benchmark, training_set, TEST_SET_NAMES,
};
pub use hash::{fnv1a, splitmix64, Fnv1a};
pub use quantile::QuantileSketch;
pub use spec::{BenchmarkSpec, ProgrammingModel, RegionSpec, Suite};
