//! # scorep-lite — the measurement substrate (Score-P / READEX tooling)
//!
//! The paper's workflow (Section III-A) leans on a stack of measurement
//! tools: Score-P compiler instrumentation, `scorep-autofilter` run-time /
//! compile-time filtering, manual phase annotation, `readex-dyn-detect`
//! significant-region detection, OTF2 tracing with a custom post-processing
//! parser, the HDEEM metric plugin, and the Score-P Parameter Control
//! Plugins (PCPs) that switch OpenMP threads, core frequency and uncore
//! frequency at run time. This crate rebuilds each of those layers on top
//! of the simulated node:
//!
//! * [`region`] — region identities and kinds,
//! * [`instrument`] — the instrumented application: phase loop execution
//!   with probes, configurable overheads, and a tuning hook through which
//!   PTF/RRL steer configurations,
//! * [`profile`] — CUBE4-style call-tree profiles,
//! * [`filter`] — `scorep-autofilter`: drop fine-granular regions,
//! * [`dyn_detect`] — `readex-dyn-detect`: significant regions (> 100 ms)
//!   and compute/memory intensity classification,
//! * [`trace`] — OTF2-style binary traces (writer/reader),
//! * [`parser`] — the custom OTF2 post-processing tool: whole-run energy
//!   plus per-phase-instance PAPI values,
//! * [`pcp`] — the three Parameter Control Plugins as one stack that
//!   charges each switch its latency,
//! * [`metric`] — the HDEEM metric plugin.

#![warn(missing_docs)]
#![forbid(unsafe_code)]
#![warn(rust_2018_idioms)]

pub mod dyn_detect;
pub mod filter;
pub mod instrument;
pub mod metric;
pub mod parser;
pub mod pcp;
pub mod profile;
pub mod region;
pub mod trace;

pub use dyn_detect::{detect, DynDetectConfig, SignificantRegion, TuningConfigFile};
pub use filter::{autofilter, FilterFile};
pub use instrument::{AppRunReport, InstrumentationConfig, InstrumentedApp, TuningHook};
pub use parser::{parse_trace, TraceSummary};
pub use pcp::PcpStack;
pub use profile::{CallTreeProfile, RegionStats};
pub use region::{RegionId, RegionKind, RegionRegistry};
pub use trace::{Otf2Trace, TraceEvent, TraceReader, TraceWriter};
