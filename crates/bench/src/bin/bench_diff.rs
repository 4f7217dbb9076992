//! Diff a fresh bench summary against a committed baseline; see
//! [`bench_suite::summary`]. Usage: `bench_diff <baseline.json> <fresh.json>`.
//! Exits non-zero when the fresh run lost a baseline benchmark or a fresh
//! median exceeds twice the baseline's slowest sample
//! ([`bench_suite::summary::REGRESSION_FACTOR`]); smaller timing ratios
//! are printed but not enforced.

use std::process::ExitCode;

fn main() -> ExitCode {
    let mut args = std::env::args().skip(1);
    let (Some(baseline_path), Some(fresh_path)) = (args.next(), args.next()) else {
        eprintln!("usage: bench_diff <baseline.json> <fresh.json>");
        return ExitCode::FAILURE;
    };
    match run(&baseline_path, &fresh_path) {
        Ok(report) => {
            print!("{report}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("bench_diff: {e}");
            ExitCode::FAILURE
        }
    }
}

fn run(baseline_path: &str, fresh_path: &str) -> Result<String, String> {
    let read = |path: &str| {
        std::fs::read_to_string(path).map_err(|e| format!("cannot read `{path}`: {e}"))
    };
    let baseline = bench_suite::summary::parse_summary(&read(baseline_path)?)
        .map_err(|e| format!("`{baseline_path}`: {e}"))?;
    let fresh = bench_suite::summary::parse_summary(&read(fresh_path)?)
        .map_err(|e| format!("`{fresh_path}`: {e}"))?;
    bench_suite::summary::diff(&baseline, &fresh)
}
