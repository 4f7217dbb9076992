//! Bench-baseline diffing: parse the `{"benchmarks":[…]}` documents the
//! criterion shim writes via `CRITERION_SUMMARY_JSON`, and compare a
//! fresh run against the committed baseline.
//!
//! The committed `BENCH_*.json` files at the repository root are the
//! baselines; CI regenerates fresh summaries and runs `bench_diff`
//! against them. The diff fails on
//!
//! * **lost coverage** — a benchmark present in the baseline but missing
//!   from the fresh run (renamed, deleted, or cut short), and
//! * **gross regressions** — a fresh median above
//!   [`REGRESSION_FACTOR`] times the baseline's slowest sample
//!   (`high_ns`).
//!
//! Anything inside that band only prints its ratio for trend eyeballing:
//! shared-runner numbers are indicative, not comparable across machines,
//! but a median past twice the baseline's worst sample is not noise.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use serde::Deserialize;

/// One benchmark's row of a summary document (the shim's
/// `SummaryEntry` wire form).
#[derive(Debug, Clone, Deserialize)]
pub struct SummaryRow {
    /// Benchmark name (group-qualified, as printed).
    pub name: String,
    /// Median per-iteration time, nanoseconds.
    pub median_ns: f64,
    /// Fastest sample, nanoseconds.
    pub low_ns: f64,
    /// Slowest sample, nanoseconds.
    pub high_ns: f64,
    /// Iterations measured.
    pub iters: u64,
}

/// The `{"benchmarks":[…]}` document.
#[derive(Debug, Clone, Deserialize)]
pub struct SummaryDoc {
    /// Every benchmark the run reported.
    pub benchmarks: Vec<SummaryRow>,
}

/// A fresh median above this multiple of the baseline's `high_ns` fails
/// the diff.
pub const REGRESSION_FACTOR: f64 = 2.0;

/// Parse a summary document into name → row, rejecting duplicates.
pub fn parse_summary(json: &str) -> Result<BTreeMap<String, SummaryRow>, String> {
    let doc: SummaryDoc =
        serde_json::from_str(json).map_err(|e| format!("malformed summary: {e:?}"))?;
    let mut rows = BTreeMap::new();
    for row in doc.benchmarks {
        if rows.insert(row.name.clone(), row).is_some() {
            return Err("duplicate benchmark name in summary".to_string());
        }
    }
    Ok(rows)
}

/// Diff a fresh summary against the committed baseline: a human-readable
/// table on success; on error, the benchmarks the fresh run lost and
/// those that regressed past [`REGRESSION_FACTOR`].
pub fn diff(
    baseline: &BTreeMap<String, SummaryRow>,
    fresh: &BTreeMap<String, SummaryRow>,
) -> Result<String, String> {
    let missing: Vec<&str> = baseline
        .keys()
        .filter(|name| !fresh.contains_key(*name))
        .map(String::as_str)
        .collect();
    let regressed: Vec<String> = fresh
        .iter()
        .filter_map(|(name, row)| {
            let base = baseline.get(name)?;
            (row.median_ns > REGRESSION_FACTOR * base.high_ns).then(|| {
                format!(
                    "{name} ({:.0} ns > {REGRESSION_FACTOR}x baseline high {:.0} ns)",
                    row.median_ns, base.high_ns
                )
            })
        })
        .collect();
    let mut problems = Vec::new();
    if !missing.is_empty() {
        problems.push(format!(
            "baseline benchmarks missing from the fresh run: {}",
            missing.join(", ")
        ));
    }
    if !regressed.is_empty() {
        problems.push(format!("gross regressions: {}", regressed.join(", ")));
    }
    if !problems.is_empty() {
        return Err(problems.join("; "));
    }
    let mut out = String::new();
    for (name, fresh_row) in fresh {
        match baseline.get(name) {
            Some(base_row) => {
                let ratio = if base_row.median_ns > 0.0 {
                    fresh_row.median_ns / base_row.median_ns
                } else {
                    f64::NAN
                };
                let _ = writeln!(
                    out,
                    "{name}: {:.0} ns vs baseline {:.0} ns ({ratio:.2}x)",
                    fresh_row.median_ns, base_row.median_ns
                );
            }
            None => {
                let _ = writeln!(
                    out,
                    "{name}: {:.0} ns (new, no baseline)",
                    fresh_row.median_ns
                );
            }
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn doc(rows: &[(&str, f64)]) -> String {
        let spread: Vec<(&str, f64, f64)> = rows.iter().map(|&(n, m)| (n, m, m)).collect();
        doc_with_high(&spread)
    }

    fn doc_with_high(rows: &[(&str, f64, f64)]) -> String {
        let body: Vec<String> = rows
            .iter()
            .map(|(name, median, high)| {
                format!(
                    "{{\"name\":\"{name}\",\"median_ns\":{median},\
                     \"low_ns\":{median},\"high_ns\":{high},\"iters\":3}}"
                )
            })
            .collect();
        format!("{{\"benchmarks\":[{}]}}", body.join(","))
    }

    #[test]
    fn parses_the_shim_document_shape() {
        let rows = parse_summary(&doc(&[("a/b", 120.0), ("c", 7.5)])).unwrap();
        assert_eq!(rows.len(), 2);
        assert_eq!(rows["a/b"].median_ns, 120.0);
        assert_eq!(rows["c"].iters, 3);
    }

    #[test]
    fn rejects_malformed_and_duplicate_summaries() {
        assert!(parse_summary("{nope").is_err());
        assert!(parse_summary(&doc(&[("a", 1.0), ("a", 2.0)])).is_err());
    }

    #[test]
    fn diff_reports_ratios_and_new_rows_without_failing() {
        let base = parse_summary(&doc(&[("a", 100.0)])).unwrap();
        let fresh = parse_summary(&doc(&[("a", 150.0), ("b", 5.0)])).unwrap();
        let report = diff(&base, &fresh).unwrap();
        assert!(report.contains("a: 150 ns vs baseline 100 ns (1.50x)"));
        assert!(report.contains("b: 5 ns (new, no baseline)"));
    }

    #[test]
    fn diff_passes_slowdowns_within_twice_the_baseline_high() {
        // Median 100, slowest sample 140: anything up to 280 ns passes.
        let base = parse_summary(&doc_with_high(&[("a", 100.0, 140.0)])).unwrap();
        for fresh_median in [50.0, 140.0, 279.0, 280.0] {
            let fresh = parse_summary(&doc(&[("a", fresh_median)])).unwrap();
            assert!(diff(&base, &fresh).is_ok(), "{fresh_median} ns failed");
        }
    }

    #[test]
    fn diff_fails_on_gross_regressions() {
        let base = parse_summary(&doc_with_high(&[
            ("a", 100.0, 140.0),
            ("b", 10.0, 12.0),
            ("gone", 9.0, 9.0),
        ]))
        .unwrap();
        let fresh = parse_summary(&doc(&[("a", 281.0), ("b", 11.0)])).unwrap();
        let err = diff(&base, &fresh).unwrap_err();
        assert!(err.contains("gross regressions: a (281 ns > 2x baseline high 140 ns)"));
        assert!(!err.contains("b ("), "{err}");
        // Lost coverage is reported alongside, not instead.
        assert!(err.contains("missing from the fresh run: gone"), "{err}");
    }

    #[test]
    fn diff_fails_on_lost_coverage() {
        let base = parse_summary(&doc(&[("a", 100.0), ("gone", 9.0)])).unwrap();
        let fresh = parse_summary(&doc(&[("a", 90.0)])).unwrap();
        let err = diff(&base, &fresh).unwrap_err();
        assert!(err.contains("gone"));
    }
}
