//! The benchmark regression gate: compare a current benchmark run against a
//! stored baseline and fail on median regressions.
//!
//! Input files are the JSON-lines artifacts the vendored criterion shim
//! writes when `CRITERION_JSON` is set: one object per line with `id`,
//! `mean_ns`, `median_ns`, and `p95_ns` fields.  The parser here is
//! deliberately matched to that writer (this workspace controls both ends);
//! it is not a general JSON parser.
//!
//! The `bench_gate` binary wraps [`compare`] for CI:
//!
//! ```text
//! bench_gate --baseline bench-baseline.json --current bench-current.json \
//!            --prefix epoch/ --max-regression 0.25
//! ```

use std::collections::BTreeMap;
use std::fmt;

/// One benchmark's recorded statistics.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BenchRecord {
    /// Mean ns/iter over the sample batches.
    pub mean_ns: f64,
    /// Median ns/iter (the gated statistic — robust to one noisy sample).
    pub median_ns: f64,
    /// 95th percentile ns/iter.
    pub p95_ns: f64,
}

/// Parse the criterion shim's JSON-lines output.  Later records for the same
/// id win (a re-run appends).  Malformed lines are skipped rather than fatal:
/// the gate must not brick CI over a truncated artifact, it reports on what
/// both files actually contain.
pub fn parse_records(input: &str) -> BTreeMap<String, BenchRecord> {
    let mut out = BTreeMap::new();
    for line in input.lines() {
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        let id = match extract_string_field(line, "id") {
            Some(id) => id,
            None => continue,
        };
        let (mean, median, p95) = match (
            extract_number_field(line, "mean_ns"),
            extract_number_field(line, "median_ns"),
            extract_number_field(line, "p95_ns"),
        ) {
            (Some(mean), Some(median), Some(p95)) => (mean, median, p95),
            _ => continue,
        };
        out.insert(
            id,
            BenchRecord {
                mean_ns: mean,
                median_ns: median,
                p95_ns: p95,
            },
        );
    }
    out
}

/// The string value of `"field":"..."` in one writer-produced JSON line
/// (shared with the trajectory validator, whose writer uses the same shape).
pub(crate) fn extract_string_field(line: &str, field: &str) -> Option<String> {
    let needle = format!("\"{field}\":\"");
    let start = line.find(&needle)? + needle.len();
    let rest = &line[start..];
    // The shim escapes with char::escape_default, so a bare '"' terminates.
    let end = rest.find('"')?;
    Some(rest[..end].to_string())
}

/// The numeric value of `"field":...` in one writer-produced JSON line.
pub(crate) fn extract_number_field(line: &str, field: &str) -> Option<f64> {
    let needle = format!("\"{field}\":");
    let start = line.find(&needle)? + needle.len();
    let rest = &line[start..];
    let end = rest.find([',', '}']).unwrap_or(rest.len());
    rest[..end].trim().parse().ok()
}

/// The comparison of one benchmark id across the two runs.
#[derive(Debug, Clone, PartialEq)]
pub struct Comparison {
    /// Benchmark id (`group/name/param`).
    pub id: String,
    /// Baseline median ns/iter.
    pub baseline_median_ns: f64,
    /// Current median ns/iter.
    pub current_median_ns: f64,
    /// Relative change of the median: `current / baseline - 1` (positive =
    /// slower).
    pub median_change: f64,
    /// True when `median_change` exceeds the configured threshold.
    pub regressed: bool,
}

impl fmt::Display for Comparison {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{:<55} {:>12.1} -> {:>12.1} ns  ({:+.1}%){}",
            self.id,
            self.baseline_median_ns,
            self.current_median_ns,
            self.median_change * 100.0,
            if self.regressed { "  REGRESSED" } else { "" }
        )
    }
}

/// Outcome of gating `current` against `baseline`.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct GateReport {
    /// Per-id comparisons for every gated id present in both runs.
    pub compared: Vec<Comparison>,
    /// Gated ids present in the baseline only (renamed/removed benchmarks —
    /// reported, not fatal).
    pub missing_in_current: Vec<String>,
    /// Gated ids present in the current run only (new benchmarks).
    pub missing_in_baseline: Vec<String>,
}

impl GateReport {
    /// The comparisons that exceeded the regression threshold.
    pub fn regressions(&self) -> impl Iterator<Item = &Comparison> {
        self.compared.iter().filter(|c| c.regressed)
    }

    /// True when no gated benchmark regressed.
    pub fn passed(&self) -> bool {
        self.regressions().next().is_none()
    }
}

/// Compare all benchmark ids starting with `prefix`, flagging any whose
/// median slowed down by more than `max_regression` (e.g. `0.25` = +25%).
///
/// Single-prefix convenience over [`compare_prefixes`].
pub fn compare(
    baseline: &BTreeMap<String, BenchRecord>,
    current: &BTreeMap<String, BenchRecord>,
    prefix: &str,
    max_regression: f64,
) -> GateReport {
    compare_prefixes(baseline, current, &[prefix], max_regression)
}

/// Compare all benchmark ids starting with *any* of `prefixes` (the CI gate
/// covers several groups — `epoch/` and `commit_path/` — in one invocation),
/// flagging any whose median slowed down by more than `max_regression`.
pub fn compare_prefixes(
    baseline: &BTreeMap<String, BenchRecord>,
    current: &BTreeMap<String, BenchRecord>,
    prefixes: &[&str],
    max_regression: f64,
) -> GateReport {
    let gated = |id: &str| prefixes.iter().any(|prefix| id.starts_with(prefix));
    let mut report = GateReport::default();
    for (id, base) in baseline.iter().filter(|(id, _)| gated(id)) {
        match current.get(id) {
            None => report.missing_in_current.push(id.clone()),
            Some(cur) => {
                let change = if base.median_ns > 0.0 {
                    cur.median_ns / base.median_ns - 1.0
                } else {
                    0.0
                };
                report.compared.push(Comparison {
                    id: id.clone(),
                    baseline_median_ns: base.median_ns,
                    current_median_ns: cur.median_ns,
                    median_change: change,
                    regressed: change > max_regression,
                });
            }
        }
    }
    for id in current.keys().filter(|id| gated(id)) {
        if !baseline.contains_key(id) {
            report.missing_in_baseline.push(id.clone());
        }
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    const BASELINE: &str = r#"
{"id":"epoch/pin_unpin","mean_ns":10.0,"median_ns":10.0,"p95_ns":12.0}
{"id":"epoch/swap_defer_destroy","mean_ns":50.0,"median_ns":48.0,"p95_ns":60.0}
{"id":"stm_txn/read_only_8/hardware-tsc","mean_ns":200.0,"median_ns":190.0,"p95_ns":220.0}
"#;

    #[test]
    fn parses_shim_output() {
        let records = parse_records(BASELINE);
        assert_eq!(records.len(), 3);
        let pin = &records["epoch/pin_unpin"];
        assert_eq!(pin.mean_ns, 10.0);
        assert_eq!(pin.median_ns, 10.0);
        assert_eq!(pin.p95_ns, 12.0);
    }

    #[test]
    fn later_duplicate_records_win_and_garbage_is_skipped() {
        let input = r#"
not json at all
{"id":"epoch/pin_unpin","mean_ns":10.0,"median_ns":10.0,"p95_ns":12.0}
{"id":"epoch/pin_unpin","mean_ns":11.0,"median_ns":11.5,"p95_ns":13.0}
{"id":"broken","mean_ns":oops}
"#;
        let records = parse_records(input);
        assert_eq!(records.len(), 1);
        assert_eq!(records["epoch/pin_unpin"].median_ns, 11.5);
    }

    #[test]
    fn within_threshold_passes() {
        let baseline = parse_records(BASELINE);
        let current = parse_records(
            r#"
{"id":"epoch/pin_unpin","mean_ns":12.0,"median_ns":12.0,"p95_ns":14.0}
{"id":"epoch/swap_defer_destroy","mean_ns":40.0,"median_ns":39.0,"p95_ns":45.0}
"#,
        );
        // +20% on pin_unpin, an improvement on swap: passes a 25% gate.
        let report = compare(&baseline, &current, "epoch/", 0.25);
        assert_eq!(report.compared.len(), 2);
        assert!(report.passed());
        // The non-epoch id is outside the gated prefix entirely.
        assert!(report.compared.iter().all(|c| c.id.starts_with("epoch/")));
    }

    #[test]
    fn regression_beyond_threshold_fails() {
        let baseline = parse_records(BASELINE);
        let current = parse_records(
            r#"
{"id":"epoch/pin_unpin","mean_ns":14.0,"median_ns":13.0,"p95_ns":16.0}
{"id":"epoch/swap_defer_destroy","mean_ns":50.0,"median_ns":48.0,"p95_ns":60.0}
"#,
        );
        // +30% median on pin_unpin: fails a 25% gate.
        let report = compare(&baseline, &current, "epoch/", 0.25);
        assert!(!report.passed());
        let regressions: Vec<_> = report.regressions().collect();
        assert_eq!(regressions.len(), 1);
        assert_eq!(regressions[0].id, "epoch/pin_unpin");
        assert!(regressions[0].to_string().contains("REGRESSED"));
    }

    #[test]
    fn multiple_prefixes_gate_their_union() {
        let baseline = parse_records(
            r#"
{"id":"epoch/pin_unpin","mean_ns":10.0,"median_ns":10.0,"p95_ns":12.0}
{"id":"commit_path/rmw_1/gv5-sampled","mean_ns":100.0,"median_ns":100.0,"p95_ns":110.0}
{"id":"stm_txn/read_only_8/gv5-sampled","mean_ns":200.0,"median_ns":190.0,"p95_ns":220.0}
"#,
        );
        let current = parse_records(
            r#"
{"id":"epoch/pin_unpin","mean_ns":10.0,"median_ns":10.0,"p95_ns":12.0}
{"id":"commit_path/rmw_1/gv5-sampled","mean_ns":140.0,"median_ns":140.0,"p95_ns":150.0}
{"id":"stm_txn/read_only_8/gv5-sampled","mean_ns":900.0,"median_ns":900.0,"p95_ns":990.0}
"#,
        );
        let report = compare_prefixes(&baseline, &current, &["epoch/", "commit_path/"], 0.25);
        assert_eq!(report.compared.len(), 2, "stm_txn is outside both prefixes");
        assert!(!report.passed(), "+40% on commit_path must fail the gate");
        let regressions: Vec<_> = report.regressions().collect();
        assert_eq!(regressions.len(), 1);
        assert_eq!(regressions[0].id, "commit_path/rmw_1/gv5-sampled");
    }

    #[test]
    fn renamed_benchmarks_are_reported_not_fatal() {
        let baseline = parse_records(BASELINE);
        let current = parse_records(
            r#"{"id":"epoch/pin_unpin_v2","mean_ns":9.0,"median_ns":9.0,"p95_ns":10.0}"#,
        );
        let report = compare(&baseline, &current, "epoch/", 0.25);
        assert!(report.passed(), "absent ids must not fail the gate");
        assert_eq!(
            report.missing_in_current,
            vec![
                "epoch/pin_unpin".to_string(),
                "epoch/swap_defer_destroy".to_string()
            ]
        );
        assert_eq!(
            report.missing_in_baseline,
            vec!["epoch/pin_unpin_v2".to_string()]
        );
    }
}
