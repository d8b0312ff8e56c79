//! The committed performance trajectory: `BENCH_trajectory.json`.
//!
//! Every figure driver prints tables for humans; none of that output is
//! diffable across pull requests.  The trajectory file fixes that: the
//! `bench_trajectory` binary measures a small, fixed set of points (quick
//! figure-5/6/transfer samples plus the `traversal/` sweep, with ids that
//! match the Criterion benchmark ids) and writes them as one JSON document
//! that gets committed at the repository root.  CI validates the committed
//! file on every run (`bench_trajectory --check`), so the perf history is
//! exactly the git history of one file.
//!
//! The format is deliberately line-oriented — one point object per line —
//! so [`validate`] can stay a matched-to-writer scanner in the style of
//! [`crate::gate`] rather than a JSON parser, and so `git diff` shows one
//! changed benchmark per changed line.

use std::fmt::Write as _;

use crate::gate::{extract_number_field, extract_string_field};

/// Schema tag the writer stamps and the validator requires.
pub const SCHEMA: &str = "bench-trajectory-v1";

/// Id prefixes every trajectory file must cover, one per measured family.
/// `--check` fails when any family is absent: a file that silently lost its
/// `traversal/` section would un-gate the group without anyone noticing.
pub const REQUIRED_FAMILIES: &[&str] = &["fig5/", "fig6/", "transfer/", "traversal/"];

/// One measured point.
#[derive(Debug, Clone, PartialEq)]
pub struct TrajectoryPoint {
    /// Hierarchical id (`family/detail/...`); `traversal/` ids match the
    /// Criterion benchmark ids so the committed numbers line up with the
    /// gated group.
    pub id: String,
    /// Unit of `value`: `"mops"` (throughput, higher is better) or `"ns"`
    /// (latency median, lower is better).
    pub unit: String,
    /// The measured value.
    pub value: f64,
}

impl TrajectoryPoint {
    /// A throughput point in millions of operations per second.
    pub fn mops(id: impl Into<String>, value: f64) -> Self {
        TrajectoryPoint {
            id: id.into(),
            unit: "mops".to_string(),
            value,
        }
    }

    /// A latency point in nanoseconds (median).
    pub fn ns(id: impl Into<String>, value: f64) -> Self {
        TrajectoryPoint {
            id: id.into(),
            unit: "ns".to_string(),
            value,
        }
    }
}

/// Render the trajectory document.  Ids are emitted in the order given —
/// the drivers measure in a fixed order, so re-generation on the same box
/// diffs line-by-line against the committed file.
pub fn render(points: &[TrajectoryPoint]) -> String {
    let mut out = String::new();
    out.push_str("{\n");
    let _ = writeln!(out, "  \"schema\": \"{SCHEMA}\",");
    out.push_str("  \"points\": [\n");
    for (index, point) in points.iter().enumerate() {
        let comma = if index + 1 == points.len() { "" } else { "," };
        let _ = writeln!(
            out,
            "    {{\"id\":\"{}\",\"unit\":\"{}\",\"value\":{:.1}}}{comma}",
            escape(&point.id),
            point.unit,
            point.value
        );
    }
    out.push_str("  ]\n}\n");
    out
}

fn escape(s: &str) -> String {
    s.chars().flat_map(char::escape_default).collect()
}

/// What [`validate`] found in a well-formed trajectory file.
#[derive(Debug, Clone, PartialEq)]
pub struct TrajectorySummary {
    /// All parsed points, in file order.
    pub points: Vec<TrajectoryPoint>,
}

/// Validate a trajectory document: schema tag present, at least one point,
/// every point line carries an id / known unit / finite value, no duplicate
/// ids, and every [`REQUIRED_FAMILIES`] prefix is covered.
///
/// Point lines are read with the gate's field scanner, which is matched to
/// [`render`] (one point object per line) — but unlike the gate this is
/// *strict*: a malformed point line is an error, not a skip, because the
/// committed file's whole job is to be trustworthy.
pub fn validate(input: &str) -> Result<TrajectorySummary, String> {
    if !input.contains(&format!("\"schema\": \"{SCHEMA}\"")) {
        return Err(format!("missing or wrong schema tag (expected {SCHEMA:?})"));
    }
    let mut points = Vec::new();
    for (number, line) in input.lines().enumerate() {
        let line = line.trim();
        if !line.starts_with("{\"id\":") {
            continue;
        }
        let line = line.strip_suffix(',').unwrap_or(line);
        let point = parse_point(line)
            .ok_or_else(|| format!("malformed point on line {}: {line}", number + 1))?;
        if !matches!(point.unit.as_str(), "mops" | "ns") {
            return Err(format!(
                "unknown unit {:?} on line {} (expected mops or ns)",
                point.unit,
                number + 1
            ));
        }
        if !point.value.is_finite() || point.value < 0.0 {
            return Err(format!(
                "non-finite or negative value for {} on line {}",
                point.id,
                number + 1
            ));
        }
        if points.iter().any(|p: &TrajectoryPoint| p.id == point.id) {
            return Err(format!("duplicate id {} on line {}", point.id, number + 1));
        }
        points.push(point);
    }
    if points.is_empty() {
        return Err("no points found".to_string());
    }
    for family in REQUIRED_FAMILIES {
        if !points.iter().any(|p| p.id.starts_with(family)) {
            return Err(format!("required family {family:?} has no points"));
        }
    }
    Ok(TrajectorySummary { points })
}

fn parse_point(line: &str) -> Option<TrajectoryPoint> {
    Some(TrajectoryPoint {
        id: extract_string_field(line, "id")?,
        unit: extract_string_field(line, "unit")?,
        value: extract_number_field(line, "value")?,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_points() -> Vec<TrajectoryPoint> {
        vec![
            TrajectoryPoint::mops("fig5/a/skiphash/threads=1", 4.2),
            TrajectoryPoint::mops("fig6/len=1024/update", 1.5),
            TrajectoryPoint::mops("transfer/transfer-heavy/threads=2/total", 0.9),
            TrajectoryPoint::ns("traversal/range_collect/fast", 90465.4),
        ]
    }

    #[test]
    fn render_then_validate_round_trips() {
        let points = sample_points();
        let doc = render(&points);
        let summary = validate(&doc).expect("rendered document must validate");
        assert_eq!(summary.points, points);
    }

    #[test]
    fn schema_and_families_are_required() {
        let doc = render(&sample_points());
        let wrong_schema = doc.replace(SCHEMA, "bench-trajectory-v0");
        assert!(validate(&wrong_schema).unwrap_err().contains("schema"));

        let no_traversal: Vec<_> = sample_points()
            .into_iter()
            .filter(|p| !p.id.starts_with("traversal/"))
            .collect();
        assert!(validate(&render(&no_traversal))
            .unwrap_err()
            .contains("traversal/"));
    }

    #[test]
    fn malformed_points_are_errors_not_skips() {
        let doc = render(&sample_points());
        let truncated = doc.replace("\"value\":90465.4", "\"value\":oops");
        assert!(validate(&truncated).unwrap_err().contains("malformed"));

        let negative = doc.replace("\"value\":90465.4", "\"value\":-1.0");
        assert!(validate(&negative).unwrap_err().contains("negative"));

        let bad_unit = doc.replace("\"unit\":\"ns\"", "\"unit\":\"furlongs\"");
        assert!(validate(&bad_unit).unwrap_err().contains("unknown unit"));
    }

    #[test]
    fn duplicate_ids_are_rejected() {
        let mut points = sample_points();
        points.push(points[0].clone());
        assert!(validate(&render(&points))
            .unwrap_err()
            .contains("duplicate"));
    }

    #[test]
    fn empty_documents_are_rejected() {
        assert!(
            validate("{\n  \"schema\": \"bench-trajectory-v1\",\n  \"points\": [\n  ]\n}\n")
                .unwrap_err()
                .contains("no points")
        );
    }
}
