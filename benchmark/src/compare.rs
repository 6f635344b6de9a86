//! `--compare a.json b.json`: is `b` no worse than `a`, metric by metric,
//! workload by workload, under the bounds `BENCHMARK.json` fixes?

use crate::json::Value;
use std::fmt::Write as _;

/// How one metric of one workload moved from `a` to `b`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Better by more than the bound.
    Better,
    /// Within the bound either way.
    Within,
    /// Worse by more than the bound: a regression.
    Worse,
    /// The reports' own spread exceeds the bound: nothing can be said.
    Unresolved,
}

impl Verdict {
    fn label(self) -> &'static str {
        match self {
            Verdict::Better => "better",
            Verdict::Within => "within",
            Verdict::Worse => "WORSE",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// An end-to-end metric's entry in `BENCHMARK.json`.
#[derive(Debug, Clone, PartialEq)]
pub struct Bound {
    /// Metric name.
    pub name: String,
    /// True when smaller values are better.
    pub lower_is_better: bool,
    /// Share of `a` by which `b` may be worse.
    pub bound: f64,
}

/// The verdict for one pair of readings. `spread` is the wider of the two
/// reports' own relative spreads.
pub fn verdict(a: f64, b: f64, spread: f64, bound: &Bound) -> Verdict {
    if spread > bound.bound || a == 0.0 {
        return Verdict::Unresolved;
    }
    let worse_by = if bound.lower_is_better { (b - a) / a } else { (a - b) / a };
    if worse_by > bound.bound {
        Verdict::Worse
    } else if worse_by < -bound.bound {
        Verdict::Better
    } else {
        Verdict::Within
    }
}

/// The `end_to_end` bounds of a parsed `BENCHMARK.json`.
///
/// # Errors
///
/// A document without a well-formed `end_to_end` list.
pub fn bounds(benchmark_json: &Value) -> Result<Vec<Bound>, String> {
    let list = benchmark_json
        .get("end_to_end")
        .and_then(Value::as_array)
        .ok_or("BENCHMARK.json: no end_to_end list")?;
    list.iter()
        .map(|entry| {
            let name = entry.get("name").and_then(Value::as_str);
            let better = entry.get("better").and_then(Value::as_str);
            let bound = entry.get("bound").and_then(Value::as_f64);
            match (name, better, bound) {
                (Some(name), Some(better @ ("lower" | "higher")), Some(bound)) => {
                    Ok(Bound { name: name.to_owned(), lower_is_better: better == "lower", bound })
                }
                _ => Err(format!("BENCHMARK.json: malformed end_to_end entry {}", entry.render())),
            }
        })
        .collect()
}

fn reading(report: &Value, workload: &str, metric: &str) -> Option<(f64, f64)> {
    let entry = report.get("workloads")?.get(workload)?.get("metrics")?.get(metric)?;
    let spread = entry.get("spread").and_then(Value::as_f64).unwrap_or(0.0);
    Some((entry.get("value")?.as_f64()?, spread))
}

/// Compares two `--out` reports. Returns the table (one row per metric ×
/// workload) and whether any row is [`Verdict::Worse`].
pub fn compare(a: &Value, b: &Value, bounds: &[Bound]) -> (String, bool) {
    let mut table = String::new();
    let mut any_worse = false;
    let _ = writeln!(
        table,
        "{:<18} {:<24} {:>14} {:>14} {:>8} {:>7} {:>7}  verdict",
        "workload", "metric", "a", "b", "change", "spread", "bound"
    );
    let workloads = a.get("workloads").and_then(Value::as_object).unwrap_or(&[]);
    for (workload, _) in workloads {
        for bound in bounds {
            let (Some((va, sa)), Some((vb, sb))) =
                (reading(a, workload, &bound.name), reading(b, workload, &bound.name))
            else {
                let _ = writeln!(table, "{workload:<18} {:<24} missing in a or b", bound.name);
                continue;
            };
            let spread = sa.max(sb);
            let verdict = verdict(va, vb, spread, bound);
            any_worse |= verdict == Verdict::Worse;
            let change = if va == 0.0 { 0.0 } else { 100.0 * (vb - va) / va };
            let _ = writeln!(
                table,
                "{workload:<18} {:<24} {va:>14.4} {vb:>14.4} {change:>+7.1}% {:>6.1}% {:>6.1}%  {}",
                bound.name,
                100.0 * spread,
                100.0 * bound.bound,
                verdict.label()
            );
        }
    }
    (table, any_worse)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bound(lower_is_better: bool) -> Bound {
        Bound { name: "m".to_owned(), lower_is_better, bound: 0.10 }
    }

    #[test]
    fn verdicts_follow_direction_and_bound() {
        // Higher is better (a throughput): 100 -> 85 is worse, 100 -> 95
        // is within, 100 -> 115 is better.
        assert_eq!(verdict(100.0, 85.0, 0.01, &bound(false)), Verdict::Worse);
        assert_eq!(verdict(100.0, 95.0, 0.01, &bound(false)), Verdict::Within);
        assert_eq!(verdict(100.0, 115.0, 0.01, &bound(false)), Verdict::Better);
        // Lower is better (a latency): the same moves read the other way.
        assert_eq!(verdict(100.0, 85.0, 0.01, &bound(true)), Verdict::Better);
        assert_eq!(verdict(100.0, 109.0, 0.01, &bound(true)), Verdict::Within);
        assert_eq!(verdict(100.0, 115.0, 0.01, &bound(true)), Verdict::Worse);
        // A spread wider than the bound decides nothing, whatever moved.
        assert_eq!(verdict(100.0, 50.0, 0.12, &bound(false)), Verdict::Unresolved);
    }

    #[test]
    fn compare_reads_reports_and_flags_regressions() {
        let spec = Value::parse(
            r#"{"end_to_end": [
                {"name": "publish_msgs_per_s", "unit": "1/s", "better": "higher", "bound": 0.1},
                {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.15}]}"#,
        )
        .unwrap();
        let limits = bounds(&spec).unwrap();
        assert_eq!(limits.len(), 2);
        assert!(limits[1].lower_is_better);
        let report = |rate: f64, setup: f64| {
            Value::parse(&format!(
                r#"{{"workloads": {{"w": {{"metrics": {{
                    "publish_msgs_per_s": {{"value": {rate}, "unit": "1/s", "spread": 0.02}},
                    "setup_s": {{"value": {setup}, "unit": "s", "spread": 0.01}}}}}}}}}}"#
            ))
            .unwrap()
        };
        let (table, worse) = compare(&report(1000.0, 2.0), &report(990.0, 2.1), &limits);
        assert!(!worse, "{table}");
        assert_eq!(table.matches("within").count(), 2, "{table}");
        let (table, worse) = compare(&report(1000.0, 2.0), &report(800.0, 1.5), &limits);
        assert!(worse);
        assert!(table.contains("WORSE") && table.contains("better"), "{table}");
        assert!(bounds(&Value::parse(r#"{"end_to_end": [{"name": "x"}]}"#).unwrap()).is_err());
    }
}
