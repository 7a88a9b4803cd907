//! The perf-gate comparison, extracted from the `perf_gate` binary so
//! the matching rules are unit-testable.
//!
//! The gate is symmetric about entry *presence*: an entry in the
//! baseline with no counterpart in the fresh report is a hard failure
//! (a deleted experiment can't dodge the gate), and an entry in the
//! fresh report with no counterpart in the baseline is one too (a
//! renamed experiment shows up as exactly that pair of failures, and a
//! genuinely new experiment forces a deliberate baseline regeneration).

use serde_json::Value;

/// Outcome of one gate run: human-readable comparison lines plus the
/// failures (empty means the gate passes).
#[derive(Debug, Default)]
pub struct GateOutcome {
    /// One line per compared metric, for the CI log.
    pub log: Vec<String>,
    /// Hard failures; any entry fails the gate.
    pub failures: Vec<String>,
}

/// `name -> metric` for an array of `{name, ...}` objects.
fn metrics(report: &Value, section: &str, field: &str) -> Vec<(String, f64)> {
    report[section]
        .as_array()
        .map(|rows| {
            rows.iter()
                .filter_map(|row| Some((row["name"].as_str()?.to_string(), row[field].as_f64()?)))
                .collect()
        })
        .unwrap_or_default()
}

/// One gated report section: where the rows live, which field is
/// gated, and which direction of change is a regression (`sign` is
/// `-1.0` when lower is worse — throughput — and `+1.0` when higher is
/// worse — wall time).
struct Section {
    section: &'static str,
    field: &'static str,
    unit: &'static str,
    kind: &'static str,
    sign: f64,
}

const SECTIONS: [Section; 2] = [
    Section {
        section: "components",
        field: "mops",
        unit: "Mops",
        kind: "component",
        sign: -1.0,
    },
    Section {
        section: "serial",
        field: "wall_secs",
        unit: "s",
        kind: "experiment",
        sign: 1.0,
    },
];

/// Walks one section both ways: baseline entries gate the metric delta
/// (and must exist in the fresh report); fresh entries must exist in
/// the baseline.
fn compare_section(out: &mut GateOutcome, baseline: &Value, fresh: &Value, s: &Section, pct: f64) {
    let Section {
        section,
        field,
        unit,
        kind,
        sign,
    } = *s;
    let fresh_rows = metrics(fresh, section, field);
    let base_rows = metrics(baseline, section, field);
    for (name, base) in &base_rows {
        let Some(&(_, now)) = fresh_rows.iter().find(|(n, _)| n == name) else {
            out.failures
                .push(format!("{kind} {name}: missing from fresh report"));
            continue;
        };
        let change = (now - base) / base * 100.0;
        out.log.push(format!(
            "{kind} {name:>14}: {base:9.3} -> {now:9.3} {unit} ({change:+.1}%)"
        ));
        if change * sign > pct {
            let limit = if sign < 0.0 { "-" } else { "+" };
            out.failures.push(format!(
                "{kind} {name}: {base:.3} -> {now:.3} {unit} ({change:+.1}%, limit {limit}{pct}%)"
            ));
        }
    }
    for (name, _) in &fresh_rows {
        if !base_rows.iter().any(|(n, _)| n == name) {
            out.failures.push(format!(
                "{kind} {name}: missing from baseline (regenerate the baseline to admit it)"
            ));
        }
    }
}

/// Reads and parses one perf-smoke report. A missing file or malformed
/// JSON is an error naming the path, not a panic.
pub fn load(path: &str) -> Result<Value, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    serde_json::from_str(&text).map_err(|e| format!("bad JSON in {path}: {e}"))
}

/// Compares a fresh perf-smoke report against the committed baseline at
/// the given threshold (percent). Component throughput may not drop,
/// serial wall time may not grow, and the entry sets must match exactly
/// in both directions.
pub fn compare(baseline: &Value, fresh: &Value, pct: f64) -> GateOutcome {
    let mut out = GateOutcome::default();
    for s in &SECTIONS {
        compare_section(&mut out, baseline, fresh, s, pct);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rows(entries: &[(&str, f64)], field: &str) -> String {
        let body: Vec<String> = entries
            .iter()
            .map(|(n, v)| format!("{{\"name\": \"{n}\", \"{field}\": {v}}}"))
            .collect();
        format!("[{}]", body.join(", "))
    }

    fn report(components: &[(&str, f64)], serial: &[(&str, f64)]) -> Value {
        let text = format!(
            "{{\"components\": {}, \"serial\": {}}}",
            rows(components, "mops"),
            rows(serial, "wall_secs")
        );
        serde_json::from_str(&text).expect("valid test JSON")
    }

    fn empty() -> Value {
        serde_json::from_str("{}").expect("valid test JSON")
    }

    #[test]
    fn missing_file_is_an_error() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/no-such-report.json");
        let err = load(path).expect_err("missing file must not load");
        assert!(
            err.starts_with("cannot read ") && err.contains(path),
            "{err}"
        );
    }

    #[test]
    fn malformed_json_is_an_error() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/Cargo.toml");
        let err = load(path).expect_err("TOML is not JSON");
        assert!(
            err.starts_with("bad JSON in ") && err.contains(path),
            "{err}"
        );
    }

    #[test]
    fn identical_reports_pass() {
        let r = report(&[("aes", 100.0)], &[("fig13", 1.0)]);
        let out = compare(&r, &r, 20.0);
        assert!(out.failures.is_empty(), "{:?}", out.failures);
        assert_eq!(out.log.len(), 2);
    }

    #[test]
    fn throughput_drop_and_wall_growth_fail_beyond_threshold() {
        let base = report(&[("aes", 100.0)], &[("fig13", 1.0)]);
        let fresh = report(&[("aes", 70.0)], &[("fig13", 1.5)]);
        let out = compare(&base, &fresh, 20.0);
        assert_eq!(out.failures.len(), 2, "{:?}", out.failures);
        // Improvements never fail.
        let better = report(&[("aes", 200.0)], &[("fig13", 0.5)]);
        assert!(compare(&base, &better, 20.0).failures.is_empty());
    }

    #[test]
    fn entry_missing_from_fresh_report_is_a_hard_failure() {
        let base = report(&[("aes", 100.0), ("raid", 50.0)], &[("fig13", 1.0)]);
        let fresh = report(&[("aes", 100.0)], &[]);
        let out = compare(&base, &fresh, 20.0);
        assert!(
            out.failures
                .iter()
                .any(|f| f.contains("raid") && f.contains("missing from fresh")),
            "{:?}",
            out.failures
        );
        assert!(
            out.failures
                .iter()
                .any(|f| f.contains("fig13") && f.contains("missing from fresh")),
            "{:?}",
            out.failures
        );
    }

    #[test]
    fn entry_missing_from_baseline_is_a_hard_failure() {
        // A renamed experiment produces both directions of failure; a
        // brand-new one still needs a deliberate baseline regeneration.
        let base = report(&[], &[("fig13", 1.0)]);
        let fresh = report(&[], &[("fig13_renamed", 1.0)]);
        let out = compare(&base, &fresh, 20.0);
        assert_eq!(out.failures.len(), 2, "{:?}", out.failures);
        assert!(out.failures[0].contains("missing from fresh"));
        assert!(out.failures[1].contains("missing from baseline"));
    }

    #[test]
    fn missing_sections_fail_rather_than_silently_pass() {
        let base = report(&[("aes", 100.0)], &[("fig13", 1.0)]);
        let out = compare(&base, &empty(), 20.0);
        assert_eq!(out.failures.len(), 2, "{:?}", out.failures);
    }
}
