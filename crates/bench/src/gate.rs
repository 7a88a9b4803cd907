//! The perf gate's rules, kept apart from the `perf_gate` binary (which
//! runs the benchmarks) so they are unit-testable.
//!
//! The gate judges a change against its parent commit on the workloads
//! `BENCHMARK.json` names, from alternating runs of the two commits'
//! perfbench binaries. Both sides are measured in the same session on
//! the same machine, so a slow phase of the machine moves both; a
//! committed baseline measured on another day cannot be compared that
//! way. Each run's last stdout line is one JSON object, read by
//! [`parse_result_line`]; [`compare`] turns both sides' runs into the
//! verdict.

use serde_json::Value;
use std::collections::BTreeMap;

/// The largest growth of the change's median `pass_s` over the parent's
/// that still passes, in percent.
pub const THRESHOLD_PCT: f64 = 20.0;

/// Outcome of one gate run: human-readable comparison lines plus the
/// failures (empty means the gate passes).
#[derive(Debug, Default)]
pub struct GateOutcome {
    /// One line per compared workload, for the CI log.
    pub log: Vec<String>,
    /// Hard failures; any entry fails the gate.
    pub failures: Vec<String>,
}

/// What the gate reads from one perfbench run's result line.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RunResult {
    /// Every request produced the expected output.
    pub correct: bool,
    /// Requests that failed in any repeat.
    pub failed: u64,
    /// Sum of the requests' fastest host times, seconds.
    pub pass_s: f64,
}

/// One workload's runs on both sides.
#[derive(Debug, Default)]
pub struct Sides {
    /// Runs of the parent commit's perfbench.
    pub parent: Vec<RunResult>,
    /// Runs of the change's perfbench.
    pub change: Vec<RunResult>,
}

/// Reads and parses a JSON file. A missing file or malformed JSON is an
/// error naming the path, not a panic.
pub fn load(path: &str) -> Result<Value, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    serde_json::from_str(&text).map_err(|e| format!("bad JSON in {path}: {e}"))
}

/// The workload names of a parsed `BENCHMARK.json`, in its order.
pub fn workloads(benchmark: &Value) -> Result<Vec<String>, String> {
    let names: Option<Vec<String>> = benchmark["workloads"].as_array().and_then(|rows| {
        rows.iter()
            .map(|row| row["name"].as_str().map(str::to_string))
            .collect()
    });
    match names {
        Some(names) if !names.is_empty() => Ok(names),
        _ => Err("BENCHMARK.json has no list of named workloads".into()),
    }
}

/// Parses the last non-empty line of a perfbench run's standard output:
/// `{"correct": bool, "failed": n, "metrics": {"pass_s": {"value": s}, ..}}`.
pub fn parse_result_line(stdout: &str) -> Result<RunResult, String> {
    let line = stdout
        .lines()
        .rev()
        .find(|l| !l.trim().is_empty())
        .ok_or("no output")?;
    let v = serde_json::from_str(line).map_err(|e| format!("bad result line {line:?}: {e}"))?;
    let missing = |what: &str| format!("result line lacks {what}: {line:?}");
    let Value::Bool(correct) = v["correct"] else {
        return Err(missing("a boolean `correct`"));
    };
    Ok(RunResult {
        correct,
        failed: v["failed"].as_u64().ok_or_else(|| missing("`failed`"))?,
        pass_s: v["metrics"]["pass_s"]["value"]
            .as_f64()
            .ok_or_else(|| missing("`metrics.pass_s.value`"))?,
    })
}

/// The median `pass_s` of a side's runs (`None` with no runs).
fn median_pass_s(runs: &[RunResult]) -> Option<f64> {
    let mut xs: Vec<f64> = runs.iter().map(|r| r.pass_s).collect();
    xs.sort_by(f64::total_cmp);
    let n = xs.len();
    (n > 0).then(|| (xs[(n - 1) / 2] + xs[n / 2]) / 2.0)
}

/// Judges the change against the parent. Every named workload must have
/// runs on both sides. The gate fails on a workload when the change's
/// median `pass_s` is more than [`THRESHOLD_PCT`] above the parent's,
/// when any change run is not `correct`, or when a change run reports
/// more failed requests than any parent run.
pub fn compare(workloads: &[String], runs: &BTreeMap<String, Sides>) -> GateOutcome {
    let mut out = GateOutcome::default();
    for name in workloads {
        let sides = runs.get(name);
        let medians = sides.map(|s| (median_pass_s(&s.parent), median_pass_s(&s.change)));
        let (Some(sides), Some((Some(parent), Some(change)))) = (sides, medians) else {
            out.failures
                .push(format!("{name}: no results on one side or both"));
            continue;
        };
        let pct = (change - parent) / parent * 100.0;
        out.log.push(format!(
            "{name:>14}: median pass_s {parent:.4} s -> {change:.4} s ({pct:+.1}%)"
        ));
        if pct > THRESHOLD_PCT {
            out.failures.push(format!(
                "{name}: median pass_s {parent:.4} s -> {change:.4} s \
                 ({pct:+.1}%, limit +{THRESHOLD_PCT}%)"
            ));
        }
        if sides.change.iter().any(|r| !r.correct) {
            out.failures
                .push(format!("{name}: the change reports correct: false"));
        }
        let most_failed = |rs: &[RunResult]| rs.iter().map(|r| r.failed).max().unwrap_or(0);
        let (pf, cf) = (most_failed(&sides.parent), most_failed(&sides.change));
        if cf > pf {
            out.failures.push(format!(
                "{name}: {cf} failed requests on the change, {pf} on the parent"
            ));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(pass_s: f64) -> RunResult {
        RunResult {
            correct: true,
            failed: 0,
            pass_s,
        }
    }

    fn one(parent: &[f64], change: &[f64]) -> GateOutcome {
        let sides = Sides {
            parent: parent.iter().copied().map(run).collect(),
            change: change.iter().copied().map(run).collect(),
        };
        let runs = BTreeMap::from([("w".to_string(), sides)]);
        compare(&["w".to_string()], &runs)
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
    fn the_repository_benchmark_names_its_workloads() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCHMARK.json");
        let names = workloads(&load(path).expect("BENCHMARK.json loads")).expect("names");
        assert!(names.iter().any(|n| n == "stream_read"), "{names:?}");
        let none = serde_json::from_str("{\"workloads\": []}").expect("valid test JSON");
        assert!(workloads(&none).is_err());
    }

    #[test]
    fn result_line_is_the_last_line() {
        let stdout = "perfbench workload=w\n  req repeats=3\n\
            {\"correct\": true, \"attempted\": 4, \"failed\": 1, \"metrics\": \
            {\"pass_s\": {\"value\": 0.25, \"unit\": \"s\"}}}\n\n";
        let r = parse_result_line(stdout).expect("parses");
        assert_eq!(
            r,
            RunResult {
                correct: true,
                failed: 1,
                pass_s: 0.25
            }
        );
        assert!(parse_result_line("").is_err());
        assert!(parse_result_line("set-up failed\n").is_err());
        assert!(parse_result_line("{\"correct\": true, \"failed\": 0}").is_err());
        assert!(parse_result_line("{\"correct\": 1, \"failed\": 0, \"metrics\": {}}").is_err());
    }

    #[test]
    fn growth_up_to_the_threshold_passes() {
        let out = one(&[1.0, 1.1, 0.9, 1.0], &[1.2, 1.1, 1.2, 1.3]);
        assert!(out.failures.is_empty(), "{:?}", out.failures);
        assert_eq!(out.log.len(), 1);
        // Improvements never fail.
        assert!(one(&[1.0; 4], &[0.5; 4]).failures.is_empty());
    }

    #[test]
    fn median_growth_beyond_the_threshold_fails() {
        // One slow change run does not move the median; three do.
        assert!(one(&[1.0; 4], &[1.0, 1.0, 1.0, 9.0]).failures.is_empty());
        let out = one(&[1.0; 4], &[1.0, 1.3, 1.3, 1.3]);
        assert_eq!(out.failures.len(), 1, "{:?}", out.failures);
        assert!(out.failures[0].contains("+30.0%"), "{:?}", out.failures);
    }

    #[test]
    fn incorrect_or_more_failed_change_runs_fail() {
        let mut sides = Sides {
            parent: vec![run(1.0); 4],
            change: vec![run(1.0); 4],
        };
        sides.change[2].correct = false;
        sides.change[3].failed = 2;
        sides.parent[0].failed = 1;
        let runs = BTreeMap::from([("w".to_string(), sides)]);
        let out = compare(&["w".to_string()], &runs);
        assert_eq!(out.failures.len(), 2, "{:?}", out.failures);
        assert!(out.failures[0].contains("correct: false"));
        assert!(out.failures[1].contains("2 failed requests on the change, 1 on the parent"));
    }

    #[test]
    fn every_workload_needs_runs_on_both_sides() {
        let names = ["a".to_string(), "b".to_string(), "c".to_string()];
        let runs = BTreeMap::from([
            (
                "a".to_string(),
                Sides {
                    parent: vec![run(1.0)],
                    change: vec![run(1.0)],
                },
            ),
            (
                "b".to_string(),
                Sides {
                    parent: vec![run(1.0)],
                    change: vec![],
                },
            ),
        ]);
        let out = compare(&names, &runs);
        assert_eq!(out.failures.len(), 2, "{:?}", out.failures);
        assert!(out.failures[0].starts_with("b: no results"));
        assert!(out.failures[1].starts_with("c: no results"));
    }
}
