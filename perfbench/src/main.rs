//! Performance benchmark of the ASSASIN simulator: end-to-end host time of
//! fixed request lists, timed at each request's fastest repeat, plus a
//! traced run that splits that time over the layers.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload stream_read --seed 1 --seconds 10 --trace 0
//! ```
//!
//! The last line of standard output is one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`; see README.md for every metric.

mod affinity;
mod measure;
mod trace;
mod workloads;

use measure::{Counts, RequestStats, RunResult};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::process::ExitCode;

/// End-to-end metrics, reported with `--trace 0`.
const END_TO_END: [(&str, &str); 3] = [("setup_s", "s"), ("pass_s", "s"), ("sim_s", "sim-s")];

/// Per-layer metrics, reported with `--trace 1`.
const PER_LAYER: [(&str, &str); 49] = [
    ("core.instructions", "count"),
    ("core.cycles", "count"),
    ("core.busy_cycles", "count"),
    ("core.stall_stream", "count"),
    ("core.stall_scratchpad", "count"),
    ("core.stall_swap", "count"),
    ("core.host_ns_per_instr", "ns"),
    ("mem.stall_l1", "count"),
    ("mem.stall_l2", "count"),
    ("mem.stall_dram", "count"),
    ("mem.dram_bytes", "B"),
    ("flash.bytes_read", "B"),
    ("flash.channel_busy_s", "sim-s"),
    ("flash.channel_skew", "ratio"),
    ("ftl.host_writes", "count"),
    ("ftl.gc_relocations", "count"),
    ("ftl.erases", "count"),
    ("ssd.load_s", "s"),
    ("ssd.scomp_s", "s"),
    ("ssd.requests", "count"),
    ("ssd.bytes_in", "B"),
    ("ssd.bytes_out", "B"),
    ("snap.image_s", "s"),
    ("snap.fork_s", "s"),
    ("workloads.gen_s", "s"),
    ("analytics.self_s", "s"),
    ("analytics.scan_s", "s"),
    ("analytics.bytes_from_storage", "B"),
    ("array.new_s", "s"),
    ("array.store_s", "s"),
    ("array.read_s", "s"),
    ("array.rebuild_s", "s"),
    ("array.merged_events", "count"),
    ("array.link_stalled_s", "sim-s"),
    ("array.degraded_chunk_reads", "count"),
    ("array.rebuild_bytes", "B"),
    ("serve.self_s", "s"),
    ("serve.execute_s", "s"),
    ("serve.completed", "count"),
    ("serve.rejected", "count"),
    ("serve.executions", "count"),
    ("serve.sim_p99_us", "sim-us"),
    ("serve.sim_slo_miss_share", "share"),
    ("bench.peak_rss_mib", "MiB"),
    ("bench.traced_pass_s", "s"),
    ("bench.untraced_pass_s", "s"),
    ("bench.trace_overhead_pct", "%"),
    ("bench.uncovered_s", "s"),
    ("bench.uncovered_pct", "%"),
];

/// Host-time layer metrics: `(metric, span names, self time only)`.
const LAYER_SPANS: [(&str, &[&str], bool); 13] = [
    ("ssd.load_s", &["ssd.load_object"], false),
    ("ssd.scomp_s", &["ssd.scomp", "analytics.scan"], false),
    ("snap.image_s", &["snap.into_image"], false),
    ("snap.fork_s", &["snap.fork"], false),
    ("workloads.gen_s", &["workloads.gen"], false),
    ("analytics.self_s", &["analytics.run"], true),
    ("analytics.scan_s", &["analytics.scan"], false),
    ("array.new_s", &["array.new"], false),
    ("array.store_s", &["array.store_object"], false),
    ("array.read_s", &["array.read_object"], false),
    ("array.rebuild_s", &["array.rebuild_device"], false),
    ("serve.self_s", &["serve.serve"], true),
    ("serve.execute_s", &["serve.execute"], false),
];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
    };
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("bad {flag} {value:?}: {e}");
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => args.seconds = value.parse().map_err(|e| bad(&e))?,
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"expected 0 or 1")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !workloads::NAMES.contains(&args.workload.as_str()) {
        return Err(format!(
            "--workload must be one of {:?}, got {:?}",
            workloads::NAMES,
            args.workload
        ));
    }
    if !(args.seconds.is_finite() && args.seconds >= 0.0) {
        return Err("--seconds must be a non-negative number".into());
    }
    Ok(args)
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into())
}

/// Host memory high-water mark (VmHWM) in MiB.
fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

fn outcomes(reqs: &[RequestStats]) -> impl Iterator<Item = &measure::Outcome> {
    reqs.iter()
        .filter(|r| r.failure.is_none())
        .filter_map(|r| r.outcome.as_ref())
}

/// The end-to-end metrics of an untraced run.
fn end_to_end(res: &RunResult) -> BTreeMap<&'static str, f64> {
    let reqs = &res.requests;
    let sims: Vec<u64> = outcomes(reqs)
        .flat_map(|o| o.sim_ps.iter().copied())
        .collect();
    BTreeMap::from([
        ("setup_s", res.setup_s),
        ("pass_s", measure::pass_s(reqs, false)),
        ("sim_s", sims.iter().sum::<u64>() as f64 * 1e-12),
    ])
}

/// The worst tenant's simulated p99 at the saturated load, microseconds
/// (`None` for workloads that are not serving sessions).
fn serve_p99_us(reqs: &[RequestStats]) -> Option<f64> {
    outcomes(reqs)
        .filter_map(|o| o.tail_ps)
        .max()
        .map(|ps| ps as f64 * 1e-6)
}

/// Share of a serving session's offered requests that were refused or
/// missed their SLO (`None` for workloads without one).
fn slo_miss_share(reqs: &[RequestStats]) -> Option<f64> {
    outcomes(reqs)
        .filter_map(|o| o.slo)
        .reduce(|a, b| (a.0 + b.0, a.1 + b.1))
        .map(|(good, offered)| 1.0 - good as f64 / offered.max(1) as f64)
}

/// The per-layer metrics of a traced run.
fn per_layer(res: &RunResult) -> BTreeMap<&'static str, f64> {
    let reqs = &res.requests;
    let mut counts: Counts = res.setup_counts.clone();
    let mut channels: Vec<u64> = Vec::new();
    for o in outcomes(reqs) {
        for (k, v) in &o.counts {
            measure::add(&mut counts, k, *v);
        }
        if channels.len() < o.channel_bytes.len() {
            channels.resize(o.channel_bytes.len(), 0);
        }
        for (t, b) in channels.iter_mut().zip(&o.channel_bytes) {
            *t += b;
        }
    }
    let pass_spans = concat_spans(Vec::new(), reqs.iter().filter(|r| r.failure.is_none()));
    let setup_times = trace::times_by_name(&res.setup_spans);
    let pass_times = trace::times_by_name(&pass_spans);

    let mut m: BTreeMap<&'static str, f64> = PER_LAYER.iter().map(|(n, _)| (*n, 0.0)).collect();
    for (k, v) in &counts {
        if let Some(slot) = m.get_mut(k) {
            *slot += v;
        }
    }
    for (metric, spans, self_only) in LAYER_SPANS {
        for times in [&setup_times, &pass_times] {
            for name in spans {
                if let Some(&(incl, own)) = times.get(name) {
                    *m.get_mut(metric).expect("metric listed in PER_LAYER") +=
                        if self_only { own } else { incl };
                }
            }
        }
    }
    let scomp_pass_s: f64 = ["ssd.scomp", "analytics.scan"]
        .iter()
        .filter_map(|n| pass_times.get(n))
        .map(|t| t.0)
        .sum();
    if m["core.instructions"] > 0.0 {
        m.insert(
            "core.host_ns_per_instr",
            scomp_pass_s / m["core.instructions"] * 1e9,
        );
    }
    if !channels.is_empty() {
        let mean = channels.iter().sum::<u64>() as f64 / channels.len() as f64;
        let max = channels.iter().copied().max().unwrap_or(0) as f64;
        if mean > 0.0 {
            m.insert("flash.channel_skew", max / mean);
        }
    }
    let traced = measure::pass_s(reqs, true);
    let untraced = measure::pass_s(reqs, false);
    let uncovered = traced - trace::top_level_s(&pass_spans);
    m.insert("serve.sim_p99_us", serve_p99_us(reqs).unwrap_or(0.0));
    m.insert(
        "serve.sim_slo_miss_share",
        slo_miss_share(reqs).unwrap_or(0.0),
    );
    m.insert("bench.peak_rss_mib", peak_rss_mib());
    m.insert("bench.traced_pass_s", traced);
    m.insert("bench.untraced_pass_s", untraced);
    if untraced > 0.0 {
        m.insert(
            "bench.trace_overhead_pct",
            (traced / untraced - 1.0) * 100.0,
        );
    }
    m.insert("bench.uncovered_s", uncovered);
    if traced > 0.0 {
        m.insert("bench.uncovered_pct", uncovered / traced * 100.0);
    }
    m
}

fn result_json(
    correct: bool,
    attempted: usize,
    failed: usize,
    values: &BTreeMap<&'static str, f64>,
    defs: &[(&str, &str)],
) -> String {
    let mut s = format!("{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{");
    for (i, (name, unit)) in defs.iter().enumerate() {
        let v = values
            .get(name)
            .copied()
            .filter(|v| v.is_finite())
            .unwrap_or(0.0);
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            s,
            "{sep}\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}"
        );
    }
    s.push_str("}}");
    s
}

/// Appends the requests' spans to `spans`, re-basing parent indices.
fn concat_spans<'a>(
    mut spans: Vec<trace::Span>,
    reqs: impl Iterator<Item = &'a RequestStats>,
) -> Vec<trace::Span> {
    for r in reqs {
        let base = spans.len();
        spans.extend(r.spans.iter().cloned().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }
    spans
}

fn write_trace(args: &Args, res: &RunResult) -> std::io::Result<String> {
    let spans = concat_spans(res.setup_spans.clone(), res.requests.iter());
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("traces");
    std::fs::create_dir_all(&dir)?;
    let path = dir.join(format!("{}-seed{}.json", args.workload, args.seed));
    std::fs::write(&path, trace::to_chrome_json(&spans))?;
    Ok(path.display().to_string())
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let cpus = affinity::allowed_cpus();
    // Every workload runs on the calling thread alone; rounds rotate it
    // over the CPUs it may use.
    println!(
        "perfbench workload={} seed={} seconds={} trace={} nproc={nproc} threads=1 rotating_over_cpus={cpus:?} cpu={:?}",
        args.workload,
        args.seed,
        args.seconds,
        args.trace as u8,
        cpu_model()
    );
    let setup = || workloads::setup(&args.workload, args.seed);
    let min_rounds = if args.trace { 4 } else { 3 };
    let res = match measure::run_rounds(&setup, args.seconds, args.trace, min_rounds, &cpus) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("perfbench: set-up failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    for r in &res.requests {
        println!(
            "  {:<12} repeats={:<4} fastest={:.6}s traced={:.6}s {}",
            r.name,
            r.repeats,
            r.best_s.unwrap_or(f64::NAN),
            r.best_traced_s.unwrap_or(f64::NAN),
            r.failure
                .as_deref()
                .map_or(String::from("ok"), |f| format!("FAILED: {f}"))
        );
    }
    let failed = res.requests.iter().filter(|r| r.failure.is_some()).count();
    let attempted = res.requests.len();
    let (values, defs): (_, &[(&str, &str)]) = if args.trace {
        match write_trace(&args, &res) {
            Ok(path) => println!("  trace: {path}"),
            Err(e) => eprintln!("perfbench: could not write the trace: {e}"),
        }
        (per_layer(&res), &PER_LAYER)
    } else {
        (end_to_end(&res), &END_TO_END)
    };
    println!(
        "  rounds={} setup_s={:.6} peak_rss_mib={}",
        res.rounds,
        res.setup_s,
        peak_rss_mib()
    );
    if let (Some(p99), Some(miss)) = (serve_p99_us(&res.requests), slo_miss_share(&res.requests)) {
        println!("  sim_p99_us={p99} sim_slo_miss_share={miss}");
    }
    println!(
        "{}",
        result_json(failed == 0, attempted, failed, &values, defs)
    );
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    fn benchmark_json() -> String {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        std::fs::read_to_string(path).expect("BENCHMARK.json beside the benchmark")
    }

    /// The `{"name": ..., "unit": ...}` pairs of one BENCHMARK.json list.
    fn listed(json: &str, key: &str) -> Vec<(String, String)> {
        let start = json.find(&format!("\"{key}\"")).expect("key present");
        let body = &json[start..json[start..].find(']').map(|e| start + e).unwrap()];
        body.split('{')
            .skip(1)
            .map(|obj| {
                let field = |f: &str| {
                    let at = obj.find(&format!("\"{f}\"")).unwrap() + f.len() + 2;
                    let rest = &obj[at..];
                    let open = rest.find('"').unwrap() + 1;
                    let close = open + rest[open..].find('"').unwrap();
                    rest[open..close].to_string()
                };
                (field("name"), field("unit"))
            })
            .collect()
    }

    fn owned(defs: &[(&str, &str)]) -> Vec<(String, String)> {
        defs.iter()
            .map(|(n, u)| (n.to_string(), u.to_string()))
            .collect()
    }

    #[test]
    fn metric_names_and_units_match_benchmark_json() {
        let json = benchmark_json();
        assert_eq!(listed(&json, "end_to_end"), owned(&END_TO_END));
        assert_eq!(listed(&json, "per_layer"), owned(&PER_LAYER));
        let names: Vec<String> = json
            .split("\"workloads\"")
            .nth(1)
            .unwrap()
            .split("\"name\": \"")
            .skip(1)
            .map(|s| s[..s.find('"').unwrap()].to_string())
            .take(workloads::NAMES.len())
            .collect();
        assert_eq!(names, workloads::NAMES);
        for (metric, _, _) in LAYER_SPANS {
            assert!(PER_LAYER.iter().any(|(n, _)| *n == metric), "{metric}");
        }
    }

    #[test]
    fn result_line_has_every_metric_once() {
        let values = BTreeMap::from([("pass_s", 0.25), ("sim_s", f64::NAN)]);
        let line = result_json(true, 4, 0, &values, &END_TO_END);
        assert!(line.starts_with("{\"correct\": true, \"attempted\": 4, \"failed\": 0"));
        for (name, unit) in END_TO_END {
            let entry = format!("\"{name}\": {{\"value\": ");
            assert_eq!(line.matches(&entry).count(), 1, "{name}");
            assert!(line.contains(&format!("\"unit\": \"{unit}\"")));
        }
        assert!(line.contains("\"pass_s\": {\"value\": 0.25,"));
        assert!(
            line.contains("\"sim_s\": {\"value\": 0,"),
            "non-finite becomes 0"
        );
    }

    #[test]
    fn args_are_checked() {
        let parse = |s: &str| parse_args(s.split_whitespace().map(String::from));
        let a = parse("--workload tpch_dram --seed 9 --seconds 2 --trace 1").unwrap();
        assert_eq!(
            (a.workload.as_str(), a.seed, a.seconds, a.trace),
            ("tpch_dram", 9, 2.0, true)
        );
        assert!(parse("--workload nope").is_err());
        assert!(parse("--workload serve_mix --trace 2").is_err());
        assert!(parse("--workload serve_mix --seed").is_err());
    }

    /// Tracing only observes: a traced run and an untraced run of the same
    /// workload produce identical simulated outputs.
    #[test]
    fn traced_and_untraced_runs_simulate_the_same() {
        let run = |traced| {
            let setup = || workloads::setup("serve_mix", 3);
            measure::run_rounds(&setup, 0.0, traced, 2, &[]).expect("serve_mix runs")
        };
        let (plain, traced) = (run(false), run(true));
        assert_eq!(plain.requests.len(), traced.requests.len());
        for (a, b) in plain.requests.iter().zip(&traced.requests) {
            assert!(a.failure.is_none() && b.failure.is_none(), "{}", a.name);
            assert_eq!(a.outcome, b.outcome, "{}", a.name);
            assert!(!b.spans.is_empty(), "{} was traced", b.name);
        }
        assert_eq!(end_to_end(&plain)["sim_s"], end_to_end(&traced)["sim_s"]);
    }
}
