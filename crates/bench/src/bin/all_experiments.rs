//! Runs the evaluation (every table and figure) and writes text + JSON
//! reports under `reports/`. This is the one way to run an experiment.
//!
//! Independent experiments run concurrently as sweep tasks (the fig21
//! result feeds fig22, so those two share a task); reports print and save
//! in a fixed canonical order regardless of completion order, so serial
//! (`RAYON_NUM_THREADS=1`) and parallel runs produce identical output.
//!
//! `--filter <name>` (repeatable, comma-separable) restricts the run to
//! tasks whose name contains one of the given substrings — e.g.
//! `--filter fig16,fig19` — for iterating on one experiment without
//! paying for the whole suite. Filters that match no task exit 2.
//!
//! The committed `reports/` pin the default scale, so a run at any other
//! `ASSASIN_SCALE` prints its reports and writes none.
//!
//! The last line on standard error is one JSON object with the run's
//! wall times: `{"nproc", "threads", "scale", "total_s", "tasks": {name:
//! seconds}}` (`BENCH_all_experiments.json` records such lines).

use assasin_bench::experiments::*;
use assasin_bench::{sweep, Scale};
use std::collections::BTreeMap;
use std::fmt::Display;
use std::fs;
use std::time::Instant;

/// The run's wall times, printed as the last line on standard error.
#[derive(serde::Serialize)]
struct Timing {
    /// Host CPUs available to the process.
    nproc: usize,
    /// The sweep's thread cap (`RAYON_NUM_THREADS`, else `nproc`).
    threads: usize,
    /// The `ASSASIN_SCALE` multiplier.
    scale: f64,
    /// Wall time of the whole run, seconds.
    total_s: f64,
    /// Wall time of each task that ran, seconds.
    tasks: BTreeMap<&'static str, f64>,
}

/// One finished report: `(name, rendered text, serialized JSON)`.
type Report = (&'static str, String, serde_json::Value);

fn render<R: Display + serde::Serialize>(name: &'static str, r: &R) -> Report {
    (
        name,
        r.to_string(),
        serde_json::to_value(r).expect("serializable"),
    )
}

fn save(name: &str, text: &str, json: &serde_json::Value) {
    fs::create_dir_all("reports").expect("reports dir");
    fs::write(format!("reports/{name}.txt"), text).expect("write text report");
    fs::write(
        format!("reports/{name}.json"),
        serde_json::to_string_pretty(json).expect("serialize"),
    )
    .expect("write json report");
}

/// Task-name filters from `--filter` arguments (repeatable, each value
/// may be comma-separated). Empty = run everything.
fn filters() -> Vec<String> {
    let mut out = Vec::new();
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let value = if arg == "--filter" {
            args.next().unwrap_or_else(|| {
                eprintln!("--filter needs a value (e.g. --filter fig16)");
                std::process::exit(2);
            })
        } else if let Some(v) = arg.strip_prefix("--filter=") {
            v.to_string()
        } else {
            eprintln!("unknown argument `{arg}` (supported: --filter <name>)");
            std::process::exit(2);
        };
        out.extend(value.split(',').map(str::to_string));
    }
    out.retain(|f| !f.trim().is_empty());
    out
}

fn main() {
    let mult = Scale::env_multiplier();
    let scale = Scale::scaled(mult);
    let write_reports = scale == Scale::default_scale();
    let filters = filters();
    let t0 = Instant::now();
    type Task = (&'static str, Box<dyn Fn() -> Vec<Report> + Send + Sync>);
    // Canonical report order; each task may emit several reports.
    let tasks: Vec<Task> = vec![
        (
            "table02",
            Box::new(move || vec![render("table02", &table02::run(&scale))]),
        ),
        (
            "table04",
            Box::new(|| vec![render("table04", &table04::run())]),
        ),
        (
            "fig05",
            Box::new(move || vec![render("fig05", &fig05::run(&scale))]),
        ),
        (
            "fig13",
            Box::new(move || vec![render("fig13", &fig13::run(&scale))]),
        ),
        (
            "fig14",
            Box::new(move || vec![render("fig14", &fig14::run(&scale))]),
        ),
        (
            "fig15",
            Box::new(move || vec![render("fig15", &fig15::run(&scale))]),
        ),
        (
            "fig16",
            Box::new(move || vec![render("fig16", &fig16::run(&scale))]),
        ),
        (
            "fig19",
            Box::new(move || vec![render("fig19", &fig19::run(&scale))]),
        ),
        ("fig20", Box::new(|| vec![render("fig20", &fig20::run())])),
        (
            "fig21+fig22",
            Box::new(move || {
                // fig22 derives from the timing-adjusted speedups, so it
                // rides in the same task as its fig21 dependency.
                let f21 = fig21::run(&scale);
                let f22 = fig22::run(&f21);
                vec![render("fig21", &f21), render("fig22", &f22)]
            }),
        ),
        (
            "table05",
            Box::new(|| vec![render("table05", &table05::run())]),
        ),
        (
            "ablations",
            Box::new(move || vec![render("ablations", &ablations::run(&scale))]),
        ),
        (
            "reliability",
            Box::new(move || vec![render("reliability", &fig_reliability::run(&scale))]),
        ),
        (
            "fig_array",
            Box::new(move || vec![render("fig_array", &fig_array::run(&scale))]),
        ),
        (
            "fig_serving",
            Box::new(move || vec![render("fig_serving", &fig_serving::run(&scale))]),
        ),
    ];
    let tasks: Vec<Task> = tasks
        .into_iter()
        .filter(|(name, _)| filters.is_empty() || filters.iter().any(|f| name.contains(f.trim())))
        .collect();
    if tasks.is_empty() {
        eprintln!("no experiments match the filter; names are table02, table04, fig05, fig13, fig14, fig15, fig16, fig19, fig20, fig21+fig22, table05, ablations, reliability, fig_array, fig_serving");
        std::process::exit(2);
    }
    let produced = sweep::run_points(&tasks, |(name, task)| {
        let started = Instant::now();
        let reports = task();
        let secs = started.elapsed().as_secs_f64();
        eprintln!("[{name}] done in {secs:.1}s");
        (*name, secs, reports)
    });
    let mut tasks = BTreeMap::new();
    for (name, secs, reports) in produced {
        tasks.insert(name, secs);
        for (name, text, json) in reports {
            println!("{text}");
            if write_reports {
                save(name, &text, &json);
            }
        }
    }
    let total_s = t0.elapsed().as_secs_f64();
    eprintln!("all experiments done in {total_s:.1}s");
    let timing = Timing {
        nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
        threads: assasin_parallel::current_max_threads(),
        scale: mult,
        total_s,
        tasks,
    };
    eprintln!("{}", serde_json::to_string(&timing).expect("serializable"));
}
