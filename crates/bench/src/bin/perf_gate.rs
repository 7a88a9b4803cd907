//! CI regression gate: the change's perfbench against the parent's.
//!
//! ```text
//! perf_gate <parent-perfbench> <change-perfbench>
//! ```
//!
//! For every workload `BENCHMARK.json` names, runs `PAIRS` pairs of the
//! two binaries, alternating which goes first, with fixed seeds and
//! `--seconds 4 --trace 0`. It then applies the rules of
//! [`assasin_bench::gate::compare`]: the change's median `pass_s` may be
//! at most 20% above the parent's, and the change may not report
//! `correct: false` or more failed requests than the parent.
//!
//! Exit 0 passes, 1 fails the gate, and 2 is bad input: a bad argument,
//! an unreadable `BENCHMARK.json`, or a perfbench run that fails or
//! prints no result line.
//!
//! The gate catches regressions above 20% of a workload's end-to-end
//! pass (an accidental `O(n^2)`, a debug check in the hot path), not
//! single-digit drift.

use assasin_bench::gate::{self, RunResult, Sides, THRESHOLD_PCT};
use std::collections::BTreeMap;
use std::process::{Command, ExitCode};

/// Pairs of runs per workload.
const PAIRS: u64 = 4;

/// Seed of the first pair; pair `i` runs seed `FIRST_SEED + i`.
const FIRST_SEED: u64 = 500;

/// Seconds of repeats per run.
const SECONDS: &str = "4";

/// Prints the message and exits with status 2.
fn bad_input(msg: &str) -> ! {
    eprintln!("perf_gate: {msg}");
    std::process::exit(2);
}

/// One run of `bin` on `workload`, or exit 2 with the reason.
fn run(bin: &str, workload: &str, seed: u64) -> RunResult {
    let seed = seed.to_string();
    let args = [
        "--workload",
        workload,
        "--seed",
        &seed,
        "--seconds",
        SECONDS,
        "--trace",
        "0",
    ];
    let out = Command::new(bin)
        .args(args)
        .output()
        .unwrap_or_else(|e| bad_input(&format!("cannot run {bin}: {e}")));
    if !out.status.success() {
        bad_input(&format!(
            "{bin} {} exited with {}: {}",
            args.join(" "),
            out.status,
            String::from_utf8_lossy(&out.stderr).trim()
        ));
    }
    gate::parse_result_line(&String::from_utf8_lossy(&out.stdout))
        .unwrap_or_else(|e| bad_input(&format!("{bin} {}: {e}", args.join(" "))))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let [parent, change] = args.as_slice() else {
        bad_input("usage: perf_gate <parent-perfbench> <change-perfbench>");
    };
    let benchmark = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCHMARK.json");
    let workloads = gate::load(benchmark)
        .and_then(|b| gate::workloads(&b))
        .unwrap_or_else(|e| bad_input(&e));

    let mut runs = BTreeMap::new();
    for workload in &workloads {
        let mut sides = Sides::default();
        for i in 0..PAIRS {
            let seed = FIRST_SEED + i;
            let (p, c) = if i % 2 == 0 {
                let p = run(parent, workload, seed);
                (p, run(change, workload, seed))
            } else {
                let c = run(change, workload, seed);
                (run(parent, workload, seed), c)
            };
            println!(
                "{workload:>14} seed {seed}: pass_s parent {:.4} s, change {:.4} s",
                p.pass_s, c.pass_s
            );
            sides.parent.push(p);
            sides.change.push(c);
        }
        runs.insert(workload.clone(), sides);
    }

    let outcome = gate::compare(&workloads, &runs);
    for line in &outcome.log {
        println!("{line}");
    }
    if outcome.failures.is_empty() {
        println!("perf_gate: OK (limit +{THRESHOLD_PCT}% on median pass_s)");
        ExitCode::SUCCESS
    } else {
        for f in &outcome.failures {
            eprintln!("perf_gate FAIL: {f}");
        }
        ExitCode::FAILURE
    }
}
