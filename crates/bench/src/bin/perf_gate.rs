//! CI regression gate over `BENCH_perf_smoke.json`.
//!
//! Compares a freshly generated perf-smoke report against a committed
//! baseline and fails (exit 1) when any isolated component's throughput
//! drops, or any serial experiment's wall time grows, by more than the
//! threshold (default 20%, override with `ASSASIN_PERF_GATE_PCT`).
//! Entry sets must match exactly in both directions: a baseline entry
//! missing from the fresh report (deleted/renamed experiment) and a
//! fresh entry missing from the baseline (new experiment without a
//! baseline regeneration) are both hard failures — see
//! [`assasin_bench::gate`].
//!
//! ```text
//! perf_gate <baseline.json> [fresh.json]    # fresh defaults to BENCH_perf_smoke.json
//! ```
//!
//! Exit 0 passes, 1 fails the gate, and 2 is bad input: a missing or
//! malformed report, or a malformed `ASSASIN_PERF_GATE_PCT`.
//!
//! Only serial wall times are gated: the parallel pass depends on the
//! runner's core count, and component loops are single-threaded already.
//! Wall-clock on shared CI runners is noisy, which is why the default
//! threshold is a generous 20% — the gate exists to catch order-of-
//! magnitude mistakes (an accidental `O(n^2)`, a debug assert in the hot
//! path), not single-digit drift.

use serde_json::Value;
use std::process::ExitCode;

/// The regression threshold: `ASSASIN_PERF_GATE_PCT` when set, else 20%.
/// A set-but-malformed value is a hard error (exit 2), not a silent fall
/// back to the default — a CI job that typos `ASSASIN_PERF_GATE_PCT=5%`
/// must not quietly gate at 20%.
fn threshold_pct() -> f64 {
    match std::env::var("ASSASIN_PERF_GATE_PCT") {
        Err(std::env::VarError::NotPresent) => 20.0,
        Err(e) => {
            eprintln!("perf_gate: ASSASIN_PERF_GATE_PCT is not valid unicode: {e}");
            std::process::exit(2);
        }
        Ok(s) => match s.parse::<f64>() {
            Ok(pct) if pct.is_finite() && pct >= 0.0 => pct,
            _ => {
                eprintln!(
                    "perf_gate: invalid ASSASIN_PERF_GATE_PCT {s:?}: \
                     expected a non-negative number of percent (e.g. 20)"
                );
                std::process::exit(2);
            }
        },
    }
}

/// A report, or exit 2 with the reason.
fn load(path: &str) -> Value {
    assasin_bench::gate::load(path).unwrap_or_else(|e| {
        eprintln!("perf_gate: {e}");
        std::process::exit(2);
    })
}

fn main() -> ExitCode {
    let mut args = std::env::args().skip(1);
    let baseline_path = args.next().unwrap_or_else(|| {
        eprintln!("usage: perf_gate <baseline.json> [fresh.json]");
        std::process::exit(2);
    });
    let fresh_path = args
        .next()
        .unwrap_or_else(|| "BENCH_perf_smoke.json".to_string());
    let pct = threshold_pct();

    let baseline = load(&baseline_path);
    let fresh = load(&fresh_path);
    let outcome = assasin_bench::gate::compare(&baseline, &fresh, pct);
    for line in &outcome.log {
        println!("{line}");
    }
    if outcome.failures.is_empty() {
        println!("perf_gate: OK (threshold {pct}%)");
        ExitCode::SUCCESS
    } else {
        for f in &outcome.failures {
            eprintln!("perf_gate FAIL: {f}");
        }
        ExitCode::FAILURE
    }
}
