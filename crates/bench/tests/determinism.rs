//! The sweep executor's central guarantee: serial and parallel runs of
//! the same experiment serialize to byte-identical JSON. Every sweep
//! point builds its own simulator from a fixed seed and results are
//! reassembled in input order, so thread count must not leak into any
//! report.

use assasin_bench::experiments::{fig13, fig16, fig19, fig_reliability};
use assasin_bench::Scale;

/// Asserts that `run` serializes to the same JSON with one worker thread
/// as with the default thread budget.
fn assert_thread_count_invisible<T: serde::Serialize>(name: &str, run: impl Fn() -> T) {
    let serial = assasin_parallel::with_max_threads(1, &run);
    let parallel = run();
    let serial_json = serde_json::to_string(&serial).expect("serialize serial report");
    let parallel_json = serde_json::to_string(&parallel).expect("serialize parallel report");
    assert_eq!(
        serial_json, parallel_json,
        "{name}: parallel sweep must reproduce the serial report byte-for-byte"
    );
}

#[test]
fn fig13_serial_and_parallel_reports_are_byte_identical() {
    let scale = Scale::test_scale();
    assert_thread_count_invisible("fig13", || fig13::run_with(&scale, false));
}

/// The core-count sweep forks every point off one shared device image;
/// its points fan out across workers like any other sweep.
#[test]
fn fig16_serial_and_parallel_reports_are_byte_identical() {
    let scale = Scale::test_scale();
    assert_thread_count_invisible("fig16", || fig16::run(&scale));
}

/// The skew sweep builds one device per (skew, architecture) point; its
/// points fan out across workers like any other sweep.
#[test]
fn fig19_serial_and_parallel_reports_are_byte_identical() {
    let scale = Scale::test_scale();
    assert_thread_count_invisible("fig19", || fig19::run(&scale));
}

/// The fault-injection experiment's determinism guarantee: with a fixed
/// seed, two runs — and serial vs parallel runs — serialize to
/// byte-identical JSON. Every fault draw is keyed on (seed, physical page,
/// program epoch, op sequence), so no RNG state leaks across runs or
/// threads.
#[test]
fn reliability_sweep_same_seed_runs_are_byte_identical() {
    let scale = Scale::test_scale();
    let first = serde_json::to_string(&fig_reliability::run(&scale)).expect("serialize");
    let second = serde_json::to_string(&fig_reliability::run(&scale)).expect("serialize");
    assert_eq!(
        first, second,
        "same-seed fault-injection runs must be byte-identical"
    );
    let serial = assasin_parallel::with_max_threads(1, || fig_reliability::run(&scale));
    let serial_json = serde_json::to_string(&serial).expect("serialize");
    assert_eq!(
        first, serial_json,
        "thread count must not leak into the fault-injection report"
    );
}
