//! Golden-hash regression tests for the report JSON.
//!
//! The hot-path refactors (predecoded dispatch, flattened caches, the
//! streambuffer word fast path) must keep every report bit-identical:
//! these tests lock the serialized fig13/fig14/fig16/fig19 reports at
//! test scale against hashes captured before the refactor. Any timing-model
//! or counter drift shows up here as a hash mismatch long before a
//! reviewer would spot it in a figure.

use assasin_bench::experiments::{fig13, fig14, fig16, fig19};
use assasin_bench::Scale;

/// FNV-1a 64-bit over the serialized report (no external hash crates in
/// the offline build; collision resistance is irrelevant for a golden
/// lock, stability is what matters).
fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

fn hash_json<T: serde::Serialize>(report: &T) -> u64 {
    let json = serde_json::to_string(report).expect("report serializes");
    fnv1a64(json.as_bytes())
}

/// Hashes captured from the pre-refactor simulator (PR 1 tree) at
/// `Scale::test_scale()`. If a change legitimately alters the timing
/// model, recapture with `cargo test -p assasin-bench golden -- --nocapture`
/// and say so loudly in the PR — these must never drift by accident.
const GOLDEN_FIG13: u64 = 0x591b22e89ad67746;
const GOLDEN_FIG14: u64 = 0x9d7d2d404949c717;
const GOLDEN_FIG16: u64 = 0x23e16ba2d2ff54d3;
/// Captured later than the other three, while fig19's points still ran as
/// one batched group, so it pins the skew sweep across the move to
/// per-point execution.
const GOLDEN_FIG19: u64 = 0x0bc419ffeb51df08;

#[test]
fn fig13_report_matches_pre_refactor_bytes() {
    let h = hash_json(&fig13::run_with(&Scale::test_scale(), false));
    println!("fig13 hash: {h:#018x}");
    assert_eq!(h, GOLDEN_FIG13, "fig13 report JSON drifted from golden");
}

#[test]
fn fig14_report_matches_pre_refactor_bytes() {
    let h = hash_json(&fig14::run_with(&Scale::test_scale(), false));
    println!("fig14 hash: {h:#018x}");
    assert_eq!(h, GOLDEN_FIG14, "fig14 report JSON drifted from golden");
}

#[test]
fn fig16_report_matches_pre_refactor_bytes() {
    let h = hash_json(&fig16::run(&Scale::test_scale()));
    println!("fig16 hash: {h:#018x}");
    assert_eq!(h, GOLDEN_FIG16, "fig16 report JSON drifted from golden");
}

#[test]
fn fig19_report_matches_pre_refactor_bytes() {
    let h = hash_json(&fig19::run(&Scale::test_scale()));
    println!("fig19 hash: {h:#018x}");
    assert_eq!(h, GOLDEN_FIG19, "fig19 report JSON drifted from golden");
}
