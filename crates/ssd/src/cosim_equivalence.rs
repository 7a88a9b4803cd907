//! Property test pinning the event-driven co-simulation schedule to the
//! fixed-epoch reference it replaced.
//!
//! [`Ssd::scomp`] jumps the deadline over rounds in which no core could
//! retire an instruction; [`Ssd::scomp_fixed_epoch`] advances it one epoch
//! per round. Because all backend interaction is demand-driven from inside
//! the cores' step functions, those skipped rounds have no side effects, so
//! every observable of an `scomp` run — simulated elapsed time, per-core
//! cycle counts and instruction mixes, output bytes, DRAM traffic,
//! per-channel byte counts and bus busy time — must be identical under both
//! schedules, for any engine, kernel, stream shape, and output target. Both
//! schedules must also end on the same deadline: the event-driven rounds
//! plus the epochs it skipped equal the fixed-epoch rounds.

use crate::{KernelBundle, ScompRequest, ScompResult, Ssd, SsdConfig};
use assasin_core::EngineKind;
use assasin_kernels::{raid, scan, stat};
use proptest::prelude::*;

/// Deterministic pseudo-random payload (no RNG: the proptest shim seeds
/// per case, and the data just needs to vary with the parameters).
fn pattern(n: usize, salt: u64) -> Vec<u8> {
    (0..n)
        .map(|i| ((i as u64).wrapping_mul(0x9E37_79B9).wrapping_add(salt) >> 8) as u8)
        .collect()
}

/// The randomized kernel: `(bundle, input streams)`.
fn workload(kernel: usize, len: usize, salt: u64) -> (KernelBundle, Vec<Vec<u8>>) {
    match kernel {
        0 => (
            KernelBundle::new("scan", scan::TUPLE_BYTES, 0.0, scan::program),
            vec![pattern(len, salt)],
        ),
        1 => (
            KernelBundle::new("stat", stat::TUPLE_BYTES, 0.0, stat::program),
            vec![pattern(len, salt.wrapping_add(1))],
        ),
        _ => (
            KernelBundle::new("raid4", 4, 0.25, raid::raid4_program),
            (0..4)
                .map(|s| pattern(len / 4, salt.wrapping_add(10 + s)))
                .collect(),
        ),
    }
}

fn run(
    skip_idle: bool,
    engine: EngineKind,
    kernel: usize,
    len: usize,
    salt: u64,
    flash_out: bool,
) -> ScompResult {
    let mut ssd = Ssd::new(SsdConfig::small_for_tests(engine));
    let (bundle, streams) = workload(kernel, len, salt);
    let mut lpa_lists = Vec::new();
    let mut lengths = Vec::new();
    for (i, data) in streams.iter().enumerate() {
        // Sparse bases, like the harness.
        let base = (i as u64) * 2048;
        lpa_lists.push(ssd.load_object(base, data).expect("load"));
        lengths.push(data.len() as u64);
    }
    let mut req = ScompRequest::new(bundle, lpa_lists).with_stream_bytes(lengths);
    if flash_out {
        req = req.with_flash_output(60_000);
    }
    if skip_idle {
        ssd.scomp(&req).expect("scomp")
    } else {
        ssd.scomp_fixed_epoch(&req).expect("scomp")
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]
    #[test]
    fn event_driven_matches_fixed_epoch(
        engine_idx in 0usize..EngineKind::ALL.len(),
        kernel in 0usize..3,
        // Multiple of 16 covers every kernel's tuple alignment (raid4
        // splits by 4, still 4-aligned per stream).
        len_tuples in 1usize..2048,
        salt in 0u64..1_000_000,
        flash_out in any::<bool>(),
    ) {
        let engine = EngineKind::ALL[engine_idx];
        // The analytical UDP path models read-path offloads only.
        let flash_out = flash_out && engine != EngineKind::Udp;
        let len = len_tuples * 16;
        let ev = run(true, engine, kernel, len, salt, flash_out);
        let fx = run(false, engine, kernel, len, salt, flash_out);

        prop_assert_eq!(ev.elapsed, fx.elapsed);
        prop_assert_eq!(ev.bytes_in, fx.bytes_in);
        prop_assert_eq!(ev.bytes_out, fx.bytes_out);
        prop_assert_eq!(&ev.outputs, &fx.outputs);
        prop_assert_eq!(&ev.output_lpas, &fx.output_lpas);
        prop_assert_eq!(ev.dram_traffic, fx.dram_traffic);
        prop_assert_eq!(&ev.channel_bytes, &fx.channel_bytes);
        prop_assert_eq!(&ev.channel_busy, &fx.channel_busy);
        // The last round's deadline is `1 + rounds + skipped` epochs, so
        // both schedules end on the same deadline exactly when this holds.
        prop_assert_eq!(fx.epochs_skipped, 0);
        prop_assert_eq!(ev.cosim_rounds + ev.epochs_skipped, fx.cosim_rounds);
        prop_assert_eq!(ev.per_core.len(), fx.per_core.len());
        for (e, f) in ev.per_core.iter().zip(&fx.per_core) {
            prop_assert_eq!(e.cycles, f.cycles);
            prop_assert_eq!(e.mix.total, f.mix.total);
            prop_assert_eq!(e.bytes_in, f.bytes_in);
            prop_assert_eq!(e.bytes_out, f.bytes_out);
        }
    }
}

/// A fixed case in which the deadline does jump, so a schedule that never
/// skips (and still matches the reference) is caught.
#[test]
fn event_driven_skips_idle_epochs() {
    let ev = run(true, EngineKind::AssasinSb, 0, 1024, 7, false);
    let fx = run(false, EngineKind::AssasinSb, 0, 1024, 7, false);
    assert_eq!(ev.elapsed, fx.elapsed);
    assert_eq!(fx.epochs_skipped, 0);
    assert!(ev.epochs_skipped > 0, "no epoch skipped");
    assert_eq!(ev.cosim_rounds + ev.epochs_skipped, fx.cosim_rounds);
}
