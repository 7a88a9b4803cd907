//! Snapshot/restore/fork equivalence for the whole device.
//!
//! The contract (DESIGN.md §14): running a device to a request boundary,
//! saving it, restoring the bytes under the same config, and running on is
//! indistinguishable — same results, same reliability counters, same final
//! snapshot bytes — from running straight through. Fault injection state
//! (the per-chip fault sequence counters) is part of the image, so the
//! property holds with the fault model enabled. Forking off a
//! copy-on-write [`SsdImage`] is likewise byte-identical to a fresh load,
//! and forks never observe each other's writes.

use assasin_core::EngineKind;
use assasin_flash::FaultConfig;
use assasin_kernels::{raid, replicate, scan, stat};
use assasin_snap::SnapError;
use assasin_ssd::{KernelBundle, ScompRequest, ScompResult, Ssd, SsdConfig, SsdError};
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

fn cfg_for(engine: EngineKind, faults: bool, seed: u64) -> SsdConfig {
    let mut cfg = SsdConfig::small_for_tests(engine);
    if faults {
        cfg.fault = FaultConfig::with_ber(seed, 5e-4);
        cfg.fault.program_fail_prob = 1e-2;
    }
    cfg
}

/// Loads the workload's streams and builds the request (done per device:
/// requests are not `Clone`).
fn load_and_request(ssd: &mut Ssd, kernel: usize, len: usize, salt: u64) -> ScompRequest {
    let (bundle, streams) = workload(kernel, len, salt);
    let mut lpa_lists = Vec::new();
    let mut lengths = Vec::new();
    for (i, data) in streams.iter().enumerate() {
        let base = (i as u64) * 2048;
        lpa_lists.push(ssd.load_object(base, data).expect("load"));
        lengths.push(data.len() as u64);
    }
    ScompRequest::new(bundle, lpa_lists).with_stream_bytes(lengths)
}

/// Collapses a scomp outcome into a comparable value (results and typed
/// errors both count — a fault-heavy case may legitimately fail, and a
/// restored device must fail the same way).
fn outcome(r: Result<ScompResult, SsdError>) -> String {
    match r {
        Ok(r) => format!(
            "ok elapsed={:?} in={} out={} outputs={:?} ch={:?}",
            r.elapsed, r.bytes_in, r.bytes_out, r.outputs, r.channel_bytes
        ),
        Err(e) => format!("err {e:?}"),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]
    #[test]
    fn snapshot_restore_continues_identically(
        engine_idx in 0usize..EngineKind::ALL.len(),
        kernel in 0usize..3,
        len_tuples in 1usize..512,
        salt in 0u64..1_000_000,
        faults in any::<bool>(),
    ) {
        let engine = EngineKind::ALL[engine_idx];
        let len = len_tuples * 16;
        let cfg = cfg_for(engine, faults, salt);

        // Straight through: load, request A, then request B on the same
        // device (B sees A's wear: fault sequence counters advanced).
        let mut straight = Ssd::new(cfg);
        let req = load_and_request(&mut straight, kernel, len, salt);
        let _a1 = outcome(straight.scomp(&req));
        let b1 = outcome(straight.scomp(&req));
        let final1 = straight.save_state();

        // Snapshotted: identical prefix, then save → restore → continue.
        let mut first = Ssd::new(cfg);
        let req2 = load_and_request(&mut first, kernel, len, salt);
        let _a2 = outcome(first.scomp(&req2));
        let snap = first.save_state();
        let mut restored = Ssd::restore_state(cfg, &snap).expect("restore");
        let b2 = outcome(restored.scomp(&req2));
        let final2 = restored.save_state();

        prop_assert_eq!(b1, b2, "continuation after restore diverged");
        prop_assert_eq!(
            straight.reliability(), restored.reliability(),
            "reliability counters diverged"
        );
        prop_assert_eq!(final1, final2, "final device snapshots diverged");
    }

    #[test]
    fn fork_matches_fresh_load(
        engine_idx in 0usize..EngineKind::ALL.len(),
        kernel in 0usize..3,
        len_tuples in 1usize..512,
        salt in 0u64..1_000_000,
    ) {
        let engine = EngineKind::ALL[engine_idx];
        let len = len_tuples * 16;
        let cfg = cfg_for(engine, false, salt);

        let mut fresh = Ssd::new(cfg);
        let req = load_and_request(&mut fresh, kernel, len, salt);
        let want = outcome(fresh.scomp(&req));

        let mut seed = Ssd::new(cfg);
        let req2 = load_and_request(&mut seed, kernel, len, salt);
        let image = seed.into_image();
        let mut forked = image.fork(cfg);
        let got = outcome(forked.scomp(&req2));
        prop_assert_eq!(want, got, "fork diverged from fresh load");
    }
}

/// Two forks off one image share pages copy-on-write: a write-path kernel
/// on one fork must not leak into its sibling.
#[test]
fn forked_devices_do_not_share_writes() {
    let cfg = SsdConfig::small_for_tests(EngineKind::AssasinSb);
    let data = pattern(64 * 1024, 7);
    let mut seed = Ssd::new(cfg);
    let lpas = seed.load_object(0, &data).expect("load");
    let image = seed.into_image();

    let mut writer = image.fork(cfg);
    let bundle = KernelBundle::new(
        "replicate",
        replicate::TUPLE_BYTES,
        replicate::COPIES as f64,
        replicate::program,
    );
    let req = ScompRequest::new(bundle, vec![lpas.clone()])
        .with_stream_bytes(vec![data.len() as u64])
        .with_flash_output(50_000);
    writer.scomp(&req).expect("write-path scomp");

    // The sibling fork still reads the original, un-diverged pages.
    let mut reader = image.fork(cfg);
    let io = reader
        .read_lpas(&lpas, data.len() as u64)
        .expect("sibling read");
    assert_eq!(io.data, data, "sibling fork observed a diverged page");
}

#[test]
fn corrupted_snapshots_decode_to_typed_errors() {
    let cfg = SsdConfig::small_for_tests(EngineKind::AssasinSb);
    let mut ssd = Ssd::new(cfg);
    ssd.load_object(0, &pattern(16 * 1024, 5)).expect("load");
    let snap = ssd.save_state();

    // Not a snapshot at all.
    assert!(matches!(
        Ssd::restore_state(cfg, b"not a snapshot at all"),
        Err(SnapError::BadMagic { .. })
    ));

    // Empty input: truncated before the magic.
    assert!(matches!(
        Ssd::restore_state(cfg, &[]),
        Err(SnapError::UnexpectedEof { .. })
    ));

    // Unsupported version.
    let mut bad_version = snap.clone();
    bad_version[4] = 0xFF;
    assert!(matches!(
        Ssd::restore_state(cfg, &bad_version),
        Err(SnapError::BadVersion { .. })
    ));

    // Taken under a different configuration.
    let other = SsdConfig::small_for_tests(EngineKind::Baseline);
    assert!(matches!(
        Ssd::restore_state(other, &snap),
        Err(SnapError::ConfigMismatch { .. })
    ));

    // Truncated mid-body: typed EOF (or an implausible length), no panic.
    let truncated = &snap[..snap.len() - 16];
    assert!(matches!(
        Ssd::restore_state(cfg, truncated),
        Err(SnapError::UnexpectedEof { .. } | SnapError::Malformed(_))
    ));

    // Trailing garbage after a complete image.
    let mut trailing = snap.clone();
    trailing.push(0);
    assert!(matches!(
        Ssd::restore_state(cfg, &trailing),
        Err(SnapError::TrailingBytes { extra: 1 })
    ));

    // The pristine bytes restore to a device whose re-saved snapshot is
    // byte-identical (canonical encoding).
    let restored = Ssd::restore_state(cfg, &snap).expect("pristine restore");
    assert_eq!(restored.save_state(), snap);
}

/// `SsdImage` crosses sweep threads by reference.
#[test]
fn image_is_send_and_sync() {
    fn check<T: Send + Sync>() {}
    check::<assasin_ssd::SsdImage>();
}
