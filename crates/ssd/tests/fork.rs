//! Copy-on-write fork equivalence for the whole device.
//!
//! The contract (DESIGN.md §14): forking a device off an [`SsdImage`] and
//! running requests on it is indistinguishable — same results, same typed
//! errors, same reliability and FTL counters — from running them on a
//! freshly loaded device. Fault-injection state (the per-chip fault
//! sequence counters) is part of the image, so the property holds with the
//! fault model enabled. Forks never observe each other's writes.
//!
//! [`SsdImage`]: assasin_ssd::SsdImage

use assasin_core::EngineKind;
use assasin_flash::FaultConfig;
use assasin_kernels::{raid, replicate, scan, stat};
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
        // ~33 raw errors per 4 KiB page against a 40-bit ECC budget: some
        // reads need read-retry, so a fork that lost the fault-draw
        // sequence shows in timing and counters. At 5e-4 every read
        // corrects on the first sense and the draws are invisible.
        cfg.fault = FaultConfig::with_ber(seed, 1e-3);
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
/// forked device must fail the same way).
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
    fn fork_matches_fresh_load(
        engine_idx in 0usize..EngineKind::ALL.len(),
        kernel in 0usize..3,
        len_tuples in 1usize..512,
        salt in 0u64..1_000_000,
        faults in any::<bool>(),
    ) {
        let engine = EngineKind::ALL[engine_idx];
        let len = len_tuples * 16;
        let cfg = cfg_for(engine, faults, salt);

        // Two requests per device: the second sees the first's wear (fault
        // sequence counters advanced, FTL state moved on).
        let mut fresh = Ssd::new(cfg);
        let req = load_and_request(&mut fresh, kernel, len, salt);
        let want_a = outcome(fresh.scomp(&req));
        let want_b = outcome(fresh.scomp(&req));

        let mut seed = Ssd::new(cfg);
        let req2 = load_and_request(&mut seed, kernel, len, salt);
        let image = seed.into_image();
        let mut forked = image.fork(cfg);
        let got_a = outcome(forked.scomp(&req2));
        let got_b = outcome(forked.scomp(&req2));

        prop_assert_eq!(want_a, got_a, "first request on the fork diverged");
        prop_assert_eq!(want_b, got_b, "second request on the fork diverged");
        prop_assert_eq!(
            fresh.reliability(), forked.reliability(),
            "reliability counters diverged"
        );
        prop_assert_eq!(fresh.ftl_stats(), forked.ftl_stats(), "FTL counters diverged");
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

/// `SsdImage` crosses sweep threads by reference.
#[test]
fn image_is_send_and_sync() {
    fn check<T: Send + Sync>() {}
    check::<assasin_ssd::SsdImage>();
}
