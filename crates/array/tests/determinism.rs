//! The array's determinism contract: threaded N-device execution is
//! byte-identical to serial execution.
//!
//! Every observable of a scripted op sequence — store reports, read
//! data, scomp results, rebuild reports, error renderings, cumulative
//! stats — is captured as one transcript string and compared between
//! `ArrayExec::Serial` and `ArrayExec::Threaded`. Device counts,
//! placement policies, object sizes, and *per-device NAND fault seeds*
//! are randomized: fault seeds give every device a different ECC/retry
//! timing profile, so any scheduling leak into the merge or the shared
//! root charge order would show up as a transcript diff.
//!
//! The test binary pins `RAYON_NUM_THREADS=8` before the thread budget
//! initializes: the host box may have a single core (budget 0), and the
//! threaded arm must actually cross threads to test anything.

use std::collections::HashSet;
use std::sync::{Arc, Mutex};

use assasin_array::{ArrayConfig, ArrayExec, ArrayPlacement, SsdArray};
use assasin_core::EngineKind;
use assasin_flash::FaultConfig;
use assasin_kernels::scan;
use assasin_ssd::{KernelBundle, SsdConfig};
use proptest::prelude::*;

/// Pins the thread budget to 8 before anything claims from it. Tests in
/// this binary must call this first.
fn init_threads() {
    static INIT: std::sync::Once = std::sync::Once::new();
    INIT.call_once(|| std::env::set_var("RAYON_NUM_THREADS", "8"));
}

fn pattern(n: usize, salt: u64) -> Vec<u8> {
    (0..n)
        .map(|i| ((i as u64).wrapping_mul(0x9E37_79B9).wrapping_add(salt) >> 8) as u8)
        .collect()
}

fn scan_bundle() -> KernelBundle {
    KernelBundle::new("scan", scan::TUPLE_BYTES, 0.0, scan::program)
}

fn placement(idx: usize, devices: usize) -> ArrayPlacement {
    match idx % 5 {
        1 => ArrayPlacement::WeightedStriped {
            weights: (0..devices).map(|d| (d as u32 % 3) + 1).collect(),
        },
        2 if devices >= 2 => ArrayPlacement::Replicated { copies: 2 },
        3 if devices >= 3 => ArrayPlacement::Raid4,
        4 if devices >= 4 => ArrayPlacement::Raid6,
        _ => ArrayPlacement::Striped,
    }
}

/// Runs a fixed op script and renders every observable into one
/// transcript. Errors render too — a deterministic failure is as good
/// as a deterministic success.
fn run_script(
    exec: ArrayExec,
    devices: usize,
    pidx: usize,
    len: usize,
    salt: u64,
    seeds: &[u64],
) -> String {
    let place = placement(pidx, devices);
    let redundancy = place.redundancy();
    let mut device = SsdConfig::small_for_tests(EngineKind::AssasinSb);
    // A mild error rate: ECC corrections and occasional retries shift
    // per-device timing by seed without making reads unrecoverable.
    device.fault = FaultConfig::with_ber(0, 5.0e-5);
    let cfg = ArrayConfig::new(devices, place, device)
        .with_chunk_bytes(8192)
        .with_fault_seeds(seeds.to_vec())
        .with_exec(exec);
    let mut a = SsdArray::new(cfg).expect("valid config");
    let mut t = String::new();
    let data = pattern(len, salt);
    let data2 = pattern(len / 2 + 16, salt ^ 0xabc1);

    t += &format!("store1 {:?}\n", a.store_object(1, &data));
    t += &format!("read1 {:?}\n", a.read_object(1));
    t += &format!("scomp1 {:?}\n", a.scomp_object(1, scan_bundle));
    if redundancy > 0 {
        a.fail_device(0);
        t += &format!("degraded {:?}\n", a.read_object(1));
        t += &format!("rebuild {:?}\n", a.rebuild_device(0));
        t += &format!("restored {:?}\n", a.read_object(1));
    }
    t += &format!("store2 {:?}\n", a.store_object(2, &data2));
    t += &format!("read2 {:?}\n", a.read_object(2));
    t += &format!("stats {:?}\n", a.stats());
    t
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]
    #[test]
    fn threaded_execution_is_byte_identical_to_serial(
        devices in 2usize..=5,
        pidx in 0usize..5,
        len_pages in 3usize..10,
        salt in 0u64..1_000_000,
        seed0 in 0u64..1_000,
        workers in 2usize..=4,
    ) {
        init_threads();
        let seeds: Vec<u64> = (0..devices).map(|d| seed0 + d as u64 * 7919).collect();
        let len = len_pages * 4096 + 1234;
        let serial = run_script(ArrayExec::Serial, devices, pidx, len, salt, &seeds);
        let threaded = run_script(
            ArrayExec::Threaded { workers },
            devices,
            pidx,
            len,
            salt,
            &seeds,
        );
        prop_assert_eq!(serial, threaded);
    }
}

/// The 8-device shape the scaling experiment uses.
#[test]
fn eight_device_raid6_threaded_matches_serial() {
    init_threads();
    let seeds: Vec<u64> = (0..8).map(|d| 17 + d * 13).collect();
    let serial = run_script(ArrayExec::Serial, 8, 4, 110_000, 99, &seeds);
    let threaded = run_script(
        ArrayExec::Threaded { workers: 8 },
        8,
        4,
        110_000,
        99,
        &seeds,
    );
    assert_eq!(
        serial, threaded,
        "8-device threaded run diverged from serial"
    );
}

/// Runs one `scomp_object` on an 8-device threaded array and returns the
/// threads its devices ran on: the kernel builder runs on whichever
/// thread executes a device's `scomp`, so it records where each device
/// ran.
fn threaded_scomp_threads() -> HashSet<std::thread::ThreadId> {
    let data = pattern(8 * 8192, 3);
    let device = SsdConfig::small_for_tests(EngineKind::AssasinSb);
    let cfg = ArrayConfig::new(8, ArrayPlacement::Striped, device)
        .with_chunk_bytes(8192)
        .with_exec(ArrayExec::Threaded { workers: 8 });
    let mut a = SsdArray::new(cfg).expect("valid config");
    a.store_object(1, &data).expect("store");
    let ran_on = Arc::new(Mutex::new(HashSet::new()));
    let record = Arc::clone(&ran_on);
    a.scomp_object(1, || {
        let record = Arc::clone(&record);
        KernelBundle::new("scan", scan::TUPLE_BYTES, 0.0, move |style| {
            record
                .lock()
                .expect("recorder lock")
                .insert(std::thread::current().id());
            scan::program(style)
        })
    })
    .expect("scomp");
    let ran_on = ran_on.lock().expect("recorder lock").clone();
    ran_on
}

/// `ArrayExec::Threaded` really crosses threads. Other tests draw on the
/// same thread budget concurrently, hence the retries.
#[test]
fn threaded_array_runs_devices_off_the_calling_thread() {
    init_threads();
    let caller = std::thread::current().id();
    let crossed = (0..50).any(|_| threaded_scomp_threads().iter().any(|&t| t != caller));
    assert!(
        crossed,
        "every device of a threaded array ran on the calling thread"
    );
}

/// A threaded array never raises the cap its caller runs under: inside
/// `with_max_threads(1, ..)` every device runs on the calling thread.
/// The calling thread can finish a whole batch before a spawned thread
/// starts, so one run proves little; hence the repeats.
#[test]
fn threaded_array_keeps_the_callers_serial_cap() {
    init_threads();
    let caller = std::thread::current().id();
    for _ in 0..20 {
        let ran_on = assasin_parallel::with_max_threads(1, threaded_scomp_threads);
        assert_eq!(ran_on, HashSet::from([caller]));
    }
}

/// The 8-device striped store, read and `scomp_object` leg at a fixed
/// width: the proptest reaches striping only at 2–5 devices.
#[test]
fn eight_device_striped_scomp_threaded_matches_serial() {
    init_threads();
    let seeds: Vec<u64> = (0..8).map(|d| 5 + d * 31).collect();
    let serial = run_script(ArrayExec::Serial, 8, 0, 110_000, 7, &seeds);
    let threaded = run_script(ArrayExec::Threaded { workers: 8 }, 8, 0, 110_000, 7, &seeds);
    assert!(serial.contains("scomp1 Ok("), "{serial}");
    assert_eq!(
        serial, threaded,
        "8-device striped threaded run diverged from serial"
    );
}
