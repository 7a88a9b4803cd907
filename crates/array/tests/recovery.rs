//! Recovery round-trips: every failure set a redundant placement covers
//! reads back the stored bytes, and rebuilding the failed devices
//! restores full redundancy.
//!
//! After the rebuild, `redundancy` *other* devices fail and the object
//! must still read back. That read can only succeed through what the
//! rebuild wrote — reconstructed data chunks, copied replicas and
//! recomputed parity alike — so a rebuild that writes a wrong syndrome
//! or a stale replica fails here even though its own report looks fine.

use assasin_array::{ArrayConfig, ArrayPlacement, SsdArray};
use assasin_core::EngineKind;
use assasin_ssd::SsdConfig;
use proptest::prelude::*;

const CHUNK: usize = 8192;

fn pattern(n: usize, salt: u64) -> Vec<u8> {
    (0..n)
        .map(|i| ((i as u64).wrapping_mul(0x9E37_79B9).wrapping_add(salt) >> 8) as u8)
        .collect()
}

fn placement(idx: usize) -> ArrayPlacement {
    match idx {
        0 => ArrayPlacement::Replicated { copies: 2 },
        1 => ArrayPlacement::Replicated { copies: 3 },
        2 => ArrayPlacement::Raid4,
        _ => ArrayPlacement::Raid6,
    }
}

/// The devices `0..n` in an order fixed by `seed` (Fisher–Yates driven
/// by xorshift).
fn shuffled(n: usize, seed: u64) -> Vec<usize> {
    let mut x = seed | 1;
    let mut order: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        order.swap(i, (x % (i as u64 + 1)) as usize);
    }
    order
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]
    #[test]
    fn rebuilt_devices_carry_real_data_and_parity(
        pidx in 0usize..4,
        devices in 3usize..=6,
        len in 1usize..=12 * CHUNK,
        salt in any::<u64>(),
        fail_seed in any::<u64>(),
        fail_count in 0usize..=2,
    ) {
        let place = placement(pidx);
        let devices = devices.max(place.min_devices());
        let redundancy = place.redundancy();
        let cfg = ArrayConfig::new(
            devices,
            place,
            SsdConfig::small_for_tests(EngineKind::AssasinSb),
        )
        .with_chunk_bytes(CHUNK as u64);
        let mut a = SsdArray::new(cfg).expect("valid config");
        let data = pattern(len, salt);
        a.store_object(1, &data).expect("store");

        let order = shuffled(devices, fail_seed);
        let (failed, others) = order.split_at(fail_count.min(redundancy));
        for &d in failed {
            a.fail_device(d);
        }
        let read = a.read_object(1).expect("degraded read");
        prop_assert_eq!(&read.data, &data, "failed {:?}", failed);

        for &d in failed {
            a.rebuild_device(d).expect("rebuild");
        }
        let later = &others[..redundancy.min(others.len())];
        for &d in later {
            a.fail_device(d);
        }
        let read = a.read_object(1).expect("read through rebuilt devices");
        prop_assert_eq!(
            &read.data,
            &data,
            "rebuilt {:?}, then failed {:?}",
            failed,
            later
        );
    }
}
