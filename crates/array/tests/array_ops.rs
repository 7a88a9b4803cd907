//! Functional behavior of the array layer: placement, round-trips,
//! degraded reads, rebuild, and per-device computation — all checked
//! against host-side goldens (the kernels crate's reference encoders
//! and `aes::golden`).

use assasin_array::{ArrayConfig, ArrayError, ArrayPlacement, SsdArray};
use assasin_core::EngineKind;
use assasin_kernels::aes;
use assasin_ssd::{KernelBundle, SsdConfig};

const AES_KEY: [u8; 16] = [
    0x00, 0x01, 0x02, 0x03, 0x04, 0x05, 0x06, 0x07, 0x08, 0x09, 0x0a, 0x0b, 0x0c, 0x0d, 0x0e, 0x0f,
];

fn aes_bundle() -> KernelBundle {
    KernelBundle::new("aes128", 16, 1.0, aes::program)
        .with_scratchpad_image(aes::scratchpad_image(&AES_KEY))
}

fn pattern(n: usize, salt: u64) -> Vec<u8> {
    (0..n)
        .map(|i| ((i as u64).wrapping_mul(0x9E37_79B9).wrapping_add(salt) >> 8) as u8)
        .collect()
}

fn cfg(devices: usize, placement: ArrayPlacement) -> ArrayConfig {
    ArrayConfig::new(
        devices,
        placement,
        SsdConfig::small_for_tests(EngineKind::AssasinSb),
    )
    // Two-page chunks: small enough that modest objects stripe widely,
    // big enough to exercise partial tail chunks.
    .with_chunk_bytes(8192)
}

fn array(devices: usize, placement: ArrayPlacement) -> SsdArray {
    SsdArray::new(cfg(devices, placement)).expect("valid config")
}

#[test]
fn striped_roundtrip_balances_pages() {
    let mut a = array(4, ArrayPlacement::Striped);
    // 9.5 chunks: a partial tail chunk and an uneven final stripe.
    let data = pattern(8192 * 9 + 4096, 1);
    let report = a.store_object(7, &data).expect("store");
    assert_eq!(report.data_chunks, 10);
    assert_eq!(report.parity_chunks, 0);
    // Chunks 0..9 round-robin; chunk 9 is the one-page tail on device 1.
    assert_eq!(report.per_device_pages, vec![6, 5, 4, 4]);
    let read = a.read_object(7).expect("read");
    assert_eq!(read.data, data, "round-trip is bit-exact");
    assert_eq!(read.degraded_chunks, 0);
    assert!(read.elapsed.as_ps() > 0, "reads are timed");
    assert_eq!(
        read.link.bytes,
        data.len() as u64,
        "every byte crossed the root"
    );
    assert!(a.stats().merged_events >= 10);
}

#[test]
fn weighted_striping_skews_placement() {
    let mut a = array(
        4,
        ArrayPlacement::WeightedStriped {
            weights: vec![3, 1, 1, 1],
        },
    );
    let data = pattern(8192 * 12, 2);
    let report = a.store_object(1, &data).expect("store");
    assert_eq!(report.per_device_pages, vec![12, 4, 4, 4]);
    assert_eq!(a.read_object(1).expect("read").data, data);
}

#[test]
fn replication_survives_and_then_loses_data() {
    let mut a = array(3, ArrayPlacement::Replicated { copies: 2 });
    let data = pattern(8192 * 6, 3);
    let report = a.store_object(9, &data).expect("store");
    assert_eq!(report.replica_chunks, 6);
    a.fail_device(0);
    let read = a.read_object(9).expect("replica-degraded read");
    assert_eq!(read.data, data);
    assert_eq!(read.degraded_chunks, 2, "device 0 held chunks 0 and 3");
    a.fail_device(1);
    let err = a.read_object(9).unwrap_err();
    assert!(
        matches!(err, ArrayError::DataLoss { object: 9, .. }),
        "both copies down is data loss, got {err}"
    );
}

#[test]
fn raid4_reads_through_any_single_failure_and_rebuilds() {
    let data = pattern(8192 * 7 + 1000, 4);
    for lost in 0..4 {
        let mut a = array(4, ArrayPlacement::Raid4);
        a.store_object(1, &data).expect("store");
        a.fail_device(lost);
        let read = a.read_object(1).expect("degraded read");
        assert_eq!(read.data, data, "lost device {lost}");
        let rebuilt = a.rebuild_device(lost).expect("rebuild");
        assert!(rebuilt.chunks > 0, "device {lost} held chunks");
        assert!(rebuilt.bytes_read > 0 && rebuilt.bytes_written > 0);
        assert!(rebuilt.elapsed.as_ps() > 0, "the read storm is timed");
        let read = a.read_object(1).expect("healthy read after rebuild");
        assert_eq!(read.data, data);
        assert_eq!(read.degraded_chunks, 0, "rebuild restored device {lost}");
    }
}

#[test]
fn raid4_two_failures_lose_data() {
    let mut a = array(4, ArrayPlacement::Raid4);
    let data = pattern(8192 * 6, 5);
    a.store_object(1, &data).expect("store");
    a.fail_device(0);
    a.fail_device(1);
    assert!(matches!(
        a.read_object(1).unwrap_err(),
        ArrayError::DataLoss { .. }
    ));
}

#[test]
fn raid6_survives_every_pair_of_failures() {
    let data = pattern(8192 * 8 + 512, 6);
    for a_dev in 0..5 {
        for b_dev in (a_dev + 1)..5 {
            let mut arr = array(5, ArrayPlacement::Raid6);
            arr.store_object(3, &data).expect("store");
            arr.fail_device(a_dev);
            arr.fail_device(b_dev);
            let read = arr.read_object(3).expect("double-degraded read");
            assert_eq!(read.data, data, "lost devices {a_dev},{b_dev}");
        }
    }
}

#[test]
fn raid6_rebuild_restores_full_redundancy() {
    let data = pattern(8192 * 8, 7);
    let mut a = array(5, ArrayPlacement::Raid6);
    a.store_object(3, &data).expect("store");
    a.fail_device(1);
    a.rebuild_device(1).expect("rebuild data device");
    // The rebuilt member must carry real content: lose two *other*
    // devices (including the P drive) and reconstruct through it.
    a.fail_device(2);
    a.fail_device(3);
    let read = a.read_object(3).expect("reads survive two fresh failures");
    assert_eq!(read.data, data);
    assert!(a.stats().rebuild_bytes_written > 0);

    // Rebuild the parity drive too, while a data device is still down.
    a.rebuild_device(3)
        .expect("rebuild P with a data device down");
    a.rebuild_device(2).expect("rebuild the data device");
    a.fail_device(0);
    a.fail_device(4);
    assert_eq!(a.read_object(3).expect("post-rebuild read").data, data);
}

#[test]
fn raid6_rebuilt_q_reconstructs_with_p_down() {
    let data = pattern(8192 * 8 + 512, 10);
    let mut a = array(5, ArrayPlacement::Raid6);
    a.store_object(3, &data).expect("store");
    a.fail_device(4);
    let rebuilt = a.rebuild_device(4).expect("rebuild the Q drive");
    assert_eq!(rebuilt.chunks, 3, "one Q chunk per stripe");
    // With a data device and the P drive down, only the rebuilt Q can
    // reconstruct the lost members.
    a.fail_device(0);
    a.fail_device(3);
    let read = a.read_object(3).expect("read through the rebuilt Q");
    assert_eq!(read.data, data);
    assert!(read.degraded_chunks > 0);
}

#[test]
fn raid6_three_failures_lose_data_on_read_and_rebuild() {
    let mut a = array(5, ArrayPlacement::Raid6);
    a.store_object(2, &pattern(8192 * 8, 11)).expect("store");
    // Data devices 1 and 2 and the P drive: stripe 0 lost members 1 and
    // 2 with only Q left.
    for d in [1, 2, 3] {
        a.fail_device(d);
    }
    let expect_loss = |err: ArrayError| {
        assert!(
            matches!(
                err,
                ArrayError::DataLoss {
                    object: 2,
                    chunk: 1
                }
            ),
            "got {err}"
        );
    };
    expect_loss(a.read_object(2).unwrap_err());
    expect_loss(a.rebuild_device(1).unwrap_err());
}

#[test]
fn rebuild_requires_a_failed_device() {
    let mut a = array(4, ArrayPlacement::Raid4);
    a.store_object(1, &pattern(8192, 8)).expect("store");
    assert!(matches!(
        a.rebuild_device(2).unwrap_err(),
        ArrayError::BadConfig(_)
    ));
}

#[test]
fn scomp_lanes_match_aes_golden() {
    let mut a = array(4, ArrayPlacement::Striped);
    let data = pattern(8192 * 8, 9);
    a.store_object(5, &data).expect("store");
    let out = a.scomp_object(5, aes_bundle).expect("scomp");
    assert_eq!(out.bytes_in, data.len() as u64);
    assert_eq!(out.per_device.len(), 4);
    for lane in &out.per_device {
        // Device d holds chunks d, d+4, ... in object order.
        let mut lane_input = Vec::new();
        for c in (lane.device..8).step_by(4) {
            lane_input.extend_from_slice(&data[c * 8192..(c + 1) * 8192]);
        }
        let idx = out
            .per_device
            .iter()
            .position(|l| l.device == lane.device)
            .unwrap();
        assert_eq!(
            out.outputs[idx],
            aes::golden(&AES_KEY, &lane_input),
            "device {} encrypts exactly its chunks",
            lane.device
        );
        assert!(lane.device_elapsed.as_ps() > 0);
        assert!(lane.simulated_gbps > 0.0);
    }
    assert_eq!(out.bytes_out, out.bytes_in, "AES is 1:1");
    assert_eq!(out.link.bytes, out.bytes_out, "outputs crossed the root");
    assert!(out.elapsed.as_ps() > 0);
}

#[test]
fn scomp_follows_replicas_but_refuses_parity_holes() {
    let data = pattern(8192 * 6, 10);
    let mut rep = array(3, ArrayPlacement::Replicated { copies: 2 });
    rep.store_object(1, &data).expect("store");
    rep.fail_device(0);
    let out = rep.scomp_object(1, aes_bundle).expect("replica scomp");
    assert_eq!(out.bytes_in, data.len() as u64);
    assert_eq!(out.concat_output().len(), data.len());

    let mut r4 = array(4, ArrayPlacement::Raid4);
    r4.store_object(1, &data).expect("store");
    r4.fail_device(0);
    assert!(matches!(
        r4.scomp_object(1, aes_bundle).unwrap_err(),
        ArrayError::Degraded { device: 0, .. }
    ));
}

#[test]
fn rebuild_of_an_out_of_range_device_is_a_typed_error() {
    let mut a = array(3, ArrayPlacement::Replicated { copies: 2 });
    let data = pattern(8192 * 2, 15);
    a.store_object(1, &data).expect("store");
    assert!(matches!(
        a.rebuild_device(3).unwrap_err(),
        ArrayError::BadConfig(_)
    ));
    assert_eq!(a.read_object(1).expect("read").data, data);
}

#[test]
fn config_validation_rejects_impossible_topologies() {
    let dev = SsdConfig::small_for_tests(EngineKind::AssasinSb);
    let bad = |c: ArrayConfig| {
        let Err(e) = SsdArray::new(c) else {
            panic!("config must be rejected");
        };
        assert!(matches!(e, ArrayError::BadConfig(_)), "got {e}");
    };
    bad(ArrayConfig::new(2, ArrayPlacement::Raid4, dev));
    bad(ArrayConfig::new(3, ArrayPlacement::Raid6, dev));
    bad(ArrayConfig::new(
        2,
        ArrayPlacement::Replicated { copies: 3 },
        dev,
    ));
    bad(ArrayConfig::new(
        3,
        ArrayPlacement::WeightedStriped {
            weights: vec![1, 2],
        },
        dev,
    ));
    bad(ArrayConfig::new(2, ArrayPlacement::Striped, dev).with_chunk_bytes(1000));
    bad(ArrayConfig::new(2, ArrayPlacement::Striped, dev).with_fault_seeds(vec![1]));

    let mut a = array(2, ArrayPlacement::Striped);
    a.store_object(1, &pattern(4096, 13)).expect("store");
    assert!(matches!(
        a.store_object(1, &pattern(4096, 13)).unwrap_err(),
        ArrayError::DuplicateObject(1)
    ));
    assert!(matches!(
        a.read_object(99).unwrap_err(),
        ArrayError::UnknownObject(99)
    ));
    assert!(matches!(
        a.store_object(2, &[]).unwrap_err(),
        ArrayError::BadConfig(_)
    ));
}

#[test]
fn shared_root_contention_is_visible_in_stats() {
    // A root at a fraction of one lane's bandwidth forces queuing when
    // four devices deliver at once.
    let mut a = SsdArray::new(cfg(4, ArrayPlacement::Striped).with_root_bw(1.0e9)).expect("array");
    let data = pattern(8192 * 8, 14);
    a.store_object(1, &data).expect("store");
    let read = a.read_object(1).expect("read");
    assert!(
        read.link.stalled.as_ps() > 0,
        "a constrained root must show contention stalls"
    );
    assert_eq!(
        a.stats().link_stalled,
        read.link.stalled,
        "per-op stalls roll up into cumulative stats"
    );
}
