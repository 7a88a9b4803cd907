//! Multi-device array experiment: throughput scaling 1→N devices,
//! degraded reads, and rebuild storms (DESIGN.md §15).
//!
//! Everything reported here is *simulated* time from the array's
//! deterministic event merge, so the report is byte-identical across
//! runs, across serial vs. threaded execution, and across machines —
//! this report carries no wall-clock figures for the threaded engine.
//! Three scenarios:
//!
//! 1. **Scaling** — one object striped over 1, 2, 4, … devices; a
//!    conventional read (every byte crosses the shared root, so stalls
//!    appear once the lanes outrun it) and a scan offload (per-device
//!    compute shrinks with width). A final skewed row (weighted
//!    striping) shows the slowest lane dominating.
//! 2. **Degraded reads** — RAID4/RAID6 arrays losing one or two
//!    devices; the reconstruction reads amplify both bytes moved and
//!    elapsed time.
//! 3. **Rebuild storms** — a failed device repopulated from survivors,
//!    including a skewed small-object layout where the failed device
//!    held a disproportionate share of the chunks.
//!
//! The scaling sweep stripes over up to `MAX_DEVICES` devices.

use crate::bundles;
use crate::report;
use crate::Scale;
use assasin_array::{ArrayConfig, ArrayExec, ArrayPlacement, SsdArray};
use assasin_core::EngineKind;
use assasin_ssd::SsdConfig;
use serde::Serialize;
use std::fmt;

/// One width of the scaling sweep.
#[derive(Debug, Clone, Serialize)]
pub struct ScalingPoint {
    /// Devices in the array.
    pub devices: usize,
    /// Placement policy name (the skew row says `weighted`).
    pub placement: String,
    /// Conventional-read throughput, GB/s (bytes / simulated elapsed).
    pub read_gbps: f64,
    /// Aggregate per-transfer root-link queuing time divided by the
    /// read's elapsed time. Exceeds 1.0 once several lanes queue
    /// concurrently — it sums queue time across transfers.
    pub read_stall_frac: f64,
    /// Scan-offload throughput, GB/s.
    pub scomp_gbps: f64,
    /// Slowest lane's simulated GB/s during the offload.
    pub lane_gbps_min: f64,
    /// Fastest lane's simulated GB/s during the offload.
    pub lane_gbps_max: f64,
}

/// One degraded-read scenario.
#[derive(Debug, Clone, Serialize)]
pub struct DegradedPoint {
    /// Placement policy name.
    pub placement: String,
    /// Devices in the array.
    pub devices: usize,
    /// Devices failed before the degraded read.
    pub failed: usize,
    /// Healthy full-object read, simulated ms.
    pub healthy_ms: f64,
    /// Same read with the failures in place, simulated ms.
    pub degraded_ms: f64,
    /// `degraded_ms / healthy_ms`.
    pub slowdown: f64,
    /// Chunks served via reconstruction or a surviving replica.
    pub degraded_chunks: u64,
}

/// One rebuild-storm scenario.
#[derive(Debug, Clone, Serialize)]
pub struct RebuildPoint {
    /// Scenario name.
    pub scenario: String,
    /// Devices in the array.
    pub devices: usize,
    /// Objects resident when the device failed.
    pub objects: usize,
    /// Chunks reconstructed onto the replacement.
    pub chunks: u64,
    /// Bytes read from survivors during the storm.
    pub bytes_read: u64,
    /// Bytes written to the replacement.
    pub bytes_written: u64,
    /// Simulated rebuild time, ms.
    pub rebuild_ms: f64,
    /// Aggregate root-link queuing time over the storm's elapsed time
    /// (sums across transfers, so it can exceed 1.0).
    pub stall_frac: f64,
}

/// The array experiment report.
#[derive(Debug, Clone, Serialize)]
pub struct ArrayReport {
    /// Object bytes used for each scenario.
    pub object_bytes: usize,
    /// Scaling sweep, one row per width plus the skewed row.
    pub scaling: Vec<ScalingPoint>,
    /// Degraded-read scenarios.
    pub degraded: Vec<DegradedPoint>,
    /// Rebuild storms.
    pub rebuild: Vec<RebuildPoint>,
}

fn pattern(n: usize, seed: u64) -> Vec<u8> {
    (0..n)
        .map(|i| ((i as u64).wrapping_mul(0x9E37_79B9).wrapping_add(seed) >> 8) as u8)
        .collect()
}

/// The scaling-sweep widths: powers of two up to `max`, plus `max`.
fn widths(max: usize) -> Vec<usize> {
    let mut out = Vec::new();
    let mut w = 1;
    while w < max {
        out.push(w);
        w *= 2;
    }
    out.push(max);
    out
}

/// Widest array in the scaling sweep.
const MAX_DEVICES: usize = 8;

fn placement_by_name(name: &str) -> ArrayPlacement {
    match name {
        "striped" => ArrayPlacement::Striped,
        "replicated" => ArrayPlacement::Replicated { copies: 2 },
        "raid4" => ArrayPlacement::Raid4,
        "raid6" => ArrayPlacement::Raid6,
        other => panic!("unknown placement {other:?}"),
    }
}

fn array(devices: usize, placement: ArrayPlacement, exec: ArrayExec) -> SsdArray {
    let device = SsdConfig::engine_config(EngineKind::AssasinSb);
    let cfg = ArrayConfig::new(devices, placement, device).with_exec(exec);
    SsdArray::new(cfg).unwrap_or_else(|e| panic!("array config: {e}"))
}

fn scaling_point(
    devices: usize,
    name: &str,
    placement: ArrayPlacement,
    exec: ArrayExec,
    data: &[u8],
) -> ScalingPoint {
    let mut a = array(devices, placement, exec);
    a.store_object(1, data)
        .unwrap_or_else(|e| panic!("store: {e}"));
    let read = a.read_object(1).unwrap_or_else(|e| panic!("read: {e}"));
    let read_secs = read.elapsed.as_secs_f64();
    let scomp = a
        .scomp_object(1, bundles::scan_bundle)
        .unwrap_or_else(|e| panic!("scomp: {e}"));
    let lanes: Vec<f64> = scomp.per_device.iter().map(|l| l.simulated_gbps).collect();
    ScalingPoint {
        devices,
        placement: name.to_string(),
        read_gbps: data.len() as f64 / read_secs.max(1e-12) / 1e9,
        read_stall_frac: read.link.stalled.as_secs_f64() / read_secs.max(1e-12),
        scomp_gbps: scomp.throughput_gbps(),
        lane_gbps_min: lanes.iter().copied().fold(f64::INFINITY, f64::min),
        lane_gbps_max: lanes.iter().copied().fold(0.0, f64::max),
    }
}

fn degraded_point(
    name: &str,
    devices: usize,
    fail: &[usize],
    exec: ArrayExec,
    data: &[u8],
) -> DegradedPoint {
    let mut a = array(devices, placement_by_name(name), exec);
    a.store_object(1, data)
        .unwrap_or_else(|e| panic!("store: {e}"));
    let healthy = a.read_object(1).unwrap_or_else(|e| panic!("read: {e}"));
    for &d in fail {
        a.fail_device(d);
    }
    let degraded = a
        .read_object(1)
        .unwrap_or_else(|e| panic!("degraded read: {e}"));
    assert_eq!(degraded.data, data, "reconstruction is bit-exact");
    let healthy_ms = healthy.elapsed.as_secs_f64() * 1e3;
    let degraded_ms = degraded.elapsed.as_secs_f64() * 1e3;
    DegradedPoint {
        placement: name.to_string(),
        devices,
        failed: fail.len(),
        healthy_ms,
        degraded_ms,
        slowdown: degraded_ms / healthy_ms.max(1e-12),
        degraded_chunks: degraded.degraded_chunks,
    }
}

fn rebuild_point(
    scenario: &str,
    devices: usize,
    placement: ArrayPlacement,
    exec: ArrayExec,
    objects: &[Vec<u8>],
    fail: usize,
) -> RebuildPoint {
    let mut a = array(devices, placement, exec);
    for (i, data) in objects.iter().enumerate() {
        a.store_object(i as u64 + 1, data)
            .unwrap_or_else(|e| panic!("store {i}: {e}"));
    }
    a.fail_device(fail);
    let r = a
        .rebuild_device(fail)
        .unwrap_or_else(|e| panic!("rebuild: {e}"));
    for (i, data) in objects.iter().enumerate() {
        let read = a
            .read_object(i as u64 + 1)
            .unwrap_or_else(|e| panic!("post-rebuild read {i}: {e}"));
        assert_eq!(&read.data, data, "rebuild restored object {i} bit-exact");
    }
    let secs = r.elapsed.as_secs_f64();
    RebuildPoint {
        scenario: scenario.to_string(),
        devices,
        objects: objects.len(),
        chunks: r.chunks,
        bytes_read: r.bytes_read,
        bytes_written: r.bytes_written,
        rebuild_ms: secs * 1e3,
        stall_frac: r.link.stalled.as_secs_f64() / secs.max(1e-12),
    }
}

/// Runs the array experiment with an explicit execution mode. The
/// report is byte-identical for `Serial` and `Threaded` — that is the
/// determinism contract, tested in `crates/array/tests/determinism.rs`.
pub fn run_with(scale: &Scale, exec: ArrayExec) -> ArrayReport {
    let object_bytes = scale.scalability_bytes;
    let data = pattern(object_bytes, scale.seed);

    let mut scaling: Vec<ScalingPoint> = widths(MAX_DEVICES)
        .into_iter()
        .map(|d| scaling_point(d, "striped", ArrayPlacement::Striped, exec, &data))
        .collect();
    // The skew row: one device weighted 4x, the rest 1x — the heavy
    // lane's longer scan dominates the offload.
    let mut weights = vec![1u32; MAX_DEVICES];
    weights[0] = 4;
    scaling.push(scaling_point(
        MAX_DEVICES,
        "weighted",
        ArrayPlacement::WeightedStriped { weights },
        exec,
        &data,
    ));

    let degraded = vec![
        degraded_point("replicated", 3, &[0], exec, &data),
        degraded_point("raid4", 4, &[0], exec, &data),
        degraded_point("raid6", 5, &[0], exec, &data),
        degraded_point("raid6", 5, &[0, 2], exec, &data),
    ];

    // Storm 1: the full dataset split over several objects on RAID6.
    let quarters: Vec<Vec<u8>> = (0..4)
        .map(|i| pattern(object_bytes / 4, scale.seed + i))
        .collect();
    // Storm 2: skewed small objects on RAID4 — each object is a single
    // chunk, so every data chunk lands on device 0 and the failed
    // device held far more than its fair share.
    let chunk = ArrayConfig::new(
        4,
        ArrayPlacement::Raid4,
        SsdConfig::engine_config(EngineKind::AssasinSb),
    )
    .chunk_bytes;
    let smalls: Vec<Vec<u8>> = (0..8)
        .map(|i| pattern(chunk as usize, scale.seed + 100 + i))
        .collect();
    let rebuild = vec![
        rebuild_point("raid6-storm", 5, ArrayPlacement::Raid6, exec, &quarters, 1),
        rebuild_point(
            "raid4-skewed-small-objects",
            4,
            ArrayPlacement::Raid4,
            exec,
            &smalls,
            0,
        ),
    ];

    ArrayReport {
        object_bytes,
        scaling,
        degraded,
        rebuild,
    }
}

/// Runs the array experiment threaded (each batch's devices on `par_map`
/// under a cap of 8 threads, degrading to serial under a 1-thread budget
/// — the report is identical either way).
pub fn run(scale: &Scale) -> ArrayReport {
    run_with(scale, ArrayExec::Threaded { workers: 8 })
}

impl fmt::Display for ArrayReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "Array scaling: {} B object, shared-root contention (simulated time)",
            self.object_bytes
        )?;
        let headers = vec![
            "devices",
            "placement",
            "read GB/s",
            "root queue",
            "scomp GB/s",
            "lane min",
            "lane max",
        ];
        let rows: Vec<Vec<String>> = self
            .scaling
            .iter()
            .map(|p| {
                vec![
                    p.devices.to_string(),
                    p.placement.clone(),
                    report::gbps(p.read_gbps),
                    report::ratio(p.read_stall_frac),
                    report::gbps(p.scomp_gbps),
                    report::gbps(p.lane_gbps_min),
                    report::gbps(p.lane_gbps_max),
                ]
            })
            .collect();
        write!(f, "{}", report::table(&headers, &rows))?;

        writeln!(f, "\nDegraded reads")?;
        let headers = vec![
            "placement",
            "devices",
            "failed",
            "healthy ms",
            "degraded ms",
            "slowdown",
            "degraded chunks",
        ];
        let rows: Vec<Vec<String>> = self
            .degraded
            .iter()
            .map(|p| {
                vec![
                    p.placement.clone(),
                    p.devices.to_string(),
                    p.failed.to_string(),
                    format!("{:.3}", p.healthy_ms),
                    format!("{:.3}", p.degraded_ms),
                    report::ratio(p.slowdown),
                    p.degraded_chunks.to_string(),
                ]
            })
            .collect();
        write!(f, "{}", report::table(&headers, &rows))?;

        writeln!(f, "\nRebuild storms")?;
        let headers = vec![
            "scenario",
            "devices",
            "objects",
            "chunks",
            "read B",
            "written B",
            "rebuild ms",
            "root queue",
        ];
        let rows: Vec<Vec<String>> = self
            .rebuild
            .iter()
            .map(|p| {
                vec![
                    p.scenario.clone(),
                    p.devices.to_string(),
                    p.objects.to_string(),
                    p.chunks.to_string(),
                    p.bytes_read.to_string(),
                    p.bytes_written.to_string(),
                    format!("{:.3}", p.rebuild_ms),
                    report::ratio(p.stall_frac),
                ]
            })
            .collect();
        write!(f, "{}", report::table(&headers, &rows))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn array_report_is_deterministic_across_exec_modes() {
        let scale = Scale::test_scale();
        let serial = serde_json::to_string(&run_with(&scale, ArrayExec::Serial)).unwrap();
        let threaded =
            serde_json::to_string(&run_with(&scale, ArrayExec::Threaded { workers: 4 })).unwrap();
        assert_eq!(serial, threaded, "threaded report must be byte-identical");
    }

    #[test]
    fn scaling_degraded_and_rebuild_move_the_right_way() {
        let r = run_with(&Scale::test_scale(), ArrayExec::Serial);
        let one = r.scaling.first().expect("1-device row");
        let widest = r
            .scaling
            .iter()
            .rfind(|p| p.placement == "striped")
            .expect("widest striped row");
        assert!(one.devices == 1 && widest.devices == 8);
        assert!(
            widest.scomp_gbps > 2.0 * one.scomp_gbps,
            "offload scales with devices: {} vs {}",
            widest.scomp_gbps,
            one.scomp_gbps
        );
        assert!(
            widest.read_stall_frac > 0.0,
            "8 lanes outrun the shared root"
        );
        let skew = r.scaling.last().expect("weighted row");
        assert_eq!(skew.placement, "weighted");
        assert!(
            skew.lane_gbps_max > skew.lane_gbps_min,
            "skewed placement spreads lane throughput"
        );
        for p in &r.degraded {
            assert!(
                p.slowdown >= 1.0,
                "{}: degraded reads cost time",
                p.placement
            );
            assert!(p.degraded_chunks > 0);
        }
        for p in &r.rebuild {
            assert!(p.bytes_read > 0 && p.bytes_written > 0, "{}", p.scenario);
            assert!(p.rebuild_ms > 0.0);
        }
        let skewed = &r.rebuild[1];
        assert_eq!(
            skewed.chunks, 8,
            "every small object's data chunk sat on the failed device"
        );
    }
}
