//! A fixed small benchmark sweep for tracking harness performance.
//!
//! Runs a handful of experiments at test scale two ways — fully serial
//! (`with_max_threads(1)`; best of three reps per experiment, since this
//! pass feeds the perf gate) and once under an explicit parallel thread
//! budget (`RAYON_NUM_THREADS`, else `std::thread::available_parallelism`)
//! — and writes per-experiment wall-clock plus a representative simulated
//! throughput to `BENCH_perf_smoke.json`. Both thread counts are recorded
//! so a "speedup" of ~1.0 on a single-core box reads as what it is, not as
//! a parallelization regression. Every pass also records each experiment's
//! copy-on-write device forks and the flash pages those forks inherited by
//! reference — the prefix-reuse savings of the snapshot/fork sweep harness
//! (DESIGN.md §14). A per-component section times the simulator's hot paths
//! (interpreter, memory hierarchy, flash, streambuffer) in isolation — best
//! of three reps, so one noisy rep on a shared box does not read as a
//! regression — so a slowdown can be attributed before reaching for a
//! profiler. An array pass runs the same 8-device workload serially and
//! with per-device worker threads, asserts the two simulated reports are
//! byte-identical (the DESIGN.md §15 determinism contract), and records
//! requested vs. granted workers, the wall-clock speedup, and the
//! merge/root-stall/rebuild counters. A serving pass runs the multi-tenant
//! front-end experiment once, snapshots the process-wide serving counters
//! (submissions/admitted/rejected/completed plus memoization hits) around
//! it, and records the per-tenant SLO rows — completions, rejections, SLO
//! violations, p50/p99 — of the most saturated load point (DESIGN.md §16).
//! Rerun after harness or simulator changes.

use assasin_array::{array_counters, ArrayConfig, ArrayExec, ArrayPlacement, SsdArray};
use assasin_bench::experiments::{fig13, fig14, fig16, fig_reliability, fig_serving};
use assasin_bench::{bundles, Scale};
use assasin_core::{Core, CoreConfig, SyntheticEnv};
use assasin_flash::{FlashArray, FlashGeometry, FlashTiming, PhysPageAddr};
use assasin_kernels::{scan, AccessStyle};
use assasin_mem::{
    AccessKind, Dram, HierarchyConfig, MemHierarchy, ReadOutcome, StreamBuffer, StreamBufferConfig,
};
use assasin_serve::{serve_counters, TenantReport};
use assasin_sim::{SimDur, SimTime};
use bytes::Bytes;
use serde::Serialize;
use std::time::Instant;

/// One experiment's measurement under one thread budget.
#[derive(Debug, Serialize)]
struct ExperimentSample {
    /// Experiment name.
    name: &'static str,
    /// Wall-clock seconds for the run.
    wall_secs: f64,
    /// Representative simulated throughput from the report, GB/s
    /// (AssasinSb where the experiment sweeps engines).
    simulated_gbps: f64,
    /// Co-simulation rounds executed across all `scomp` calls of the run.
    cosim_rounds: u64,
    /// Fixed-epoch rounds the event-driven deadline jumps skipped.
    epochs_skipped: u64,
    /// Copy-on-write device forks taken off preconditioned images during
    /// the run (0 for experiments that load each device from scratch).
    forks: u64,
    /// Flash pages the forks inherited by reference instead of reloading
    /// — the prefix-reuse savings of the snapshot/fork sweep harness.
    fork_pages_shared: u64,
    /// Read-retry re-senses across the run (0 unless fault injection ran).
    read_retries: u64,
    /// Pages needing ECC correction across the run.
    ecc_corrected: u64,
    /// Pages lost beyond ECC + read-retry across the run.
    uncorrectable: u64,
    /// Blocks retired grown-bad across the run.
    grown_bad_blocks: u64,
}

/// One hot-path component timed in isolation.
#[derive(Debug, Serialize)]
struct ComponentSample {
    /// Component name.
    name: &'static str,
    /// Wall-clock seconds for the fixed-size loop.
    wall_secs: f64,
    /// Operations performed (instructions, accesses, page reads, words).
    ops: u64,
    /// Millions of operations per second.
    mops: f64,
}

/// One device lane of the array pass.
#[derive(Debug, Serialize)]
struct ArrayDeviceSample {
    /// Device id.
    device: usize,
    /// Simulated scan-offload throughput of this lane, GB/s.
    simulated_gbps: f64,
}

/// The multi-device array pass: the same workload executed serially and
/// with per-device worker threads, reports compared byte-for-byte.
#[derive(Debug, Serialize)]
struct ArrayPass {
    /// Devices in the array.
    devices: usize,
    /// Worker threads the threaded run asked for.
    requested_workers: usize,
    /// Executors actually granted by the thread budget (1 = the
    /// threaded engine degraded to serial on this box).
    effective_workers: usize,
    /// Wall-clock of the serial run, seconds.
    serial_wall_secs: f64,
    /// Wall-clock of the threaded run, seconds.
    threaded_wall_secs: f64,
    /// Serial / threaded wall-clock. Meaningless (~1.0) when
    /// `effective_workers` is 1; read that field first.
    wall_speedup: f64,
    /// Whether the serial and threaded runs produced byte-identical
    /// simulated reports (the determinism contract; always true).
    reports_identical: bool,
    /// Host-bound completions through the deterministic event merge
    /// (one run's worth).
    merged_events: u64,
    /// Simulated time queued on the shared root link (one run), seconds.
    link_stall_secs: f64,
    /// Bytes written to the replacement device by the rebuild storm
    /// (one run).
    rebuild_bytes: u64,
    /// Per-device simulated offload throughput (identical across runs).
    per_device: Vec<ArrayDeviceSample>,
}

/// The multi-tenant serving pass: one full `fig_serving` run with the
/// process-wide serving counters snapshotted around it, plus the
/// per-tenant SLO rows of the most saturated load point (DESIGN.md §16).
#[derive(Debug, Serialize)]
struct ServingPass {
    /// Wall-clock seconds for the run.
    wall_secs: f64,
    /// Requests offered across every serving run of the experiment.
    submissions: u64,
    /// Requests past admission control.
    admitted: u64,
    /// Requests turned away with a typed `Rejected` response.
    rejected: u64,
    /// Requests served to completion.
    completed: u64,
    /// Workloads the backing device actually executed (memoization makes
    /// this far smaller than `completed`).
    executions: u64,
    /// Completions served from a memoized service profile.
    memo_hits: u64,
    /// Offered-load multiple of the saturated point the tenant rows
    /// below come from (the last, heaviest point of the load curve).
    saturated_offered_x: f64,
    /// Per-tenant SLO accounting at that point: submissions, rejections,
    /// SLO violations, p50/p99/max latency.
    tenants: Vec<TenantReport>,
}

#[derive(Debug, Serialize)]
struct PerfSmokeReport {
    /// Scale used (fixed test scale; not affected by `ASSASIN_SCALE`).
    scale: &'static str,
    /// Thread count of the serial pass (always 1).
    serial_threads: usize,
    /// Thread budget of the parallel pass (`RAYON_NUM_THREADS` if set,
    /// else `std::thread::available_parallelism()`).
    parallel_threads: usize,
    /// Per-experiment samples with a single worker thread.
    serial: Vec<ExperimentSample>,
    /// Per-experiment samples with the parallel thread budget.
    parallel: Vec<ExperimentSample>,
    /// Total serial wall-clock, seconds.
    serial_total_secs: f64,
    /// Total parallel wall-clock, seconds.
    parallel_total_secs: f64,
    /// Serial / parallel wall-clock ratio. Meaningless (~1.0) when
    /// `parallel_threads` is 1; see that field before reading anything
    /// into this one.
    speedup: f64,
    /// Isolated hot-path component timings (single-threaded).
    components: Vec<ComponentSample>,
    /// Multi-device array pass (serial vs. threaded per-device workers).
    array: ArrayPass,
    /// Multi-tenant serving pass (admission, fairness, SLO accounting).
    serving: ServingPass,
}

fn sb_gbps(entries: &[fig13::Entry]) -> f64 {
    entries
        .iter()
        .find(|e| e.engine == "AssasinSb")
        .map_or(0.0, |e| e.gbps)
}

/// Process-wide counter deltas around one experiment run.
struct RunCounters {
    cosim_rounds: u64,
    epochs_skipped: u64,
    forks: u64,
    fork_pages_shared: u64,
    rel: assasin_flash::ReliabilityCounters,
}

/// Snapshot-delta of the process-wide co-sim + fork + media-reliability
/// counters around a run.
fn with_counters<T>(f: impl FnOnce() -> T) -> (T, RunCounters) {
    let (r0, s0) = assasin_ssd::cosim_counters();
    let (f0, p0) = assasin_ssd::fork_counters();
    let rel0 = assasin_flash::reliability_counters();
    let out = f();
    let (r1, s1) = assasin_ssd::cosim_counters();
    let (f1, p1) = assasin_ssd::fork_counters();
    let rel1 = assasin_flash::reliability_counters();
    (
        out,
        RunCounters {
            cosim_rounds: r1 - r0,
            epochs_skipped: s1 - s0,
            forks: f1 - f0,
            fork_pages_shared: p1 - p0,
            rel: rel1.since(rel0),
        },
    )
}

fn sample(name: &'static str, wall_secs: f64, gbps: f64, c: RunCounters) -> ExperimentSample {
    ExperimentSample {
        name,
        wall_secs,
        simulated_gbps: gbps,
        cosim_rounds: c.cosim_rounds,
        epochs_skipped: c.epochs_skipped,
        forks: c.forks,
        fork_pages_shared: c.fork_pages_shared,
        read_retries: c.rel.read_retries,
        ecc_corrected: c.rel.ecc_corrected,
        uncorrectable: c.rel.uncorrectable,
        grown_bad_blocks: c.rel.grown_bad_blocks,
    }
}

fn run_suite(scale: &Scale) -> Vec<ExperimentSample> {
    let mut samples = Vec::new();
    let t = Instant::now();
    let (f13, c) = with_counters(|| fig13::run_with(scale, false));
    samples.push(sample(
        "fig13",
        t.elapsed().as_secs_f64(),
        f13.functions
            .first()
            .map_or(0.0, |row| sb_gbps(&row.entries)),
        c,
    ));
    let t = Instant::now();
    let (f14, c) = with_counters(|| fig14::run_with(scale, false));
    samples.push(sample(
        "fig14",
        t.elapsed().as_secs_f64(),
        f14.entries
            .iter()
            .find(|e| e.engine == "AssasinSb")
            .map_or(0.0, |e| e.gbps),
        c,
    ));
    let t = Instant::now();
    let (f16, c) = with_counters(|| fig16::run(scale));
    samples.push(sample(
        "fig16",
        t.elapsed().as_secs_f64(),
        f16.points.last().map_or(0.0, |p| p.gbps),
        c,
    ));
    let t = Instant::now();
    let (rel, c) = with_counters(|| fig_reliability::run(scale));
    samples.push(sample(
        "reliability",
        t.elapsed().as_secs_f64(),
        rel.points.last().map_or(0.0, |p| p.gbps),
        c,
    ));
    let t = Instant::now();
    let (srv, c) = with_counters(|| fig_serving::run(scale));
    samples.push(sample(
        "fig_serving",
        t.elapsed().as_secs_f64(),
        // Aggregate admitted throughput at the heaviest load point, where
        // the device is saturated and the number is stable run to run.
        srv.load_curve.last().map_or(0.0, |p| {
            p.tenants.iter().filter_map(|t| t.achieved_gbps).sum()
        }),
        c,
    ));
    samples
}

/// Repetitions per component loop; the fastest rep is reported, which
/// damps scheduler and frequency noise on shared machines.
const COMPONENT_REPS: usize = 5;

/// Full-suite repetitions for the gated scalar serial pass; per
/// experiment, the fastest rep's wall time is reported.
const SERIAL_REPS: usize = 3;

fn component(name: &'static str, ops: u64, mut f: impl FnMut()) -> ComponentSample {
    let mut wall_secs = f64::INFINITY;
    for _ in 0..COMPONENT_REPS {
        let t = Instant::now();
        f();
        wall_secs = wall_secs.min(t.elapsed().as_secs_f64());
    }
    ComponentSample {
        name,
        wall_secs,
        ops,
        mops: ops as f64 / wall_secs.max(1e-9) / 1e6,
    }
}

/// Times each simulator hot path in isolation with fixed-size loops.
fn run_components() -> Vec<ComponentSample> {
    let mut out = Vec::new();

    // Interpreter: predecoded dispatch over the scan kernel on a fed
    // stream (the per-instruction path, including streambuffer words).
    // A core halts once, so each rep rebuilds core and environment and
    // times only the run itself.
    let data = vec![0u8; 1 << 20];
    let mut wall_secs = f64::INFINITY;
    let mut retired = 0;
    for _ in 0..COMPONENT_REPS {
        let mut env = SyntheticEnv::new(8, 4096);
        env.set_input(0, &data);
        let mut core = Core::new(
            0,
            CoreConfig::assasin_sb(),
            scan::program(AccessStyle::Stream),
            None,
        );
        let t = Instant::now();
        core.run_to_halt(&mut env);
        wall_secs = wall_secs.min(t.elapsed().as_secs_f64());
        retired = core.mix().total;
    }
    out.push(ComponentSample {
        name: "interpreter",
        wall_secs,
        ops: retired,
        mops: retired as f64 / wall_secs.max(1e-9) / 1e6,
    });

    // Memory hierarchy: sequential single-line loads — mostly L1 hits on
    // the try_hit fast path with a DRAM-filled miss every 16 words.
    const HIER_OPS: u64 = 2_000_000;
    let mut h = MemHierarchy::new(
        HierarchyConfig::baseline(),
        Dram::lpddr5_8gbps().into_shared(),
    );
    out.push(component("hierarchy", HIER_OPS, || {
        let mut t = SimTime::ZERO;
        for i in 0..HIER_OPS {
            t += SimDur::from_ns(2);
            std::hint::black_box(h.access(AccessKind::Load, 0, i * 4, 4, t));
        }
    }));

    // Flash: page reads walking the array (timeline scheduling per read).
    const FLASH_OPS: u64 = 200_000;
    let geom = FlashGeometry::default();
    let mut arr = FlashArray::new(geom, FlashTiming::default());
    let addr = PhysPageAddr {
        channel: 0,
        chip: 0,
        plane: 0,
        block: 0,
        page: 0,
    };
    arr.write_page(addr, Bytes::from(vec![0u8; 4096]), SimTime::ZERO)
        .expect("write page");
    out.push(component("flash", FLASH_OPS, || {
        let mut t = SimTime::ZERO;
        for _ in 0..FLASH_OPS {
            t += SimDur::from_us(5);
            std::hint::black_box(arr.read_page(addr, t).expect("read page").1);
        }
    }));

    // Streambuffer: sequential word reads through the head-page cursor.
    const SB_OPS: u64 = 2_000_000;
    let mut sb = StreamBuffer::new(StreamBufferConfig::default());
    let page = Bytes::from(vec![7u8; 4096]);
    sb.push_page(0, page.clone(), SimTime::ZERO).expect("push");
    out.push(component("streambuffer", SB_OPS, || {
        for _ in 0..SB_OPS {
            match sb.read(0, 4, SimTime::ZERO).expect("read") {
                ReadOutcome::Data { freed_pages, .. } => {
                    if freed_pages > 0 {
                        sb.push_page(0, page.clone(), SimTime::ZERO).expect("push");
                    }
                }
                _ => unreachable!("stream kept fed"),
            }
        }
    }));

    out
}

/// Devices in the array pass (and workers the threaded run requests).
const ARRAY_DEVICES: usize = 8;

/// One array-pass run: a striped store/read/scan-offload over
/// `ARRAY_DEVICES` devices plus a RAID6 rebuild storm. Returns the
/// transcript of every simulated observable (for the byte-identity
/// check) and the per-device offload throughput.
fn array_workload(
    scale: &Scale,
    exec: ArrayExec,
) -> (String, Vec<ArrayDeviceSample>, usize, usize) {
    let device = assasin_ssd::SsdConfig::engine_config(assasin_core::EngineKind::AssasinSb);
    let data: Vec<u8> = (0..scale.scalability_bytes)
        .map(|i| {
            ((i as u64)
                .wrapping_mul(0x9E37_79B9)
                .wrapping_add(scale.seed)
                >> 8) as u8
        })
        .collect();

    let mut transcript = String::new();
    let mut a = SsdArray::new(
        ArrayConfig::new(ARRAY_DEVICES, ArrayPlacement::Striped, device).with_exec(exec),
    )
    .expect("striped array");
    let (requested, effective) = (a.requested_workers(), a.effective_workers());
    transcript += &format!("store {:?}\n", a.store_object(1, &data).expect("store"));
    let read = a.read_object(1).expect("read");
    transcript += &format!(
        "read {} {:?} {:?}\n",
        read.data.len(),
        read.elapsed,
        read.link
    );
    let scomp = a.scomp_object(1, bundles::scan_bundle).expect("scomp");
    transcript += &format!("scomp {scomp:?}\n");
    let per_device = scomp
        .per_device
        .iter()
        .map(|l| ArrayDeviceSample {
            device: l.device,
            simulated_gbps: l.simulated_gbps,
        })
        .collect();
    transcript += &format!("stats {:?}\n", a.stats());

    let mut r6 = SsdArray::new(ArrayConfig::new(5, ArrayPlacement::Raid6, device).with_exec(exec))
        .expect("raid6 array");
    for i in 0..4u64 {
        let part: Vec<u8> = (0..scale.scalability_bytes / 4)
            .map(|b| ((b as u64).wrapping_mul(0x9E37_79B9).wrapping_add(i) >> 8) as u8)
            .collect();
        r6.store_object(i + 1, &part).expect("store quarter");
    }
    r6.fail_device(1);
    transcript += &format!(
        "degraded {:?}\n",
        r6.read_object(1).expect("degraded").elapsed
    );
    transcript += &format!("rebuild {:?}\n", r6.rebuild_device(1).expect("rebuild"));
    transcript += &format!("stats {:?}\n", r6.stats());
    (transcript, per_device, requested, effective)
}

/// Runs the array workload serially and threaded, compares the reports
/// byte-for-byte, and snapshots the array counters around one run.
fn run_array_pass(scale: &Scale) -> ArrayPass {
    let c0 = array_counters();
    let t = Instant::now();
    let (serial_report, per_device, _, _) = array_workload(scale, ArrayExec::Serial);
    let serial_wall_secs = t.elapsed().as_secs_f64();
    let c1 = array_counters();

    let t = Instant::now();
    let (threaded_report, _, requested_workers, effective_workers) = array_workload(
        scale,
        ArrayExec::Threaded {
            workers: ARRAY_DEVICES,
        },
    );
    let threaded_wall_secs = t.elapsed().as_secs_f64();

    let reports_identical = serial_report == threaded_report;
    assert!(
        reports_identical,
        "array determinism contract violated: threaded report differs from serial"
    );
    ArrayPass {
        devices: ARRAY_DEVICES,
        requested_workers,
        effective_workers,
        serial_wall_secs,
        threaded_wall_secs,
        wall_speedup: serial_wall_secs / threaded_wall_secs.max(1e-9),
        reports_identical,
        merged_events: c1.1 - c0.1,
        link_stall_secs: (c1.2 - c0.2) as f64 / 1e12,
        rebuild_bytes: c1.3 - c0.3,
        per_device,
    }
}

/// Runs the serving experiment once with the process-wide serving
/// counters snapshotted around it and keeps the per-tenant SLO rows of
/// the heaviest load point.
fn run_serving_pass(scale: &Scale) -> ServingPass {
    let c0 = serve_counters();
    let t = Instant::now();
    let r = fig_serving::run(scale);
    let wall_secs = t.elapsed().as_secs_f64();
    let c1 = serve_counters();
    let saturated = r.load_curve.last().expect("load curve is non-empty");
    ServingPass {
        wall_secs,
        submissions: c1.0 - c0.0,
        admitted: c1.1 - c0.1,
        rejected: c1.2 - c0.2,
        completed: c1.3 - c0.3,
        executions: c1.4 - c0.4,
        memo_hits: c1.5 - c0.5,
        saturated_offered_x: saturated.offered_x,
        tenants: saturated.tenants.clone(),
    }
}

fn main() {
    let scale = Scale::test_scale();
    let parallel_threads = assasin_parallel::current_max_threads();

    // The serial pass feeds the perf gate, so it repeats the whole suite
    // and keeps each experiment's fastest rep — the suite is
    // deterministic, so only the wall clock differs.
    let mut serial: Vec<ExperimentSample> = Vec::new();
    let mut serial_total_secs = f64::INFINITY;
    for _ in 0..SERIAL_REPS {
        let t = Instant::now();
        let rep = assasin_parallel::with_max_threads(1, || run_suite(&scale));
        serial_total_secs = serial_total_secs.min(t.elapsed().as_secs_f64());
        if serial.is_empty() {
            serial = rep;
        } else {
            for (best, s) in serial.iter_mut().zip(rep) {
                best.wall_secs = best.wall_secs.min(s.wall_secs);
            }
        }
    }

    let t = Instant::now();
    let parallel = assasin_parallel::with_max_threads(parallel_threads, || run_suite(&scale));
    let parallel_total_secs = t.elapsed().as_secs_f64();

    let components = run_components();
    let array = run_array_pass(&scale);
    let serving = run_serving_pass(&scale);

    let report = PerfSmokeReport {
        scale: "test",
        serial_threads: 1,
        parallel_threads,
        serial,
        parallel,
        serial_total_secs,
        parallel_total_secs,
        speedup: serial_total_secs / parallel_total_secs.max(1e-9),
        components,
        array,
        serving,
    };
    let json = serde_json::to_string_pretty(&report).expect("serialize");
    std::fs::write("BENCH_perf_smoke.json", &json).expect("write BENCH_perf_smoke.json");
    println!("{json}");
    eprintln!(
        "perf_smoke: serial {:.2}s (1 thread), parallel {:.2}s ({} threads) -> {:.2}x",
        report.serial_total_secs,
        report.parallel_total_secs,
        report.parallel_threads,
        report.speedup
    );
    let (forks, shared): (u64, u64) = report
        .serial
        .iter()
        .fold((0, 0), |(f, p), s| (f + s.forks, p + s.fork_pages_shared));
    eprintln!(
        "perf_smoke: serial pass took {forks} CoW forks sharing {shared} flash pages by reference"
    );
    for c in &report.components {
        eprintln!(
            "perf_smoke component: {:>12} {:>10} ops in {:.3}s ({:.1} Mops/s)",
            c.name, c.ops, c.wall_secs, c.mops
        );
    }
    let a = &report.array;
    eprintln!(
        "perf_smoke array: {} devices, serial {:.2}s vs threaded {:.2}s \
         ({} of {} workers granted) -> {:.2}x, reports identical: {}, \
         {} merged events, {:.3}ms root stall, {} rebuild bytes",
        a.devices,
        a.serial_wall_secs,
        a.threaded_wall_secs,
        a.effective_workers,
        a.requested_workers,
        a.wall_speedup,
        a.reports_identical,
        a.merged_events,
        a.link_stall_secs * 1e3,
        a.rebuild_bytes
    );
    let s = &report.serving;
    eprintln!(
        "perf_smoke serving: {} submitted, {} admitted, {} rejected, \
         {} completed off {} device executions ({} memo hits); \
         saturated point ({:.1}x offered):",
        s.submissions,
        s.admitted,
        s.rejected,
        s.completed,
        s.executions,
        s.memo_hits,
        s.saturated_offered_x
    );
    for t in &s.tenants {
        eprintln!(
            "perf_smoke serving tenant {:>8}: {}/{} completed, {} rejected, \
             {} SLO violations, p99 {}",
            t.name,
            t.completed,
            t.submitted,
            t.rejected,
            t.slo_violations,
            t.p99_us.map_or("n/a".to_string(), |v| format!("{v:.1} us")),
        );
    }
}
