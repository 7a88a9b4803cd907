//! Criterion micro-benchmarks of the simulator's hot paths.
//!
//! The paper-figure *results* are regenerated by the `fig*`/`table*`
//! binaries (see DESIGN.md); these benches track the performance of the
//! reproduction itself — cache model, streambuffer, interpreter, flash
//! scheduling and an end-to-end `scomp` — so regressions in simulation
//! speed are caught.

use assasin_array::{ArrayConfig, ArrayExec, ArrayPlacement, SsdArray};
use assasin_bench::bundles;
use assasin_bench::runner::{offload, ssd_with};
use assasin_core::{Core, CoreConfig, EngineKind, SyntheticEnv};
use assasin_flash::{FlashArray, FlashGeometry, FlashTiming};
use assasin_kernels::{query, scan, AccessStyle};
use assasin_mem::{
    AccessKind, Cache, CacheGeometry, Dram, HierarchyConfig, MemHierarchy, ReadOutcome,
    StreamBuffer, StreamBufferConfig,
};
use assasin_sim::SimTime;
use bytes::Bytes;
use criterion::{criterion_group, criterion_main, Criterion, Throughput};

fn bench_cache(c: &mut Criterion) {
    let mut g = c.benchmark_group("cache");
    g.throughput(Throughput::Elements(1));
    g.bench_function("l1_hit", |b| {
        let mut cache = Cache::new(CacheGeometry::L1D);
        cache.access(0x1000, false);
        b.iter(|| std::hint::black_box(cache.access(0x1000, false)))
    });
    g.bench_function("streaming_miss", |b| {
        let mut cache = Cache::new(CacheGeometry::L1D);
        let mut addr = 0u64;
        b.iter(|| {
            addr += 64;
            std::hint::black_box(cache.access(addr, false))
        })
    });
    g.finish();
}

fn bench_hierarchy(c: &mut Criterion) {
    let mut g = c.benchmark_group("hierarchy");
    g.throughput(Throughput::Elements(1));
    // Repeated same-line loads ride the try_hit/MRU-way fast path.
    g.bench_function("l1_hit_fast_path", |b| {
        let mut h = MemHierarchy::new(
            HierarchyConfig::baseline(),
            Dram::lpddr5_8gbps().into_shared(),
        );
        h.access(AccessKind::Load, 0, 0x1000, 4, SimTime::ZERO);
        let mut t = SimTime::ZERO;
        b.iter(|| {
            t += assasin_sim::SimDur::from_ns(1);
            std::hint::black_box(h.access(AccessKind::Load, 0, 0x1000, 4, t))
        })
    });
    // A 64 KiB sequential loop: overflows the 32 KiB L1 but lives in L2.
    g.bench_function("l2_hit", |b| {
        let mut h = MemHierarchy::new(
            HierarchyConfig::baseline(),
            Dram::lpddr5_8gbps().into_shared(),
        );
        let span = 64 * 1024u64;
        for line in (0..span).step_by(64) {
            h.access(AccessKind::Load, 0, line, 4, SimTime::ZERO);
        }
        let mut addr = 0u64;
        let mut t = SimTime::ZERO;
        b.iter(|| {
            addr = (addr + 64) % span;
            t += assasin_sim::SimDur::from_ns(1);
            std::hint::black_box(h.access(AccessKind::Load, 0, addr, 4, t))
        })
    });
    // Fresh lines forever: every access is an L1+L2 miss filled from DRAM.
    g.bench_function("dram_streaming_miss", |b| {
        let mut h = MemHierarchy::new(
            HierarchyConfig::baseline(),
            Dram::lpddr5_8gbps().into_shared(),
        );
        let mut addr = 0u64;
        let mut t = SimTime::ZERO;
        b.iter(|| {
            addr += 64;
            t += assasin_sim::SimDur::from_ns(20);
            std::hint::black_box(h.access(AccessKind::Load, 0, addr, 4, t))
        })
    });
    g.finish();
}

fn bench_streambuffer(c: &mut Criterion) {
    let mut g = c.benchmark_group("streambuffer");
    g.throughput(Throughput::Bytes(4));
    g.bench_function("read4", |b| {
        let mut sb = StreamBuffer::new(StreamBufferConfig::default());
        let page = Bytes::from(vec![7u8; 4096]);
        sb.push_page(0, page.clone(), SimTime::ZERO).unwrap();
        b.iter(|| {
            match sb.read(0, 4, SimTime::ZERO).unwrap() {
                ReadOutcome::Data { freed_pages, .. } => {
                    if freed_pages > 0 {
                        sb.push_page(0, page.clone(), SimTime::ZERO).unwrap();
                    }
                }
                _ => unreachable!("stream kept fed"),
            };
        })
    });
    // Sequential word writes ride the head-page append fast path; the
    // completed page is dropped so the buffer never fills.
    g.bench_function("write4", |b| {
        let mut sb = StreamBuffer::new(StreamBufferConfig::default());
        b.iter(|| {
            let out = sb.write(0, 4, 0xDEAD_BEEF, SimTime::ZERO).unwrap();
            std::hint::black_box(out.completed_page);
        })
    });
    g.finish();
}

fn bench_interpreter(c: &mut Criterion) {
    let mut g = c.benchmark_group("interpreter");
    let data = vec![0u8; 256 * 1024];
    g.throughput(Throughput::Bytes(data.len() as u64));
    g.bench_function("scan_stream_256k", |b| {
        b.iter(|| {
            let mut env = SyntheticEnv::new(8, 4096);
            env.set_input(0, &data);
            let mut core = Core::new(
                0,
                CoreConfig::assasin_sb(),
                scan::program(AccessStyle::Stream),
                None,
            );
            core.run_to_halt(&mut env);
            std::hint::black_box(core.cycles())
        })
    });
    let csv: Vec<u8> = (0..2000u32)
        .flat_map(|i| format!("{i}|{}|{}\n", i * 3 % 97, i * 7 % 1000).into_bytes())
        .collect();
    g.throughput(Throughput::Bytes(csv.len() as u64));
    g.bench_function("parse_stream", |b| {
        b.iter(|| {
            let mut env = SyntheticEnv::new(8, 4096);
            env.set_input(0, &csv);
            let mut core = Core::new(
                0,
                CoreConfig::assasin_sb(),
                query::parse_program(AccessStyle::Stream),
                None,
            );
            core.run_to_halt(&mut env);
            std::hint::black_box(core.cycles())
        })
    });
    g.finish();
}

fn bench_timeline(c: &mut Criterion) {
    use assasin_sim::{SimDur, Timeline};
    let mut g = c.benchmark_group("timeline");
    g.throughput(Throughput::Elements(1));
    // The common case: requests arrive in time order and land at the tail.
    g.bench_function("acquire_append", |b| {
        let mut tl = Timeline::new("bench");
        let mut t = 0u64;
        b.iter(|| {
            t += 100_000;
            std::hint::black_box(tl.acquire(SimTime::from_ps(t), SimDur::from_ps(50_000)))
        })
    });
    // Laggards that must backfill gaps before the cursor (earliest-fit scan).
    g.bench_function("acquire_backfill", |b| {
        let mut tl = Timeline::new("bench");
        let mut t = 0u64;
        b.iter(|| {
            t += 200_000;
            tl.acquire(SimTime::from_ps(t), SimDur::from_ps(50_000));
            let lag = t.saturating_sub(2_000_000);
            std::hint::black_box(tl.acquire(SimTime::from_ps(lag), SimDur::from_ps(25_000)))
        })
    });
    g.finish();
}

fn bench_flash(c: &mut Criterion) {
    let mut g = c.benchmark_group("flash");
    g.throughput(Throughput::Elements(1));
    g.bench_function("page_read", |b| {
        let geom = FlashGeometry::default();
        let mut arr = FlashArray::new(geom, FlashTiming::default());
        let addr = assasin_flash::PhysPageAddr {
            channel: 0,
            chip: 0,
            plane: 0,
            block: 0,
            page: 0,
        };
        arr.write_page(addr, Bytes::from(vec![0u8; 4096]), SimTime::ZERO)
            .unwrap();
        let mut t = SimTime::ZERO;
        b.iter(|| {
            t += assasin_sim::SimDur::from_us(5);
            std::hint::black_box(arr.read_page(addr, t).unwrap().1)
        })
    });
    // Four chips on one channel issued back-to-back: senses overlap, the
    // transfers serialize on the shared bus (the Timeline arbitration path).
    g.bench_function("channel_contended_read", |b| {
        let geom = FlashGeometry::default();
        let mut arr = FlashArray::new(geom, FlashTiming::default());
        let addrs: Vec<_> = (0..4)
            .map(|chip| assasin_flash::PhysPageAddr {
                channel: 0,
                chip,
                plane: 0,
                block: 0,
                page: 0,
            })
            .collect();
        for &a in &addrs {
            arr.write_page(a, Bytes::from(vec![0u8; 4096]), SimTime::ZERO)
                .unwrap();
        }
        let mut t = SimTime::ZERO;
        b.iter(|| {
            t += assasin_sim::SimDur::from_us(40);
            for &a in &addrs {
                std::hint::black_box(arr.read_page(a, t).unwrap().1);
            }
        })
    });
    // Write-path mix: program a block's worth of pages, erase, repeat —
    // exercises the chip store's allocate/occupy/erase cycle end to end.
    g.bench_function("program_erase_mix", |b| {
        let geom = FlashGeometry::default();
        let mut arr = FlashArray::new(geom, FlashTiming::default());
        let page = Bytes::from(vec![3u8; 4096]);
        let mut t = SimTime::ZERO;
        b.iter(|| {
            t += assasin_sim::SimDur::from_ms(2);
            for p in 0..8 {
                let a = assasin_flash::PhysPageAddr {
                    channel: 1,
                    chip: 0,
                    plane: 0,
                    block: 7,
                    page: p,
                };
                arr.write_page(a, page.clone(), t).unwrap();
            }
            std::hint::black_box(arr.erase_block(1, 0, 0, 7, t).unwrap());
        })
    });
    g.finish();
}

fn bench_scomp(c: &mut Criterion) {
    let mut g = c.benchmark_group("scomp");
    g.sample_size(10);
    let data = vec![vec![5u8; 1 << 20]];
    g.throughput(Throughput::Bytes(1 << 20));
    g.bench_function("scan_1mib_assasin_sb", |b| {
        b.iter(|| {
            let mut ssd = ssd_with(EngineKind::AssasinSb, 8, false, false);
            let r = offload(&mut ssd, bundles::scan_bundle(), &data).unwrap();
            std::hint::black_box(r.throughput_gbps())
        })
    });
    g.bench_function("scan_1mib_baseline", |b| {
        b.iter(|| {
            let mut ssd = ssd_with(EngineKind::Baseline, 8, false, false);
            let r = offload(&mut ssd, bundles::scan_bundle(), &data).unwrap();
            std::hint::black_box(r.throughput_gbps())
        })
    });
    g.finish();
}

// Whole-device snapshot/fork path (DESIGN.md §14): how fast a
// preconditioned 1 MiB image serializes, deserializes, and forks. The
// fork is the sweep-harness hot path — it should be orders of magnitude
// cheaper than the save/restore round-trip because flash pages are
// shared copy-on-write rather than re-encoded.
fn bench_snapshot(c: &mut Criterion) {
    use assasin_ssd::Ssd;
    let mut g = c.benchmark_group("snapshot");
    let data = vec![5u8; 1 << 20];
    let mut ssd = ssd_with(EngineKind::AssasinSb, 8, false, false);
    ssd.load_object(0, &data).expect("dataset fits");
    let cfg = *ssd.config();
    let snap = ssd.save_state();
    g.throughput(Throughput::Bytes(snap.len() as u64));
    g.bench_function("save_1mib", |b| {
        b.iter(|| std::hint::black_box(ssd.save_state()))
    });
    g.bench_function("restore_1mib", |b| {
        b.iter(|| std::hint::black_box(Ssd::restore_state(cfg, &snap).expect("restore")))
    });
    let image = ssd.into_image();
    g.bench_function("fork_1mib", |b| {
        b.iter(|| std::hint::black_box(image.fork(cfg)))
    });
    g.finish();
}

// Multi-device array paths (DESIGN.md §15): a striped read fanned over
// four devices, a RAID4 rebuild storm, and the same striped read with
// the shared root link throttled so every lane queues on it. All three
// run the serial engine — this group tracks the per-op host-side cost
// (planning, merge, recovery math), not thread scaling.
fn bench_array(c: &mut Criterion) {
    use assasin_core::EngineKind as Ek;
    let mut g = c.benchmark_group("array");
    g.sample_size(10);
    let device = assasin_ssd::SsdConfig::small_for_tests(Ek::AssasinSb);
    let data = vec![5u8; 512 * 1024];
    g.throughput(Throughput::Bytes(data.len() as u64));
    g.bench_function("striped_read_4dev", |b| {
        let mut a = SsdArray::new(
            ArrayConfig::new(4, ArrayPlacement::Striped, device).with_exec(ArrayExec::Serial),
        )
        .expect("array");
        a.store_object(1, &data).expect("store");
        b.iter(|| std::hint::black_box(a.read_object(1).expect("read").elapsed))
    });
    g.bench_function("contended_root_read_4dev", |b| {
        // A root at a fraction of one lane's bandwidth: every completion
        // queues, exercising the merge + FIFO root-charge path.
        let mut a = SsdArray::new(
            ArrayConfig::new(4, ArrayPlacement::Striped, device)
                .with_root_bw(1.0e9)
                .with_exec(ArrayExec::Serial),
        )
        .expect("array");
        a.store_object(1, &data).expect("store");
        b.iter(|| std::hint::black_box(a.read_object(1).expect("read").link.stalled))
    });
    g.bench_function("raid4_rebuild_4dev", |b| {
        let mut a = SsdArray::new(
            ArrayConfig::new(4, ArrayPlacement::Raid4, device).with_exec(ArrayExec::Serial),
        )
        .expect("array");
        a.store_object(1, &data).expect("store");
        b.iter(|| {
            a.fail_device(0);
            std::hint::black_box(a.rebuild_device(0).expect("rebuild").bytes_written)
        })
    });
    g.finish();
}

criterion_group!(
    benches,
    bench_cache,
    bench_hierarchy,
    bench_streambuffer,
    bench_interpreter,
    bench_timeline,
    bench_flash,
    bench_scomp,
    bench_snapshot,
    bench_array
);
criterion_main!(benches);
