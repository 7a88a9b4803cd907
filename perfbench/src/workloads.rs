//! The four workloads. Each is a set-up that builds inputs from the seed
//! and a fixed list of requests made through the crates' public APIs.
//! A layer that does most of its work in one workload does little in
//! another; README.md maps layers to workloads.

use crate::measure::{add, Counts, Outcome, Request, Setup};
use crate::trace::span;
use assasin_analytics::{
    queries, Executor, HostCpuModel, HostScanProvider, Pred, Relation, ScanOutcome, ScanProvider,
};
use assasin_array::{ArrayConfig, ArrayExec, ArrayPlacement, SsdArray};
use assasin_bench::bundles;
use assasin_bench::provider::{LoadedTables, SsdScanProvider};
use assasin_core::EngineKind;
use assasin_ftl::{FtlStats, Lpa};
use assasin_kernels::query::{psf_golden, PsfParams};
use assasin_kernels::{aes, raid, replicate};
use assasin_serve::{
    serve, ArrivalModel, Instance, ServeConfig, ServeError, ServiceProfile, SsdInstance, TenantSpec,
};
use assasin_sim::SimDur;
use assasin_ssd::{KernelBundle, ScompRequest, ScompResult, Ssd, SsdConfig, SsdImage};
use assasin_workloads::{lineitem_cols, TableId, TpchGen};
use std::cell::RefCell;
use std::collections::HashMap;
use std::rc::Rc;

/// Workload names, in the order BENCHMARK.json lists them.
pub const NAMES: [&str; 4] = ["stream_read", "tpch_dram", "write_rebuild", "serve_mix"];

/// Builds the named workload's set-up for `seed`.
pub fn setup(name: &str, seed: u64) -> Result<Setup, String> {
    match name {
        "stream_read" => stream_read(seed),
        "tpch_dram" => tpch_dram(seed),
        "write_rebuild" => write_rebuild(seed),
        "serve_mix" => serve_mix(seed),
        other => Err(format!("unknown workload {other:?}")),
    }
}

// ---------------------------------------------------------------- inputs

/// SplitMix64: a tiny seeded generator for input bytes.
fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// `n` seeded pseudo-random bytes.
pub fn bytes(n: usize, seed: u64) -> Vec<u8> {
    let mut s = seed;
    let mut out = Vec::with_capacity(n + 8);
    while out.len() < n {
        out.extend_from_slice(&splitmix(&mut s).to_le_bytes());
    }
    out.truncate(n);
    out
}

/// `base` plus a seed-chosen 0..8 steps of 1/1024 of it (rounded to 64
/// bytes, a multiple of every kernel's tuple), so that sizes, and with
/// them simulated figures, vary with the seed by under 1%.
fn sized(base: usize, seed: u64, salt: u64) -> usize {
    let mut s = seed ^ salt.wrapping_mul(0xA24B_AED4_963E_E407);
    base + (splitmix(&mut s) % 8) as usize * (base / 1024 / 64 * 64)
}

fn gen_inputs<T>(f: impl FnOnce() -> T) -> T {
    span("workloads.gen", f)
}

fn err(e: impl std::fmt::Display) -> String {
    e.to_string()
}

fn add_ftl(c: &mut Counts, s: &FtlStats) {
    add(c, "ftl.host_writes", s.host_writes as f64);
    add(c, "ftl.gc_relocations", s.gc_relocations as f64);
    add(c, "ftl.erases", s.erases as f64);
}

fn ftl_delta(after: &FtlStats, before: &FtlStats) -> FtlStats {
    FtlStats {
        host_writes: after.host_writes - before.host_writes,
        gc_relocations: after.gc_relocations - before.gc_relocations,
        erases: after.erases - before.erases,
        ..FtlStats::default()
    }
}

/// Counts one `scomp` result into the core, memory, flash and ssd layers.
fn count_scomp(c: &mut Counts, channels: &mut Vec<u64>, r: &ScompResult) {
    let b = r.total_breakdown();
    add(
        c,
        "core.instructions",
        r.per_core.iter().map(|p| p.mix.total).sum::<u64>() as f64,
    );
    add(
        c,
        "core.cycles",
        r.per_core.iter().map(|p| p.cycles).sum::<u64>() as f64,
    );
    add(c, "core.busy_cycles", b.busy as f64);
    add(c, "core.stall_stream", b.stall_stream as f64);
    add(c, "core.stall_scratchpad", b.stall_scratchpad as f64);
    add(c, "core.stall_swap", b.stall_swap as f64);
    add(c, "mem.stall_l1", b.stall_l1 as f64);
    add(c, "mem.stall_l2", b.stall_l2 as f64);
    add(c, "mem.stall_dram", b.stall_dram as f64);
    add(c, "mem.dram_bytes", r.dram_traffic as f64);
    add(
        c,
        "flash.bytes_read",
        r.channel_bytes.iter().sum::<u64>() as f64,
    );
    add(
        c,
        "flash.channel_busy_s",
        r.channel_busy.iter().map(|d| d.as_secs_f64()).sum(),
    );
    add(c, "ssd.requests", 1.0);
    add(c, "ssd.bytes_in", r.bytes_in as f64);
    add(c, "ssd.bytes_out", r.bytes_out as f64);
    if channels.len() < r.channel_bytes.len() {
        channels.resize(r.channel_bytes.len(), 0);
    }
    for (t, b) in channels.iter_mut().zip(&r.channel_bytes) {
        *t += b;
    }
}

/// Loads `streams` onto a fresh device at LPA bases `i << 20` and
/// detaches the preconditioned image.
fn precondition(
    cfg: SsdConfig,
    streams: &[Vec<u8>],
    counts: &mut Counts,
) -> Result<(SsdImage, Vec<Vec<Lpa>>), String> {
    let mut ssd = Ssd::new(cfg);
    let mut lpas = Vec::with_capacity(streams.len());
    for (i, data) in streams.iter().enumerate() {
        lpas.push(
            span("ssd.load_object", || {
                ssd.load_object((i as u64) << 20, data)
            })
            .map_err(err)?,
        );
    }
    add_ftl(counts, &ssd.ftl_stats());
    Ok((span("snap.into_image", || ssd.into_image()), lpas))
}

fn sb_config() -> SsdConfig {
    SsdConfig::engine_config(EngineKind::AssasinSb)
}

// ------------------------------------------------------- single scomp

enum Golden {
    Stat,
    Raid6,
    Aes,
    Psf(PsfParams),
    Replicate,
}

/// One `scomp` forked from a preconditioned image, as sweeps do it.
struct ScompReq {
    name: &'static str,
    image: SsdImage,
    cfg: SsdConfig,
    lpas: Vec<Vec<Lpa>>,
    inputs: Vec<Vec<u8>>,
    bundle: Box<dyn Fn() -> KernelBundle>,
    flash_out: Option<u64>,
    golden: Golden,
}

impl ScompReq {
    fn new(
        name: &'static str,
        inputs: Vec<Vec<u8>>,
        bundle: impl Fn() -> KernelBundle + 'static,
        golden: Golden,
        counts: &mut Counts,
    ) -> Result<ScompReq, String> {
        let cfg = sb_config();
        let (image, lpas) = precondition(cfg, &inputs, counts)?;
        Ok(ScompReq {
            name,
            image,
            cfg,
            lpas,
            inputs,
            bundle: Box::new(bundle),
            flash_out: None,
            golden,
        })
    }
}

impl Request for ScompReq {
    fn name(&self) -> &str {
        self.name
    }

    fn run(&mut self) -> Result<Outcome, String> {
        let mut ssd = span("snap.fork", || self.image.fork(self.cfg));
        let lengths = self.inputs.iter().map(|d| d.len() as u64).collect();
        let mut req =
            ScompRequest::new((self.bundle)(), self.lpas.clone()).with_stream_bytes(lengths);
        if let Some(first) = self.flash_out {
            req = req.with_flash_output(first);
        }
        let before = ssd.ftl_stats();
        let r = span("ssd.scomp", || ssd.scomp(&req)).map_err(err)?;
        let mut out = Outcome {
            sim_ps: vec![r.elapsed.as_ps()],
            ..Outcome::default()
        };
        out.output = match self.flash_out {
            None => r.concat_output(),
            // Write path: read the results back from flash.
            Some(_) => span("ssd.peek_bytes", || {
                let mut stored = Vec::new();
                for (lpas, o) in r.output_lpas.iter().zip(&r.outputs) {
                    stored.extend(ssd.peek_bytes(lpas, o.len() as u64)?);
                }
                Ok::<_, assasin_ssd::SsdError>(stored)
            })
            .map_err(err)?,
        };
        count_scomp(&mut out.counts, &mut out.channel_bytes, &r);
        add_ftl(&mut out.counts, &ftl_delta(&ssd.ftl_stats(), &before));
        Ok(out)
    }

    fn verify(&mut self, out: &mut Outcome, _count: bool) -> Result<(), String> {
        let input_bytes: usize = self.inputs.iter().map(Vec::len).sum();
        if out.counts.get("ssd.bytes_in").copied() != Some(input_bytes as f64) {
            return Err(format!(
                "{}: consumed bytes differ from the input",
                self.name
            ));
        }
        let expect = match &self.golden {
            // stat's sum stays in a core register that `ScompResult` does
            // not expose; it streams no output, so check exactly that.
            Golden::Stat => Vec::new(),
            Golden::Raid6 => {
                let refs: Vec<&[u8]> = self.inputs.iter().map(Vec::as_slice).collect();
                raid::raid6_golden(&refs)
            }
            Golden::Aes => aes::golden(&bundles::AES_KEY, &self.inputs[0]),
            Golden::Psf(p) => psf_golden(&self.inputs[0], p),
            Golden::Replicate => replicate::golden(&self.inputs[0]),
        };
        if out.output == expect {
            Ok(())
        } else {
            Err(format!(
                "{}: output differs from the golden model",
                self.name
            ))
        }
    }
}

// ---------------------------------------------------------- stream_read

const STAT_BYTES: usize = 4 << 20;
const RAID6_STREAM_BYTES: usize = 512 << 10;
const AES_BYTES: usize = 256 << 10;
const PSF_SF: f64 = 0.004;

fn lineitem_psf() -> PsfParams {
    PsfParams {
        fields: TableId::Lineitem.width() as u32,
        pred_field: lineitem_cols::SHIPDATE,
        lo: 365,
        hi: 1095,
        keep: vec![0, lineitem_cols::EXTENDEDPRICE, lineitem_cols::DISCOUNT],
    }
}

/// AssasinSb read-path `scomp`s of stat, raid6, aes128 and psf.
fn stream_read(seed: u64) -> Result<Setup, String> {
    let (stat, raid6, aes_in, csv) = gen_inputs(|| {
        let stat = bytes(sized(STAT_BYTES, seed, 1), seed ^ 1);
        let n = sized(RAID6_STREAM_BYTES, seed, 2);
        let raid6: Vec<Vec<u8>> = (0..4).map(|s| bytes(n, seed ^ (10 + s))).collect();
        let aes_in = bytes(sized(AES_BYTES, seed, 3), seed ^ 3);
        let csv = TpchGen::new(PSF_SF, seed).table(TableId::Lineitem).to_csv();
        (stat, raid6, aes_in, csv)
    });
    let mut counts = Counts::new();
    let requests: Vec<Box<dyn Request>> = vec![
        Box::new(ScompReq::new(
            "stat",
            vec![stat],
            bundles::stat_bundle,
            Golden::Stat,
            &mut counts,
        )?),
        Box::new(ScompReq::new(
            "raid6",
            raid6,
            bundles::raid6_bundle,
            Golden::Raid6,
            &mut counts,
        )?),
        Box::new(ScompReq::new(
            "aes128",
            vec![aes_in],
            bundles::aes_bundle,
            Golden::Aes,
            &mut counts,
        )?),
        Box::new(ScompReq::new(
            "psf",
            vec![csv],
            || bundles::psf_bundle(lineitem_psf()),
            Golden::Psf(lineitem_psf()),
            &mut counts,
        )?),
    ];
    Ok(Setup { requests, counts })
}

// ------------------------------------------------------------ tpch_dram

const TPCH_SF: f64 = 0.005;

/// A scan the executor asked for, kept to replay it for counts.
type ScanCall = (TableId, Vec<Pred>, Vec<u32>);

/// A table's pages and CSV length on the replay device.
type StoredTable = (Vec<Lpa>, u64);

/// Times every scan the executor makes and remembers its arguments.
pub struct TracedScan<P> {
    inner: P,
    pub calls: Vec<ScanCall>,
}

impl<P> TracedScan<P> {
    pub fn new(inner: P) -> Self {
        TracedScan {
            inner,
            calls: Vec::new(),
        }
    }
}

impl<P: ScanProvider> ScanProvider for TracedScan<P> {
    fn scan(&mut self, table: TableId, preds: &[Pred], project: &[u32]) -> ScanOutcome {
        self.calls.push((table, preds.to_vec(), project.to_vec()));
        span("analytics.scan", || self.inner.scan(table, preds, project))
    }
}

/// The dataset as the benchmark itself loads it through public calls:
/// the golden host provider and, for counts, a device image laid out as
/// `LoadedTables` lays it out (table `i` of `TableId::ALL` at LPA `i << 20`).
struct TpchShared {
    gen: TpchGen,
    golden: Option<HostScanProvider>,
    shadow: Option<(SsdImage, HashMap<TableId, StoredTable>)>,
}

impl TpchShared {
    fn golden(&mut self) -> &mut HostScanProvider {
        let gen = self.gen;
        self.golden.get_or_insert_with(|| {
            let mut host = HostScanProvider::new();
            for id in TableId::ALL {
                host.add_table(gen.table(id));
            }
            host
        })
    }

    /// Replays the scans `SsdScanProvider` made, as raw PSF `scomp`s with
    /// the same push-down, to read the per-layer counts its `ScanOutcome`
    /// does not carry. The first replay also splits set-up host time into
    /// generation, loading and imaging (`LoadedTables::load` is one call).
    fn replay(&mut self, calls: &[ScanCall], out: &mut Outcome) -> Result<(), String> {
        if self.shadow.is_none() {
            let t = std::time::Instant::now();
            let csvs: Vec<Vec<u8>> = TableId::ALL
                .iter()
                .map(|&id| self.gen.table(id).to_csv())
                .collect();
            add(
                &mut out.counts,
                "workloads.gen_s",
                t.elapsed().as_secs_f64(),
            );
            let t = std::time::Instant::now();
            let mut ssd = Ssd::new(SsdConfig::engine_config(EngineKind::Baseline));
            let mut tables = HashMap::new();
            for (i, (id, csv)) in TableId::ALL.iter().zip(&csvs).enumerate() {
                let lpas = ssd.load_object((i as u64) << 20, csv).map_err(err)?;
                tables.insert(*id, (lpas, csv.len() as u64));
            }
            add(&mut out.counts, "ssd.load_s", t.elapsed().as_secs_f64());
            add_ftl(&mut out.counts, &ssd.ftl_stats());
            let t = std::time::Instant::now();
            let image = ssd.into_image();
            add(&mut out.counts, "snap.image_s", t.elapsed().as_secs_f64());
            self.shadow = Some((image, tables));
        }
        let (image, tables) = self.shadow.as_ref().expect("shadow image built above");
        for (table, preds, project) in calls {
            let (lpas, csv_len) = &tables[table];
            let (dev, residual) = match preds.split_first() {
                Some((d, r)) => (*d, r),
                None => (
                    Pred {
                        col: 0,
                        lo: 0,
                        hi: u32::MAX,
                    },
                    &[][..],
                ),
            };
            let mut keep = project.clone();
            for p in residual {
                if !keep.contains(&p.col) {
                    keep.push(p.col);
                }
            }
            let params = PsfParams {
                fields: table.width() as u32,
                pred_field: dev.col,
                lo: dev.lo,
                hi: dev.hi,
                keep,
            };
            let mut cfg = SsdConfig::engine_config(EngineKind::Baseline);
            cfg.n_cores = 8;
            let mut ssd = image.fork(cfg);
            let req = ScompRequest::new(bundles::psf_bundle(params), vec![lpas.clone()])
                .with_stream_bytes(vec![*csv_len]);
            let r = ssd.scomp(&req).map_err(err)?;
            count_scomp(&mut out.counts, &mut out.channel_bytes, &r);
        }
        Ok(())
    }
}

/// One TPC-H query on a Baseline-engine `SsdScanProvider` forked off the
/// loaded dataset.
struct TpchReq {
    name: String,
    query: u32,
    loaded: Rc<LoadedTables>,
    shared: Rc<RefCell<TpchShared>>,
    calls: Vec<ScanCall>,
}

fn relation_bytes(r: &Relation) -> Vec<u8> {
    let mut out = Vec::with_capacity(8 + r.rows() * r.arity() * 4);
    out.extend((r.arity() as u32).to_le_bytes());
    for row in r.iter() {
        for v in row {
            out.extend(v.to_le_bytes());
        }
    }
    out
}

impl Request for TpchReq {
    fn name(&self) -> &str {
        &self.name
    }

    fn run(&mut self) -> Result<Outcome, String> {
        let plan = queries::plan(self.query);
        let provider = span("snap.fork", || {
            SsdScanProvider::from_tables(EngineKind::Baseline, false, &self.loaded)
        });
        let mut traced = TracedScan::new(provider);
        let res = span("analytics.run", || {
            Executor::new(&mut traced, HostCpuModel::paper_host()).run(&plan)
        });
        self.calls = traced.calls;
        let mut out = Outcome {
            sim_ps: vec![res.total().as_ps()],
            output: relation_bytes(&res.relation),
            ..Outcome::default()
        };
        add(
            &mut out.counts,
            "analytics.bytes_from_storage",
            res.bytes_from_storage as f64,
        );
        Ok(out)
    }

    fn verify(&mut self, out: &mut Outcome, count: bool) -> Result<(), String> {
        let mut shared = self.shared.borrow_mut();
        let plan = queries::plan(self.query);
        let expect = Executor::new(shared.golden(), HostCpuModel::paper_host()).run(&plan);
        if relation_bytes(&expect.relation) != out.output {
            return Err(format!(
                "{}: relation differs from HostScanProvider",
                self.name
            ));
        }
        if count {
            shared.replay(&self.calls, out)?;
        }
        Ok(())
    }
}

/// The 22 TPC-H queries through `analytics::Executor` on a Baseline-engine
/// `SsdScanProvider`.
fn tpch_dram(seed: u64) -> Result<Setup, String> {
    let gen = TpchGen::new(TPCH_SF, seed);
    let loaded = Rc::new(span("bench.load_tables", || LoadedTables::load(&gen)).map_err(err)?);
    let shared = Rc::new(RefCell::new(TpchShared {
        gen,
        golden: None,
        shadow: None,
    }));
    let requests = queries::all_ids()
        .map(|q| {
            Box::new(TpchReq {
                name: format!("q{q:02}"),
                query: q,
                loaded: Rc::clone(&loaded),
                shared: Rc::clone(&shared),
                calls: Vec::new(),
            }) as Box<dyn Request>
        })
        .collect();
    Ok(Setup {
        requests,
        counts: Counts::new(),
    })
}

// -------------------------------------------------------- write_rebuild

const REPLICATE_BYTES: usize = 2 << 20;
const ARRAY_DEVICES: usize = 5;
const ARRAY_OBJECTS: u64 = 3;
const ARRAY_OBJECT_BYTES: usize = 2 << 20;
const FAILED_DEVICE: usize = 1;

/// Store, fail a device, read degraded, rebuild: one RAID6 array's life.
/// The array runs serially: on a shared 2-core host its threaded engine
/// measured three times the run-to-run spread, and the array's own tests
/// pin threaded runs to serial ones byte for byte.
struct ArrayReq {
    objects: Vec<Vec<u8>>,
}

impl Request for ArrayReq {
    fn name(&self) -> &str {
        "array_raid6"
    }

    fn run(&mut self) -> Result<Outcome, String> {
        let cfg = ArrayConfig::new(ARRAY_DEVICES, ArrayPlacement::Raid6, sb_config())
            .with_exec(ArrayExec::Serial);
        let mut a = span("array.new", || SsdArray::new(cfg)).map_err(err)?;
        for (id, data) in (1..).zip(&self.objects) {
            span("array.store_object", || a.store_object(id, data)).map_err(err)?;
        }
        span("array.fail_device", || a.fail_device(FAILED_DEVICE));
        let mut out = Outcome::default();
        for id in 1..=ARRAY_OBJECTS {
            let r = span("array.read_object", || a.read_object(id)).map_err(err)?;
            out.sim_ps.push(r.elapsed.as_ps());
            out.output.extend(r.data);
        }
        let rb = span("array.rebuild_device", || a.rebuild_device(FAILED_DEVICE)).map_err(err)?;
        out.sim_ps.push(rb.elapsed.as_ps());
        out.output
            .extend(format!("{} {} {}", rb.chunks, rb.bytes_read, rb.bytes_written).bytes());
        let s = a.stats();
        let c = &mut out.counts;
        add(c, "array.merged_events", s.merged_events as f64);
        add(c, "array.link_stalled_s", s.link_stalled.as_secs_f64());
        add(
            c,
            "array.degraded_chunk_reads",
            s.degraded_chunk_reads as f64,
        );
        add(
            c,
            "array.rebuild_bytes",
            (s.rebuild_bytes_read + s.rebuild_bytes_written) as f64,
        );
        let pages: u64 = s.devices.iter().map(|d| d.pages_written).sum();
        add(c, "ftl.host_writes", pages as f64);
        Ok(out)
    }

    fn verify(&mut self, out: &mut Outcome, _count: bool) -> Result<(), String> {
        let stored: usize = self.objects.iter().map(Vec::len).sum();
        if out.output.len() < stored || out.output[..stored] != self.objects.concat()[..] {
            return Err("degraded reads differ from the stored objects".into());
        }
        if out
            .counts
            .get("array.degraded_chunk_reads")
            .copied()
            .unwrap_or(0.0)
            == 0.0
        {
            return Err("no read was degraded after the failure".into());
        }
        Ok(())
    }
}

/// A write-path `replicate` plus a RAID6 array's store/fail/read/rebuild.
fn write_rebuild(seed: u64) -> Result<Setup, String> {
    let (repl, objects) = gen_inputs(|| {
        let repl = bytes(sized(REPLICATE_BYTES, seed, 4), seed ^ 4);
        let objects: Vec<Vec<u8>> = (0..ARRAY_OBJECTS)
            .map(|i| bytes(sized(ARRAY_OBJECT_BYTES, seed, 5 + i), seed ^ (50 + i)))
            .collect();
        (repl, objects)
    });
    let mut counts = Counts::new();
    let mut replicate = ScompReq::new(
        "replicate",
        vec![repl],
        bundles::replicate_bundle,
        Golden::Replicate,
        &mut counts,
    )?;
    replicate.flash_out = Some(1 << 21);
    let requests: Vec<Box<dyn Request>> = vec![Box::new(replicate), Box::new(ArrayReq { objects })];
    Ok(Setup { requests, counts })
}

// ------------------------------------------------------------ serve_mix

const SERVE_OBJECT_BYTES: usize = 16 << 10;
const SERVE_TENANTS: usize = 4;
const SERVE_QUEUE_DEPTH: usize = 16;
const SERVE_REQUESTS_PER_TENANT: u32 = 100_000;

/// A named bundle maker of the serving catalog.
type CatalogEntry = (&'static str, fn() -> KernelBundle);

/// Times every device execution the server makes.
pub struct TracedInstance<I> {
    inner: I,
}

impl<I: Instance> Instance for TracedInstance<I> {
    fn workload_count(&self) -> usize {
        self.inner.workload_count()
    }

    fn workload_name(&self, workload: usize) -> &str {
        self.inner.workload_name(workload)
    }

    fn execute(&mut self, workload: usize) -> Result<ServiceProfile, ServeError> {
        span("serve.execute", || self.inner.execute(workload))
    }
}

/// One `serve()` session at `load` times the device's capacity.
struct Session {
    name: &'static str,
    load: f64,
    saturated: bool,
    seed: u64,
    base: SimDur,
    catalog: usize,
    instance: Rc<RefCell<TracedInstance<SsdInstance>>>,
}

impl Session {
    fn config(&self) -> ServeConfig {
        let gap_ps = self.base.as_ps() as f64 * SERVE_TENANTS as f64 / self.load;
        let specs = (0..SERVE_TENANTS)
            .map(|i| {
                // Tenants differ in mix and weight so they are not
                // interchangeable.
                let mix = (0..self.catalog)
                    .map(|w| (w, if w == i % self.catalog { 3 } else { 1 }))
                    .collect();
                TenantSpec::new(
                    format!("tenant{i}"),
                    SERVE_QUEUE_DEPTH,
                    ArrivalModel::Open {
                        mean_gap: SimDur::from_ps(gap_ps as u64),
                        requests: SERVE_REQUESTS_PER_TENANT,
                    },
                )
                .with_mix(mix)
                .with_weight(1 + (i % 2) as u32)
                .with_slo(self.base * 5)
            })
            .collect();
        ServeConfig::new(self.seed, specs)
    }
}

impl Request for Session {
    fn name(&self) -> &str {
        self.name
    }

    fn run(&mut self) -> Result<Outcome, String> {
        let cfg = self.config();
        let mut inst = self.instance.borrow_mut();
        let rep = span("serve.serve", || serve(&mut *inst, &cfg)).map_err(err)?;
        let mut out = Outcome {
            sim_ps: vec![(rep.makespan_us * 1e6).round() as u64],
            output: format!("{rep:?}").into_bytes(),
            ..Outcome::default()
        };
        if self.saturated {
            let p99 = rep
                .tenants
                .iter()
                .filter_map(|t| t.p99_us)
                .fold(0.0f64, f64::max);
            out.tail_ps = Some((p99 * 1e6).round() as u64);
            let good = rep
                .tenants
                .iter()
                .map(|t| t.completed - t.slo_violations)
                .sum();
            out.slo = Some((good, rep.tenants.iter().map(|t| t.submitted).sum()));
        }
        let c = &mut out.counts;
        add(c, "serve.completed", rep.total_completed as f64);
        add(c, "serve.rejected", rep.total_rejected as f64);
        add(c, "serve.executions", rep.executions as f64);
        Ok(out)
    }

    fn verify(&mut self, out: &mut Outcome, _count: bool) -> Result<(), String> {
        let offered = SERVE_TENANTS as f64 * SERVE_REQUESTS_PER_TENANT as f64;
        let c = &out.counts;
        if c["serve.completed"] + c["serve.rejected"] != offered {
            return Err(format!("{}: completed + rejected != offered", self.name));
        }
        let execs = c["serve.executions"];
        if execs < 1.0 || execs > self.catalog as f64 {
            return Err(format!("{}: {execs} device executions", self.name));
        }
        if self.saturated && c["serve.rejected"] == 0.0 {
            return Err(format!("{}: nothing was refused above capacity", self.name));
        }
        Ok(())
    }
}

/// `serve()` sessions of four open-loop tenants below and above capacity.
fn serve_mix(seed: u64) -> Result<Setup, String> {
    let data = gen_inputs(|| {
        (0..2)
            .map(|i| bytes(sized(SERVE_OBJECT_BYTES, seed, 9 + i), seed ^ (90 + i)))
            .collect::<Vec<_>>()
    });
    let mut inst = SsdInstance::new(Ssd::new(sb_config()));
    let mut lpas = Vec::new();
    for (i, d) in data.iter().enumerate() {
        lpas.push(
            span("ssd.load_object", || {
                inst.ssd_mut().load_object((i as u64) << 20, d)
            })
            .map_err(err)?,
        );
    }
    let mut counts = Counts::new();
    add_ftl(&mut counts, &inst.ssd_mut().ftl_stats());
    let catalog: [CatalogEntry; 2] = [
        ("scan", bundles::scan_bundle),
        ("stat", bundles::stat_bundle),
    ];
    for ((name, bundle), (l, d)) in catalog.iter().zip(lpas.into_iter().zip(&data)) {
        let len = d.len() as u64;
        let bundle = *bundle;
        inst.register(*name, move || {
            ScompRequest::new(bundle(), vec![l.clone()]).with_stream_bytes(vec![len])
        });
    }
    let mut inst = TracedInstance { inner: inst };
    // Capacity calibration: one genuine execution of each workload; the
    // tenants' mixes together pick the workloads about equally often.
    let mut total = SimDur::ZERO;
    for w in 0..catalog.len() {
        total += inst.execute(w).map_err(err)?.elapsed;
    }
    let base = SimDur::from_ps(total.as_ps() / catalog.len() as u64);
    let instance = Rc::new(RefCell::new(inst));
    let session = |name, load, saturated| {
        Box::new(Session {
            name,
            load,
            saturated,
            seed,
            base,
            catalog: catalog.len(),
            instance: Rc::clone(&instance),
        }) as Box<dyn Request>
    };
    Ok(Setup {
        requests: vec![session("below", 0.5, false), session("above", 2.5, true)],
        counts,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inputs_follow_the_seed() {
        assert_eq!(bytes(100, 7), bytes(100, 7));
        assert_ne!(bytes(100, 7), bytes(100, 8));
        assert_eq!(bytes(13, 1).len(), 13);
        let sizes: Vec<usize> = (0..16).map(|s| sized(1 << 20, s, 1)).collect();
        assert!(sizes
            .iter()
            .all(|&n| (1 << 20..(1 << 20) + 8 * 1024).contains(&n) && n % 64 == 0));
        assert!(sizes.iter().any(|&n| n != sizes[0]));
    }
}
