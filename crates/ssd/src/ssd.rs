//! The SSD: plain IO paths plus the `scomp` compute path.

use crate::backend::{
    fetch_plans, read_page_retrying, schedule_plans, split_ranges, Backend, FlashOut, PagePlan,
    Sink, StreamPlan,
};
use crate::request::OutputTarget;
use crate::{
    CoreReport, ScompRequest, ScompResult, SsdConfig, SsdError, EPOCH, PCIE_BW, PCIE_LATENCY,
};
use assasin_core::{
    Core, CoreConfig, CoreState, DataPath, DramWindow, EngineKind, KernelProfile, RunOutcome,
    StreamEnv, SyntheticEnv, UdpLane,
};
use assasin_flash::FlashArray;
use assasin_ftl::{placement::Placement, Ftl, Lpa};
use assasin_isa::{AccessStyle, Program};
use assasin_mem::Dram;
use assasin_sim::{Bandwidth, SimDur, SimTime, Timeline};
use bytes::Bytes;

/// The media-identity fingerprint: the config facets that determine what
/// the flash array and FTL contain after a load. Two configs with equal
/// fingerprints produce byte-identical device contents from the same
/// writes, whatever their engine/core/link settings.
fn media_fingerprint(cfg: &SsdConfig) -> String {
    format!("{:?}|{:?}|{:?}", cfg.geometry, cfg.timing, cfg.fault)
}

/// Result of a conventional (non-compute) IO request.
#[derive(Debug, Clone)]
pub struct PlainIoResult {
    /// The bytes delivered to the host.
    pub data: Vec<u8>,
    /// Request duration.
    pub elapsed: SimDur,
}

impl PlainIoResult {
    /// Delivered throughput in bytes/second, `NaN` when no time
    /// elapsed (an instantaneous transfer has no defined rate).
    pub fn throughput_bps(&self) -> f64 {
        assasin_sim::stats::throughput_bps(self.data.len() as u64, self.elapsed).unwrap_or(f64::NAN)
    }
}

/// One computational SSD (Figure 6 for ASSASIN variants, Figure 4 for the
/// baseline architectures).
///
/// The device is the one owner of its DRAM: a request's data plane and
/// cores borrow it for the request. Owning every part makes `Ssd` `Send`,
/// so an array runs its devices on whichever threads it has.
pub struct Ssd {
    cfg: SsdConfig,
    flash: FlashArray,
    ftl: Ftl,
    dram: Dram,
    pcie: Bandwidth,
    crossbar: Vec<Timeline>,
}

/// Compile-time check that [`Ssd`] stays `Send`.
fn _assert_send<T: Send>() {}
const _: fn() = _assert_send::<Ssd>;

/// A preconditioned device image: the flash contents and FTL state of an
/// [`Ssd`], detached from its per-device timing structures and cheap to
/// fork into many identically loaded devices. Flash page payloads sit in
/// refcounted copy-on-write block arenas, so a fork costs O(blocks)
/// pointer bumps and shares every written page with its siblings until a
/// write diverges a block.
///
/// An image is `Send + Sync`: sweep threads fork from one shared image in
/// parallel, and each fork is an `Ssd` (itself `Send`) owned by the thread
/// that runs it.
#[derive(Debug, Clone)]
pub struct SsdImage {
    /// Fingerprint of the config facets that shaped the media contents.
    media_fp: String,
    flash: FlashArray,
    ftl: Ftl,
}

impl SsdImage {
    /// Forks a runnable device off this image under `cfg`, which may vary
    /// engine, core count, link and timing-adjustment settings freely but
    /// must keep the media identity (geometry, NAND timing, fault model)
    /// the image was loaded under — those determined the bytes on flash.
    ///
    /// # Panics
    ///
    /// Panics if `cfg` changes geometry, NAND timing or the fault model.
    pub fn fork(&self, cfg: SsdConfig) -> Ssd {
        assert_eq!(
            media_fingerprint(&cfg),
            self.media_fp,
            "fork config changes the media this image was loaded on"
        );
        let mut ssd = Ssd::new(cfg);
        ssd.flash = self.flash.clone();
        ssd.ftl = self.ftl.clone();
        ssd
    }
}

impl Ssd {
    /// Builds an SSD from a configuration.
    pub fn new(cfg: SsdConfig) -> Self {
        let flash = FlashArray::with_faults(cfg.geometry, cfg.timing, cfg.fault);
        let ftl = Ftl::new(cfg.geometry);
        let dram = Dram::new(Dram::LPDDR5_LATENCY, cfg.dram_bw);
        let pcie = Bandwidth::new("pcie", PCIE_BW);
        let crossbar = (0..cfg.n_cores)
            .map(|i| Timeline::new(format!("xbar-port-{i}")))
            .collect();
        Ssd {
            cfg,
            flash,
            ftl,
            dram,
            pcie,
            crossbar,
        }
    }

    /// This SSD's configuration.
    pub fn config(&self) -> &SsdConfig {
        &self.cfg
    }

    /// FTL bookkeeping (write amplification etc.).
    pub fn ftl_stats(&self) -> assasin_ftl::FtlStats {
        self.ftl.stats()
    }

    /// Cumulative media-reliability counters (retries, corrections,
    /// uncorrectables, grown-bad blocks) for this device's lifetime.
    pub fn reliability(&self) -> assasin_flash::ReliabilityStats {
        self.flash.reliability_stats()
    }

    /// FTL read with SSD-level re-read attempts ([`read_page_retrying`]):
    /// a page that stays uncorrectable surfaces as [`SsdError::Media`]
    /// with both its logical and physical address.
    fn ftl_read_retrying(
        &mut self,
        lpa: Lpa,
        issue: SimTime,
    ) -> Result<(Bytes, SimTime), SsdError> {
        let addr = self
            .ftl
            .translate(lpa)
            .ok_or(assasin_ftl::FtlError::Unmapped(lpa))?;
        read_page_retrying(
            &mut self.flash,
            Some(lpa),
            addr,
            issue,
            self.cfg.media_retries,
        )
    }

    /// Drops the flash copy of `lpa`'s block while leaving the L2P mapping
    /// in place — a deliberately inconsistent state that cannot arise
    /// through the public API. Test hook for exercising the typed
    /// error path on unwritten physical pages.
    #[cfg(test)]
    fn corrupt_mapping_for_tests(&mut self, lpa: Lpa) {
        let addr = self.ftl.translate(lpa).expect("lpa must be mapped");
        self.flash
            .erase_block(
                addr.channel,
                addr.chip,
                addr.plane,
                addr.block,
                SimTime::ZERO,
            )
            .expect("erase for test corruption");
    }

    /// Replaces the FTL placement policy before loading a dataset
    /// (Section VI-E skewed layouts). `total_pages` is the number of pages
    /// about to be written under this policy.
    pub fn set_placement(&mut self, placement: Placement, total_pages: u64) {
        self.ftl.begin_stream(placement, total_pages);
    }

    /// Per-channel page distribution of a set of LPAs (skew verification).
    pub fn channel_distribution(&self, lpas: &[Lpa]) -> Vec<u64> {
        self.ftl.channel_distribution(lpas.iter().copied())
    }

    /// Writes `data` as consecutive logical pages starting at `first_lpa`
    /// (dataset loading; the last page is zero-padded). Returns the LPAs.
    ///
    /// # Errors
    ///
    /// Propagates FTL/flash failures (capacity, device full).
    pub fn load_object(&mut self, first_lpa: u64, data: &[u8]) -> Result<Vec<Lpa>, SsdError> {
        let page = self.cfg.geometry.page_bytes as usize;
        let n_pages = data.len().div_ceil(page);
        // One padded backing buffer for the whole object: flash pages are
        // refcounted slices into it, and downstream consumers (plan
        // trimming, streambuffer refills, bank assembly) keep slicing the
        // same arena instead of copying page-sized vectors around.
        let mut buf = vec![0u8; n_pages * page];
        buf[..data.len()].copy_from_slice(data);
        let arena = Bytes::from(buf);
        let mut lpas = Vec::with_capacity(n_pages);
        for i in 0..n_pages {
            let lpa = Lpa(first_lpa + i as u64);
            self.ftl.write(
                &mut self.flash,
                lpa,
                arena.slice(i * page..(i + 1) * page),
                SimTime::ZERO,
            )?;
            lpas.push(lpa);
        }
        Ok(lpas)
    }

    /// Detaches this device's loaded media (flash contents + FTL state)
    /// into a [`SsdImage`] that can be forked into many identically
    /// preconditioned devices. Quiesces first, so every fork starts from
    /// idle at t = 0 exactly like a freshly loaded device.
    pub fn into_image(mut self) -> SsdImage {
        self.quiesce();
        SsdImage {
            media_fp: media_fingerprint(&self.cfg),
            flash: self.flash,
            ftl: self.ftl,
        }
    }

    /// Returns all shared resources to idle at t = 0, keeping data — the
    /// boundary between setup and a measured run.
    pub fn quiesce(&mut self) {
        self.flash.reset_time();
        self.dram.reset_time();
        self.pcie.reset_time();
        for p in &mut self.crossbar {
            p.reset_time();
        }
    }

    /// Conventional read of `bytes` spanning `lpas`, delivered to the host
    /// over PCIe (the no-offload path of Figure 15's CPU-only bars).
    ///
    /// # Errors
    ///
    /// Fails on unmapped pages.
    pub fn read_lpas(&mut self, lpas: &[Lpa], bytes: u64) -> Result<PlainIoResult, SsdError> {
        self.quiesce();
        let page = self.cfg.geometry.page_bytes as u64;
        let mut data = Vec::with_capacity(bytes as usize);
        let mut done = SimTime::ZERO;
        for &lpa in lpas {
            let (payload, arrival) = self.ftl_read_retrying(lpa, SimTime::ZERO)?;
            // Stage in DRAM, then DMA to the host.
            let staged = self.dram.post(arrival, page);
            let sent = self.pcie.transfer(staged, page) + PCIE_LATENCY;
            done = done.max(sent);
            data.extend_from_slice(&payload);
        }
        data.truncate(bytes as usize);
        Ok(PlainIoResult {
            data,
            elapsed: done.since(SimTime::ZERO),
        })
    }

    /// Functional read without timing effects (the harness uses this to
    /// build golden inputs).
    ///
    /// # Errors
    ///
    /// Fails on unmapped pages.
    pub fn peek_bytes(&mut self, lpas: &[Lpa], bytes: u64) -> Result<Vec<u8>, SsdError> {
        let mut data = Vec::with_capacity(bytes as usize);
        for &lpa in lpas {
            let (payload, _) = self.ftl_read_retrying(lpa, SimTime::ZERO)?;
            data.extend_from_slice(&payload);
        }
        data.truncate(bytes as usize);
        self.quiesce();
        Ok(data)
    }

    fn validate(&self, req: &ScompRequest) -> Result<Vec<u64>, SsdError> {
        if req.input_streams.is_empty() || req.input_streams.len() > 4 {
            return Err(SsdError::BadRequest(
                "scomp needs 1..=4 input streams".into(),
            ));
        }
        let page = self.cfg.geometry.page_bytes as u64;
        let mut bytes = Vec::new();
        for (i, lpas) in req.input_streams.iter().enumerate() {
            if lpas.is_empty() {
                return Err(SsdError::BadRequest(format!("stream {i} is empty")));
            }
            let b = req
                .stream_bytes
                .as_ref()
                .map(|v| v[i])
                .unwrap_or(lpas.len() as u64 * page);
            if b > lpas.len() as u64 * page {
                return Err(SsdError::BadRequest(format!(
                    "stream {i} claims more bytes than its pages hold"
                )));
            }
            bytes.push(b);
        }
        if bytes.windows(2).any(|w| w[0] != w[1]) {
            return Err(SsdError::BadRequest(
                "input streams must have equal lengths".into(),
            ));
        }
        Ok(bytes)
    }

    /// Builds per-core, per-stream page plans from byte ranges.
    fn build_plans(
        &self,
        req: &ScompRequest,
        stream_bytes: &[u64],
    ) -> Result<Vec<Vec<StreamPlan>>, SsdError> {
        let page = self.cfg.geometry.page_bytes as u64;
        let n_cores = self.cfg.n_cores;
        let gran = req.kernel.granularity() as u64;
        if self.cfg.channel_local {
            // Figure 7 comparator: core i consumes the pages living on
            // channel i (no crossbar redistribution, so layout dictates
            // load balance).
            if req.input_streams.len() != 1 {
                return Err(SsdError::BadRequest(
                    "channel-local mode supports one input stream".into(),
                ));
            }
            if !page.is_multiple_of(gran) {
                return Err(SsdError::BadRequest(
                    "channel-local mode needs page-aligned objects".into(),
                ));
            }
            let mut plans: Vec<Vec<StreamPlan>> =
                (0..n_cores).map(|_| vec![StreamPlan::default()]).collect();
            let lpas = &req.input_streams[0];
            let total = stream_bytes[0];
            for (i, &lpa) in lpas.iter().enumerate() {
                let addr = self
                    .ftl
                    .translate(lpa)
                    .ok_or(SsdError::Ftl(assasin_ftl::FtlError::Unmapped(lpa)))?;
                let start = i as u64 * page;
                if start >= total {
                    break;
                }
                let len = page.min(total - start) as u32;
                let core = addr.channel as usize % n_cores;
                plans[core][0].push(PagePlan {
                    addr,
                    offset: 0,
                    len,
                });
            }
            return Ok(plans);
        }
        let mut ranges = split_ranges(stream_bytes[0], n_cores, gran);
        if let Some(delim) = req.kernel.record_delim() {
            self.snap_to_delimiters(&mut ranges, &req.input_streams[0], stream_bytes[0], delim)?;
        }
        let ranges = ranges;
        let mut plans = Vec::with_capacity(n_cores);
        for &(start, end) in &ranges {
            let mut per_stream = Vec::new();
            for lpas in &req.input_streams {
                let mut plan = StreamPlan::default();
                if end > start {
                    let first_page = start / page;
                    let last_page = (end - 1) / page;
                    for p in first_page..=last_page {
                        let lpa = lpas[p as usize];
                        let addr = self
                            .ftl
                            .translate(lpa)
                            .ok_or(SsdError::Ftl(assasin_ftl::FtlError::Unmapped(lpa)))?;
                        let page_start = p * page;
                        let lo = start.max(page_start);
                        let hi = end.min(page_start + page);
                        plan.push(PagePlan {
                            addr,
                            offset: (lo - page_start) as u32,
                            len: (hi - lo) as u32,
                        });
                    }
                }
                per_stream.push(plan);
            }
            plans.push(per_stream);
        }
        Ok(plans)
    }

    /// Moves each interior shard boundary forward to just past the next
    /// `delim` byte, so no variable-length record straddles two engines.
    /// A control-plane pass: the firmware peeks page contents without
    /// spending simulated time (boundary probing touches a handful of
    /// bytes per core, negligible next to the streamed data).
    fn snap_to_delimiters(
        &self,
        ranges: &mut [(u64, u64)],
        lpas: &[Lpa],
        total: u64,
        delim: u8,
    ) -> Result<(), SsdError> {
        let page = self.cfg.geometry.page_bytes as u64;
        let peek = |pos: u64| -> Result<u8, SsdError> {
            let lpa = lpas[(pos / page) as usize];
            let addr = self
                .ftl
                .translate(lpa)
                .ok_or(SsdError::Ftl(assasin_ftl::FtlError::Unmapped(lpa)))?;
            let data = self
                .flash
                .peek_page(addr)
                .ok_or(SsdError::Ftl(assasin_ftl::FtlError::Unmapped(lpa)))?;
            Ok(data[(pos % page) as usize])
        };
        for i in 0..ranges.len().saturating_sub(1) {
            let mut b = ranges[i].1.max(ranges[i].0);
            if b > 0 && b < total {
                // Scan forward to the byte after the next delimiter.
                while b < total && peek(b - 1)? != delim {
                    b += 1;
                }
            }
            ranges[i].1 = b.min(total);
            ranges[i + 1].0 = ranges[i].1;
        }
        if let Some(last) = ranges.last_mut() {
            last.1 = last.1.max(last.0);
        }
        Ok(())
    }

    /// Executes a computational-storage request.
    ///
    /// Every interpreted engine runs the same path: validate and plan the
    /// request, build its cores, drive them through the event-driven
    /// bounded-epoch co-simulation loop, then flush outputs and assemble
    /// the report. The analytical UDP engine is modeled separately.
    ///
    /// # Errors
    ///
    /// Fails on malformed requests, unmapped pages, or kernel model errors.
    pub fn scomp(&mut self, req: &ScompRequest) -> Result<ScompResult, SsdError> {
        if self.cfg.engine == EngineKind::Udp {
            let stream_bytes = self.validate(req)?;
            self.quiesce();
            if req.output != OutputTarget::Host {
                return Err(SsdError::BadRequest(
                    "the analytical UDP path models read-path offloads only".into(),
                ));
            }
            return self.scomp_udp(req, &stream_bytes);
        }
        let mut session = self.scomp_session(req)?;
        let cosim = session.run_epochs::<true>()?;
        session.finalize(cosim)
    }

    /// [`Ssd::scomp`] on the fixed-epoch schedule: the deadline advances
    /// one epoch per round, never skipping idle rounds. The reference the
    /// event-driven loop is proven byte-identical against. The analytical
    /// UDP engine has no epoch loop and runs [`Ssd::scomp`] unchanged.
    #[cfg(test)]
    pub(crate) fn scomp_fixed_epoch(
        &mut self,
        req: &ScompRequest,
    ) -> Result<ScompResult, SsdError> {
        if self.cfg.engine == EngineKind::Udp {
            return self.scomp(req);
        }
        let mut session = self.scomp_session(req)?;
        let cosim = session.run_epochs::<false>()?;
        session.finalize(cosim)
    }

    /// Validates `req` and builds the in-flight [`Session`]: plans, cores,
    /// backend, per-style setup — everything up to (but excluding) core
    /// execution. Not supported for the analytical UDP engine.
    fn scomp_session<'s>(&'s mut self, req: &ScompRequest) -> Result<Session<'s>, SsdError> {
        debug_assert!(self.cfg.engine != EngineKind::Udp);
        let stream_bytes = self.validate(req)?;
        self.quiesce();
        let style = self.cfg.engine.style();
        let program = req.kernel.program(style);
        let core_cfg = self.cfg.core_config();
        let n_cores = self.cfg.n_cores;
        let mut plans = self.build_plans(req, &stream_bytes)?;
        let n_in = req.input_streams.len();
        // For the DRAM-bypassing styles the flash controllers deliver pages
        // ahead of consumption; schedule every page's arrival now. The Mem
        // style stages into DRAM windows instead (see `stage_windows`).
        let scheduled = if style == AccessStyle::Mem {
            plans
                .iter()
                .map(|s| s.iter().map(|_| Default::default()).collect())
                .collect()
        } else {
            schedule_plans(
                &mut self.flash,
                &mut self.crossbar,
                self.cfg.crossbar_port_bw,
                self.cfg.firmware_poll,
                self.cfg.media_retries,
                &mut plans,
            )?
        };

        let mut cores = (0..n_cores)
            .map(|id| kernel_core(id, core_cfg, program.clone(), req))
            .collect::<Result<Vec<_>, _>>()?;

        let sink = match req.output {
            OutputTarget::Host => Sink::Host,
            OutputTarget::Flash { first_lpa } => {
                // Disjoint per-engine LPA regions sized by the kernel's
                // output bound.
                let page = self.cfg.geometry.page_bytes as u64;
                let total_in: u64 = stream_bytes.iter().sum();
                let cap_pages = ((total_in as f64 * req.kernel.max_out_per_in()).ceil() as u64)
                    .div_ceil(page)
                    .div_ceil(n_cores as u64)
                    + 2;
                if first_lpa + n_cores as u64 * cap_pages > self.ftl.exported_pages() {
                    return Err(SsdError::BadRequest(
                        "write-path output region exceeds exported capacity".into(),
                    ));
                }
                let region = |i: u64| first_lpa + i * cap_pages;
                Sink::Flash(FlashOut {
                    next: (0..n_cores as u64).map(region).collect(),
                    end: (1..=n_cores as u64).map(region).collect(),
                    lpas: vec![Vec::new(); n_cores],
                    fill: vec![Vec::new(); n_cores],
                    prog_done: vec![SimTime::ZERO; n_cores],
                    page_bytes: self.cfg.geometry.page_bytes,
                    error: None,
                })
            }
        };
        let mut backend = Backend {
            flash: &mut self.flash,
            ftl: &mut self.ftl,
            sink,
            dram: &mut self.dram,
            pcie: &mut self.pcie,
            scheduled,
            outputs: vec![Vec::new(); n_cores],
            out_done: vec![SimTime::ZERO; n_cores],
            bank_bytes: core_cfg.staging_bytes,
            granularity: req.kernel.granularity(),
            per_core_streamed: vec![0; n_cores],
        };

        // ---- per-style setup (ping-pong banks are assembled on demand) ---
        if style == AccessStyle::Mem {
            stage_windows(
                &mut cores,
                &mut backend,
                &mut plans,
                req,
                self.cfg.geometry.page_bytes,
                self.cfg.firmware_poll,
                self.cfg.media_retries,
            )?;
        }
        for (id, core) in cores.iter_mut().enumerate() {
            if let DataPath::Stream(sbuf) = core.data_path_mut() {
                for sid in 0..n_in as u32 {
                    backend.refill_stream(id, sid, SimTime::ZERO, sbuf);
                }
            }
        }

        Ok(Session {
            cfg: self.cfg,
            backend,
            cores,
        })
    }

    /// The analytical UDP path: functional results from a reference run,
    /// timing from the lane model plus the SSD-level DRAM data path.
    fn scomp_udp(
        &mut self,
        req: &ScompRequest,
        stream_bytes: &[u64],
    ) -> Result<ScompResult, SsdError> {
        // Functional reference run on a scratchpad-walking (PingPong-style)
        // core with instant data: UDP lanes walk firmware-filled
        // scratchpads with explicit pointers, so this style's instruction
        // stream is the right input to the lane model.
        let program = req.kernel.program(self.cfg.engine.style());
        let mut env = SyntheticEnv::new(8, self.cfg.geometry.page_bytes as usize);
        let mut inputs_total = 0u64;
        let streams: Vec<Vec<u8>> = req
            .input_streams
            .iter()
            .enumerate()
            .map(|(sid, lpas)| self.peek_bytes(lpas, stream_bytes[sid]))
            .collect::<Result<_, _>>()?;
        for data in &streams {
            inputs_total += data.len() as u64;
        }
        // Interleave streams into banks, chunked on object boundaries
        // (UDP's firmware copies DRAM data into the 256 KiB lane
        // scratchpad the same way).
        let core_cfg = CoreConfig::udp();
        let bank_bytes = core_cfg.scratchpad_bytes as usize / 2;
        env.set_interleaved_banks(&streams, bank_bytes, req.kernel.granularity() as usize);
        let ref_cfg = CoreConfig {
            staging_bytes: core_cfg.scratchpad_bytes,
            ..CoreConfig::assasin_sp()
        };
        let mut core = kernel_core(0, ref_cfg, program, req)?;
        core.run_to_halt(&mut env);
        if let CoreState::Wedged(m) = core.state() {
            return Err(SsdError::CoreWedged(m.clone()));
        }
        let output = env.bank_output().to_vec();
        let bytes_out = output.len() as u64;

        let profile = KernelProfile::from_mix(core.mix(), inputs_total.max(1), bytes_out);
        let lane = UdpLane::new(self.cfg.core_config().clock);
        let compute_bps = self.cfg.n_cores as f64 * lane.compute_bps(&profile);
        // UDP's data path (Table IV): flash -> DRAM staging (1x), firmware
        // copy DRAM -> lane scratchpad (1x), results -> DRAM (out/in).
        let traffic_per_byte = 2.0 + profile.out_per_in;
        let dram_bps = self.cfg.dram_bw / traffic_per_byte;
        let throughput = compute_bps.min(dram_bps).min(self.cfg.flash_bw());
        let elapsed = SimDur::from_secs_f64(inputs_total as f64 / throughput) + PCIE_LATENCY;

        let channels = self.cfg.geometry.channels as u64;
        Ok(ScompResult {
            elapsed,
            bytes_in: inputs_total,
            bytes_out,
            outputs: vec![output],
            per_core: Vec::new(),
            dram_traffic: (inputs_total as f64 * traffic_per_byte) as u64,
            output_lpas: Vec::new(),
            channel_bytes: vec![inputs_total / channels; channels as usize],
            channel_busy: vec![SimDur::ZERO; channels as usize],
            cosim_rounds: 0,
            epochs_skipped: 0,
        })
    }
}

/// A core for `req`'s kernel with the kernel's function state preloaded
/// into its scratchpad.
fn kernel_core(
    id: usize,
    cfg: CoreConfig,
    program: Program,
    req: &ScompRequest,
) -> Result<Core, SsdError> {
    let mut core = Core::new(id, cfg, program);
    core.preload(req.kernel.scratchpad_image())
        .map_err(|e| SsdError::BadRequest(format!("scratchpad image: {e}")))?;
    Ok(core)
}

/// Stages every planned page into per-core DRAM windows (the Baseline data
/// path) in [`fetch_plans`] order, each available one DRAM latency after
/// its flash arrival. The DRAM bus cost of staging is charged when the
/// core's cache fills from the window (the hierarchy charges two bus trips
/// per fill byte: staging write + demand read), which also gives the
/// correct consumption-paced backpressure. Each core is then launched on
/// its window.
fn stage_windows(
    cores: &mut [Core],
    backend: &mut Backend<'_>,
    plans: &mut [Vec<StreamPlan>],
    req: &ScompRequest,
    page_bytes: u32,
    firmware_poll: SimDur,
    media_retries: u32,
) -> Result<(), SsdError> {
    let n_in = req.input_streams.len();
    // One window per core: n_in stream regions plus the output area.
    let mut windows: Vec<DramWindow> = plans
        .iter()
        .map(|streams| {
            let in_len = streams.first().map_or(0, |p| p.remaining_bytes());
            let out_bytes = (in_len as f64 * n_in as f64 * req.kernel.max_out_per_in()).ceil();
            DramWindow::new(n_in, in_len, out_bytes as u64, page_bytes)
        })
        .collect();
    // Bytes staged so far per (core, stream): the next page's position.
    let mut staged = vec![vec![0u64; n_in]; plans.len()];
    let dram_latency = backend.dram.latency();
    let per_core_streamed = &mut backend.per_core_streamed;
    fetch_plans(
        backend.flash,
        firmware_poll,
        media_retries,
        plans,
        |core, sid, payload, flash_arrival| {
            let len = payload.len() as u64;
            per_core_streamed[core] += len;
            windows[core].stage(
                sid,
                staged[core][sid],
                &payload,
                flash_arrival + dram_latency,
            );
            staged[core][sid] += len;
        },
    )?;
    for (core, window) in cores.iter_mut().zip(windows) {
        core.launch_mem(window).map_err(SsdError::Invariant)?;
    }
    Ok(())
}

/// Formats the `SsdError::Stuck` diagnostic: per-core execution state plus
/// the earliest pending backend event, so a hung co-simulation names its
/// culprit instead of just a round count.
fn stuck_report(rounds: u64, deadline: SimTime, cores: &[Core], backend: &Backend<'_>) -> String {
    use std::fmt::Write;
    let mut msg = format!("no completion after {rounds} co-sim rounds (deadline {deadline}):");
    for core in cores {
        let state = match core.state() {
            CoreState::Running => "running".to_string(),
            CoreState::Halted => "halted".to_string(),
            CoreState::Wedged(m) => format!("wedged: {m}"),
        };
        let _ = write!(
            msg,
            "\n  core {} pc={} t={} [{}]",
            core.id(),
            core.pc(),
            core.local_time(),
            state
        );
    }
    match backend.next_event(SimTime::ZERO) {
        Some(t) => {
            let _ = write!(msg, "\n  next backend event at {t}");
        }
        None => msg.push_str("\n  no pending backend events"),
    }
    msg
}

/// An in-flight `scomp` request: validated, planned, cores constructed and
/// per-style setup done — everything except core execution
/// ([`Session::run_epochs`]) and finalization ([`Session::finalize`]).
struct Session<'s> {
    cfg: SsdConfig,
    backend: Backend<'s>,
    cores: Vec<Core>,
}

impl Session<'_> {
    /// Bounded-epoch co-simulation: every running core advances to the
    /// round's deadline, in core order, until all halt.
    ///
    /// Every backend interaction (refills, drains, bank assembly) is
    /// demand-driven from inside core execution, so a round in which no
    /// core retires an instruction has zero side effects. With `SKIP_IDLE`
    /// (the only schedule outside tests) the loop exploits that: when
    /// every running core's next retirement lies beyond the next epoch
    /// boundary, the deadline jumps straight to the boundary covering the
    /// earliest wake-up. Deadlines stay on the `k * epoch` progression, so
    /// grant ordering — and every report byte — matches the fixed-epoch
    /// reference (`SKIP_IDLE = false`).
    ///
    /// Returns `(rounds, epochs_skipped)` for [`ScompResult`].
    fn run_epochs<const SKIP_IDLE: bool>(&mut self) -> Result<(u64, u64), SsdError> {
        let epoch = EPOCH;
        let mut deadline = SimTime::ZERO + epoch;
        let mut rounds: u64 = 0;
        let mut epochs_skipped: u64 = 0;
        loop {
            let mut all_done = true;
            let mut min_wake: Option<SimTime> = None;
            for core in self.cores.iter_mut() {
                if core.state() == &CoreState::Running {
                    match core.run(&mut self.backend, deadline) {
                        RunOutcome::Halted => {}
                        RunOutcome::Wedged => match core.state() {
                            CoreState::Wedged(m) => return Err(SsdError::CoreWedged(m.clone())),
                            _ => unreachable!("Wedged outcome implies wedged state"),
                        },
                        RunOutcome::BlockedUntil(wake) => {
                            all_done = false;
                            min_wake = Some(min_wake.map_or(wake, |m| m.min(wake)));
                        }
                    }
                }
            }
            if all_done {
                return Ok((rounds, epochs_skipped));
            }
            rounds += 1;
            if rounds > self.cfg.max_rounds {
                return Err(SsdError::Stuck(stuck_report(
                    rounds,
                    deadline,
                    &self.cores,
                    &self.backend,
                )));
            }
            let next = deadline + epoch;
            deadline = match min_wake {
                Some(wake) if SKIP_IDLE && wake > next => {
                    let jumped = wake.round_up_to(epoch);
                    epochs_skipped += (jumped.as_ps() - next.as_ps()) / epoch.as_ps();
                    jumped
                }
                _ => next,
            };
        }
    }

    /// Flushes residual output, moves Mem-style results to the output
    /// target, settles write-path durability, and assembles the report.
    fn finalize(self, (cosim_rounds, epochs_skipped): (u64, u64)) -> Result<ScompResult, SsdError> {
        let Session {
            cfg,
            mut backend,
            mut cores,
        } = self;
        let n_cores = cores.len();
        let mut elapsed_end = SimTime::ZERO;
        let mut reports = Vec::with_capacity(n_cores);
        for (id, core) in cores.iter_mut().enumerate() {
            let halt_time = core.local_time();
            core.flush_output(&mut backend)
                .map_err(SsdError::CoreWedged)?;
            if let DataPath::Mem { .. } = core.data_path() {
                // Results sit in the DRAM window; move them to the
                // request's output target. The output cursor is
                // program-observable state: a buggy kernel scribbling it
                // must fail the request, not abort the process.
                let data = core
                    .mem_output()
                    .map_err(|m| SsdError::Invariant(format!("mem finalize: engine {id} {m}")))?;
                if !data.is_empty() {
                    if let Sink::Flash(_) = backend.sink {
                        // DRAM read of the results, then flash writes.
                        backend.dram.post(halt_time, data.len() as u64);
                    }
                    backend.drain(id, data, halt_time);
                }
            }
            // Write path: pad and flush the engine's trailing partial page;
            // the request completes when programs are durable.
            if let Sink::Flash(fo) = &mut backend.sink {
                let now = halt_time.max(backend.out_done[id]);
                fo.flush(backend.ftl, backend.flash, id, now);
                backend.out_done[id] = backend.out_done[id].max(fo.prog_done[id]);
            }
            let end = halt_time.max(backend.out_done[id]);
            elapsed_end = elapsed_end.max(end);
            reports.push((id, halt_time));
        }
        let output_lpas = match std::mem::replace(&mut backend.sink, Sink::Host) {
            Sink::Host => Vec::new(),
            Sink::Flash(FlashOut { error: Some(e), .. }) => return Err(e),
            Sink::Flash(fo) => fo.lpas,
        };
        let elapsed = elapsed_end.since(SimTime::ZERO);

        let per_core = reports
            .into_iter()
            .map(|(id, _halt)| {
                let core = &cores[id];
                let busy_time = core.config().clock.cycles_to_dur(core.breakdown().busy);
                CoreReport {
                    cycles: core.cycles(),
                    breakdown: core.breakdown().clone(),
                    mix: *core.mix(),
                    bytes_in: backend.per_core_streamed[id],

                    bytes_out: backend.outputs[id].len() as u64,
                    utilization: if elapsed.is_zero() {
                        0.0
                    } else {
                        busy_time.as_secs_f64() / elapsed.as_secs_f64()
                    },
                }
            })
            .collect::<Vec<_>>();

        let bytes_in = backend.per_core_streamed.iter().sum();
        let outputs = std::mem::take(&mut backend.outputs);
        let bytes_out = outputs.iter().map(|o| o.len() as u64).sum();
        let channels = cfg.geometry.channels;
        let channel_bytes = (0..channels)
            .map(|c| backend.flash.channel_stats(c).bytes_read)
            .collect();
        let channel_busy = (0..channels)
            .map(|c| backend.flash.channel_busy(c))
            .collect();
        let dram_traffic = backend.dram.bytes_moved();

        Ok(ScompResult {
            elapsed,
            bytes_in,
            bytes_out,
            outputs,
            per_core,
            dram_traffic,
            output_lpas,
            channel_bytes,
            channel_busy,
            cosim_rounds,
            epochs_skipped,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::KernelBundle;
    use assasin_kernels::{query, scan, stat};

    fn make_ssd(engine: EngineKind) -> Ssd {
        Ssd::new(SsdConfig::small_for_tests(engine))
    }

    fn scan_bundle() -> KernelBundle {
        KernelBundle::new("scan", scan::TUPLE_BYTES, 0.0, scan::program)
    }

    #[test]
    fn load_and_plain_read_roundtrip() {
        let mut ssd = make_ssd(EngineKind::AssasinSb);
        let data: Vec<u8> = (0..20_000u32).map(|i| (i % 251) as u8).collect();
        let lpas = ssd.load_object(0, &data).unwrap();
        assert_eq!(lpas.len(), 20_000usize.div_ceil(4096));
        let r = ssd.read_lpas(&lpas, data.len() as u64).unwrap();
        assert_eq!(r.data, data);
        assert!(!r.elapsed.is_zero());
        assert!(r.throughput_bps() > 0.0);
    }

    #[test]
    fn scomp_scan_all_engines_complete() {
        let data: Vec<u8> = (0..256 * 1024u32).map(|i| (i % 241) as u8).collect();
        for engine in EngineKind::ALL {
            let mut ssd = make_ssd(engine);
            let lpas = ssd.load_object(0, &data).unwrap();
            let req = ScompRequest::new(scan_bundle(), vec![lpas])
                .with_stream_bytes(vec![data.len() as u64]);
            let r = ssd.scomp(&req).expect("scomp completes");
            assert_eq!(r.bytes_in, data.len() as u64, "engine {engine:?}");
            assert!(
                r.throughput_gbps() > 0.05,
                "engine {engine:?}: {}",
                r.throughput_gbps()
            );
        }
    }

    /// Runs a one-instruction-plus-halt kernel on a Baseline device and
    /// returns its error; a well-behaved request on the same device must
    /// still complete afterwards (the device degrades instead of dying).
    fn bad_kernel_error(emit: fn(&mut assasin_isa::Assembler)) -> SsdError {
        let mut ssd = make_ssd(EngineKind::Baseline);
        let data: Vec<u8> = vec![7u8; 64 * 1024];
        let lpas = ssd.load_object(0, &data).unwrap();
        let bad = KernelBundle::new("bad", 64, 1.0, move |_| {
            let mut asm = assasin_isa::Assembler::with_name("bad");
            emit(&mut asm);
            asm.halt();
            asm.finish().expect("bad kernel assembles")
        });
        let bytes = vec![data.len() as u64];
        let req = ScompRequest::new(bad, vec![lpas.clone()]).with_stream_bytes(bytes.clone());
        let err = ssd
            .scomp(&req)
            .expect_err("bad kernel must fail its request");
        let req = ScompRequest::new(scan_bundle(), vec![lpas]).with_stream_bytes(bytes);
        let r = ssd.scomp(&req).expect("device survives a bad request");
        assert_eq!(r.bytes_in, data.len() as u64);
        err
    }

    #[test]
    fn hostile_output_cursor_fails_the_request_not_the_process() {
        // A Mem-style kernel that scribbles the S5 output cursor far past
        // its DRAM window before halting. Extraction used to slice the
        // window with the program-controlled length and panic; it must
        // now surface a typed error.
        match bad_kernel_error(|asm| asm.li(assasin_isa::Reg::S5, 0x7FFF_0000)) {
            SsdError::Invariant(m) => assert!(m.contains("output cursor"), "{m}"),
            other => panic!("expected Invariant, got {other:?}"),
        }
    }

    #[test]
    fn stream_load_on_a_baseline_engine_fails_the_request() {
        // A Baseline core has no streambuffer: its StreamLoad must wedge
        // the core rather than read an empty buffer and halt as if done.
        match bad_kernel_error(|asm| asm.stream_load(assasin_isa::Reg::A0, 0, 4)) {
            SsdError::CoreWedged(m) => assert!(m.contains("streambuffer"), "{m}"),
            other => panic!("expected CoreWedged, got {other:?}"),
        }
    }

    #[test]
    fn exhausted_round_budget_reports_stuck_diagnostics() {
        let mut cfg = SsdConfig::small_for_tests(EngineKind::AssasinSb);
        // A 256 KiB scan needs many epochs; a one-round budget cannot.
        cfg.max_rounds = 1;
        let mut ssd = Ssd::new(cfg);
        let data: Vec<u8> = (0..256 * 1024u32).map(|i| (i % 241) as u8).collect();
        let lpas = ssd.load_object(0, &data).unwrap();
        let req =
            ScompRequest::new(scan_bundle(), vec![lpas]).with_stream_bytes(vec![data.len() as u64]);
        match ssd.scomp(&req) {
            Err(SsdError::Stuck(msg)) => {
                assert!(msg.contains("co-sim rounds"), "{msg}");
                assert!(msg.contains("core 0 pc="), "{msg}");
                assert!(msg.contains("backend event"), "{msg}");
            }
            other => panic!("expected Stuck, got {other:?}"),
        }
    }

    #[test]
    fn scomp_filter_output_matches_golden_across_engines() {
        let p = query::FilterParams {
            tuple_words: 12,
            pred_word: 7,
            lo: 100,
            hi: 600,
        };
        let data: Vec<u8> = (0..4096u32)
            .flat_map(|i| {
                (0..12u32).flat_map(move |w| (i.wrapping_mul(w + 3) % 1000).to_le_bytes())
            })
            .collect();
        let expect = query::filter_golden(&data, p);
        for engine in [
            EngineKind::Baseline,
            EngineKind::Prefetch,
            EngineKind::AssasinSp,
            EngineKind::AssasinSb,
            EngineKind::AssasinSbCache,
            EngineKind::Udp,
        ] {
            let mut ssd = make_ssd(engine);
            let lpas = ssd.load_object(0, &data).unwrap();
            let bundle = KernelBundle::new("filter", 48, 1.0, move |s| query::filter_program(s, p));
            let req =
                ScompRequest::new(bundle, vec![lpas]).with_stream_bytes(vec![data.len() as u64]);
            let r = ssd.scomp(&req).expect("scomp completes");
            assert_eq!(r.concat_output(), expect, "engine {engine:?}");
            assert!(r.bytes_out < r.bytes_in, "filter reduces data");
        }
    }

    #[test]
    fn assasin_bypasses_dram_baseline_does_not() {
        let data = vec![7u8; 512 * 1024];
        let run = |engine| {
            let mut ssd = make_ssd(engine);
            let lpas = ssd.load_object(0, &data).unwrap();
            let req = ScompRequest::new(scan_bundle(), vec![lpas])
                .with_stream_bytes(vec![data.len() as u64]);
            ssd.scomp(&req).unwrap()
        };
        let base = run(EngineKind::Baseline);
        let sb = run(EngineKind::AssasinSb);
        assert!(
            base.dram_per_input_byte() > 1.5,
            "baseline stages + reads: {}",
            base.dram_per_input_byte()
        );
        assert!(
            sb.dram_per_input_byte() < 0.1,
            "assasin bypasses DRAM: {}",
            sb.dram_per_input_byte()
        );
        assert!(sb.throughput_bps() > base.throughput_bps());
    }

    #[test]
    fn stat_result_is_functionally_correct_via_stream() {
        // stat keeps its accumulator in a register; at SSD level we check
        // the run completes and streams every byte.
        let data: Vec<u8> = (0..64 * 1024u32).flat_map(|i| i.to_le_bytes()).collect();
        let mut ssd = make_ssd(EngineKind::AssasinSb);
        let lpas = ssd.load_object(0, &data[..64 * 1024]).unwrap();
        let bundle = KernelBundle::new("stat", stat::TUPLE_BYTES, 0.0, stat::program);
        let req = ScompRequest::new(bundle, vec![lpas]).with_stream_bytes(vec![64 * 1024]);
        let r = ssd.scomp(&req).unwrap();
        assert_eq!(r.bytes_in, 64 * 1024);
        assert_eq!(r.bytes_out, 0);
    }

    #[test]
    fn back_to_back_requests_are_independent() {
        // quiesce() must give every request a fresh t=0; results and
        // timing must not depend on prior requests.
        let data = vec![3u8; 256 * 1024];
        let mut ssd = make_ssd(EngineKind::AssasinSb);
        let lpas = ssd.load_object(0, &data).unwrap();
        let run = |ssd: &mut Ssd, lpas: &[assasin_ftl::Lpa]| {
            let req = ScompRequest::new(scan_bundle(), vec![lpas.to_vec()])
                .with_stream_bytes(vec![256 * 1024]);
            ssd.scomp(&req).unwrap()
        };
        let a = run(&mut ssd, &lpas);
        let b = run(&mut ssd, &lpas);
        assert_eq!(a.elapsed, b.elapsed, "requests see a quiet device");
        assert_eq!(a.bytes_in, b.bytes_in);
    }

    #[test]
    fn per_core_reports_are_consistent() {
        let data = vec![7u8; 512 * 1024];
        let mut ssd = make_ssd(EngineKind::AssasinSb);
        let lpas = ssd.load_object(0, &data).unwrap();
        let req =
            ScompRequest::new(scan_bundle(), vec![lpas]).with_stream_bytes(vec![data.len() as u64]);
        let r = ssd.scomp(&req).unwrap();
        assert_eq!(r.per_core.len(), ssd.config().n_cores);
        let total_in: u64 = r.per_core.iter().map(|c| c.bytes_in).sum();
        assert_eq!(total_in, r.bytes_in, "per-core bytes sum to the total");
        for (i, c) in r.per_core.iter().enumerate() {
            assert!(c.utilization > 0.0 && c.utilization <= 1.0, "core {i}");
            assert!(c.cycles > 0, "core {i}");
            assert!(c.breakdown.total() >= c.cycles, "core {i} breakdown");
            assert!(c.mix.total > 0, "core {i} retired instructions");
        }
    }

    #[test]
    fn channel_local_rejects_multi_stream_and_misaligned_objects() {
        let mut cfg = SsdConfig::small_for_tests(EngineKind::AssasinSb);
        cfg.channel_local = true;
        let mut ssd = Ssd::new(cfg);
        let data = vec![1u8; 64 * 1024];
        let a = ssd.load_object(0, &data).unwrap();
        let b = ssd.load_object(1000, &data).unwrap();
        // Multi-stream: rejected.
        let req = ScompRequest::new(
            KernelBundle::new("raid4", 4, 0.25, assasin_kernels::raid::raid4_program),
            vec![a.clone(), b.clone(), a.clone(), b],
        );
        assert!(matches!(ssd.scomp(&req), Err(SsdError::BadRequest(_))));
        // Page-misaligned objects: rejected (48 does not divide 4096).
        let req = ScompRequest::new(
            KernelBundle::new("odd", 48, 0.0, assasin_kernels::scan::program),
            vec![a],
        );
        assert!(matches!(ssd.scomp(&req), Err(SsdError::BadRequest(_))));
    }

    #[test]
    fn bad_requests_are_rejected() {
        let mut ssd = make_ssd(EngineKind::AssasinSb);
        let req = ScompRequest::new(scan_bundle(), vec![]);
        assert!(matches!(ssd.scomp(&req), Err(SsdError::BadRequest(_))));
        let req = ScompRequest::new(scan_bundle(), vec![vec![]]);
        assert!(matches!(ssd.scomp(&req), Err(SsdError::BadRequest(_))));
    }

    #[test]
    fn write_path_replicate_lands_in_flash() {
        use assasin_kernels::replicate;
        let data: Vec<u8> = (0..64 * 1024).map(|i| (i % 251) as u8).collect();
        let expect = replicate::golden(&data);
        for engine in [
            EngineKind::AssasinSb,
            EngineKind::AssasinSp,
            EngineKind::Baseline,
        ] {
            let mut ssd = make_ssd(engine);
            let lpas = ssd.load_object(0, &data).unwrap();
            let bundle = KernelBundle::new(
                "replicate",
                replicate::TUPLE_BYTES,
                replicate::COPIES as f64,
                replicate::program,
            );
            let req = ScompRequest::new(bundle, vec![lpas])
                .with_stream_bytes(vec![data.len() as u64])
                .with_flash_output(50_000);
            let r = ssd.scomp(&req).expect("write-path scomp");
            // The results are durable flash pages, readable afterwards.
            assert!(!r.output_lpas.is_empty(), "{engine:?}");
            let mut stored = Vec::new();
            for (core_lpas, out) in r.output_lpas.iter().zip(&r.outputs) {
                let io = ssd.read_lpas(core_lpas, out.len() as u64).unwrap();
                stored.extend_from_slice(&io.data);
            }
            assert_eq!(stored, expect, "{engine:?}");
            // Write path on ASSASIN: no host traffic, and for the ASSASIN
            // variants no DRAM traffic either.
            if engine.bypasses_dram() {
                assert!(
                    r.dram_per_input_byte() < 0.1,
                    "{engine:?}: {}",
                    r.dram_per_input_byte()
                );
            }
        }
    }

    #[test]
    fn write_path_region_capacity_is_validated() {
        let mut ssd = make_ssd(EngineKind::AssasinSb);
        let data = vec![1u8; 8192];
        let lpas = ssd.load_object(0, &data).unwrap();
        let req = ScompRequest::new(scan_bundle(), vec![lpas]).with_flash_output(u64::MAX / 2);
        assert!(matches!(ssd.scomp(&req), Err(SsdError::BadRequest(_))));
    }

    /// Loads 64 KiB and runs a replicate whose bundle declares no output
    /// (`max_out_per_in = 0.0`), so each engine gets a two-page region and
    /// outgrows it. The request must fail with a typed error, and the
    /// device must still serve its data afterwards.
    fn overflowing_write_fails_cleanly(first_lpa: impl FnOnce(&Ssd) -> u64) {
        use assasin_kernels::replicate;
        let data: Vec<u8> = (0..64 * 1024).map(|i| (i % 251) as u8).collect();
        let mut ssd = make_ssd(EngineKind::AssasinSb);
        let lpas = ssd.load_object(0, &data).unwrap();
        let bundle =
            KernelBundle::new("replicate", replicate::TUPLE_BYTES, 0.0, replicate::program);
        let req = ScompRequest::new(bundle, vec![lpas.clone()])
            .with_stream_bytes(vec![data.len() as u64])
            .with_flash_output(first_lpa(&ssd));
        match ssd.scomp(&req) {
            Err(SsdError::BadRequest(msg)) => {
                assert!(msg.contains("overflows its region"), "{msg}")
            }
            other => panic!("expected a region overflow, got {other:?}"),
        }
        let io = ssd
            .read_lpas(&lpas, data.len() as u64)
            .expect("device still reads");
        assert_eq!(io.data, data);
    }

    /// Engine regions sit back to back; without a bound, an engine that
    /// outgrows its region overwrites its neighbour's pages.
    #[test]
    fn write_path_engines_cannot_overwrite_each_other() {
        overflowing_write_fails_cleanly(|_| 50_000);
    }

    /// The last engine's region ends at the exported capacity; outgrowing
    /// it must not reach the FTL's capacity check as a panic.
    #[test]
    fn write_path_overflow_at_capacity_end_is_a_typed_error() {
        overflowing_write_fails_cleanly(|ssd| ssd.ftl.exported_pages() - 8);
    }

    #[test]
    fn multi_stream_raid4_via_ssd() {
        use assasin_kernels::raid;
        let streams: Vec<Vec<u8>> = (0..4usize)
            .map(|s| {
                (0..32 * 1024)
                    .map(|i| ((i * 13 + s * 7) % 256) as u8)
                    .collect()
            })
            .collect();
        let mut ssd = make_ssd(EngineKind::AssasinSb);
        let mut all_lpas = Vec::new();
        for (s, data) in streams.iter().enumerate() {
            all_lpas.push(ssd.load_object((s * 1000) as u64, data).unwrap());
        }
        let refs: Vec<&[u8]> = streams.iter().map(|v| v.as_slice()).collect();
        let expect = raid::raid4_golden(&refs);
        let bundle = KernelBundle::new("raid4", 4, 0.25, raid::raid4_program);
        let req = ScompRequest::new(bundle, all_lpas).with_stream_bytes(vec![32 * 1024; 4]);
        let r = ssd.scomp(&req).unwrap();
        assert_eq!(r.concat_output(), expect);
    }

    /// A mapped-but-unwritten physical page (reachable only through the
    /// test corruption hook) must surface as a typed flash error from
    /// `scomp` on the streaming path (`schedule_plans`), not as a panic.
    #[test]
    fn unwritten_page_surfaces_as_typed_error_on_stream_path() {
        let mut ssd = make_ssd(EngineKind::AssasinSb);
        let data: Vec<u8> = (0..64 * 1024).map(|i| (i % 239) as u8).collect();
        let lpas = ssd.load_object(0, &data).unwrap();
        ssd.corrupt_mapping_for_tests(lpas[3]);
        let req =
            ScompRequest::new(scan_bundle(), vec![lpas]).with_stream_bytes(vec![data.len() as u64]);
        match ssd.scomp(&req) {
            Err(SsdError::Ftl(assasin_ftl::FtlError::Flash(e))) => {
                let msg = e.to_string();
                assert!(
                    msg.contains("ch") || msg.contains("page"),
                    "flash error names the physical page: {msg}"
                );
            }
            other => panic!("expected a typed flash error, got {other:?}"),
        }
    }

    /// Same corruption on the Baseline engine exercises the DRAM staging
    /// path (`stage_windows`), which used to `.expect()` on flash reads.
    #[test]
    fn unwritten_page_surfaces_as_typed_error_on_staging_path() {
        let mut ssd = make_ssd(EngineKind::Baseline);
        let data: Vec<u8> = (0..64 * 1024).map(|i| (i % 239) as u8).collect();
        let lpas = ssd.load_object(0, &data).unwrap();
        ssd.corrupt_mapping_for_tests(lpas[0]);
        let req =
            ScompRequest::new(scan_bundle(), vec![lpas]).with_stream_bytes(vec![data.len() as u64]);
        assert!(
            matches!(
                ssd.scomp(&req),
                Err(SsdError::Ftl(assasin_ftl::FtlError::Flash(_)))
            ),
            "staging path propagates typed flash errors"
        );
    }
}
