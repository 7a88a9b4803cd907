//! The array itself: catalog, placement, degraded reads, rebuild, and
//! the deterministic timing roll-up over the shared host link.

use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;

use assasin_ftl::Lpa;
use assasin_sim::{HostLink, SimDur, SimTime};
use assasin_ssd::{KernelBundle, ScompRequest, Ssd, SsdImage};

use crate::config::ArrayConfig;
use crate::engine::{merge_completions, run_batch, Completion, DeviceCmd, DeviceReply, ExecError};
use crate::error::ArrayError;
use crate::placement::{ArrayPlacement, ChunkLoc, StoredObject, StripeLoc};
use crate::recover;

/// Cumulative per-device accounting.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct DeviceStats {
    /// Read commands served.
    pub reads: u64,
    /// Bytes delivered by reads.
    pub read_bytes: u64,
    /// Scomp commands served.
    pub scomps: u64,
    /// Bytes streamed into scomp kernels.
    pub scomp_bytes_in: u64,
    /// Store commands served.
    pub stores: u64,
    /// Flash pages written.
    pub pages_written: u64,
    /// Simulated device-busy time across all commands.
    pub busy: SimDur,
    /// Time this device's host transfers spent queued at the shared
    /// root.
    pub link_stalled: SimDur,
    /// Whether the device is currently failed.
    pub failed: bool,
}

/// Cumulative array-level accounting.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ArrayStats {
    /// Per-device accounting.
    pub devices: Vec<DeviceStats>,
    /// Bytes moved through the shared root.
    pub link_bytes: u64,
    /// Transfers through the shared root.
    pub link_transfers: u64,
    /// Total root contention stall.
    pub link_stalled: SimDur,
    /// Completions that crossed the deterministic event merge.
    pub merged_events: u64,
    /// Data chunks served via replica or parity reconstruction.
    pub degraded_chunk_reads: u64,
    /// Bytes read from surviving devices by rebuilds.
    pub rebuild_bytes_read: u64,
    /// Bytes written to replacement devices by rebuilds.
    pub rebuild_bytes_written: u64,
}

/// Shared-root accounting for one array operation.
#[derive(Debug, Clone, PartialEq)]
pub struct LinkReport {
    /// Bytes through the root.
    pub bytes: u64,
    /// Transfers through the root.
    pub transfers: u64,
    /// Total contention stall.
    pub stalled: SimDur,
    /// Stall attributed to each device's transfers.
    pub per_device_stalled: Vec<SimDur>,
}

/// Result of [`SsdArray::store_object`].
#[derive(Debug, Clone, PartialEq)]
pub struct StoreReport {
    /// Data chunks placed.
    pub data_chunks: u64,
    /// Replica chunks placed.
    pub replica_chunks: u64,
    /// Parity chunks placed.
    pub parity_chunks: u64,
    /// Flash pages written across the array.
    pub pages_written: u64,
    /// Pages written per device (placement-skew visibility).
    pub per_device_pages: Vec<u64>,
}

/// Result of [`SsdArray::read_object`].
#[derive(Debug, Clone, PartialEq)]
pub struct ArrayRead {
    /// The object's bytes.
    pub data: Vec<u8>,
    /// Host-visible completion time of the whole read.
    pub elapsed: SimDur,
    /// Data chunks served degraded (replica or parity reconstruction).
    pub degraded_chunks: u64,
    /// Shared-root accounting for this read.
    pub link: LinkReport,
}

/// One device's share of an [`SsdArray::scomp_object`].
#[derive(Debug, Clone, PartialEq)]
pub struct DeviceLane {
    /// The device.
    pub device: usize,
    /// Bytes streamed into the kernel on this device.
    pub bytes_in: u64,
    /// Bytes the kernel emitted.
    pub bytes_out: u64,
    /// Simulated time the device took.
    pub device_elapsed: SimDur,
    /// Host-visible completion (after the shared root).
    pub done: SimTime,
    /// In-device streaming throughput in GB/s.
    pub simulated_gbps: f64,
}

/// Result of [`SsdArray::scomp_object`].
#[derive(Debug, Clone, PartialEq)]
pub struct ArrayScomp {
    /// Per-lane kernel outputs, in [`ArrayScomp::per_device`] order.
    pub outputs: Vec<Vec<u8>>,
    /// Total bytes streamed into kernels.
    pub bytes_in: u64,
    /// Total bytes emitted.
    pub bytes_out: u64,
    /// Host-visible completion of the slowest lane.
    pub elapsed: SimDur,
    /// Per-device breakdown, ascending device id.
    pub per_device: Vec<DeviceLane>,
    /// Shared-root accounting for this operation.
    pub link: LinkReport,
}

impl ArrayScomp {
    /// Array-level delivered throughput in GB/s (input bytes over the
    /// host-visible elapsed time).
    pub fn throughput_gbps(&self) -> f64 {
        let s = self.elapsed.as_secs_f64();
        if s == 0.0 {
            0.0
        } else {
            self.bytes_in as f64 / s / 1e9
        }
    }

    /// All lane outputs concatenated in device order.
    pub fn concat_output(&self) -> Vec<u8> {
        self.outputs.iter().flatten().copied().collect()
    }
}

/// Result of [`SsdArray::rebuild_device`].
#[derive(Debug, Clone, PartialEq)]
pub struct RebuildReport {
    /// The rebuilt device.
    pub device: usize,
    /// Chunks reconstructed onto it.
    pub chunks: u64,
    /// Bytes read from surviving devices.
    pub bytes_read: u64,
    /// Bytes written to the replacement.
    pub bytes_written: u64,
    /// Host-visible time of the rebuild's read storm.
    pub elapsed: SimDur,
    /// Shared-root accounting (the storm's contention).
    pub link: LinkReport,
}

/// A read command still waiting for assembly.
struct Fetch {
    device: usize,
    lpas: Vec<Lpa>,
    bytes: u64,
}

/// An array of N simulated computational SSDs behind one shared root
/// complex, with host-side placement, erasure, and a deterministic
/// parallel execution engine. See the crate docs for the determinism
/// contract.
pub struct SsdArray {
    cfg: ArrayConfig,
    /// One slot per device; `None` while a device is poisoned by a
    /// panic caught in one of its commands, until a rebuild replaces it.
    devices: Vec<Option<Ssd>>,
    link: HostLink,
    catalog: BTreeMap<u64, StoredObject>,
    next_lpa: Vec<u64>,
    failed: Vec<bool>,
    stats: ArrayStats,
}

impl SsdArray {
    /// Builds an array of fresh (blank) devices.
    ///
    /// # Errors
    ///
    /// Returns [`ArrayError::BadConfig`] on an inconsistent
    /// configuration.
    pub fn new(cfg: ArrayConfig) -> Result<SsdArray, ArrayError> {
        cfg.validate()?;
        let devices = (0..cfg.devices)
            .map(|d| Some(Ssd::new(cfg.device_cfg(d))))
            .collect();
        Ok(Self::build(cfg, devices, 0))
    }

    /// Builds an array whose devices are all forked from one
    /// preconditioned image (clone-on-write, so N-device preconditioning
    /// costs one load). `first_free_lpa` must lie past the image's used
    /// pages; allocation for new objects starts there on every device.
    ///
    /// # Errors
    ///
    /// Returns [`ArrayError::BadConfig`] on an inconsistent
    /// configuration, including per-device fault seeds (a fork must
    /// preserve the media identity the image was built under).
    pub fn from_image(
        cfg: ArrayConfig,
        image: &SsdImage,
        first_free_lpa: u64,
    ) -> Result<SsdArray, ArrayError> {
        cfg.validate()?;
        if !cfg.fault_seeds.is_empty() {
            return Err(ArrayError::BadConfig(
                "per-device fault seeds cannot fork a shared image: the fault model is part \
                 of the media identity"
                    .into(),
            ));
        }
        let devices = (0..cfg.devices)
            .map(|_| Some(image.fork(cfg.device)))
            .collect();
        Ok(Self::build(cfg, devices, first_free_lpa))
    }

    fn build(cfg: ArrayConfig, devices: Vec<Option<Ssd>>, first_free_lpa: u64) -> SsdArray {
        let link = HostLink::new(cfg.devices, cfg.root_bw, cfg.root_latency);
        SsdArray {
            devices,
            link,
            catalog: BTreeMap::new(),
            next_lpa: vec![first_free_lpa; cfg.devices],
            failed: vec![false; cfg.devices],
            stats: ArrayStats {
                devices: vec![DeviceStats::default(); cfg.devices],
                ..ArrayStats::default()
            },
            cfg,
        }
    }

    /// The array configuration.
    pub fn config(&self) -> &ArrayConfig {
        &self.cfg
    }

    /// Number of devices.
    pub fn devices(&self) -> usize {
        self.cfg.devices
    }

    /// Cumulative array statistics.
    pub fn stats(&self) -> &ArrayStats {
        &self.stats
    }

    fn page_bytes(&self) -> u64 {
        self.cfg.device.geometry.page_bytes as u64
    }

    fn pages_for(&self, bytes: u64) -> u64 {
        bytes.div_ceil(self.page_bytes())
    }

    fn alloc(&mut self, device: usize, bytes: u64) -> ChunkLoc {
        let pages = self.pages_for(bytes);
        let first = self.next_lpa[device];
        self.next_lpa[device] += pages;
        ChunkLoc {
            device,
            lpas: (first..first + pages).map(Lpa).collect(),
            bytes,
        }
    }

    fn healthy(&self, device: usize, what: &'static str) -> Result<(), ArrayError> {
        if self.failed[device] {
            Err(ArrayError::Degraded { device, what })
        } else {
            Ok(())
        }
    }

    /// Folds this operation's link accounting into the cumulative stats,
    /// then returns the per-op report.
    fn finish_op(&mut self, merged_events: u64) -> LinkReport {
        let lanes = self.link.lane_stats().to_vec();
        let report = LinkReport {
            bytes: self.link.bytes_moved(),
            transfers: lanes.iter().map(|l| l.transfers).sum(),
            stalled: self.link.total_stalled(),
            per_device_stalled: lanes.iter().map(|l| l.stalled).collect(),
        };
        for (d, l) in lanes.iter().enumerate() {
            self.stats.devices[d].link_stalled += l.stalled;
        }
        self.stats.link_bytes += report.bytes;
        self.stats.link_transfers += report.transfers;
        self.stats.link_stalled += report.stalled;
        self.stats.merged_events += merged_events;
        report
    }

    fn run_batch(&mut self, cmds: Vec<(usize, DeviceCmd)>) -> Result<Vec<DeviceReply>, ArrayError> {
        let devices: Vec<usize> = cmds.iter().map(|(d, _)| *d).collect();
        let replies = run_batch(&mut self.devices, &self.cfg, cmds);
        replies
            .into_iter()
            .zip(devices)
            .map(|(r, device)| {
                r.map_err(|e| match e {
                    ExecError::Device(source) => ArrayError::Device { device, source },
                    ExecError::Worker(cause) => ArrayError::WorkerFailed { device, cause },
                })
            })
            .collect()
    }

    /// Runs timed `Read` fetches, accumulates per-device clocks, merges
    /// completions deterministically, charges the shared root in merged
    /// order, and returns `(per-fetch data, host elapsed, merged count)`.
    fn run_fetches(
        &mut self,
        fetches: &[Fetch],
    ) -> Result<(Vec<Vec<u8>>, SimDur, u64), ArrayError> {
        let cmds: Vec<(usize, DeviceCmd)> = fetches
            .iter()
            .map(|f| {
                (
                    f.device,
                    DeviceCmd::Read {
                        lpas: f.lpas.clone(),
                        bytes: f.bytes,
                    },
                )
            })
            .collect();
        let replies = self.run_batch(cmds)?;
        let mut clock = vec![SimTime::ZERO; self.cfg.devices];
        let mut completions = Vec::with_capacity(replies.len());
        let mut datas = Vec::with_capacity(replies.len());
        for (seq, reply) in replies.into_iter().enumerate() {
            let DeviceReply::Read { data, elapsed } = reply else {
                unreachable!("read command answered with a read reply");
            };
            let dev = fetches[seq].device;
            let ready = clock[dev] + elapsed;
            clock[dev] = ready;
            completions.push(Completion {
                ready,
                device: dev,
                seq: seq as u64,
                host_bytes: data.len() as u64,
            });
            let stats = &mut self.stats.devices[dev];
            stats.reads += 1;
            stats.read_bytes += data.len() as u64;
            stats.busy += elapsed;
            datas.push(data);
        }
        self.link.reset_time();
        let merged = merge_completions(completions);
        let mut done = SimTime::ZERO;
        for ev in &merged {
            done = done.max(self.link.transfer(ev.device, ev.ready, ev.host_bytes));
        }
        Ok((datas, done.since(SimTime::ZERO), merged.len() as u64))
    }

    /// Stores `data` as object `id` under the array's placement policy.
    /// Loading is untimed (dataset staging, mirroring
    /// `Ssd::load_object`); reads and scomp carry the timing.
    ///
    /// # Errors
    ///
    /// Fails on duplicate ids, empty objects, a failed device in the
    /// placement's path, or device write errors.
    pub fn store_object(&mut self, id: u64, data: &[u8]) -> Result<StoreReport, ArrayError> {
        if self.catalog.contains_key(&id) {
            return Err(ArrayError::DuplicateObject(id));
        }
        if data.is_empty() {
            return Err(ArrayError::BadConfig("cannot store an empty object".into()));
        }
        let chunk = self.cfg.chunk_bytes as usize;
        let n_chunks = data.len().div_ceil(chunk);
        let devices = self.cfg.devices;
        let placement = self.cfg.placement.clone();

        let chunk_slice = |c: usize| &data[c * chunk..(data.len().min((c + 1) * chunk))];

        let mut chunks: Vec<ChunkLoc> = Vec::with_capacity(n_chunks);
        let mut replicas: Vec<Vec<ChunkLoc>> = Vec::with_capacity(n_chunks);
        for c in 0..n_chunks {
            let bytes = chunk_slice(c).len() as u64;
            let dev = placement.data_device(devices, c);
            self.healthy(dev, "store placement")?;
            chunks.push(self.alloc(dev, bytes));
            let mut reps = Vec::new();
            for rd in placement.replica_devices(devices, c) {
                self.healthy(rd, "store replica placement")?;
                reps.push(self.alloc(rd, bytes));
            }
            replicas.push(reps);
        }

        let mut stripes: Vec<StripeLoc> = Vec::new();
        let parity_devs = placement.parity_device_ids(devices);
        if !parity_devs.is_empty() {
            let width = placement.data_width(devices);
            for (s, group) in chunks.chunks(width).enumerate() {
                let first_chunk = s * width;
                // Chunk sizes are non-increasing, so the stripe's coded
                // length is its first member's length.
                let len = group[0].bytes;
                let mut parity = Vec::new();
                for &pd in &parity_devs {
                    self.healthy(pd, "store parity placement")?;
                    parity.push(self.alloc(pd, len));
                }
                stripes.push(StripeLoc {
                    first_chunk,
                    width: group.len(),
                    len,
                    parity,
                });
            }
        }

        let mut cmds: Vec<(usize, DeviceCmd)> = Vec::new();
        let mut pages_of: Vec<(usize, u64)> = Vec::new();
        let push_store = |cmds: &mut Vec<(usize, DeviceCmd)>,
                          pages_of: &mut Vec<(usize, u64)>,
                          loc: &ChunkLoc,
                          payload: Arc<[u8]>| {
            pages_of.push((loc.device, loc.lpas.len() as u64));
            cmds.push((
                loc.device,
                DeviceCmd::Store {
                    first_lpa: loc.lpas[0].0,
                    data: payload,
                },
            ));
        };
        for (c, loc) in chunks.iter().enumerate() {
            let payload: Arc<[u8]> = Arc::from(chunk_slice(c));
            push_store(&mut cmds, &mut pages_of, loc, payload.clone());
            for rep in &replicas[c] {
                push_store(&mut cmds, &mut pages_of, rep, payload.clone());
            }
        }
        let mut parity_chunks = 0u64;
        for stripe in &stripes {
            let streams: Vec<&[u8]> = (0..stripe.width)
                .map(|i| chunk_slice(stripe.first_chunk + i))
                .collect();
            let len = stripe.len as usize;
            let payloads: Vec<Vec<u8>> = match placement {
                ArrayPlacement::Raid4 => vec![recover::p_parity(&streams, len)],
                ArrayPlacement::Raid6 => {
                    let (p, q) = recover::pq_parity(&streams, len);
                    vec![p, q]
                }
                _ => unreachable!("parity devices imply a RAID placement"),
            };
            for (loc, payload) in stripe.parity.iter().zip(payloads) {
                parity_chunks += 1;
                push_store(&mut cmds, &mut pages_of, loc, Arc::from(payload));
            }
        }

        let replies = self.run_batch(cmds)?;
        debug_assert!(
            replies.iter().zip(&pages_of).all(|(r, (_, pages))| {
                matches!(r, DeviceReply::Store { lpas } if lpas.len() as u64 == *pages)
            }),
            "devices wrote the pages the placement allocated"
        );
        let mut per_device_pages = vec![0u64; devices];
        for (d, pages) in pages_of {
            per_device_pages[d] += pages;
            let stats = &mut self.stats.devices[d];
            stats.stores += 1;
            stats.pages_written += pages;
        }
        let report = StoreReport {
            data_chunks: n_chunks as u64,
            replica_chunks: replicas.iter().map(|r| r.len() as u64).sum(),
            parity_chunks,
            pages_written: per_device_pages.iter().sum(),
            per_device_pages,
        };
        self.link.reset_time();
        self.finish_op(0);
        self.catalog.insert(
            id,
            StoredObject {
                bytes: data.len() as u64,
                chunk_bytes: self.cfg.chunk_bytes,
                chunks,
                replicas,
                stripes,
            },
        );
        Ok(report)
    }

    /// Registers an object that already lives on the media — every
    /// device was forked from the same image, so consecutive pages
    /// starting at `first_lpa` hold the object's bytes on *all* devices
    /// and a striped view can address chunk `c` on its placement device
    /// directly. Only the non-redundant placements qualify: replica and
    /// parity chunks were never written.
    ///
    /// # Errors
    ///
    /// Fails on duplicate ids, zero-length objects, or a redundant
    /// placement policy.
    pub fn adopt_striped(&mut self, id: u64, first_lpa: u64, bytes: u64) -> Result<(), ArrayError> {
        match self.cfg.placement {
            ArrayPlacement::Striped | ArrayPlacement::WeightedStriped { .. } => {}
            _ => {
                return Err(ArrayError::BadConfig(
                    "adopt_striped needs a non-redundant placement: replica/parity chunks \
                     are not on the image"
                        .into(),
                ))
            }
        }
        if self.catalog.contains_key(&id) {
            return Err(ArrayError::DuplicateObject(id));
        }
        if bytes == 0 {
            return Err(ArrayError::BadConfig("cannot adopt an empty object".into()));
        }
        let chunk_pages = self.cfg.chunk_bytes / self.page_bytes();
        let n_chunks = bytes.div_ceil(self.cfg.chunk_bytes) as usize;
        let mut chunks = Vec::with_capacity(n_chunks);
        for c in 0..n_chunks {
            let cb = self
                .cfg
                .chunk_bytes
                .min(bytes - c as u64 * self.cfg.chunk_bytes);
            let dev = self.cfg.placement.data_device(self.cfg.devices, c);
            let first = first_lpa + c as u64 * chunk_pages;
            let pages = self.pages_for(cb);
            chunks.push(ChunkLoc {
                device: dev,
                lpas: (first..first + pages).map(Lpa).collect(),
                bytes: cb,
            });
            self.next_lpa[dev] = self.next_lpa[dev].max(first + chunk_pages);
        }
        self.catalog.insert(
            id,
            StoredObject {
                bytes,
                chunk_bytes: self.cfg.chunk_bytes,
                replicas: vec![Vec::new(); n_chunks],
                stripes: Vec::new(),
                chunks,
            },
        );
        Ok(())
    }

    /// Reads object `id` back, reconstructing chunks on failed devices
    /// from replicas or parity (degraded read).
    ///
    /// # Errors
    ///
    /// Fails on unknown ids, more failures than the placement's
    /// redundancy ([`ArrayError::DataLoss`]), or device errors.
    pub fn read_object(&mut self, id: u64) -> Result<ArrayRead, ArrayError> {
        let obj = self
            .catalog
            .get(&id)
            .ok_or(ArrayError::UnknownObject(id))?
            .clone();
        let n_chunks = obj.chunks.len();
        let mut fetches: Vec<Fetch> = Vec::new();
        let mut chunk_fetch: Vec<Option<usize>> = vec![None; n_chunks];
        let mut stripe_parity_fetch: Vec<[Option<usize>; 2]> = vec![[None; 2]; obj.stripes.len()];
        let mut degraded_chunks = 0u64;

        let fetch = |fetches: &mut Vec<Fetch>, loc: &ChunkLoc| -> usize {
            fetches.push(Fetch {
                device: loc.device,
                lpas: loc.lpas.clone(),
                bytes: loc.bytes,
            });
            fetches.len() - 1
        };

        if obj.stripes.is_empty() {
            // Striped / weighted / replicated: direct or replica reads.
            for (c, loc) in obj.chunks.iter().enumerate() {
                if !self.failed[loc.device] {
                    chunk_fetch[c] = Some(fetch(&mut fetches, loc));
                    continue;
                }
                let Some(rep) = obj.replicas[c].iter().find(|r| !self.failed[r.device]) else {
                    return Err(ArrayError::DataLoss {
                        object: id,
                        chunk: c,
                    });
                };
                degraded_chunks += 1;
                chunk_fetch[c] = Some(fetch(&mut fetches, rep));
            }
        } else {
            for (s, stripe) in obj.stripes.iter().enumerate() {
                let members = &obj.chunks[stripe.first_chunk..stripe.first_chunk + stripe.width];
                let lost: Vec<usize> = (0..stripe.width)
                    .filter(|&i| self.failed[members[i].device])
                    .collect();
                for (i, loc) in members.iter().enumerate() {
                    if !lost.contains(&i) {
                        chunk_fetch[stripe.first_chunk + i] = Some(fetch(&mut fetches, loc));
                    }
                }
                if lost.is_empty() {
                    continue;
                }
                degraded_chunks += lost.len() as u64;
                let avail: Vec<usize> = (0..stripe.parity.len())
                    .filter(|&k| !self.failed[stripe.parity[k].device])
                    .collect();
                if lost.len() > avail.len() {
                    return Err(ArrayError::DataLoss {
                        object: id,
                        chunk: stripe.first_chunk + lost[0],
                    });
                }
                // One loss: one syndrome (prefer P). Two losses: P and Q.
                for &k in avail.iter().take(lost.len()) {
                    stripe_parity_fetch[s][k] = Some(fetch(&mut fetches, &stripe.parity[k]));
                }
            }
        }

        let (datas, elapsed, merged) = self.run_fetches(&fetches)?;
        let link = self.finish_op(merged);
        self.stats.degraded_chunk_reads += degraded_chunks;

        // Reconstruct lost stripe members host-side.
        let mut recovered: HashMap<usize, Vec<u8>> = HashMap::new();
        for (s, stripe) in obj.stripes.iter().enumerate() {
            let members = &obj.chunks[stripe.first_chunk..stripe.first_chunk + stripe.width];
            let lost: Vec<usize> = (0..stripe.width)
                .filter(|&i| chunk_fetch[stripe.first_chunk + i].is_none())
                .collect();
            if lost.is_empty() {
                continue;
            }
            let len = stripe.len as usize;
            let survivors_raw: Vec<(usize, &[u8])> = (0..stripe.width)
                .filter_map(|i| {
                    chunk_fetch[stripe.first_chunk + i].map(|fi| (i, datas[fi].as_slice()))
                })
                .collect();
            let survivors_padded = recover::pad_streams(&survivors_raw, len);
            let survivors: Vec<(usize, &[u8])> = survivors_padded
                .iter()
                .map(|(i, v)| (*i, v.as_slice()))
                .collect();
            let p = stripe_parity_fetch[s][0].map(|fi| datas[fi].as_slice());
            let q = stripe_parity_fetch[s][1].map(|fi| datas[fi].as_slice());
            let rebuilt =
                recover::recover_lost(&survivors, &lost, p, q).ok_or(ArrayError::DataLoss {
                    object: id,
                    chunk: stripe.first_chunk + lost[0],
                })?;
            for (i, mut bytes) in rebuilt {
                bytes.truncate(members[i].bytes as usize);
                recovered.insert(stripe.first_chunk + i, bytes);
            }
        }

        let mut out = Vec::with_capacity(obj.bytes as usize);
        for (c, loc) in obj.chunks.iter().enumerate() {
            match chunk_fetch[c] {
                Some(fi) => out.extend_from_slice(&datas[fi][..loc.bytes as usize]),
                None => out.extend_from_slice(&recovered[&c]),
            }
        }
        debug_assert_eq!(out.len() as u64, obj.bytes);
        Ok(ArrayRead {
            data: out,
            elapsed,
            degraded_chunks,
            link,
        })
    }

    /// Runs a streaming kernel over object `id`, one scomp per device
    /// holding data chunks, each device streaming its local chunks in
    /// object order. Kernel outputs cross the shared root to the host.
    /// `make_kernel` builds one bundle per participating device.
    ///
    /// Computation has no parity path: a failed device is served from a
    /// replica when the placement has one, otherwise the operation is
    /// [`ArrayError::Degraded`] (read the object and compute on the host
    /// instead).
    ///
    /// # Errors
    ///
    /// Fails on unknown ids, a failed device without a replica, or
    /// device errors.
    pub fn scomp_object(
        &mut self,
        id: u64,
        make_kernel: impl Fn() -> KernelBundle,
    ) -> Result<ArrayScomp, ArrayError> {
        let obj = self
            .catalog
            .get(&id)
            .ok_or(ArrayError::UnknownObject(id))?
            .clone();
        // Per-device streams in ascending device order; chunks appended
        // in object order so only the final (possibly partial) chunk can
        // break the byte-prefix rule — and it is last in its stream.
        let mut per_dev: BTreeMap<usize, (Vec<Lpa>, u64)> = BTreeMap::new();
        for (c, loc) in obj.chunks.iter().enumerate() {
            let use_loc = if !self.failed[loc.device] {
                loc
            } else {
                obj.replicas[c]
                    .iter()
                    .find(|r| !self.failed[r.device])
                    .ok_or(ArrayError::Degraded {
                        device: loc.device,
                        what: "scomp over a chunk with no healthy copy",
                    })?
            };
            let entry = per_dev.entry(use_loc.device).or_default();
            entry.0.extend_from_slice(&use_loc.lpas);
            entry.1 += use_loc.bytes;
        }

        let cmds: Vec<(usize, DeviceCmd)> = per_dev
            .iter()
            .map(|(&dev, (lpas, bytes))| {
                let req = ScompRequest::new(make_kernel(), vec![lpas.clone()])
                    .with_stream_bytes(vec![*bytes]);
                (dev, DeviceCmd::Scomp { req: Box::new(req) })
            })
            .collect();
        let replies = self.run_batch(cmds)?;

        let lane_devices: Vec<usize> = per_dev.keys().copied().collect();
        let mut completions = Vec::with_capacity(replies.len());
        let mut results = Vec::with_capacity(replies.len());
        for (seq, reply) in replies.into_iter().enumerate() {
            let DeviceReply::Scomp { result } = reply else {
                unreachable!("scomp command answered with a scomp reply");
            };
            let dev = lane_devices[seq];
            completions.push(Completion {
                ready: SimTime::ZERO + result.elapsed,
                device: dev,
                seq: seq as u64,
                host_bytes: result.bytes_out,
            });
            let stats = &mut self.stats.devices[dev];
            stats.scomps += 1;
            stats.scomp_bytes_in += result.bytes_in;
            stats.busy += result.elapsed;
            results.push(result);
        }
        self.link.reset_time();
        let merged = merge_completions(completions);
        let mut dones: HashMap<usize, SimTime> = HashMap::new();
        let mut done_max = SimTime::ZERO;
        for ev in &merged {
            let done = self.link.transfer(ev.device, ev.ready, ev.host_bytes);
            dones.insert(ev.device, done);
            done_max = done_max.max(done);
        }
        let link = self.finish_op(merged.len() as u64);

        let per_device: Vec<DeviceLane> = lane_devices
            .iter()
            .zip(&results)
            .map(|(&device, r)| DeviceLane {
                device,
                bytes_in: r.bytes_in,
                bytes_out: r.bytes_out,
                device_elapsed: r.elapsed,
                done: dones[&device],
                simulated_gbps: r.throughput_gbps(),
            })
            .collect();
        Ok(ArrayScomp {
            outputs: results.iter().map(|r| r.concat_output()).collect(),
            bytes_in: results.iter().map(|r| r.bytes_in).sum(),
            bytes_out: results.iter().map(|r| r.bytes_out).sum(),
            elapsed: done_max.since(SimTime::ZERO),
            per_device,
            link,
        })
    }

    /// Marks a device failed. Subsequent reads take the degraded path;
    /// stores and scomp needing the device error out until
    /// [`SsdArray::rebuild_device`].
    ///
    /// # Panics
    ///
    /// Panics if `device` is out of range.
    pub fn fail_device(&mut self, device: usize) {
        assert!(device < self.cfg.devices, "device {device} out of range");
        self.failed[device] = true;
        self.stats.devices[device].failed = true;
    }

    /// Replaces failed device `device` with a factory-blank drive and
    /// reconstructs every chunk it held — data from replicas or parity,
    /// parity recomputed from (recovered) data. The reconstruction reads
    /// are timed and contend the shared root: this is the rebuild storm.
    ///
    /// # Errors
    ///
    /// Fails with [`ArrayError::BadConfig`] if `device` is out of range
    /// or not failed, with [`ArrayError::DataLoss`] if any chunk is
    /// unrecoverable, or on device errors.
    pub fn rebuild_device(&mut self, device: usize) -> Result<RebuildReport, ArrayError> {
        if device >= self.cfg.devices {
            return Err(ArrayError::BadConfig(format!(
                "device {device} out of range for a {}-device array",
                self.cfg.devices
            )));
        }
        if !self.failed[device] {
            return Err(ArrayError::BadConfig(format!(
                "device {device} is not failed; nothing to rebuild"
            )));
        }

        // Writes planned against each object: (destination first LPA,
        // payload bytes) resolved after the fetch pass.
        enum Pending {
            /// Straight copy of a fetched chunk.
            Copy { fetch: usize, dst: u64, bytes: u64 },
            /// Stripe work: reconstruct the member set, then emit the
            /// requested roles onto the rebuilt device.
            Stripe {
                object: u64,
                first_chunk: usize,
                /// Member positions on failed devices, ascending.
                lost: Vec<usize>,
                member_fetch: Vec<Option<usize>>,
                p_fetch: Option<usize>,
                q_fetch: Option<usize>,
                len: u64,
                /// `(role, dst, bytes)`: role 0..width = data position,
                /// width = P, width + 1 = Q.
                out: Vec<(usize, u64, u64)>,
            },
        }

        let mut fetches: Vec<Fetch> = Vec::new();
        let mut pending: Vec<Pending> = Vec::new();
        let fetch = |fetches: &mut Vec<Fetch>, loc: &ChunkLoc| -> usize {
            fetches.push(Fetch {
                device: loc.device,
                lpas: loc.lpas.clone(),
                bytes: loc.bytes,
            });
            fetches.len() - 1
        };

        let objects: Vec<(u64, StoredObject)> = self
            .catalog
            .iter()
            .map(|(id, o)| (*id, o.clone()))
            .collect();
        for (id, obj) in &objects {
            if obj.stripes.is_empty() {
                for (c, loc) in obj.chunks.iter().enumerate() {
                    let copies: Vec<&ChunkLoc> =
                        std::iter::once(loc).chain(&obj.replicas[c]).collect();
                    for dst in copies.iter().filter(|l| l.device == device) {
                        let Some(src) = copies
                            .iter()
                            .find(|l| l.device != device && !self.failed[l.device])
                        else {
                            return Err(ArrayError::DataLoss {
                                object: *id,
                                chunk: c,
                            });
                        };
                        pending.push(Pending::Copy {
                            fetch: fetch(&mut fetches, src),
                            dst: dst.lpas[0].0,
                            bytes: dst.bytes,
                        });
                    }
                }
            } else {
                for stripe in &obj.stripes {
                    let members =
                        &obj.chunks[stripe.first_chunk..stripe.first_chunk + stripe.width];
                    let mut out: Vec<(usize, u64, u64)> = Vec::new();
                    for (i, loc) in members.iter().enumerate() {
                        if loc.device == device {
                            out.push((i, loc.lpas[0].0, loc.bytes));
                        }
                    }
                    for (k, loc) in stripe.parity.iter().enumerate() {
                        if loc.device == device {
                            out.push((stripe.width + k, loc.lpas[0].0, loc.bytes));
                        }
                    }
                    if out.is_empty() {
                        continue;
                    }
                    let member_fetch: Vec<Option<usize>> = members
                        .iter()
                        .map(|loc| (!self.failed[loc.device]).then(|| fetch(&mut fetches, loc)))
                        .collect();
                    let lost: Vec<usize> = member_fetch
                        .iter()
                        .enumerate()
                        .filter_map(|(i, f)| f.is_none().then_some(i))
                        .collect();
                    let usable: Vec<Option<usize>> = stripe
                        .parity
                        .iter()
                        .map(|loc| (!self.failed[loc.device]).then(|| fetch(&mut fetches, loc)))
                        .collect();
                    let avail = usable.iter().filter(|f| f.is_some()).count();
                    if lost.len() > avail {
                        return Err(ArrayError::DataLoss {
                            object: *id,
                            chunk: stripe.first_chunk + lost[0],
                        });
                    }
                    pending.push(Pending::Stripe {
                        object: *id,
                        first_chunk: stripe.first_chunk,
                        lost,
                        member_fetch,
                        p_fetch: usable.first().copied().flatten(),
                        q_fetch: usable.get(1).copied().flatten(),
                        len: stripe.len,
                        out,
                    });
                }
            }
        }

        let (datas, elapsed, merged) = self.run_fetches(&fetches)?;
        let bytes_read: u64 = datas.iter().map(|d| d.len() as u64).sum();
        let link = self.finish_op(merged);

        // Resolve payloads and write them to the blank replacement.
        let mut cmds: Vec<(usize, DeviceCmd)> = vec![(device, DeviceCmd::Replace)];
        let mut chunks = 0u64;
        let mut bytes_written = 0u64;
        let mut pages_written = 0u64;
        for p in &pending {
            match p {
                Pending::Copy { fetch, dst, bytes } => {
                    chunks += 1;
                    bytes_written += bytes;
                    pages_written += self.pages_for(*bytes);
                    cmds.push((
                        device,
                        DeviceCmd::Store {
                            first_lpa: *dst,
                            data: Arc::from(&datas[*fetch][..*bytes as usize]),
                        },
                    ));
                }
                Pending::Stripe {
                    object,
                    first_chunk,
                    lost,
                    member_fetch,
                    p_fetch,
                    q_fetch,
                    len,
                    out,
                } => {
                    let len = *len as usize;
                    // Zero-pad the survivors to the stripe length.
                    let survivors_padded: Vec<(usize, Vec<u8>)> = member_fetch
                        .iter()
                        .enumerate()
                        .filter_map(|(i, f)| f.map(|fi| (i, datas[fi].as_slice())))
                        .map(|(i, s)| {
                            let mut v = vec![0u8; len];
                            v[..s.len()].copy_from_slice(s);
                            (i, v)
                        })
                        .collect();
                    let survivors: Vec<(usize, &[u8])> = survivors_padded
                        .iter()
                        .map(|(i, v)| (*i, v.as_slice()))
                        .collect();
                    let p = p_fetch.map(|fi| datas[fi].as_slice());
                    let q = q_fetch.map(|fi| datas[fi].as_slice());
                    let data_loss = |i: usize| ArrayError::DataLoss {
                        object: *object,
                        chunk: first_chunk + i,
                    };
                    let rebuilt = recover::recover_lost(&survivors, lost, p, q)
                        .ok_or_else(|| data_loss(lost[0]))?;
                    // The full member set: fetched survivors plus the
                    // reconstructed (zero-padded) lost members.
                    let members: Vec<&[u8]> = member_fetch
                        .iter()
                        .enumerate()
                        .map(|(i, f)| match f {
                            Some(fi) => Ok(datas[*fi].as_slice()),
                            None => rebuilt
                                .iter()
                                .find(|(j, _)| *j == i)
                                .map(|(_, v)| v.as_slice())
                                .ok_or_else(|| data_loss(i)),
                        })
                        .collect::<Result<_, _>>()?;
                    for &(role, dst, bytes) in out {
                        // A lost parity chunk is recomputed as only the
                        // syndrome it holds.
                        let payload: Vec<u8> = if role < members.len() {
                            members[role][..bytes as usize].to_vec()
                        } else if role == members.len() {
                            recover::p_parity(&members, len)
                        } else {
                            recover::q_parity(&members, len)
                        };
                        chunks += 1;
                        bytes_written += payload.len() as u64;
                        pages_written += self.pages_for(payload.len() as u64);
                        cmds.push((
                            device,
                            DeviceCmd::Store {
                                first_lpa: dst,
                                data: Arc::from(payload),
                            },
                        ));
                    }
                }
            }
        }
        self.run_batch(cmds)?;
        self.failed[device] = false;
        let stats = &mut self.stats.devices[device];
        stats.failed = false;
        stats.stores += chunks;
        stats.pages_written += pages_written;
        self.stats.rebuild_bytes_read += bytes_read;
        self.stats.rebuild_bytes_written += bytes_written;
        Ok(RebuildReport {
            device,
            chunks,
            bytes_read,
            bytes_written,
            elapsed,
            link,
        })
    }
}
