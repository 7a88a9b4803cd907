//! The array itself: catalog, placement, degraded reads, rebuild, and
//! the deterministic timing roll-up over the shared host link.

use std::borrow::Cow;
use std::collections::BTreeMap;
use std::sync::Arc;

use assasin_ftl::Lpa;
use assasin_sim::{HostLink, SimDur, SimTime};
use assasin_ssd::{KernelBundle, ScompRequest, Ssd};

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
    /// Whether the device is currently down: failed, or poisoned by a
    /// panic caught in one of its commands.
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

/// One stripe's reads as queued by [`SsdArray::plan_stripe`]: indices
/// into the operation's fetch list.
struct StripePlan {
    /// Per member, in stripe order: its read, or `None` when its device
    /// is down.
    members: Vec<Option<usize>>,
    /// The syndromes read, by slot (`[P, Q]`).
    syndromes: [Option<usize>; 2],
}

impl StripePlan {
    /// Positions of the members whose devices are down, ascending.
    fn lost(&self) -> Vec<usize> {
        (0..self.members.len())
            .filter(|&i| self.members[i].is_none())
            .collect()
    }
}

/// The data chunks `stripe` protects.
fn stripe_chunks<'a>(obj: &'a StoredObject, stripe: &StripeLoc) -> &'a [ChunkLoc] {
    &obj.chunks[stripe.first_chunk..stripe.first_chunk + stripe.width]
}

/// A stripe's full member set from the reads `plan` queued: survivors as
/// read, and lost members (zero-padded to the stripe length)
/// reconstructed from the syndromes read.
fn stripe_members<'d>(
    object: u64,
    stripe: &StripeLoc,
    plan: &StripePlan,
    datas: &'d [Vec<u8>],
) -> Result<Vec<Cow<'d, [u8]>>, ArrayError> {
    let read = |f: Option<usize>| f.map(|fi| datas[fi].as_slice());
    let mut members: Vec<Cow<'d, [u8]>> = plan
        .members
        .iter()
        .map(|&f| Cow::Borrowed(read(f).unwrap_or_default()))
        .collect();
    let lost = plan.lost();
    if lost.is_empty() {
        return Ok(members);
    }
    let survivors: Vec<(usize, &[u8])> = plan
        .members
        .iter()
        .enumerate()
        .filter_map(|(i, &f)| Some((i, read(f)?)))
        .collect();
    let padded = recover::pad_streams(&survivors, stripe.len as usize);
    let survivors: Vec<(usize, &[u8])> = padded.iter().map(|(i, v)| (*i, v.as_slice())).collect();
    let [p, q] = plan.syndromes.map(read);
    let rebuilt = recover::recover_lost(&survivors, &lost, p, q).ok_or(ArrayError::DataLoss {
        object,
        chunk: stripe.first_chunk + lost[0],
    })?;
    for (i, bytes) in rebuilt {
        members[i] = Cow::Owned(bytes);
    }
    Ok(members)
}

/// An array of N simulated computational SSDs behind one shared root
/// complex, with host-side placement, erasure, and a deterministic
/// parallel execution engine. See the crate docs for the determinism
/// contract.
pub struct SsdArray {
    cfg: ArrayConfig,
    /// One slot per device; `None` while the device is down — failed by
    /// [`SsdArray::fail_device`] or poisoned by a panic caught in one of
    /// its commands — until a rebuild replaces it.
    devices: Vec<Option<Ssd>>,
    link: HostLink,
    catalog: BTreeMap<u64, StoredObject>,
    next_lpa: Vec<u64>,
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
        Ok(SsdArray {
            devices: (0..cfg.devices)
                .map(|d| Some(Ssd::new(cfg.device_cfg(d))))
                .collect(),
            link: HostLink::new(cfg.devices, cfg.root_bw, cfg.root_latency),
            catalog: BTreeMap::new(),
            next_lpa: vec![0; cfg.devices],
            stats: ArrayStats {
                devices: vec![DeviceStats::default(); cfg.devices],
                ..ArrayStats::default()
            },
            cfg,
        })
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

    fn alloc(&mut self, device: usize, bytes: u64) -> ChunkLoc {
        let pages = bytes.div_ceil(self.cfg.device.geometry.page_bytes as u64);
        let first = self.next_lpa[device];
        self.next_lpa[device] += pages;
        ChunkLoc {
            device,
            lpas: (first..first + pages).map(Lpa).collect(),
            bytes,
        }
    }

    fn up(&self, device: usize) -> bool {
        self.devices[device].is_some()
    }

    fn healthy(&self, device: usize, what: &'static str) -> Result<(), ArrayError> {
        if self.up(device) {
            Ok(())
        } else {
            Err(ArrayError::Degraded { device, what })
        }
    }

    /// The copy of chunk `c` to read: the primary when its device is up,
    /// else the first replica on a device that is up.
    fn healthy_copy<'a>(&self, obj: &'a StoredObject, c: usize) -> Option<&'a ChunkLoc> {
        std::iter::once(&obj.chunks[c])
            .chain(&obj.replicas[c])
            .find(|loc| self.up(loc.device))
    }

    /// Queues the reads one stripe's recovery needs: every member on an
    /// up device, then the syndromes on up devices in `[P, Q]` order, as
    /// many as the stripe has lost members plus `spare`.
    ///
    /// # Errors
    ///
    /// [`ArrayError::DataLoss`] when more members are lost than
    /// syndromes survive.
    fn plan_stripe<'a>(
        &self,
        object: u64,
        obj: &'a StoredObject,
        stripe: &'a StripeLoc,
        spare: usize,
        fetches: &mut Vec<&'a ChunkLoc>,
    ) -> Result<StripePlan, ArrayError> {
        let mut fetch = |loc: &'a ChunkLoc| {
            fetches.push(loc);
            fetches.len() - 1
        };
        let mut plan = StripePlan {
            members: stripe_chunks(obj, stripe)
                .iter()
                .map(|loc| self.up(loc.device).then(|| fetch(loc)))
                .collect(),
            syndromes: [None; 2],
        };
        let lost = plan.lost();
        let healthy: Vec<usize> = (0..stripe.parity.len())
            .filter(|&k| self.up(stripe.parity[k].device))
            .collect();
        if lost.len() > healthy.len() {
            return Err(ArrayError::DataLoss {
                object,
                chunk: stripe.first_chunk + lost[0],
            });
        }
        for k in healthy.into_iter().take(lost.len() + spare) {
            plan.syndromes[k] = Some(fetch(&stripe.parity[k]));
        }
        Ok(plan)
    }

    /// Runs one batch of device commands, maps executor failures onto
    /// array errors, and records which devices a caught panic took down.
    fn run_batch(&mut self, cmds: Vec<(usize, DeviceCmd)>) -> Result<Vec<DeviceReply>, ArrayError> {
        let devices: Vec<usize> = cmds.iter().map(|(d, _)| *d).collect();
        let replies = run_batch(&mut self.devices, &self.cfg, cmds);
        for (stats, slot) in self.stats.devices.iter_mut().zip(&self.devices) {
            stats.failed = slot.is_none();
        }
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

    /// Charges one operation's host-bound transfers through the shared
    /// root. `transfers` holds `(device, elapsed, bytes)` per command in
    /// issue order: per-device clocks accumulate the elapsed times, the
    /// completions cross the root in merged `(time, device, seq)` order,
    /// and the operation's accounting folds into the cumulative stats.
    /// Returns each transfer's host-visible completion, in issue order,
    /// and the operation's link report.
    fn cross_root(&mut self, transfers: &[(usize, SimDur, u64)]) -> (Vec<SimTime>, LinkReport) {
        let mut clock = vec![SimTime::ZERO; self.cfg.devices];
        let mut completions = Vec::with_capacity(transfers.len());
        for (seq, &(device, elapsed, host_bytes)) in transfers.iter().enumerate() {
            clock[device] += elapsed;
            self.stats.devices[device].busy += elapsed;
            completions.push(Completion {
                ready: clock[device],
                device,
                seq: seq as u64,
                host_bytes,
            });
        }
        self.link.reset_time();
        let mut dones = vec![SimTime::ZERO; transfers.len()];
        for ev in merge_completions(completions) {
            dones[ev.seq as usize] = self.link.transfer(ev.device, ev.ready, ev.host_bytes);
        }
        let lanes = self.link.lane_stats();
        let report = LinkReport {
            bytes: self.link.bytes_moved(),
            transfers: lanes.iter().map(|l| l.transfers).sum(),
            stalled: self.link.total_stalled(),
            per_device_stalled: lanes.iter().map(|l| l.stalled).collect(),
        };
        for (stats, &stalled) in self
            .stats
            .devices
            .iter_mut()
            .zip(&report.per_device_stalled)
        {
            stats.link_stalled += stalled;
        }
        self.stats.link_bytes += report.bytes;
        self.stats.link_transfers += report.transfers;
        self.stats.link_stalled += report.stalled;
        self.stats.merged_events += transfers.len() as u64;
        (dones, report)
    }

    /// Runs timed reads of `fetches` through the shared root and returns
    /// `(per-fetch data, host elapsed, link report)`.
    fn run_fetches(
        &mut self,
        fetches: &[&ChunkLoc],
    ) -> Result<(Vec<Vec<u8>>, SimDur, LinkReport), ArrayError> {
        let cmds: Vec<(usize, DeviceCmd)> = fetches
            .iter()
            .map(|loc| {
                (
                    loc.device,
                    DeviceCmd::Read {
                        lpas: loc.lpas.clone(),
                        bytes: loc.bytes,
                    },
                )
            })
            .collect();
        let replies = self.run_batch(cmds)?;
        let mut transfers = Vec::with_capacity(replies.len());
        let mut datas = Vec::with_capacity(replies.len());
        for (loc, reply) in fetches.iter().zip(replies) {
            let DeviceReply::Read { data, elapsed } = reply else {
                unreachable!("read command answered with a read reply");
            };
            let stats = &mut self.stats.devices[loc.device];
            stats.reads += 1;
            stats.read_bytes += data.len() as u64;
            transfers.push((loc.device, elapsed, data.len() as u64));
            datas.push(data);
        }
        let (dones, link) = self.cross_root(&transfers);
        let done = dones.into_iter().max().unwrap_or(SimTime::ZERO);
        Ok((datas, done.since(SimTime::ZERO), link))
    }

    /// Writes each payload at its chunk's pages (untimed loads) and
    /// counts the writes in the per-device stats.
    fn write_chunks(&mut self, writes: Vec<(&ChunkLoc, Arc<[u8]>)>) -> Result<(), ArrayError> {
        let mut pages_of: Vec<(usize, u64)> = Vec::with_capacity(writes.len());
        let cmds: Vec<(usize, DeviceCmd)> = writes
            .into_iter()
            .map(|(loc, data)| {
                pages_of.push((loc.device, loc.lpas.len() as u64));
                let first_lpa = loc.lpas[0].0;
                (loc.device, DeviceCmd::Store { first_lpa, data })
            })
            .collect();
        let replies = self.run_batch(cmds)?;
        debug_assert!(
            replies.iter().zip(&pages_of).all(|(r, (_, pages))| {
                matches!(r, DeviceReply::Store { lpas } if lpas.len() as u64 == *pages)
            }),
            "devices wrote the pages the placement allocated"
        );
        for (d, pages) in pages_of {
            let stats = &mut self.stats.devices[d];
            stats.stores += 1;
            stats.pages_written += pages;
        }
        Ok(())
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

        let mut writes: Vec<(&ChunkLoc, Arc<[u8]>)> = Vec::new();
        for (c, loc) in chunks.iter().enumerate() {
            let payload: Arc<[u8]> = Arc::from(chunk_slice(c));
            for copy in std::iter::once(loc).chain(&replicas[c]) {
                writes.push((copy, payload.clone()));
            }
        }
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
            writes.extend(
                stripe
                    .parity
                    .iter()
                    .zip(payloads.into_iter().map(Arc::from)),
            );
        }

        let mut per_device_pages = vec![0u64; devices];
        for (loc, _) in &writes {
            per_device_pages[loc.device] += loc.lpas.len() as u64;
        }
        let report = StoreReport {
            data_chunks: n_chunks as u64,
            replica_chunks: replicas.iter().map(|r| r.len() as u64).sum(),
            parity_chunks: stripes.iter().map(|s| s.parity.len() as u64).sum(),
            pages_written: per_device_pages.iter().sum(),
            per_device_pages,
        };
        self.write_chunks(writes)?;
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
        let mut fetches: Vec<&ChunkLoc> = Vec::new();
        let mut plans: Vec<StripePlan> = Vec::with_capacity(obj.stripes.len());
        let mut degraded_chunks = 0u64;
        if obj.stripes.is_empty() {
            // Striped / weighted / replicated: direct or replica reads.
            for (c, primary) in obj.chunks.iter().enumerate() {
                let loc = self.healthy_copy(&obj, c).ok_or(ArrayError::DataLoss {
                    object: id,
                    chunk: c,
                })?;
                degraded_chunks += u64::from(loc.device != primary.device);
                fetches.push(loc);
            }
        } else {
            for stripe in &obj.stripes {
                let plan = self.plan_stripe(id, &obj, stripe, 0, &mut fetches)?;
                degraded_chunks += plan.lost().len() as u64;
                plans.push(plan);
            }
        }

        let (datas, elapsed, link) = self.run_fetches(&fetches)?;
        self.stats.degraded_chunk_reads += degraded_chunks;

        let data = if plans.is_empty() {
            datas.concat()
        } else {
            let mut out = Vec::with_capacity(obj.bytes as usize);
            for (stripe, plan) in obj.stripes.iter().zip(&plans) {
                let members = stripe_members(id, stripe, plan, &datas)?;
                for (loc, member) in stripe_chunks(&obj, stripe).iter().zip(&members) {
                    out.extend_from_slice(&member[..loc.bytes as usize]);
                }
            }
            out
        };
        debug_assert_eq!(data.len() as u64, obj.bytes);
        Ok(ArrayRead {
            data,
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
        for (c, primary) in obj.chunks.iter().enumerate() {
            let loc = self.healthy_copy(&obj, c).ok_or(ArrayError::Degraded {
                device: primary.device,
                what: "scomp over a chunk with no healthy copy",
            })?;
            let entry = per_dev.entry(loc.device).or_default();
            entry.0.extend_from_slice(&loc.lpas);
            entry.1 += loc.bytes;
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

        let mut transfers = Vec::with_capacity(replies.len());
        let mut results = Vec::with_capacity(replies.len());
        for (&dev, reply) in per_dev.keys().zip(replies) {
            let DeviceReply::Scomp { result } = reply else {
                unreachable!("scomp command answered with a scomp reply");
            };
            let stats = &mut self.stats.devices[dev];
            stats.scomps += 1;
            stats.scomp_bytes_in += result.bytes_in;
            transfers.push((dev, result.elapsed, result.bytes_out));
            results.push(result);
        }
        let (dones, link) = self.cross_root(&transfers);

        let per_device: Vec<DeviceLane> = per_dev
            .keys()
            .zip(&results)
            .zip(&dones)
            .map(|((&device, r), &done)| DeviceLane {
                device,
                bytes_in: r.bytes_in,
                bytes_out: r.bytes_out,
                device_elapsed: r.elapsed,
                done,
                simulated_gbps: r.throughput_gbps(),
            })
            .collect();
        let done = dones.into_iter().max().unwrap_or(SimTime::ZERO);
        Ok(ArrayScomp {
            outputs: results.iter().map(|r| r.concat_output()).collect(),
            bytes_in: results.iter().map(|r| r.bytes_in).sum(),
            bytes_out: results.iter().map(|r| r.bytes_out).sum(),
            elapsed: done.since(SimTime::ZERO),
            per_device,
            link,
        })
    }

    /// Takes a device down. Subsequent reads take the degraded path;
    /// stores and scomp needing the device error out until
    /// [`SsdArray::rebuild_device`]. A panic caught in one of the
    /// device's commands takes it down the same way.
    ///
    /// # Panics
    ///
    /// Panics if `device` is out of range.
    pub fn fail_device(&mut self, device: usize) {
        assert!(device < self.cfg.devices, "device {device} out of range");
        self.devices[device] = None;
        self.stats.devices[device].failed = true;
    }

    /// Replaces down device `device` with a factory-blank drive and
    /// reconstructs every chunk it held — data from replicas or parity,
    /// parity recomputed from (recovered) data. The reconstruction reads
    /// are timed and contend the shared root: this is the rebuild storm.
    ///
    /// # Errors
    ///
    /// Fails with [`ArrayError::BadConfig`] if `device` is out of range
    /// or not down, with [`ArrayError::DataLoss`] if any chunk is
    /// unrecoverable, or on device errors (the device then stays down).
    pub fn rebuild_device(&mut self, device: usize) -> Result<RebuildReport, ArrayError> {
        if device >= self.cfg.devices {
            return Err(ArrayError::BadConfig(format!(
                "device {device} out of range for a {}-device array",
                self.cfg.devices
            )));
        }
        if self.up(device) {
            return Err(ArrayError::BadConfig(format!(
                "device {device} is not failed; nothing to rebuild"
            )));
        }

        /// Rebuild work, resolved once the read storm has landed.
        enum Job<'a> {
            /// Copy a healthy copy's read into the lost copy `dst`.
            Copy { fetch: usize, dst: &'a ChunkLoc },
            /// Reconstruct a stripe with a member or syndrome on the
            /// device.
            Stripe {
                object: u64,
                obj: &'a StoredObject,
                stripe: &'a StripeLoc,
                plan: StripePlan,
            },
        }

        let objects: Vec<(u64, StoredObject)> = self
            .catalog
            .iter()
            .map(|(id, o)| (*id, o.clone()))
            .collect();
        let mut fetches: Vec<&ChunkLoc> = Vec::new();
        let mut jobs: Vec<Job> = Vec::new();
        for (id, obj) in &objects {
            if obj.stripes.is_empty() {
                for c in 0..obj.chunks.len() {
                    let copies = std::iter::once(&obj.chunks[c]).chain(&obj.replicas[c]);
                    for dst in copies.filter(|l| l.device == device) {
                        let src = self.healthy_copy(obj, c).ok_or(ArrayError::DataLoss {
                            object: *id,
                            chunk: c,
                        })?;
                        fetches.push(src);
                        jobs.push(Job::Copy {
                            fetch: fetches.len() - 1,
                            dst,
                        });
                    }
                }
            }
            for stripe in &obj.stripes {
                let held = stripe_chunks(obj, stripe)
                    .iter()
                    .chain(&stripe.parity)
                    .any(|l| l.device == device);
                if held {
                    // Every healthy syndrome is read, needed or not.
                    let spare = stripe.parity.len();
                    let plan = self.plan_stripe(*id, obj, stripe, spare, &mut fetches)?;
                    jobs.push(Job::Stripe {
                        object: *id,
                        obj,
                        stripe,
                        plan,
                    });
                }
            }
        }

        let (datas, elapsed, link) = self.run_fetches(&fetches)?;
        let bytes_read: u64 = datas.iter().map(|d| d.len() as u64).sum();

        let mut writes: Vec<(&ChunkLoc, Arc<[u8]>)> = Vec::new();
        for job in &jobs {
            match job {
                Job::Copy { fetch, dst } => {
                    writes.push((*dst, Arc::from(datas[*fetch].as_slice())))
                }
                Job::Stripe {
                    object,
                    obj,
                    stripe,
                    plan,
                } => {
                    let members = stripe_members(*object, stripe, plan, &datas)?;
                    for (loc, member) in stripe_chunks(obj, stripe).iter().zip(&members) {
                        if loc.device == device {
                            writes.push((loc, Arc::from(&member[..loc.bytes as usize])));
                        }
                    }
                    let members: Vec<&[u8]> = members.iter().map(|m| m.as_ref()).collect();
                    let len = stripe.len as usize;
                    for (k, loc) in stripe.parity.iter().enumerate() {
                        // A lost syndrome is recomputed as only the one
                        // its chunk holds.
                        if loc.device == device {
                            let syndrome = match k {
                                0 => recover::p_parity(&members, len),
                                _ => recover::q_parity(&members, len),
                            };
                            writes.push((loc, Arc::from(syndrome)));
                        }
                    }
                }
            }
        }
        let chunks = writes.len() as u64;
        let bytes_written: u64 = writes.iter().map(|(_, d)| d.len() as u64).sum();
        self.run_batch(vec![(device, DeviceCmd::Replace)])?;
        self.write_chunks(writes)
            .inspect_err(|_| self.fail_device(device))?;
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

#[cfg(test)]
mod tests {
    use super::*;
    use assasin_core::EngineKind;
    use assasin_ssd::SsdConfig;

    // Regression: a panic caught in a device command used to empty the
    // slot without marking the device failed, so every later read failed
    // with `WorkerFailed` and the rebuild refused the device.
    #[test]
    fn a_panicked_device_degrades_and_rebuilds_like_a_failed_one() {
        let device = SsdConfig::small_for_tests(EngineKind::AssasinSb);
        let cfg = ArrayConfig::new(5, ArrayPlacement::Raid6, device).with_chunk_bytes(8192);
        let mut a = SsdArray::new(cfg).expect("valid config");
        let data: Vec<u8> = (0..8192 * 6 + 100).map(|i| (i * 7 % 251) as u8).collect();
        a.store_object(1, &data).expect("store");

        let Err(err) = a.run_batch(vec![(1, DeviceCmd::Panic)]) else {
            panic!("the injected panic surfaces as an error");
        };
        assert!(
            matches!(err, ArrayError::WorkerFailed { device: 1, .. }),
            "got {err}"
        );
        assert!(a.stats().devices[1].failed);
        let read = a.read_object(1).expect("degraded read after the panic");
        assert_eq!(read.data, data);
        assert!(read.degraded_chunks > 0);

        a.rebuild_device(1).expect("rebuild the panicked device");
        assert!(!a.stats().devices[1].failed);
        let read = a.read_object(1).expect("healthy read after the rebuild");
        assert_eq!(read.data, data);
        assert_eq!(read.degraded_chunks, 0);
    }
}
