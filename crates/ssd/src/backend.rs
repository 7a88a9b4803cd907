//! The firmware data plane: keeps streambuffers fed from flash through the
//! crossbar, assembles ping-pong banks, and drains results to the host
//! (Figure 10's control loop, driven demand-side by the cores).

use crate::SsdError;
use assasin_core::{bank_chunk, StreamEnv};
use assasin_flash::{FlashArray, FlashError, PhysPageAddr};
use assasin_ftl::{Ftl, FtlError, Lpa};
use assasin_mem::{SharedDram, StreamBuffer};
use assasin_sim::{Bandwidth, SimDur, SimTime, Timeline};
use bytes::Bytes;

/// Where an `scomp`'s drained results go.
#[derive(Debug)]
pub(crate) enum Sink {
    /// Read path: results cross SSD DRAM and PCIe to the host.
    Host,
    /// Write path: results are programmed back into flash.
    Flash(FlashOut),
}

/// Per-request write-path state: each engine appends pages to its own
/// disjoint LPA region `next..end`.
#[derive(Debug)]
pub(crate) struct FlashOut {
    /// Next LPA per engine.
    pub next: Vec<u64>,
    /// End (exclusive) of each engine's region.
    pub end: Vec<u64>,
    /// Pages written so far, per engine.
    pub lpas: Vec<Vec<Lpa>>,
    /// Partially-filled output page per engine.
    pub fill: Vec<Vec<u8>>,
    /// Latest program completion per engine (durability horizon).
    pub prog_done: Vec<SimTime>,
    pub page_bytes: u32,
    /// The first page that could not be written — past its engine's
    /// region, or refused by the FTL. Later pages are dropped, and
    /// finalization fails the request with this error.
    pub error: Option<SsdError>,
}

impl FlashOut {
    /// Appends `data` to engine `core`'s output, programming each page as
    /// it fills. Returns when the producing buffer frees.
    fn append(
        &mut self,
        ftl: &mut Ftl,
        flash: &mut FlashArray,
        core: usize,
        mut data: &[u8],
        now: SimTime,
    ) -> SimTime {
        let page_bytes = self.page_bytes as usize;
        let mut buffered = now;
        while !data.is_empty() {
            let fill = &mut self.fill[core];
            let take = (page_bytes - fill.len()).min(data.len());
            fill.extend_from_slice(&data[..take]);
            data = &data[take..];
            if fill.len() == page_bytes {
                buffered = buffered.max(self.flush(ftl, flash, core, now));
            }
        }
        buffered
    }

    /// Writes engine `core`'s pending output page (padded if partial) to
    /// its next LPA. Returns the bus completion (buffer-free time). A page
    /// past the engine's region, or one the FTL refuses, is recorded in
    /// `error` and not written.
    pub(crate) fn flush(
        &mut self,
        ftl: &mut Ftl,
        flash: &mut FlashArray,
        core: usize,
        now: SimTime,
    ) -> SimTime {
        if self.fill[core].is_empty() {
            return now;
        }
        let mut page = std::mem::take(&mut self.fill[core]);
        if self.error.is_some() {
            // The request has already failed; drop its remaining output.
            return now;
        }
        let lpa = Lpa(self.next[core]);
        if lpa.0 >= self.end[core] {
            self.error = Some(SsdError::BadRequest(format!(
                "write path: engine {core} output overflows its region at {lpa} (the region \
                 ends before lpa:{}); the kernel wrote more than its declared max_out_per_in",
                self.end[core]
            )));
            return now;
        }
        page.resize(self.page_bytes as usize, 0);
        match ftl.write_detailed(flash, lpa, Bytes::from(page), now) {
            Ok((bus_done, prog_done)) => {
                self.next[core] += 1;
                self.lpas[core].push(lpa);
                self.prog_done[core] = self.prog_done[core].max(prog_done);
                bus_done
            }
            Err(e) => {
                self.error = Some(e.into());
                now
            }
        }
    }
}

/// One scheduled piece of an input stream: a flash page, possibly trimmed
/// (task decomposition splits on object boundaries, so a core's range may
/// start or end mid-page; boundary pages are fetched by both neighbors —
/// the paper's "boundary overhead").
#[derive(Debug, Clone, Copy)]
pub(crate) struct PagePlan {
    pub addr: PhysPageAddr,
    pub offset: u32,
    pub len: u32,
}

/// The page schedule of one input stream for one core: a flat append-only
/// vector with a consume cursor (plans are built front-to-back and drained
/// front-to-back exactly once, so a ring buffer's wraparound bookkeeping
/// buys nothing).
#[derive(Debug, Clone, Default)]
pub(crate) struct StreamPlan {
    pages: Vec<PagePlan>,
    head: usize,
}

impl StreamPlan {
    pub fn push(&mut self, page: PagePlan) {
        self.pages.push(page);
    }

    pub fn pop(&mut self) -> Option<PagePlan> {
        let page = self.pages.get(self.head).copied()?;
        self.head += 1;
        Some(page)
    }

    pub fn remaining_bytes(&self) -> u64 {
        self.pages[self.head..].iter().map(|p| p.len as u64).sum()
    }
}

/// A page fetched by the flash controllers ahead of consumption: payload
/// plus the time it is available at the core's crossbar port. Flash
/// controllers pipeline senses across chips and queue pages in per-channel
/// buffers (Section II-A), so arrival order and rate come from the
/// chip/bus timelines, not from streambuffer occupancy.
#[derive(Debug, Clone)]
pub(crate) struct ScheduledPage {
    pub data: Bytes,
    pub arrival: SimTime,
}

/// A flattened delivery queue: all of one stream's scheduled pages in one
/// contiguous vector with a consume cursor. Scheduling appends every page
/// once, consumption pops every page once — the cursor replaces per-pop
/// ring arithmetic and keeps iteration over the unconsumed tail a plain
/// slice walk.
#[derive(Debug, Clone, Default)]
pub(crate) struct PageQueue {
    pages: Vec<ScheduledPage>,
    head: usize,
}

impl PageQueue {
    pub fn push(&mut self, page: ScheduledPage) {
        self.pages.push(page);
    }

    pub fn pop(&mut self) -> Option<ScheduledPage> {
        let slot = self.pages.get_mut(self.head)?;
        // Move the payload out (refcount transfer, no copy); the spent
        // slot keeps only an empty Bytes.
        let page = ScheduledPage {
            data: std::mem::take(&mut slot.data),
            arrival: slot.arrival,
        };
        self.head += 1;
        Some(page)
    }

    pub fn front_mut(&mut self) -> Option<&mut ScheduledPage> {
        self.pages.get_mut(self.head)
    }

    pub fn is_empty(&self) -> bool {
        self.head == self.pages.len()
    }

    /// The unconsumed tail, in arrival order.
    pub fn remaining(&self) -> &[ScheduledPage] {
        &self.pages[self.head..]
    }

    /// Arrival time of the next undelivered page.
    pub fn next_arrival(&self) -> Option<SimTime> {
        self.pages.get(self.head).map(|p| p.arrival)
    }
}

/// The data plane servicing all cores of one `scomp` execution.
pub(crate) struct Backend<'a> {
    pub flash: &'a mut FlashArray,
    pub ftl: &'a mut Ftl,
    /// Where drained output goes.
    pub sink: Sink,
    pub dram: SharedDram,
    pub pcie: &'a mut Bandwidth,
    /// Pre-scheduled page deliveries, [core][stream].
    pub scheduled: Vec<Vec<PageQueue>>,
    pub outputs: Vec<Vec<u8>>,
    /// Latest output-drain completion per core.
    pub out_done: Vec<SimTime>,
    pub pcie_latency: SimDur,
    /// Ping-pong bank capacity (AssasinSp).
    pub bank_bytes: u32,
    /// Object granularity for bank assembly.
    pub granularity: u32,
    /// Input bytes actually streamed out of flash (excl. boundary refetch).
    pub bytes_streamed: u64,
    /// Per-core input bytes fetched.
    pub per_core_streamed: Vec<u64>,
}

impl Backend<'_> {
    /// The earliest pending backend completion strictly after `now`: the
    /// next scheduled page arrival across all cores and streams, the
    /// earliest in-flight output drain, or the earliest outstanding flash
    /// program. `None` once the data plane is fully drained.
    ///
    /// This is a diagnostic/introspection view (used by the `Stuck` hang
    /// report): the co-sim loop's deadline jumps are bounded by core
    /// wake-ups alone, because every backend interaction is demand-driven
    /// from inside core execution — a round in which no core runs has no
    /// backend side effects to miss (DESIGN.md §11).
    pub(crate) fn next_event(&self, now: SimTime) -> Option<SimTime> {
        let mut earliest: Option<SimTime> = None;
        let mut consider = |t: SimTime| {
            if t > now && earliest.is_none_or(|e| t < e) {
                earliest = Some(t);
            }
        };
        for streams in &self.scheduled {
            for q in streams {
                if let Some(t) = q.next_arrival() {
                    consider(t);
                }
            }
        }
        for &t in &self.out_done {
            consider(t);
        }
        if let Sink::Flash(fo) = &self.sink {
            for &t in &fo.prog_done {
                consider(t);
            }
        }
        earliest
    }

    /// Drains `bytes` of results to the request's output target. Returns
    /// when the producing buffer frees (the ring-slot release time).
    pub(crate) fn drain(&mut self, core: usize, data: &[u8], now: SimTime) -> SimTime {
        self.outputs[core].extend_from_slice(data);
        let done = match &mut self.sink {
            Sink::Host => {
                // Read path: stage in DRAM, DMA to the host.
                let staged = self.dram.borrow_mut().post(now, data.len() as u64);
                self.pcie.transfer(staged, data.len() as u64) + self.pcie_latency
            }
            // Write path: results go straight back through the crossbar
            // into flash pages — no DRAM, no PCIe.
            Sink::Flash(fo) => fo.append(self.ftl, self.flash, core, data, now),
        };
        self.out_done[core] = self.out_done[core].max(done);
        done
    }
}

/// Reads a physical page with SSD-level re-read attempts: an uncorrectable
/// result is retried up to `retries` times, each re-issue delayed by one
/// more `backoff` step (controller backoff before shifting thresholds and
/// running the chip-level retry ladder again — fresh draws, since the
/// chip's fault sequence advances per sense). A page that stays
/// uncorrectable surfaces as a typed [`SsdError::Media`] with its physical
/// address; any other flash failure (unwritten page, bad size) propagates
/// as a typed FTL/flash error instead of panicking.
pub(crate) fn read_page_retrying(
    flash: &mut FlashArray,
    addr: PhysPageAddr,
    issue: SimTime,
    retries: u32,
    backoff: SimDur,
) -> Result<(Bytes, SimTime), SsdError> {
    let mut attempt = 0u32;
    loop {
        match flash.read_page(addr, issue + backoff * attempt as u64) {
            Ok(ok) => return Ok(ok),
            Err(FlashError::Uncorrectable { .. }) if attempt < retries => attempt += 1,
            Err(FlashError::Uncorrectable { addr, errors }) => {
                return Err(SsdError::Media {
                    lpa: None,
                    addr,
                    errors,
                })
            }
            Err(e) => return Err(SsdError::Ftl(FtlError::Flash(e))),
        }
    }
}

/// Turns per-core page plans into scheduled deliveries: flash reads are
/// issued round-robin across cores/streams starting at the request's
/// firmware-poll offset, so the channel and chip timelines determine each
/// page's arrival (pipelined across chips, FIFO on each bus) and every
/// core gets a fair share of the array.
pub(crate) fn schedule_plans(
    flash: &mut FlashArray,
    crossbar: &mut [Timeline],
    crossbar_rate: f64,
    firmware_poll: SimDur,
    media_retries: u32,
    media_backoff: SimDur,
    plans: &mut [Vec<StreamPlan>],
) -> Result<Vec<Vec<PageQueue>>, SsdError> {
    let mut scheduled: Vec<Vec<PageQueue>> = plans
        .iter()
        .map(|streams| streams.iter().map(|_| PageQueue::default()).collect())
        .collect();
    let issue = SimTime::ZERO + firmware_poll;
    let flash_xfer = flash.page_transfer_time();
    let mut progressed = true;
    while progressed {
        progressed = false;
        for (core, streams) in plans.iter_mut().enumerate() {
            for (sid, plan) in streams.iter_mut().enumerate() {
                let Some(page) = plan.pop() else {
                    continue;
                };
                progressed = true;
                let (data, flash_arrival) =
                    read_page_retrying(flash, page.addr, issue, media_retries, media_backoff)?;
                let payload = data.slice(page.offset as usize..(page.offset + page.len) as usize);
                // The crossbar is cut-through (Figure 6: computing on data
                // *streaming* between flash and the engines): the port
                // transfer overlaps the channel-bus transfer, so it only
                // delays arrival when several channels converge on one
                // port faster than the port drains.
                let xfer = SimDur::from_secs_f64(page.len as f64 / crossbar_rate);
                let grant = crossbar[core].acquire(flash_arrival - flash_xfer, xfer);
                let arrival = flash_arrival.max(grant.end) + SimDur::from_ns(200);
                scheduled[core][sid].push(ScheduledPage {
                    data: payload,
                    arrival,
                });
            }
        }
    }
    Ok(scheduled)
}

impl StreamEnv for Backend<'_> {
    fn refill_stream(&mut self, core: usize, sid: u32, _now: SimTime, sbuf: &mut StreamBuffer) {
        loop {
            // A bad stream id means the core requested a refill for a ring
            // that does not exist — nothing to feed, so stop; the core's
            // own StreamLoad on that id surfaces the error.
            match sbuf.free_slots(sid) {
                Ok(0) | Err(_) => return,
                Ok(_) => {}
            }
            let Some(page) = self.scheduled[core]
                .get_mut(sid as usize)
                .and_then(|q| q.pop())
            else {
                let _ = sbuf.close(sid);
                return;
            };
            let len = page.data.len() as u64;
            self.bytes_streamed += len;
            self.per_core_streamed[core] += len;
            sbuf.push_page(sid, page.data, page.arrival)
                .expect("slot checked");
        }
    }

    fn drain_page(&mut self, core: usize, _sid: u32, page: Bytes, now: SimTime) -> SimTime {
        self.drain(core, &page, now)
    }

    fn next_input_bank(&mut self, core: usize, now: SimTime) -> Option<(Bytes, SimTime)> {
        let n_in = self.scheduled[core].len().max(1);
        let chunk_target = bank_chunk(self.bank_bytes as usize, n_in, self.granularity as usize);
        if self.scheduled[core].iter().all(|q| q.is_empty()) {
            return None;
        }
        let mut bank = Vec::with_capacity(chunk_target * n_in);
        let mut ready = now;
        // Pull an equal chunk from each stream so the kernel's
        // `chunk = len / n_in` layout holds.
        let take: usize = self.scheduled[core]
            .iter()
            .map(|q| {
                let rem: usize = q.remaining().iter().map(|p| p.data.len()).sum();
                rem.min(chunk_target)
            })
            .min()
            .unwrap_or(0);
        for sid in 0..n_in {
            let mut got = 0usize;
            while got < take {
                let Some(front) = self.scheduled[core][sid].front_mut() else {
                    break;
                };
                let want = take - got;
                ready = ready.max(front.arrival);
                let piece = if front.data.len() <= want {
                    let page = self.scheduled[core][sid].pop().expect("front");
                    page.data
                } else {
                    let head = front.data.slice(..want);
                    front.data = front.data.slice(want..);
                    head
                };
                got += piece.len();
                self.bytes_streamed += piece.len() as u64;
                self.per_core_streamed[core] += piece.len() as u64;
                bank.extend_from_slice(&piece);
            }
        }
        if bank.is_empty() {
            return None;
        }
        Some((Bytes::from(bank), ready))
    }

    fn drain_bank(&mut self, core: usize, data: Bytes, now: SimTime) -> SimTime {
        if data.is_empty() {
            return now;
        }
        self.drain(core, &data, now)
    }
}

/// Splits `total` bytes into `n` contiguous ranges aligned to
/// `granularity` (task decomposition, Section V-D).
pub(crate) fn split_ranges(total: u64, n: usize, granularity: u64) -> Vec<(u64, u64)> {
    let objects = total / granularity;
    let mut ranges = Vec::with_capacity(n);
    let mut start_obj = 0u64;
    for i in 0..n as u64 {
        let end_obj = objects * (i + 1) / n as u64;
        ranges.push((start_obj * granularity, end_obj * granularity));
        start_obj = end_obj;
    }
    // Any trailing partial object goes to the last core.
    if let Some(last) = ranges.last_mut() {
        last.1 = total;
    }
    ranges
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn split_is_exhaustive_and_aligned() {
        let ranges = split_ranges(1000, 4, 48);
        assert_eq!(ranges[0].0, 0);
        assert_eq!(ranges.last().unwrap().1, 1000);
        for w in ranges.windows(2) {
            assert_eq!(w[0].1, w[1].0, "contiguous");
        }
        for &(s, e) in &ranges[..3] {
            assert_eq!(s % 48, 0);
            assert_eq!(e % 48, 0);
            assert!(e >= s);
        }
    }

    #[test]
    fn split_handles_more_cores_than_objects() {
        let ranges = split_ranges(96, 8, 48);
        assert_eq!(ranges.len(), 8);
        let covered: u64 = ranges.iter().map(|(s, e)| e - s).sum();
        assert_eq!(covered, 96);
    }
}
