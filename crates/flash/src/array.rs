//! The multi-channel flash array.

use crate::fault::{FaultConfig, ReliabilityStats};
use crate::{FlashChip, FlashError, FlashGeometry, FlashTiming, PhysPageAddr};
use assasin_sim::{SimDur, SimTime, Timeline};
use bytes::Bytes;

/// Per-channel traffic statistics, reported in Figure 18.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ChannelStats {
    /// Bytes read out of the channel.
    pub bytes_read: u64,
    /// Bytes written into the channel.
    pub bytes_written: u64,
    /// Page reads served.
    pub page_reads: u64,
    /// Page programs served.
    pub page_programs: u64,
}

#[derive(Debug, Clone)]
struct Channel {
    bus: Timeline,
    chips: Vec<FlashChip>,
    stats: ChannelStats,
}

/// The flash array: channels of interleaved chips behind per-channel buses,
/// managed by one flash controller each (Section II-A, Figure 2).
///
/// Read timing: the chip senses the page (tR, chip busy), then the page
/// streams over the channel bus (bus busy for `page_bytes / bus_rate`).
/// Write timing: the bus delivers data to the chip's page register first,
/// then the chip programs (tPROG). Chips on the same channel overlap their
/// array operations and contend only for the bus — the rank-level
/// parallelism analogy of Section II-A.
///
/// Cloning an array is cheap: chip page stores are copy-on-write
/// ([`FlashChip`]), so a clone shares every programmed page until one side
/// writes.
#[derive(Debug, Clone)]
pub struct FlashArray {
    geom: FlashGeometry,
    timing: FlashTiming,
    /// Bus time for one full page, precomputed from `timing` — every page
    /// op pays this, and recomputing it per page (a float division) was
    /// measurable in plan scheduling.
    page_xfer: SimDur,
    channels: Vec<Channel>,
    fault: FaultConfig,
    /// Cumulative reliability counters; deliberately NOT cleared by
    /// `reset_stats`/`reset_time` — faults during dataset loading are part
    /// of the device's history.
    rel: ReliabilityStats,
}

impl FlashArray {
    /// Creates an erased array with fault injection disabled.
    pub fn new(geom: FlashGeometry, timing: FlashTiming) -> Self {
        Self::with_faults(geom, timing, FaultConfig::disabled())
    }

    /// Creates an erased array with the given fault-injection config.
    pub fn with_faults(geom: FlashGeometry, timing: FlashTiming, fault: FaultConfig) -> Self {
        let channels = (0..geom.channels)
            .map(|ch| Channel {
                bus: Timeline::new(format!("channel-{ch}")),
                chips: (0..geom.chips_per_channel)
                    .map(|c| FlashChip::new(&geom, ch, c))
                    .collect(),
                stats: ChannelStats::default(),
            })
            .collect();
        FlashArray {
            geom,
            timing,
            page_xfer: timing.transfer_time(geom.page_bytes),
            channels,
            fault,
            rel: ReliabilityStats::default(),
        }
    }

    /// Cumulative reliability counters for this array (never reset between
    /// experiment phases).
    pub fn reliability_stats(&self) -> ReliabilityStats {
        self.rel
    }

    /// The configured geometry.
    pub fn geometry(&self) -> &FlashGeometry {
        &self.geom
    }

    /// The configured timing.
    pub fn timing(&self) -> &FlashTiming {
        &self.timing
    }

    /// Channel-bus occupancy of one full page transfer (precomputed).
    pub fn page_transfer_time(&self) -> SimDur {
        self.page_xfer
    }

    fn check(&self, addr: PhysPageAddr) -> Result<(), FlashError> {
        if self.geom.contains(addr) {
            Ok(())
        } else {
            Err(FlashError::OutOfRange(addr))
        }
    }

    /// Returns a page's data without touching timelines or stats — the
    /// firmware's control-plane view for task decomposition. `None` for
    /// out-of-range or unwritten pages.
    pub fn peek_page(&self, addr: PhysPageAddr) -> Option<Bytes> {
        if !self.geom.contains(addr) {
            return None;
        }
        self.channels[addr.channel as usize].chips[addr.chip as usize].peek(&self.geom, addr)
    }

    /// Reads a page: returns its data and the time the last byte crosses
    /// the channel bus (when a consumer — DRAM stager, streambuffer — has
    /// the full page). Retries and corrections land in
    /// [`FlashArray::reliability_stats`].
    ///
    /// # Errors
    ///
    /// Fails if the address is out of range or the page was never
    /// programmed, and with [`FlashError::Uncorrectable`] when fault
    /// injection deems the page unreadable after the full read-retry
    /// ladder (the chip time for every sense is still charged).
    pub fn read_page(
        &mut self,
        addr: PhysPageAddr,
        ready: SimTime,
    ) -> Result<(Bytes, SimTime), FlashError> {
        self.check(addr)?;
        let page_bytes = self.geom.page_bytes;
        let t_read = self.timing.t_read;
        let xfer = self.page_xfer;
        let fault = self.fault;
        let channel = &mut self.channels[addr.channel as usize];
        let (data, sensed, health) = match channel.chips[addr.chip as usize]
            .sense(&self.geom, &fault, addr, ready, t_read)
        {
            Ok(ok) => ok,
            Err(e) => {
                if let FlashError::Uncorrectable { .. } = e {
                    self.rel.page_reads += 1;
                    self.rel.uncorrectable += 1;
                    self.rel.read_retries += fault.read_retry_limit as u64;
                }
                return Err(e);
            }
        };
        self.rel.page_reads += 1;
        if fault.enabled {
            self.rel.read_retries += health.retries() as u64;
            if health.corrected() {
                self.rel.ecc_corrected += 1;
            }
        }
        let bus_grant = channel.bus.acquire(sensed, xfer);
        channel.stats.bytes_read += page_bytes as u64;
        channel.stats.page_reads += 1;
        Ok((data, bus_grant.end))
    }

    /// Writes (programs) a page: the bus moves data in, then the chip
    /// programs. Returns program completion time.
    ///
    /// # Errors
    ///
    /// Fails on out-of-range addresses, wrong page sizes, or programming a
    /// page that has not been erased.
    pub fn write_page(
        &mut self,
        addr: PhysPageAddr,
        data: Bytes,
        ready: SimTime,
    ) -> Result<SimTime, FlashError> {
        self.write_page_detailed(addr, data, ready)
            .map(|(_, prog)| prog)
    }

    /// Like [`FlashArray::write_page`], but exposes both the bus-transfer
    /// completion (when the source buffer frees) and the program
    /// completion (when the data is durable). Chips program in the
    /// background, so back-to-back writes pipeline across chips.
    ///
    /// # Errors
    ///
    /// Same as [`FlashArray::write_page`].
    pub fn write_page_detailed(
        &mut self,
        addr: PhysPageAddr,
        data: Bytes,
        ready: SimTime,
    ) -> Result<(SimTime, SimTime), FlashError> {
        self.check(addr)?;
        let xfer = self.page_xfer;
        let t_prog = self.timing.t_prog;
        let page_bytes = self.geom.page_bytes;
        let fault = self.fault;
        let channel = &mut self.channels[addr.channel as usize];
        let bus_grant = channel.bus.acquire(ready, xfer);
        let done = match channel.chips[addr.chip as usize].program(
            &self.geom,
            &fault,
            addr,
            data,
            bus_grant.end,
            t_prog,
        ) {
            Ok(done) => done,
            Err(e) => {
                if let FlashError::ProgramFailed(_) = e {
                    self.rel.program_fails += 1;
                    self.rel.grown_bad_blocks += 1;
                }
                return Err(e);
            }
        };
        channel.stats.bytes_written += page_bytes as u64;
        channel.stats.page_programs += 1;
        Ok((bus_grant.end, done))
    }

    /// Erases a block on a chip. Returns completion time.
    ///
    /// # Errors
    ///
    /// Fails if the (channel, chip, plane, block) tuple is out of range.
    pub fn erase_block(
        &mut self,
        channel: u32,
        chip: u32,
        plane: u32,
        block: u32,
        ready: SimTime,
    ) -> Result<SimTime, FlashError> {
        let probe = PhysPageAddr {
            channel,
            chip,
            plane,
            block,
            page: 0,
        };
        self.check(probe)?;
        let t_erase = self.timing.t_erase;
        let fault = self.fault;
        let ch = &mut self.channels[channel as usize];
        match ch.chips[chip as usize].erase_block(&self.geom, &fault, plane, block, ready, t_erase)
        {
            Ok(done) => Ok(done),
            Err(e) => {
                if let FlashError::EraseFailed { .. } = e {
                    self.rel.erase_fails += 1;
                    self.rel.grown_bad_blocks += 1;
                }
                Err(e)
            }
        }
    }

    /// True if the block has been marked grown-bad.
    pub fn is_bad_block(&self, channel: u32, chip: u32, plane: u32, block: u32) -> bool {
        self.channels[channel as usize].chips[chip as usize].is_bad(&self.geom, plane, block)
    }

    /// Times the block has been erased (wear / program-epoch accounting).
    pub fn erase_count(&self, channel: u32, chip: u32, plane: u32, block: u32) -> u32 {
        self.channels[channel as usize].chips[chip as usize].erase_count(&self.geom, plane, block)
    }

    /// True if the page holds programmed data.
    pub fn is_written(&self, addr: PhysPageAddr) -> bool {
        self.geom.contains(addr)
            && self.channels[addr.channel as usize].chips[addr.chip as usize]
                .is_written(&self.geom, addr)
    }

    /// Traffic statistics for one channel.
    pub fn channel_stats(&self, channel: u32) -> ChannelStats {
        self.channels[channel as usize].stats
    }

    /// Bus busy time for one channel.
    pub fn channel_busy(&self, channel: u32) -> SimDur {
        self.channels[channel as usize].bus.busy_time()
    }

    /// Resets per-channel statistics (steady-state measurement windows).
    pub fn reset_stats(&mut self) {
        for ch in &mut self.channels {
            ch.stats = ChannelStats::default();
            ch.bus.reset_stats();
        }
    }

    /// Returns every chip and bus to idle at t = 0, keeping data (used
    /// between dataset loading and the measured run).
    pub fn reset_time(&mut self) {
        for ch in &mut self.channels {
            ch.stats = ChannelStats::default();
            ch.bus.reset_time();
            for chip in &mut ch.chips {
                chip.reset_time();
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn filled(geom: &FlashGeometry, fill: u8) -> Bytes {
        Bytes::from(vec![fill; geom.page_bytes as usize])
    }

    fn addr(channel: u32, chip: u32, page: u32) -> PhysPageAddr {
        PhysPageAddr {
            channel,
            chip,
            plane: 0,
            block: 0,
            page,
        }
    }

    #[test]
    fn write_read_roundtrip() {
        let geom = FlashGeometry::small_for_tests();
        let mut arr = FlashArray::new(geom, FlashTiming::default());
        arr.write_page(addr(0, 0, 0), filled(&geom, 0x5A), SimTime::ZERO)
            .unwrap();
        let (data, _) = arr.read_page(addr(0, 0, 0), SimTime::from_ms(1)).unwrap();
        assert_eq!(data, filled(&geom, 0x5A));
        assert_eq!(arr.channel_stats(0).page_reads, 1);
        assert_eq!(arr.channel_stats(0).bytes_written, geom.page_bytes as u64);
    }

    #[test]
    fn out_of_range_is_error() {
        let geom = FlashGeometry::small_for_tests();
        let mut arr = FlashArray::new(geom, FlashTiming::default());
        let bad = addr(99, 0, 0);
        assert_eq!(
            arr.read_page(bad, SimTime::ZERO).unwrap_err(),
            FlashError::OutOfRange(bad)
        );
    }

    #[test]
    fn chip_interleaving_overlaps_sense() {
        let geom = FlashGeometry::small_for_tests();
        let timing = FlashTiming::default();
        let mut arr = FlashArray::new(geom, timing);
        arr.write_page(addr(0, 0, 0), filled(&geom, 1), SimTime::ZERO)
            .unwrap();
        arr.write_page(addr(0, 1, 0), filled(&geom, 2), SimTime::ZERO)
            .unwrap();
        // Issue both reads at the same late time: senses overlap on the two
        // chips, transfers serialize on the bus.
        let t0 = SimTime::from_ms(10);
        let (_, a) = arr.read_page(addr(0, 0, 0), t0).unwrap();
        let (_, b) = arr.read_page(addr(0, 1, 0), t0).unwrap();
        let xfer = timing.transfer_time(geom.page_bytes);
        assert_eq!(a, t0 + timing.t_read + xfer);
        // Second page only pays the extra bus slot, not a second full tR.
        assert_eq!(b, t0 + timing.t_read + xfer + xfer);
    }

    #[test]
    fn same_chip_reads_serialize_on_tr() {
        let geom = FlashGeometry::small_for_tests();
        let timing = FlashTiming::default();
        let mut arr = FlashArray::new(geom, timing);
        arr.write_page(addr(0, 0, 0), filled(&geom, 1), SimTime::ZERO)
            .unwrap();
        arr.write_page(addr(0, 0, 1), filled(&geom, 2), SimTime::ZERO)
            .unwrap();
        let t0 = SimTime::from_ms(10);
        let (_, a) = arr.read_page(addr(0, 0, 0), t0).unwrap();
        let (_, b) = arr.read_page(addr(0, 0, 1), t0).unwrap();
        assert!(b.since(a) >= timing.t_read);
    }

    #[test]
    fn erase_enables_rewrite() {
        let geom = FlashGeometry::small_for_tests();
        let mut arr = FlashArray::new(geom, FlashTiming::default());
        arr.write_page(addr(1, 1, 0), filled(&geom, 1), SimTime::ZERO)
            .unwrap();
        assert!(arr.is_written(addr(1, 1, 0)));
        arr.erase_block(1, 1, 0, 0, SimTime::ZERO).unwrap();
        assert!(!arr.is_written(addr(1, 1, 0)));
        arr.write_page(addr(1, 1, 0), filled(&geom, 9), SimTime::ZERO)
            .unwrap();
    }
}
