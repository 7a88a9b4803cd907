//! Page-mapped FTL with striped allocation, GC and wear-aware block choice.

use crate::placement::Placement;
use crate::FtlError;
use assasin_flash::{FlashArray, FlashError, FlashGeometry, PhysPageAddr};
use assasin_sim::SimTime;
use bytes::Bytes;
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::fmt;

/// A logical page address, the unit the host and the `scomp` command
/// address (Section V-D's `List[List[LPA]]`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct Lpa(pub u64);

impl fmt::Display for Lpa {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "lpa:{}", self.0)
    }
}

/// FTL bookkeeping counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct FtlStats {
    /// Pages written on behalf of the host.
    pub host_writes: u64,
    /// Pages relocated by garbage collection (including bad-block
    /// retirement relocations).
    pub gc_relocations: u64,
    /// Blocks erased.
    pub erases: u64,
}

impl FtlStats {
    /// Write amplification factor (flash writes per host write).
    pub fn write_amplification(&self) -> f64 {
        if self.host_writes == 0 {
            1.0
        } else {
            (self.host_writes + self.gc_relocations) as f64 / self.host_writes as f64
        }
    }
}

/// Per-plane allocation state.
#[derive(Debug, Clone)]
struct PlaneState {
    /// Blocks with no valid data and erased, ready for allocation.
    free_blocks: Vec<u32>,
    /// Currently filling block and its next free page index.
    active: Option<(u32, u32)>,
    /// Valid-page count per block.
    valid: Vec<u32>,
    /// Erase count per block (wear).
    erase_count: Vec<u32>,
    /// Grown-bad flags: retired blocks are never allocated, GC'd or
    /// erased again.
    bad: Vec<bool>,
}

impl PlaneState {
    fn new(blocks: u32) -> Self {
        PlaneState {
            free_blocks: (0..blocks).collect(),
            active: None,
            valid: vec![0; blocks as usize],
            erase_count: vec![0; blocks as usize],
            bad: vec![false; blocks as usize],
        }
    }

    /// Pops the free block with the lowest erase count (wear leveling).
    fn pop_least_worn(&mut self) -> Option<u32> {
        let (idx, _) = self
            .free_blocks
            .iter()
            .enumerate()
            .min_by_key(|(_, &b)| self.erase_count[b as usize])?;
        Some(self.free_blocks.swap_remove(idx))
    }
}

/// The flash translation layer.
///
/// Allocation stripes pages over channels according to the configured
/// [`Placement`] (round-robin by default), then round-robins chips within
/// the channel and planes within the chip, so sequential logical data spreads
/// across every unit of flash parallelism — the property Figures 16–18
/// depend on.
#[derive(Debug, Clone)]
pub struct Ftl {
    geom: FlashGeometry,
    placement: Placement,
    /// L2P table, directly indexed by LPA in lazily-allocated fixed-size
    /// chunks. Plan building translates every input page of a run, so this
    /// lookup must not hash; the chunking matters because callers place
    /// streams at base LPAs megabytes apart, and a flat table grown to the
    /// highest LPA would zero tens of megabytes per stream.
    map: Vec<Option<Box<[Option<PhysPageAddr>]>>>,
    /// P2L index for GC victim scans (write path only, stays a hash).
    reverse: HashMap<PhysPageAddr, u64>,
    planes: Vec<PlaneState>,
    /// Next chip cursor per channel.
    chip_cursor: Vec<u32>,
    /// Next plane cursor per chip (linear chip index).
    plane_cursor: Vec<u32>,
    /// Monotone write counter used by the placement policy.
    stream_pos: u64,
    /// Expected length of the current placement stream (for skewed runs).
    stream_total: u64,
    stats: FtlStats,
    exported_pages: u64,
}

/// L2P chunk granularity, in LPAs (24 KiB of table per allocated chunk).
const L2P_CHUNK: u64 = 1024;

/// Splits an LPA into its L2P chunk number and intra-chunk offset. The
/// chunk math stays in `u64` — casting the LPA to `usize` first would
/// silently truncate addresses above 4G pages on 32-bit targets; only the
/// bounded intra-chunk offset (< [`L2P_CHUNK`]) is narrowed.
fn l2p_slot(lpa: u64) -> (usize, usize) {
    ((lpa / L2P_CHUNK) as usize, (lpa % L2P_CHUNK) as usize)
}

impl Ftl {
    /// Minimum free blocks per plane before GC kicks in.
    const GC_LOW_WATER: usize = 2;

    /// Creates an FTL over `geom` with default round-robin placement and
    /// 12.5% over-provisioning.
    pub fn new(geom: FlashGeometry) -> Self {
        Ftl::with_placement(geom, Placement::default())
    }

    /// Creates an FTL with an explicit placement policy.
    pub fn with_placement(geom: FlashGeometry, placement: Placement) -> Self {
        let n_planes = (geom.channels * geom.chips_per_channel * geom.planes_per_chip) as usize;
        let n_chips = (geom.channels * geom.chips_per_channel) as usize;
        Ftl {
            geom,
            placement,
            map: Vec::new(),
            reverse: HashMap::new(),
            planes: vec![PlaneState::new(geom.blocks_per_plane); n_planes],
            chip_cursor: vec![0; geom.channels as usize],
            plane_cursor: vec![0; n_chips],
            stream_pos: 0,
            stream_total: u64::MAX,
            stats: FtlStats::default(),
            // Exported capacity excludes the per-plane GC-reserve block and
            // keeps 12.5% over-provisioning on the rest.
            exported_pages: (geom.total_pages() - n_planes as u64 * geom.pages_per_block as u64)
                * 7
                / 8,
        }
    }

    /// The geometry this FTL manages.
    pub fn geometry(&self) -> &FlashGeometry {
        &self.geom
    }

    /// Logical capacity exported to the host, in pages.
    pub fn exported_pages(&self) -> u64 {
        self.exported_pages
    }

    /// Bookkeeping counters.
    pub fn stats(&self) -> FtlStats {
        self.stats
    }

    /// Replaces the placement policy and restarts the placement stream.
    /// `stream_total` is the number of pages the upcoming stream will write
    /// (used by weighted placements; round-robin ignores it).
    pub fn begin_stream(&mut self, placement: Placement, stream_total: u64) {
        self.placement = placement;
        self.stream_pos = 0;
        self.stream_total = stream_total.max(1);
    }

    /// Translates a logical page to its current physical location.
    pub fn translate(&self, lpa: Lpa) -> Option<PhysPageAddr> {
        let (chunk, off) = l2p_slot(lpa.0);
        self.map.get(chunk)?.as_ref()?[off]
    }

    fn map_insert(&mut self, lpa: u64, addr: PhysPageAddr) {
        let (chunk, off) = l2p_slot(lpa);
        if chunk >= self.map.len() {
            self.map.resize_with(chunk + 1, || None);
        }
        self.map[chunk].get_or_insert_with(|| vec![None; L2P_CHUNK as usize].into_boxed_slice())
            [off] = Some(addr);
    }

    fn map_remove(&mut self, lpa: u64) -> Option<PhysPageAddr> {
        let (chunk, off) = l2p_slot(lpa);
        self.map.get_mut(chunk)?.as_mut()?[off].take()
    }

    fn plane_index(&self, channel: u32, chip: u32, plane: u32) -> usize {
        ((channel * self.geom.chips_per_channel + chip) * self.geom.planes_per_chip + plane)
            as usize
    }

    /// Allocates the next physical page in a specific plane, garbage
    /// collecting if needed. `allow_gc` is false during GC relocation
    /// itself, which allocates from the blocks the low-water mark reserves
    /// (otherwise GC could recurse into GC).
    fn alloc_in_plane(
        &mut self,
        array: &mut FlashArray,
        channel: u32,
        chip: u32,
        plane: u32,
        now: SimTime,
        allow_gc: bool,
    ) -> Result<PhysPageAddr, FtlError> {
        let pi = self.plane_index(channel, chip, plane);
        if allow_gc
            && self.planes[pi].free_blocks.len() <= Self::GC_LOW_WATER
            && self.planes[pi].active.is_none()
        {
            self.collect_plane(array, channel, chip, plane, now)?;
        }
        let state = &mut self.planes[pi];
        let (block, page) = match state.active {
            Some((b, p)) => (b, p),
            None => {
                // Normal writes may not consume the last free block: it is
                // reserved so garbage collection always has a relocation
                // target (otherwise invalid pages can become unreclaimable).
                if allow_gc && state.free_blocks.len() <= 1 {
                    return Err(FtlError::DeviceFull);
                }
                let b = state.pop_least_worn().ok_or(FtlError::DeviceFull)?;
                (b, 0)
            }
        };
        let next = page + 1;
        state.active = if next >= self.geom.pages_per_block {
            None
        } else {
            Some((block, next))
        };
        state.valid[block as usize] += 1;
        Ok(PhysPageAddr {
            channel,
            chip,
            plane,
            block,
            page,
        })
    }

    /// Allocates in the preferred plane, falling back to any plane with
    /// space (write redirection — a full plane must not fail the device
    /// while others have room).
    fn alloc_with_fallback(
        &mut self,
        array: &mut FlashArray,
        channel: u32,
        chip: u32,
        plane: u32,
        now: SimTime,
    ) -> Result<PhysPageAddr, FtlError> {
        match self.alloc_in_plane(array, channel, chip, plane, now, true) {
            Ok(addr) => return Ok(addr),
            Err(FtlError::DeviceFull) => {}
            Err(e) => return Err(e),
        }
        for ch in 0..self.geom.channels {
            for c in 0..self.geom.chips_per_channel {
                for pl in 0..self.geom.planes_per_chip {
                    match self.alloc_in_plane(array, ch, c, pl, now, true) {
                        Ok(addr) => return Ok(addr),
                        Err(FtlError::DeviceFull) => continue,
                        Err(e) => return Err(e),
                    }
                }
            }
        }
        Err(FtlError::DeviceFull)
    }

    /// Picks the next plane for a new write according to placement/striping.
    fn next_location(&mut self) -> (u32, u32, u32) {
        let channel =
            self.placement
                .channel_for(self.stream_pos, self.stream_total, self.geom.channels);
        self.stream_pos += 1;
        let chip = self.chip_cursor[channel as usize];
        self.chip_cursor[channel as usize] = (chip + 1) % self.geom.chips_per_channel;
        let ci = (channel * self.geom.chips_per_channel + chip) as usize;
        let plane = self.plane_cursor[ci];
        self.plane_cursor[ci] = (plane + 1) % self.geom.planes_per_chip;
        (channel, chip, plane)
    }

    /// Writes one logical page. Returns the flash program completion time.
    ///
    /// # Errors
    ///
    /// Fails if `lpa` exceeds exported capacity, the device is full, or the
    /// data is not exactly one page.
    pub fn write(
        &mut self,
        array: &mut FlashArray,
        lpa: Lpa,
        data: Bytes,
        now: SimTime,
    ) -> Result<SimTime, FtlError> {
        self.write_detailed(array, lpa, data, now)
            .map(|(_, prog)| prog)
    }

    /// Like [`Ftl::write`] but returns `(bus_done, program_done)`: the
    /// writer's buffer frees at `bus_done`; the data is durable at
    /// `program_done`.
    ///
    /// # Errors
    ///
    /// Same as [`Ftl::write`].
    pub fn write_detailed(
        &mut self,
        array: &mut FlashArray,
        lpa: Lpa,
        data: Bytes,
        now: SimTime,
    ) -> Result<(SimTime, SimTime), FtlError> {
        if lpa.0 >= self.exported_pages {
            return Err(FtlError::OutOfCapacity(lpa));
        }
        loop {
            let (channel, chip, plane) = self.next_location();
            let addr = self.alloc_with_fallback(array, channel, chip, plane, now)?;
            match array.write_page_detailed(addr, data.clone(), now) {
                Ok(times) => {
                    // Invalidate the previous version only now that the new
                    // one is durable: a failed or redirected write must
                    // never lose the data it was replacing.
                    if let Some(old) = self.map_remove(lpa.0) {
                        self.reverse.remove(&old);
                        let pi = self.plane_index(old.channel, old.chip, old.plane);
                        let v = &mut self.planes[pi].valid[old.block as usize];
                        *v = v.saturating_sub(1);
                    }
                    self.map_insert(lpa.0, addr);
                    self.reverse.insert(addr, lpa.0);
                    self.stats.host_writes += 1;
                    return Ok(times);
                }
                // The program failed, growing the block bad: retire it
                // (its valid neighbors relocate), then retry elsewhere.
                // Terminates because each round retires a block and the
                // allocator never hands one out again; a device with no
                // good blocks left fails the allocation with DeviceFull.
                Err(FlashError::ProgramFailed(bad)) | Err(FlashError::GrownBad(bad)) => {
                    self.retire_block(array, bad, now)?;
                }
                Err(e) => return Err(e.into()),
            }
        }
    }

    /// Reads one logical page. Returns the data and its bus arrival time.
    ///
    /// # Errors
    ///
    /// Fails if the page was never written, or (with fault injection) the
    /// media could not deliver it within ECC + read-retry capability.
    pub fn read(
        &mut self,
        array: &mut FlashArray,
        lpa: Lpa,
        now: SimTime,
    ) -> Result<(Bytes, SimTime), FtlError> {
        let addr = self.translate(lpa).ok_or(FtlError::Unmapped(lpa))?;
        Self::read_phys(array, lpa, addr, now)
    }

    /// Timed physical read: an uncorrectable page surfaces as a typed
    /// error carrying both addresses. Retries and corrections are counted
    /// once, by the flash array ([`FlashArray::reliability_stats`]).
    fn read_phys(
        array: &mut FlashArray,
        lpa: Lpa,
        addr: PhysPageAddr,
        now: SimTime,
    ) -> Result<(Bytes, SimTime), FtlError> {
        array.read_page(addr, now).map_err(|e| match e {
            FlashError::Uncorrectable { addr, errors } => {
                FtlError::Uncorrectable { lpa, addr, errors }
            }
            e => e.into(),
        })
    }

    /// Marks a block grown-bad, removing it from the allocator for good.
    /// Returns false if it was already retired.
    fn mark_bad(&mut self, channel: u32, chip: u32, plane: u32, block: u32) -> bool {
        let pi = self.plane_index(channel, chip, plane);
        let state = &mut self.planes[pi];
        if state.bad[block as usize] {
            return false;
        }
        state.bad[block as usize] = true;
        state.free_blocks.retain(|&b| b != block);
        if state.active.map(|(b, _)| b) == Some(block) {
            state.active = None;
        }
        true
    }

    /// Retires a grown-bad block: drops it from the allocator and
    /// relocates its still-valid pages through the GC write path (failed
    /// programs leave earlier pages in the block readable — NAND grows
    /// bad a block at a time, not a page at a time). Relocation targets
    /// whose own programs fail are retired too, via a worklist; this
    /// terminates because every round marks a previously-good block bad.
    fn retire_block(
        &mut self,
        array: &mut FlashArray,
        first: PhysPageAddr,
        now: SimTime,
    ) -> Result<(), FtlError> {
        let mut pending = Vec::new();
        if self.mark_bad(first.channel, first.chip, first.plane, first.block) {
            pending.push((first.channel, first.chip, first.plane, first.block));
        }
        while let Some((channel, chip, plane, block)) = pending.pop() {
            let lpas: Vec<(u32, u64)> = (0..self.geom.pages_per_block)
                .filter_map(|p| {
                    let addr = PhysPageAddr {
                        channel,
                        chip,
                        plane,
                        block,
                        page: p,
                    };
                    self.reverse.get(&addr).map(|&l| (p, l))
                })
                .collect();
            for (p, lpa) in lpas {
                let old = PhysPageAddr {
                    channel,
                    chip,
                    plane,
                    block,
                    page: p,
                };
                let (data, _) = Self::read_phys(array, Lpa(lpa), old, now)?;
                loop {
                    let new = self.alloc_relocation_target(array, channel, chip, plane, now)?;
                    match array.write_page(new, data.clone(), now) {
                        Ok(_) => {
                            self.map_insert(lpa, new);
                            self.reverse.remove(&old);
                            self.reverse.insert(new, lpa);
                            self.stats.gc_relocations += 1;
                            break;
                        }
                        Err(FlashError::ProgramFailed(a)) | Err(FlashError::GrownBad(a)) => {
                            if self.mark_bad(a.channel, a.chip, a.plane, a.block) {
                                pending.push((a.channel, a.chip, a.plane, a.block));
                            } else {
                                // The allocator handed out a block already
                                // retired — inconsistent state; fail rather
                                // than spin.
                                return Err(FtlError::DeviceFull);
                            }
                        }
                        Err(e) => return Err(e.into()),
                    }
                }
            }
            let pi = self.plane_index(channel, chip, plane);
            self.planes[pi].valid[block as usize] = 0;
        }
        Ok(())
    }

    /// Allocation for relocation writes: preferred plane first, then any
    /// plane, always from the GC reserve (`allow_gc: false`) so retirement
    /// never recurses into collection.
    fn alloc_relocation_target(
        &mut self,
        array: &mut FlashArray,
        channel: u32,
        chip: u32,
        plane: u32,
        now: SimTime,
    ) -> Result<PhysPageAddr, FtlError> {
        match self.alloc_in_plane(array, channel, chip, plane, now, false) {
            Ok(a) => return Ok(a),
            Err(FtlError::DeviceFull) => {}
            Err(e) => return Err(e),
        }
        for ch in 0..self.geom.channels {
            for c in 0..self.geom.chips_per_channel {
                for pl in 0..self.geom.planes_per_chip {
                    match self.alloc_in_plane(array, ch, c, pl, now, false) {
                        Ok(a) => return Ok(a),
                        Err(FtlError::DeviceFull) => continue,
                        Err(e) => return Err(e),
                    }
                }
            }
        }
        Err(FtlError::DeviceFull)
    }

    /// Garbage-collects one victim block in the given plane: relocates its
    /// valid pages within the same plane, then erases it.
    fn collect_plane(
        &mut self,
        array: &mut FlashArray,
        channel: u32,
        chip: u32,
        plane: u32,
        now: SimTime,
    ) -> Result<(), FtlError> {
        let pi = self.plane_index(channel, chip, plane);
        // Victim: fewest valid pages among fully-written, non-free,
        // non-retired blocks.
        let state = &self.planes[pi];
        let is_free = |b: u32| state.free_blocks.contains(&b);
        let active_block = state.active.map(|(b, _)| b);
        let victim = (0..self.geom.blocks_per_plane)
            .filter(|&b| !is_free(b) && !state.bad[b as usize] && Some(b) != active_block)
            .min_by_key(|&b| state.valid[b as usize]);
        let Some(victim) = victim else {
            return Ok(());
        };
        // Relocate valid pages.
        let lpas: Vec<(u32, u64)> = (0..self.geom.pages_per_block)
            .filter_map(|p| {
                let addr = PhysPageAddr {
                    channel,
                    chip,
                    plane,
                    block: victim,
                    page: p,
                };
                self.reverse.get(&addr).map(|&l| (p, l))
            })
            .collect();
        for (p, lpa) in lpas {
            let old = PhysPageAddr {
                channel,
                chip,
                plane,
                block: victim,
                page: p,
            };
            let (data, _) = Self::read_phys(array, Lpa(lpa), old, now)?;
            loop {
                let new = self.alloc_in_plane(array, channel, chip, plane, now, false)?;
                match array.write_page(new, data.clone(), now) {
                    Ok(_) => {
                        self.map_insert(lpa, new);
                        self.reverse.remove(&old);
                        self.reverse.insert(new, lpa);
                        self.stats.gc_relocations += 1;
                        break;
                    }
                    // The relocation target failed mid-GC: retire it and
                    // try a fresh target for this page.
                    Err(FlashError::ProgramFailed(a)) | Err(FlashError::GrownBad(a)) => {
                        self.retire_block(array, a, now)?;
                    }
                    Err(e) => return Err(e.into()),
                }
            }
        }
        match array.erase_block(channel, chip, plane, victim, now) {
            Ok(_) => {
                let state = &mut self.planes[pi];
                state.valid[victim as usize] = 0;
                state.erase_count[victim as usize] += 1;
                state.free_blocks.push(victim);
                self.stats.erases += 1;
            }
            // A failed erase grows the victim bad. Its valid pages were
            // already relocated above, so it simply never returns to the
            // free list.
            Err(FlashError::EraseFailed { .. }) => {
                self.mark_bad(channel, chip, plane, victim);
                self.planes[pi].valid[victim as usize] = 0;
            }
            Err(e) => return Err(e.into()),
        }
        Ok(())
    }

    /// Counts how many of `lpas` currently live on each channel — used to
    /// verify layout skew in the Section VI-E experiment.
    pub fn channel_distribution(&self, lpas: impl IntoIterator<Item = Lpa>) -> Vec<u64> {
        let mut counts = vec![0u64; self.geom.channels as usize];
        for lpa in lpas {
            if let Some(addr) = self.translate(lpa) {
                counts[addr.channel as usize] += 1;
            }
        }
        counts
    }

    /// Maximum difference in erase counts across all blocks (wear spread).
    pub fn wear_spread(&self) -> u32 {
        let mut min = u32::MAX;
        let mut max = 0;
        for plane in &self.planes {
            for &e in &plane.erase_count {
                min = min.min(e);
                max = max.max(e);
            }
        }
        if min == u32::MAX {
            0
        } else {
            max - min
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use assasin_flash::{FaultConfig, FlashTiming};

    fn setup() -> (FlashArray, Ftl, FlashGeometry) {
        let geom = FlashGeometry::small_for_tests();
        (
            FlashArray::new(geom, FlashTiming::default()),
            Ftl::new(geom),
            geom,
        )
    }

    fn page(geom: &FlashGeometry, fill: u8) -> Bytes {
        Bytes::from(vec![fill; geom.page_bytes as usize])
    }

    #[test]
    fn write_read_roundtrip() {
        let (mut arr, mut ftl, geom) = setup();
        ftl.write(&mut arr, Lpa(3), page(&geom, 0x42), SimTime::ZERO)
            .unwrap();
        let (data, _) = ftl.read(&mut arr, Lpa(3), SimTime::ZERO).unwrap();
        assert_eq!(data, page(&geom, 0x42));
    }

    #[test]
    fn unmapped_read_fails() {
        let (mut arr, mut ftl, _) = setup();
        assert_eq!(
            ftl.read(&mut arr, Lpa(7), SimTime::ZERO).unwrap_err(),
            FtlError::Unmapped(Lpa(7))
        );
    }

    #[test]
    fn out_of_capacity_rejected() {
        let (mut arr, mut ftl, geom) = setup();
        let lpa = Lpa(ftl.exported_pages());
        assert_eq!(
            ftl.write(&mut arr, lpa, page(&geom, 0), SimTime::ZERO)
                .unwrap_err(),
            FtlError::OutOfCapacity(lpa)
        );
    }

    #[test]
    fn overwrite_remaps_and_reads_new_data() {
        let (mut arr, mut ftl, geom) = setup();
        ftl.write(&mut arr, Lpa(0), page(&geom, 1), SimTime::ZERO)
            .unwrap();
        let first = ftl.translate(Lpa(0)).unwrap();
        ftl.write(&mut arr, Lpa(0), page(&geom, 2), SimTime::ZERO)
            .unwrap();
        let second = ftl.translate(Lpa(0)).unwrap();
        assert_ne!(first, second, "out-of-place update required");
        let (data, _) = ftl.read(&mut arr, Lpa(0), SimTime::ZERO).unwrap();
        assert_eq!(data, page(&geom, 2));
    }

    #[test]
    fn striping_balances_channels() {
        let geom = FlashGeometry::default();
        let mut arr = FlashArray::new(geom, FlashTiming::default());
        let mut ftl = Ftl::new(geom);
        let n = 64u64;
        for i in 0..n {
            ftl.write(&mut arr, Lpa(i), page(&geom, i as u8), SimTime::ZERO)
                .unwrap();
        }
        let dist = ftl.channel_distribution((0..n).map(Lpa));
        assert!(dist.iter().all(|&c| c == n / geom.channels as u64));
    }

    #[test]
    fn gc_reclaims_space_under_overwrite_churn() {
        let (mut arr, mut ftl, geom) = setup();
        // Small geometry: 2ch*2chip*1plane*2blk*2pg = 16 phys pages,
        // exported 14. Overwrite a small working set many times; GC must
        // keep the device usable.
        for round in 0..40u64 {
            for lpa in 0..4u64 {
                ftl.write(
                    &mut arr,
                    Lpa(lpa),
                    page(&geom, (round * 4 + lpa) as u8),
                    SimTime::ZERO,
                )
                .unwrap();
            }
        }
        for lpa in 0..4u64 {
            let (data, _) = ftl.read(&mut arr, Lpa(lpa), SimTime::ZERO).unwrap();
            assert_eq!(data, page(&geom, (39 * 4 + lpa) as u8));
        }
        assert!(ftl.stats().erases > 0, "GC must have erased blocks");
        assert!(ftl.stats().write_amplification() >= 1.0);
    }

    #[test]
    fn skewed_placement_reaches_target_distribution() {
        let geom = FlashGeometry::default();
        let mut arr = FlashArray::new(geom, FlashTiming::default());
        let mut ftl = Ftl::new(geom);
        let n = 8192u64;
        ftl.begin_stream(Placement::skewed(geom.channels, 0.5), n);
        for i in 0..n {
            ftl.write(&mut arr, Lpa(i), page(&geom, i as u8), SimTime::ZERO)
                .unwrap();
        }
        let dist = ftl.channel_distribution((0..n).map(Lpa));
        let got = crate::skew::measure_skew(&dist);
        assert!((got - 0.5).abs() < 0.02, "got skew {got}");
    }

    #[test]
    fn program_failures_grow_bad_blocks_and_preserve_data() {
        let geom = FlashGeometry::default();
        let fault = FaultConfig {
            program_fail_prob: 0.02,
            ..FaultConfig::with_ber(0x5EED, 0.0)
        };
        let mut arr = FlashArray::with_faults(geom, FlashTiming::default(), fault);
        let mut ftl = Ftl::new(geom);
        let n = 2048u64;
        for i in 0..n {
            ftl.write(&mut arr, Lpa(i), page(&geom, i as u8), SimTime::ZERO)
                .unwrap();
        }
        assert!(
            arr.reliability_stats().grown_bad_blocks > 0,
            "2% program failures over {n} writes must retire blocks"
        );
        // Every logical page — including those relocated out of retired
        // blocks — still reads back its own data.
        for i in 0..n {
            let (data, _) = ftl.read(&mut arr, Lpa(i), SimTime::ZERO).unwrap();
            assert_eq!(data, page(&geom, i as u8), "lpa {i}");
            let loc = ftl.translate(Lpa(i)).unwrap();
            assert!(
                !arr.is_bad_block(loc.channel, loc.chip, loc.plane, loc.block),
                "lpa {i} must not live on a grown-bad block"
            );
        }
    }

    #[test]
    fn erase_failures_retire_victims_gracefully() {
        let geom = FlashGeometry::small_for_tests();
        let fault = FaultConfig {
            erase_fail_prob: 1.0,
            ..FaultConfig::with_ber(3, 0.0)
        };
        let mut arr = FlashArray::with_faults(geom, FlashTiming::default(), fault);
        let mut ftl = Ftl::new(geom);
        // Churn overwrites until the shrinking good-block pool is gone;
        // the FTL must degrade to DeviceFull, never panic or corrupt.
        let mut last_ok = Vec::new();
        'outer: for round in 0..200u64 {
            for lpa in 0..4u64 {
                let fill = (round * 4 + lpa) as u8;
                match ftl.write(&mut arr, Lpa(lpa), page(&geom, fill), SimTime::ZERO) {
                    Ok(_) => {
                        last_ok.resize(4.max(lpa as usize + 1), 0);
                        last_ok[lpa as usize] = fill;
                    }
                    Err(FtlError::DeviceFull) => break 'outer,
                    Err(e) => panic!("unexpected error: {e}"),
                }
            }
        }
        assert!(
            arr.reliability_stats().grown_bad_blocks > 0,
            "every erase fails, so GC must have retired victims"
        );
        // Pages written before the device filled are still readable.
        for (lpa, &fill) in last_ok.iter().enumerate() {
            let (data, _) = ftl.read(&mut arr, Lpa(lpa as u64), SimTime::ZERO).unwrap();
            assert_eq!(data, page(&geom, fill), "lpa {lpa}");
        }
    }

    #[test]
    fn uncorrectable_read_surfaces_typed_error() {
        let geom = FlashGeometry::small_for_tests();
        let fault = FaultConfig {
            read_retry_limit: 0,
            ..FaultConfig::with_ber(1, 5e-2)
        };
        let mut arr = FlashArray::with_faults(geom, FlashTiming::default(), fault);
        let mut ftl = Ftl::new(geom);
        ftl.write(&mut arr, Lpa(0), page(&geom, 0x11), SimTime::ZERO)
            .unwrap();
        let err = ftl.read(&mut arr, Lpa(0), SimTime::ZERO).unwrap_err();
        match err {
            FtlError::Uncorrectable { lpa, addr, errors } => {
                assert_eq!(lpa, Lpa(0));
                assert_eq!(addr, ftl.translate(Lpa(0)).unwrap());
                assert!(errors > 0);
            }
            other => panic!("expected Uncorrectable, got {other:?}"),
        }
        assert_eq!(arr.reliability_stats().uncorrectable, 1);
    }

    #[test]
    fn marginal_reads_count_retries_and_corrections() {
        let geom = FlashGeometry::small_for_tests();
        let fault = FaultConfig::with_ber(7, 1e-2);
        let mut arr = FlashArray::with_faults(geom, FlashTiming::default(), fault);
        let mut ftl = Ftl::new(geom);
        ftl.write(&mut arr, Lpa(0), page(&geom, 0x22), SimTime::ZERO)
            .unwrap();
        let (data, _) = ftl.read(&mut arr, Lpa(0), SimTime::ZERO).unwrap();
        assert_eq!(data, page(&geom, 0x22));
        let stats = arr.reliability_stats();
        assert!(
            stats.read_retries >= 1,
            "lambda far above budget: {stats:?}"
        );
        assert_eq!(stats.ecc_corrected, 1);
        assert_eq!(stats.uncorrectable, 0);
    }

    #[test]
    fn wear_spread_stays_bounded() {
        let (mut arr, mut ftl, geom) = setup();
        for round in 0..200u64 {
            for lpa in 0..4u64 {
                ftl.write(&mut arr, Lpa(lpa), page(&geom, round as u8), SimTime::ZERO)
                    .unwrap();
            }
        }
        // Least-worn-first allocation keeps erase counts within a small band.
        assert!(ftl.wear_spread() <= 4, "wear spread {}", ftl.wear_spread());
    }
}
