//! A single flash chip: page store plus busy timeline.

use crate::fault::{FaultConfig, PageHealth};
use crate::{FlashError, FlashGeometry, PhysPageAddr};
use assasin_sim::{SimDur, SimTime, Timeline};
use bytes::Bytes;
use std::sync::Arc;

/// One flash chip (logical die): stores page contents and models the chip's
/// busy time for sense/program/erase operations.
///
/// Pages are stored sparsely; an unprogrammed page reads back as an error,
/// matching NAND semantics where a page must be programmed after erase
/// before it holds data.
///
/// The store is a two-level array — an outer slot per block (allocated on
/// first program) holding one `Option<Bytes>` slot per page — so a sense is
/// two bounds-checked indexes rather than a hash. Plan scheduling senses
/// every input page of a run up front, which made the hash the hottest part
/// of the flash model.
///
/// Block page stores are `Arc`-backed so cloning a chip (forking a device
/// image for a sweep point) shares every programmed page; the first program
/// or erase touching a shared block pays one block-sized copy
/// (`Arc::make_mut`), reads never copy.
#[derive(Debug, Clone)]
pub struct FlashChip {
    /// Page contents: outer index `plane * blocks_per_plane + block`,
    /// inner index the page within the block.
    blocks: Vec<Option<Arc<Vec<Option<Bytes>>>>>,
    pages_per_block: usize,
    busy: Timeline,
    reads: u64,
    programs: u64,
    erases: u64,
    /// Per-block erase count — the fault model's "program epoch": data
    /// written after an erase sees fresh error draws.
    erase_counts: Vec<u32>,
    /// Per-block grown-bad flags (program/erase failures).
    bad: Vec<bool>,
    /// Monotone fault-draw sequence, so a re-read of the same page draws a
    /// fresh error count instead of replaying the same marginal sense.
    fault_seq: u64,
    /// This chip's (channel, chip) coordinates, for error context.
    channel: u32,
    chip: u32,
}

impl FlashChip {
    /// Creates an erased chip shaped for `geom`.
    pub fn new(geom: &FlashGeometry, channel: u32, chip: u32) -> Self {
        let n_blocks = geom.planes_per_chip as usize * geom.blocks_per_plane as usize;
        FlashChip {
            blocks: vec![None; n_blocks],
            pages_per_block: geom.pages_per_block as usize,
            busy: Timeline::new(format!("chip-{channel}.{chip}")),
            reads: 0,
            programs: 0,
            erases: 0,
            erase_counts: vec![0; n_blocks],
            bad: vec![false; n_blocks],
            fault_seq: 0,
            channel,
            chip,
        }
    }

    fn block_index(geom: &FlashGeometry, plane: u32, block: u32) -> usize {
        plane as usize * geom.blocks_per_plane as usize + block as usize
    }

    fn slot(&self, geom: &FlashGeometry, addr: PhysPageAddr) -> Option<&Bytes> {
        self.blocks
            .get(Self::block_index(geom, addr.plane, addr.block))?
            .as_ref()?
            .get(addr.page as usize)?
            .as_ref()
    }

    /// Returns a page's data without modeling any timing or stats — the
    /// firmware's control-plane view (used e.g. to locate record
    /// boundaries for task decomposition).
    pub fn peek(&self, geom: &FlashGeometry, addr: PhysPageAddr) -> Option<Bytes> {
        self.slot(geom, addr).cloned()
    }

    /// Senses a page into the page register. Returns the page data, the
    /// time the register is loaded (before any bus transfer) and the ECC
    /// outcome.
    ///
    /// With fault injection enabled, the ECC model classifies the drawn
    /// raw-bit-error count: within budget on the first sense is clean or
    /// corrected; beyond budget triggers read-retry, each level re-sensing
    /// the page (a full extra `t_read` charged on the chip timeline) with
    /// a shifted read reference that geometrically shrinks the residual
    /// errors. A page still beyond budget after `read_retry_limit` levels
    /// is [`FlashError::Uncorrectable`] — the chip time for every sense is
    /// still charged, as a real controller would have spent it.
    pub fn sense(
        &mut self,
        geom: &FlashGeometry,
        fault: &FaultConfig,
        addr: PhysPageAddr,
        ready: SimTime,
        t_read: SimDur,
    ) -> Result<(Bytes, SimTime, PageHealth), FlashError> {
        let data = self
            .slot(geom, addr)
            .cloned()
            .ok_or(FlashError::UnwrittenPage(addr))?;
        if !fault.enabled {
            let grant = self.busy.acquire(ready, t_read);
            self.reads += 1;
            return Ok((data, grant.end, PageHealth::Clean));
        }
        let bi = Self::block_index(geom, addr.plane, addr.block);
        let epoch = self.erase_counts[bi];
        let key = fault.op_key(geom.linear_index(addr), epoch, self.fault_seq);
        self.fault_seq += 1;
        let page_bits = geom.page_bytes as u64 * 8;
        let mut result = Err(0u32);
        for attempt in 0..=fault.read_retry_limit {
            let errors = fault.draw_errors(page_bits, epoch, attempt, key);
            if errors <= fault.ecc_bits {
                result = Ok((attempt, errors));
                break;
            }
            result = Err(errors);
        }
        let senses = match result {
            Ok((attempt, _)) => attempt + 1,
            Err(_) => fault.read_retry_limit + 1,
        };
        let grant = self.busy.acquire_repeated(ready, t_read, senses);
        self.reads += senses as u64;
        match result {
            Ok((0, 0)) => Ok((data, grant.end, PageHealth::Clean)),
            Ok((0, bits)) => Ok((data, grant.end, PageHealth::Corrected { bits })),
            Ok((retries, bits)) => Ok((data, grant.end, PageHealth::Retried { retries, bits })),
            Err(errors) => Err(FlashError::Uncorrectable { addr, errors }),
        }
    }

    /// Programs a page from the page register; `data_ready` is when the bus
    /// finished delivering data. Returns program completion time.
    ///
    /// With fault injection enabled, a program can fail: the chip is still
    /// occupied for `t_prog`, nothing is stored, and the block is marked
    /// grown-bad. Programs targeting an already grown-bad block are
    /// rejected up front.
    pub fn program(
        &mut self,
        geom: &FlashGeometry,
        fault: &FaultConfig,
        addr: PhysPageAddr,
        data: Bytes,
        data_ready: SimTime,
        t_prog: SimDur,
    ) -> Result<SimTime, FlashError> {
        if data.len() != geom.page_bytes as usize {
            return Err(FlashError::BadPageSize {
                addr,
                got: data.len(),
                want: geom.page_bytes as usize,
            });
        }
        let bi = Self::block_index(geom, addr.plane, addr.block);
        if fault.enabled && self.bad[bi] {
            return Err(FlashError::GrownBad(addr));
        }
        let pages_per_block = self.pages_per_block;
        let block = Arc::make_mut(
            self.blocks[bi].get_or_insert_with(|| Arc::new(vec![None; pages_per_block])),
        );
        let slot = &mut block[addr.page as usize];
        if slot.is_some() {
            return Err(FlashError::ProgramWithoutErase(addr));
        }
        if fault.enabled {
            let key = fault.op_key(
                geom.linear_index(addr),
                self.erase_counts[bi],
                self.fault_seq,
            );
            self.fault_seq += 1;
            if fault.draw_program_fail(key) {
                self.bad[bi] = true;
                self.busy.acquire(data_ready, t_prog);
                self.programs += 1;
                return Err(FlashError::ProgramFailed(addr));
            }
        }
        *slot = Some(data);
        let grant = self.busy.acquire(data_ready, t_prog);
        self.programs += 1;
        Ok(grant.end)
    }

    /// Erases a whole block, freeing its pages. Returns completion time.
    ///
    /// With fault injection enabled, an erase can fail: the chip is still
    /// occupied for `t_erase`, the block keeps its stale contents and is
    /// marked grown-bad. Erases of an already grown-bad block are rejected.
    pub fn erase_block(
        &mut self,
        geom: &FlashGeometry,
        fault: &FaultConfig,
        plane: u32,
        block: u32,
        ready: SimTime,
        t_erase: SimDur,
    ) -> Result<SimTime, FlashError> {
        let bi = Self::block_index(geom, plane, block);
        let probe = PhysPageAddr {
            channel: self.channel,
            chip: self.chip,
            plane,
            block,
            page: 0,
        };
        if fault.enabled {
            if self.bad[bi] {
                return Err(FlashError::GrownBad(probe));
            }
            let key = fault.op_key(
                geom.linear_index(probe),
                self.erase_counts[bi],
                self.fault_seq,
            );
            self.fault_seq += 1;
            if fault.draw_erase_fail(key) {
                self.bad[bi] = true;
                self.busy.acquire(ready, t_erase);
                self.erases += 1;
                return Err(FlashError::EraseFailed {
                    channel: self.channel,
                    chip: self.chip,
                    plane,
                    block,
                });
            }
        }
        self.blocks[bi] = None;
        let grant = self.busy.acquire(ready, t_erase);
        self.erases += 1;
        self.erase_counts[bi] += 1;
        Ok(grant.end)
    }

    /// Times this block has been erased (the fault model's program epoch).
    pub fn erase_count(&self, geom: &FlashGeometry, plane: u32, block: u32) -> u32 {
        self.erase_counts[Self::block_index(geom, plane, block)]
    }

    /// True if the block has been marked grown-bad by a failed program or
    /// erase.
    pub fn is_bad(&self, geom: &FlashGeometry, plane: u32, block: u32) -> bool {
        self.bad[Self::block_index(geom, plane, block)]
    }

    /// True if the page currently holds programmed data.
    pub fn is_written(&self, geom: &FlashGeometry, addr: PhysPageAddr) -> bool {
        self.slot(geom, addr).is_some()
    }

    /// When the chip next becomes idle.
    pub fn free_at(&self) -> SimTime {
        self.busy.free_at()
    }

    /// Cumulative busy time.
    pub fn busy_time(&self) -> SimDur {
        self.busy.busy_time()
    }

    /// (reads, programs, erases) counters, for wear accounting.
    pub fn op_counts(&self) -> (u64, u64, u64) {
        (self.reads, self.programs, self.erases)
    }

    /// Returns the chip to idle at t = 0, keeping data (between phases).
    pub fn reset_time(&mut self) {
        self.busy.reset_time();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn addr(block: u32, page: u32) -> PhysPageAddr {
        PhysPageAddr {
            channel: 0,
            chip: 0,
            plane: 0,
            block,
            page,
        }
    }

    fn page(geom: &FlashGeometry, fill: u8) -> Bytes {
        Bytes::from(vec![fill; geom.page_bytes as usize])
    }

    const NO_FAULTS: FaultConfig = FaultConfig {
        enabled: false,
        seed: 0,
        raw_ber: 0.0,
        wear_factor: 0.0,
        retention: 1.0,
        ecc_bits: 40,
        read_retry_limit: 4,
        retry_shrink: 0.25,
        program_fail_prob: 0.0,
        erase_fail_prob: 0.0,
    };

    #[test]
    fn program_then_sense_roundtrips() {
        let geom = FlashGeometry::small_for_tests();
        let mut chip = FlashChip::new(&geom, 0, 0);
        let t = FlashTimingFixture::default();
        chip.program(
            &geom,
            &NO_FAULTS,
            addr(0, 0),
            page(&geom, 0xAB),
            SimTime::ZERO,
            t.prog,
        )
        .unwrap();
        let (data, done, health) = chip
            .sense(&geom, &NO_FAULTS, addr(0, 0), SimTime::ZERO, t.read)
            .unwrap();
        assert_eq!(data, page(&geom, 0xAB));
        assert_eq!(health, PageHealth::Clean);
        // Sense queues behind the in-flight program on the same chip.
        assert_eq!(done, SimTime::ZERO + t.prog + t.read);
    }

    #[test]
    fn sense_unwritten_fails() {
        let geom = FlashGeometry::small_for_tests();
        let mut chip = FlashChip::new(&geom, 0, 0);
        let err = chip
            .sense(
                &geom,
                &NO_FAULTS,
                addr(0, 1),
                SimTime::ZERO,
                SimDur::from_us(20),
            )
            .unwrap_err();
        assert_eq!(err, FlashError::UnwrittenPage(addr(0, 1)));
    }

    #[test]
    fn double_program_requires_erase() {
        let geom = FlashGeometry::small_for_tests();
        let mut chip = FlashChip::new(&geom, 0, 0);
        let t = FlashTimingFixture::default();
        chip.program(
            &geom,
            &NO_FAULTS,
            addr(1, 0),
            page(&geom, 1),
            SimTime::ZERO,
            t.prog,
        )
        .unwrap();
        let err = chip
            .program(
                &geom,
                &NO_FAULTS,
                addr(1, 0),
                page(&geom, 2),
                SimTime::ZERO,
                t.prog,
            )
            .unwrap_err();
        assert_eq!(err, FlashError::ProgramWithoutErase(addr(1, 0)));
        chip.erase_block(&geom, &NO_FAULTS, 0, 1, SimTime::ZERO, t.erase)
            .unwrap();
        chip.program(
            &geom,
            &NO_FAULTS,
            addr(1, 0),
            page(&geom, 2),
            SimTime::ZERO,
            t.prog,
        )
        .unwrap();
        let (data, _, _) = chip
            .sense(&geom, &NO_FAULTS, addr(1, 0), SimTime::ZERO, t.read)
            .unwrap();
        assert_eq!(data, page(&geom, 2));
        assert_eq!(chip.erase_count(&geom, 0, 1), 1);
    }

    #[test]
    fn bad_page_size_rejected() {
        let geom = FlashGeometry::small_for_tests();
        let mut chip = FlashChip::new(&geom, 0, 0);
        let err = chip
            .program(
                &geom,
                &NO_FAULTS,
                addr(0, 0),
                Bytes::from_static(b"short"),
                SimTime::ZERO,
                SimDur::from_us(200),
            )
            .unwrap_err();
        assert!(matches!(err, FlashError::BadPageSize { got: 5, .. }));
    }

    #[test]
    fn erase_clears_only_target_block() {
        let geom = FlashGeometry::small_for_tests();
        let mut chip = FlashChip::new(&geom, 0, 0);
        let t = FlashTimingFixture::default();
        chip.program(
            &geom,
            &NO_FAULTS,
            addr(0, 0),
            page(&geom, 1),
            SimTime::ZERO,
            t.prog,
        )
        .unwrap();
        chip.program(
            &geom,
            &NO_FAULTS,
            addr(1, 0),
            page(&geom, 2),
            SimTime::ZERO,
            t.prog,
        )
        .unwrap();
        chip.erase_block(&geom, &NO_FAULTS, 0, 0, SimTime::ZERO, t.erase)
            .unwrap();
        assert!(!chip.is_written(&geom, addr(0, 0)));
        assert!(chip.is_written(&geom, addr(1, 0)));
        assert_eq!(chip.op_counts().2, 1);
    }

    #[test]
    fn marginal_page_retries_and_charges_extra_senses() {
        let geom = FlashGeometry::small_for_tests();
        let mut chip = FlashChip::new(&geom, 0, 0);
        let t = FlashTimingFixture::default();
        // BER high enough that the first sense always exceeds the budget
        // (lambda ~ 328 >> 40) but one retry always corrects (~82... still
        // above, two levels: ~20 < 40).
        let fault = FaultConfig::with_ber(7, 1e-2);
        chip.program(
            &geom,
            &fault,
            addr(0, 0),
            page(&geom, 9),
            SimTime::ZERO,
            t.prog,
        )
        .unwrap();
        let done_prog = chip.free_at();
        let (_, done, health) = chip
            .sense(&geom, &fault, addr(0, 0), SimTime::ZERO, t.read)
            .unwrap();
        let retries = health.retries();
        assert!(
            retries >= 1,
            "lambda far above budget must retry: {health:?}"
        );
        // Each retry re-senses: chip occupied for (1 + retries) * tR.
        assert_eq!(done, done_prog + t.read * (1 + retries as u64));
    }

    #[test]
    fn uncorrectable_page_charges_full_ladder() {
        let geom = FlashGeometry::small_for_tests();
        let mut chip = FlashChip::new(&geom, 0, 0);
        let t = FlashTimingFixture::default();
        // No retry budget and lambda far beyond ECC: always uncorrectable.
        let fault = FaultConfig {
            read_retry_limit: 0,
            ..FaultConfig::with_ber(7, 5e-2)
        };
        chip.program(
            &geom,
            &fault,
            addr(0, 0),
            page(&geom, 9),
            SimTime::ZERO,
            t.prog,
        )
        .unwrap();
        let before = chip.busy_time();
        let err = chip
            .sense(&geom, &fault, addr(0, 0), SimTime::ZERO, t.read)
            .unwrap_err();
        assert!(matches!(err, FlashError::Uncorrectable { errors, .. } if errors > 40));
        assert_eq!(
            chip.busy_time(),
            before + t.read,
            "failed sense still charged"
        );
    }

    #[test]
    fn program_failure_grows_block_bad() {
        let geom = FlashGeometry::small_for_tests();
        let mut chip = FlashChip::new(&geom, 0, 0);
        let t = FlashTimingFixture::default();
        let fault = FaultConfig {
            enabled: true,
            program_fail_prob: 1.0,
            ..FaultConfig::disabled()
        };
        let err = chip
            .program(
                &geom,
                &fault,
                addr(0, 0),
                page(&geom, 1),
                SimTime::ZERO,
                t.prog,
            )
            .unwrap_err();
        assert_eq!(err, FlashError::ProgramFailed(addr(0, 0)));
        assert!(chip.is_bad(&geom, 0, 0));
        assert!(
            !chip.is_written(&geom, addr(0, 0)),
            "failed program stores nothing"
        );
        // Follow-up program on the grown-bad block is rejected up front.
        let err = chip
            .program(
                &geom,
                &fault,
                addr(0, 1),
                page(&geom, 1),
                SimTime::ZERO,
                t.prog,
            )
            .unwrap_err();
        assert_eq!(err, FlashError::GrownBad(addr(0, 1)));
    }

    #[test]
    fn erase_failure_grows_block_bad_and_keeps_data() {
        let geom = FlashGeometry::small_for_tests();
        let mut chip = FlashChip::new(&geom, 0, 0);
        let t = FlashTimingFixture::default();
        let ok = FaultConfig {
            enabled: true,
            ..FaultConfig::disabled()
        };
        chip.program(
            &geom,
            &ok,
            addr(0, 0),
            page(&geom, 3),
            SimTime::ZERO,
            t.prog,
        )
        .unwrap();
        let fault = FaultConfig {
            erase_fail_prob: 1.0,
            ..ok
        };
        let err = chip
            .erase_block(&geom, &fault, 0, 0, SimTime::ZERO, t.erase)
            .unwrap_err();
        assert!(matches!(err, FlashError::EraseFailed { block: 0, .. }));
        assert!(chip.is_bad(&geom, 0, 0));
        assert!(
            chip.is_written(&geom, addr(0, 0)),
            "stale data survives a failed erase"
        );
        assert_eq!(
            chip.erase_count(&geom, 0, 0),
            0,
            "failed erase is not an epoch"
        );
    }

    #[test]
    fn fault_free_sense_matches_legacy_timing() {
        // The fault-injection hooks must be invisible when disabled: one
        // sense, one tR, clean health, identical counters.
        let geom = FlashGeometry::small_for_tests();
        let mut chip = FlashChip::new(&geom, 0, 0);
        let t = FlashTimingFixture::default();
        chip.program(
            &geom,
            &NO_FAULTS,
            addr(0, 0),
            page(&geom, 1),
            SimTime::ZERO,
            t.prog,
        )
        .unwrap();
        let busy_before = chip.busy_time();
        let (_, _, health) = chip
            .sense(&geom, &NO_FAULTS, addr(0, 0), SimTime::ZERO, t.read)
            .unwrap();
        assert_eq!(health, PageHealth::Clean);
        assert_eq!(chip.busy_time(), busy_before + t.read);
        assert_eq!(chip.op_counts().0, 1);
    }

    struct FlashTimingFixture {
        read: SimDur,
        prog: SimDur,
        erase: SimDur,
    }

    impl Default for FlashTimingFixture {
        fn default() -> Self {
            FlashTimingFixture {
                read: SimDur::from_us(20),
                prog: SimDur::from_us(200),
                erase: SimDur::from_ms(2),
            }
        }
    }
}
