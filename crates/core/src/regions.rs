//! Core address-space layout and the backing stores of each region.

use assasin_sim::SimTime;
use bytes::Bytes;

/// The core's address map.
pub mod layout {
    /// Function-state scratchpad base.
    pub const SCRATCHPAD_BASE: u64 = 0x0000_0000;
    /// DRAM-backed (cached) region base — staged input/output for
    /// Baseline/Prefetch, spill space for AssasinSb$.
    pub const DRAM_BASE: u64 = 0x1000_0000;
    /// AssasinSp input staging bank window base.
    pub const STAGING_IN_BASE: u64 = 0x2000_0000;
    /// AssasinSp output staging bank window base.
    pub const STAGING_OUT_BASE: u64 = 0x2800_0000;
}

/// A window of SSD DRAM visible to a core (Baseline/Prefetch data path,
/// Figure 4). Functional bytes plus per-page staging availability: the
/// firmware stages flash pages into DRAM over time, and a read of a page
/// that has not arrived yet must wait.
#[derive(Debug, Clone)]
pub struct DramWindow {
    data: Vec<u8>,
    page_bytes: u32,
    avail: Vec<SimTime>,
}

impl DramWindow {
    /// Creates a zeroed window of `size` bytes with `page_bytes` staging
    /// granularity; all pages immediately available.
    pub fn new(size: usize, page_bytes: u32) -> Self {
        let pages = size.div_ceil(page_bytes as usize);
        DramWindow {
            data: vec![0; size],
            page_bytes,
            avail: vec![SimTime::ZERO; pages],
        }
    }

    /// Window size in bytes.
    pub fn size(&self) -> usize {
        self.data.len()
    }

    /// Stages `src` at `offset`, marking the covered pages available at
    /// `at`.
    ///
    /// # Panics
    ///
    /// Panics if the range exceeds the window.
    pub fn stage(&mut self, offset: u64, src: &[u8], at: SimTime) {
        let start = offset as usize;
        let end = start + src.len();
        assert!(end <= self.data.len(), "staging beyond window");
        self.data[start..end].copy_from_slice(src);
        let first = start / self.page_bytes as usize;
        let last = (end.saturating_sub(1)) / self.page_bytes as usize;
        for p in first..=last {
            self.avail[p] = self.avail[p].max(at);
        }
    }

    /// When the page containing `offset` becomes readable.
    pub fn avail_at(&self, offset: u64) -> SimTime {
        let p = (offset / self.page_bytes as u64) as usize;
        self.avail.get(p).copied().unwrap_or(SimTime::ZERO)
    }

    /// Loads `width` (1, 2 or 4) bytes little-endian.
    ///
    /// # Panics
    ///
    /// Panics on out-of-window access (an SSD configuration bug, not a
    /// recoverable program condition).
    pub fn load(&self, offset: u64, width: u32) -> u32 {
        let start = offset as usize;
        let mut buf = [0u8; 4];
        buf[..width as usize].copy_from_slice(&self.data[start..start + width as usize]);
        u32::from_le_bytes(buf)
    }

    /// Stores the low `width` bytes of `value` little-endian.
    ///
    /// # Panics
    ///
    /// Panics on out-of-window access.
    pub fn store(&mut self, offset: u64, width: u32, value: u32) {
        let start = offset as usize;
        self.data[start..start + width as usize]
            .copy_from_slice(&value.to_le_bytes()[..width as usize]);
    }

    /// Reads back a byte range (result extraction).
    pub fn bytes(&self, offset: u64, len: usize) -> &[u8] {
        &self.data[offset as usize..offset as usize + len]
    }

    /// True if `offset..offset+width` fits the window.
    pub fn contains(&self, offset: u64, width: u32) -> bool {
        offset + width as u64 <= self.data.len() as u64
    }
}

/// Bytes the firmware copies from each of `streams` input streams into
/// one ping-pong bank of `bank_bytes`: an equal share per stream, cut on
/// object boundaries (Section V-D: "consistent splitting of each
/// object/LPA stream") and never less than one `granularity`-byte object.
pub fn bank_chunk(bank_bytes: usize, streams: usize, granularity: usize) -> usize {
    (bank_bytes / streams / granularity).max(1) * granularity
}

/// AssasinSp ping-pong staging state for one direction pair: the core works
/// on the current input bank while the firmware fills the next one from
/// flash, and symmetric double-buffering on the output side.
#[derive(Debug, Clone)]
pub struct PingPong {
    bank_bytes: u32,
    /// Input bank currently visible to the core.
    in_bank: Vec<u8>,
    in_len: usize,
    in_exhausted: bool,
    /// Output bank being written by the core.
    out_bank: Vec<u8>,
    out_high_water: usize,
    /// Completion time of the previous output-bank drain (double buffer:
    /// one drain may be outstanding).
    out_drain_done: SimTime,
}

impl PingPong {
    /// Creates empty staging with `bank_bytes` per bank.
    pub fn new(bank_bytes: u32) -> Self {
        PingPong {
            bank_bytes,
            in_bank: Vec::new(),
            in_len: 0,
            in_exhausted: false,
            out_bank: vec![0; bank_bytes as usize],
            out_high_water: 0,
            out_drain_done: SimTime::ZERO,
        }
    }

    /// Bank capacity in bytes.
    pub fn bank_bytes(&self) -> u32 {
        self.bank_bytes
    }

    /// Installs the next input bank (after a `BufSwap`).
    pub fn install_input(&mut self, data: Bytes) {
        assert!(data.len() <= self.bank_bytes as usize, "bank overflow");
        self.in_len = data.len();
        self.in_bank.clear();
        self.in_bank.extend_from_slice(&data);
    }

    /// Marks the input as exhausted (no more banks).
    pub fn set_exhausted(&mut self) {
        self.in_exhausted = true;
        self.in_len = 0;
    }

    /// True once the input side has no more banks.
    pub fn exhausted(&self) -> bool {
        self.in_exhausted
    }

    /// Valid bytes in the current input bank (the `CSR_IN_BANK_LEN` value).
    pub fn in_len(&self) -> usize {
        self.in_len
    }

    /// Loads from the current input bank.
    ///
    /// # Panics
    ///
    /// Panics past the bank's valid length (kernels must honor the length
    /// CSR).
    pub fn load_in(&self, offset: u64, width: u32) -> u32 {
        let start = offset as usize;
        assert!(
            start + width as usize <= self.in_len,
            "read past input bank length"
        );
        let mut buf = [0u8; 4];
        buf[..width as usize].copy_from_slice(&self.in_bank[start..start + width as usize]);
        u32::from_le_bytes(buf)
    }

    /// Stores into the output bank.
    ///
    /// # Panics
    ///
    /// Panics past the bank capacity.
    pub fn store_out(&mut self, offset: u64, width: u32, value: u32) {
        let start = offset as usize;
        assert!(
            start + width as usize <= self.out_bank.len(),
            "write past output bank"
        );
        self.out_bank[start..start + width as usize]
            .copy_from_slice(&value.to_le_bytes()[..width as usize]);
        self.out_high_water = self.out_high_water.max(start + width as usize);
    }

    /// Takes the filled portion of the output bank for draining, resetting
    /// the high-water mark.
    pub fn take_output(&mut self) -> Bytes {
        let filled = self.out_high_water;
        self.out_high_water = 0;
        Bytes::copy_from_slice(&self.out_bank[..filled])
    }

    /// Records when the outstanding output drain completes.
    pub fn set_drain_done(&mut self, t: SimTime) {
        self.out_drain_done = t;
    }

    /// When the previous output drain completes (swap stalls until then).
    pub fn drain_done(&self) -> SimTime {
        self.out_drain_done
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn window_staging_and_availability() {
        let mut w = DramWindow::new(8192, 4096);
        assert_eq!(w.avail_at(0), SimTime::ZERO);
        w.stage(4096, &[7; 4096], SimTime::from_us(3));
        assert_eq!(w.avail_at(5000), SimTime::from_us(3));
        assert_eq!(w.load(4096, 4), 0x0707_0707);
    }

    #[test]
    fn window_load_store_roundtrip() {
        let mut w = DramWindow::new(64, 64);
        w.store(8, 4, 0xDEAD_BEEF);
        assert_eq!(w.load(8, 4), 0xDEAD_BEEF);
        assert_eq!(w.load(8, 2), 0xBEEF);
        assert_eq!(w.bytes(8, 2), &[0xEF, 0xBE]);
        assert!(w.contains(60, 4));
        assert!(!w.contains(61, 4));
    }

    #[test]
    #[should_panic(expected = "beyond window")]
    fn staging_overflow_panics() {
        let mut w = DramWindow::new(64, 64);
        w.stage(32, &[0; 64], SimTime::ZERO);
    }

    #[test]
    fn pingpong_input_flow() {
        let mut pp = PingPong::new(16);
        pp.install_input(Bytes::from_static(&[1, 2, 3, 4]));
        assert_eq!(pp.in_len(), 4);
        assert_eq!(pp.load_in(0, 4), u32::from_le_bytes([1, 2, 3, 4]));
        pp.set_exhausted();
        assert!(pp.exhausted());
        assert_eq!(pp.in_len(), 0);
    }

    #[test]
    fn pingpong_output_high_water() {
        let mut pp = PingPong::new(16);
        pp.store_out(0, 4, 0x04030201);
        pp.store_out(4, 1, 0xAA);
        let out = pp.take_output();
        assert_eq!(&out[..], &[1, 2, 3, 4, 0xAA]);
        // High-water resets after take.
        pp.store_out(0, 1, 9);
        assert_eq!(&pp.take_output()[..], &[9]);
    }

    #[test]
    #[should_panic(expected = "past input bank length")]
    fn reading_past_bank_length_panics() {
        let mut pp = PingPong::new(16);
        pp.install_input(Bytes::from_static(&[1, 2]));
        let _ = pp.load_in(1, 2);
    }
}
