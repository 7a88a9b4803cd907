//! The backing stores of the core's storage-data regions.

use assasin_isa::{layout, LaunchInfo};
use assasin_mem::word;
use assasin_sim::SimTime;
use bytes::Bytes;

/// A window of SSD DRAM visible to a core (Baseline/Prefetch data path,
/// Figure 4), and the one owner of the Mem launch convention: where the
/// firmware stages each input stream, which values it launches the kernel
/// with, and where the kernel's output sits at halt. Functional bytes plus
/// per-page staging availability: the firmware stages flash pages into
/// DRAM over time, and a read of a page that has not arrived yet must wait.
#[derive(Debug, Clone)]
pub struct DramWindow {
    data: Box<[u8]>,
    page_bytes: u32,
    avail: Box<[SimTime]>,
    /// The latest staging time of any page: from then on every page is
    /// readable (see [`DramWindow::avail_for`]).
    staged_by: SimTime,
    launch: LaunchInfo,
}

impl Default for DramWindow {
    /// An empty window, outside which every access falls: the state of a
    /// Mem-style core before its launch.
    fn default() -> Self {
        let (data, avail, staged_by, launch) = Default::default();
        DramWindow {
            data,
            page_bytes: 1,
            avail,
            staged_by,
            launch,
        }
    }
}

impl DramWindow {
    /// Lays out a zeroed window for `n_in` input streams of `in_len` bytes
    /// each: stream `i` starts at `i` times `in_len` padded to 64 bytes,
    /// and `out_bytes` of output space (padded to 64 bytes, plus one spare
    /// line) start at the next `page_bytes` boundary, which is also the
    /// staging granularity. All pages start available.
    pub fn new(n_in: usize, in_len: u64, out_bytes: u64, page_bytes: u32) -> Self {
        let stride = in_len.next_multiple_of(64);
        let out_offset = (stride * n_in as u64).next_multiple_of(page_bytes as u64);
        let size = (out_offset + out_bytes.next_multiple_of(64) + 64) as usize;
        DramWindow {
            data: vec![0; size].into_boxed_slice(),
            page_bytes,
            avail: vec![SimTime::ZERO; size.div_ceil(page_bytes as usize)].into_boxed_slice(),
            staged_by: SimTime::ZERO,
            launch: LaunchInfo {
                in_len: in_len as u32,
                in_stride: stride as u32,
                out_offset: out_offset as u32,
            },
        }
    }

    /// The launch-register values of this layout.
    pub fn launch(&self) -> LaunchInfo {
        self.launch
    }

    /// Stages `src` at byte `pos` of input stream `sid`, marking the
    /// covered pages available at `at`.
    ///
    /// # Panics
    ///
    /// Panics if the range exceeds the window.
    pub fn stage(&mut self, sid: usize, pos: u64, src: &[u8], at: SimTime) {
        let start = (sid as u64 * self.launch.in_stride as u64 + pos) as usize;
        let end = start + src.len();
        assert!(end <= self.data.len(), "staging beyond window");
        self.data[start..end].copy_from_slice(src);
        let first = start / self.page_bytes as usize;
        let last = (end.saturating_sub(1)) / self.page_bytes as usize;
        for p in first..=last {
            self.avail[p] = self.avail[p].max(at);
        }
        self.staged_by = self.staged_by.max(at);
    }

    /// The output a Mem kernel produced, given the value of its
    /// [`LaunchInfo::OUT_CURSOR`] at halt: the bytes from the output
    /// area's base up to the cursor. The cursor is program-controlled, so
    /// one past the window is an error for the caller to report, not a
    /// panic.
    pub fn output(&self, cursor: u32) -> Result<&[u8], String> {
        let start = self.launch.out_offset as u64;
        let end = start + (cursor as u64).saturating_sub(layout::DRAM_BASE + start);
        if end > self.data.len() as u64 {
            return Err(format!(
                "output cursor {cursor:#x} places results at {start:#x}..{end:#x}, \
                 past its {}-byte DRAM window",
                self.data.len()
            ));
        }
        Ok(&self.data[start as usize..end as usize])
    }

    /// When the page containing `offset` becomes readable.
    pub fn avail_at(&self, offset: u64) -> SimTime {
        let p = (offset / self.page_bytes as u64) as usize;
        self.avail.get(p).copied().unwrap_or(SimTime::ZERO)
    }

    /// When the page containing `offset` becomes readable to an access
    /// issued at `issue`: its [`DramWindow::avail_at`] time while `issue`
    /// is before the latest staging time of any page, and
    /// [`SimTime::ZERO`], with no page lookup, from then on, when every
    /// page is readable. Compared with any time at or after `issue`, both
    /// answers agree.
    #[inline(always)]
    pub fn avail_for(&self, offset: u64, issue: SimTime) -> SimTime {
        if issue >= self.staged_by {
            SimTime::ZERO
        } else {
            self.avail_at(offset)
        }
    }

    /// Loads the `width`-byte (1, 2 or 4) little-endian word at `offset`;
    /// `None` outside the window.
    #[inline(always)]
    pub fn load(&self, offset: u64, width: u32) -> Option<u32> {
        let at = usize::try_from(offset).ok()?;
        word::load_le(&self.data, at, width).map(|v| v as u32)
    }

    /// Stores the low `width` bytes of `value` little-endian at `offset`;
    /// `None`, with nothing written, outside the window.
    #[inline(always)]
    pub fn store(&mut self, offset: u64, width: u32, value: u32) -> Option<()> {
        let at = usize::try_from(offset).ok()?;
        word::store_le(&mut self.data, at, width, value as u64)
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
            out_bank: vec![0; bank_bytes as usize],
            out_high_water: 0,
            out_drain_done: SimTime::ZERO,
        }
    }

    /// Installs the next input bank (after a `BufSwap`).
    pub fn install_input(&mut self, data: Bytes) {
        assert!(data.len() <= self.bank_bytes as usize, "bank overflow");
        self.in_len = data.len();
        self.in_bank.clear();
        self.in_bank.extend_from_slice(&data);
    }

    /// Marks the input as exhausted (no more banks): the bank length
    /// reads 0 from then on.
    pub fn set_exhausted(&mut self) {
        self.in_len = 0;
    }

    /// Valid bytes in the current input bank (the `CSR_IN_BANK_LEN` value).
    pub fn in_len(&self) -> usize {
        self.in_len
    }

    /// Loads the `width`-byte little-endian word at `offset` of the
    /// current input bank; `None` past its valid length (kernels must
    /// honor the length CSR).
    #[inline]
    pub fn load_in(&self, offset: u64, width: u32) -> Option<u32> {
        let at = usize::try_from(offset).ok()?;
        let valid = self.in_bank.get(..self.in_len)?;
        word::load_le(valid, at, width).map(|v| v as u32)
    }

    /// Stores the low `width` bytes of `value` into the output bank;
    /// `None`, with nothing written, past the bank capacity.
    #[inline]
    pub fn store_out(&mut self, offset: u64, width: u32, value: u32) -> Option<()> {
        let at = usize::try_from(offset).ok()?;
        word::store_le(&mut self.out_bank, at, width, value as u64)?;
        self.out_high_water = self.out_high_water.max(at + width as usize);
        Some(())
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
    fn launch_layout_pads_streams_and_page_aligns_output() {
        let w = DramWindow::new(3, 100, 10, 4096);
        let launch = w.launch();
        assert_eq!((launch.in_len, launch.in_stride), (100, 128));
        assert_eq!(launch.out_offset, 4096, "3 x 128 B rounds up to a page");
        let base = (layout::DRAM_BASE + 4096) as u32;
        assert_eq!(w.output(base - 8).unwrap(), &[] as &[u8]);
        assert_eq!(w.output(base + 5).unwrap().len(), 5);
        assert_eq!(w.output(base + 128).unwrap().len(), 128);
        let err = w.output(base + 129).unwrap_err();
        assert!(err.contains("output cursor"), "{err}");
    }

    #[test]
    fn window_staging_and_availability() {
        for page_bytes in [4096, 3000] {
            let mut w = DramWindow::new(2, 4096, 0, page_bytes);
            assert_eq!(w.avail_at(0), SimTime::ZERO);
            w.stage(1, 0, &[7; 4096], SimTime::from_us(3));
            w.stage(0, 0, &[1; 8], SimTime::from_us(1));
            assert_eq!(w.avail_at(5000), SimTime::from_us(3));
            assert_eq!(w.avail_at(0), SimTime::from_us(1));
            assert_eq!(w.load(4096, 4), Some(0x0707_0707));
            // Before the last staging time (3 us) the page's own time;
            // from then on, none.
            assert_eq!(w.avail_for(5000, SimTime::from_us(2)), SimTime::from_us(3));
            assert_eq!(w.avail_for(0, SimTime::from_ns(10)), SimTime::from_us(1));
            assert_eq!(w.avail_for(5000, SimTime::from_us(3)), SimTime::ZERO);
        }
    }

    #[test]
    fn window_load_store_roundtrip() {
        let mut w = DramWindow::new(1, 0, 0, 64);
        w.store(8, 4, 0xDEAD_BEEF).unwrap();
        assert_eq!(w.load(8, 4), Some(0xDEAD_BEEF));
        assert_eq!(w.load(8, 2), Some(0xBEEF));
        let out = w.output((layout::DRAM_BASE + 10) as u32).unwrap();
        assert_eq!(&out[8..], &[0xEF, 0xBE]);
        assert_eq!(w.load(60, 4), Some(0));
        assert_eq!(w.load(61, 4), None, "a word past the window");
        assert_eq!(w.store(61, 4, 1), None);
    }

    #[test]
    #[should_panic(expected = "beyond window")]
    fn staging_overflow_panics() {
        let mut w = DramWindow::new(1, 0, 0, 64);
        w.stage(0, 32, &[0; 64], SimTime::ZERO);
    }

    #[test]
    fn pingpong_input_flow() {
        let mut pp = PingPong::new(16);
        pp.install_input(Bytes::from_static(&[1, 2, 3, 4]));
        assert_eq!(pp.in_len(), 4);
        assert_eq!(pp.load_in(0, 4), Some(u32::from_le_bytes([1, 2, 3, 4])));
        pp.set_exhausted();
        assert_eq!(pp.in_len(), 0);
        assert_eq!(pp.load_in(0, 1), None, "an exhausted bank reads nothing");
    }

    #[test]
    fn pingpong_output_high_water() {
        let mut pp = PingPong::new(16);
        pp.store_out(0, 4, 0x04030201).unwrap();
        pp.store_out(4, 1, 0xAA).unwrap();
        assert_eq!(pp.store_out(14, 4, 0), None, "a word past the bank");
        let out = pp.take_output();
        assert_eq!(&out[..], &[1, 2, 3, 4, 0xAA]);
        // High-water resets after take.
        pp.store_out(0, 1, 9).unwrap();
        assert_eq!(&pp.take_output()[..], &[9]);
    }

    #[test]
    fn reading_past_bank_length_fails() {
        let mut pp = PingPong::new(16);
        pp.install_input(Bytes::from_static(&[1, 2]));
        assert_eq!(pp.load_in(1, 2), None);
    }
}
