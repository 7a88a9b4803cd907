//! The ASSASIN streambuffer (Figure 8).
//!
//! A streambuffer holds up to `S` streams; each stream is a circular buffer
//! of `P` flash pages with Head and Tail pointers exposed as CSRs. The
//! input side receives pages pushed by the firmware through the crossbar
//! (each page stamped with its flash arrival time); `StreamLoad` consumes
//! from the head and stalls — never overflows — when data has not arrived.
//! The output side assembles `StreamStore` results into pages which the
//! firmware drains to flash or DRAM; a full ring stalls the writer.

use crate::{word, MemError};
use assasin_sim::SimTime;
use bytes::Bytes;
use serde::{Deserialize, Serialize};
use std::collections::VecDeque;

/// Streambuffer shape: the paper's AssasinSb uses S=8 streams, P=2 pages
/// per stream, for a 64 KiB buffer of 4 KiB pages (Table IV).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct StreamBufferConfig {
    /// Number of streams (S).
    pub streams: u32,
    /// Ring capacity per stream in pages (P).
    pub pages_per_stream: u32,
    /// Bytes per page slot.
    pub page_bytes: u32,
}

impl Default for StreamBufferConfig {
    fn default() -> Self {
        StreamBufferConfig {
            streams: 8,
            pages_per_stream: 2,
            page_bytes: 4096,
        }
    }
}

impl StreamBufferConfig {
    /// Total buffer capacity in bytes.
    pub fn capacity_bytes(&self) -> u64 {
        self.streams as u64 * self.pages_per_stream as u64 * self.page_bytes as u64
    }
}

#[derive(Debug, Clone)]
struct InPage {
    avail: SimTime,
    data: Bytes,
    offset: usize,
}

#[derive(Debug, Clone, Default)]
struct InStream {
    queue: VecDeque<InPage>,
    closed: bool,
    head: u64,
    tail: u64,
}

#[derive(Debug, Clone, Default)]
struct OutStream {
    current: Vec<u8>,
    /// Drain completion times of filled pages still occupying ring slots.
    pending: VecDeque<SimTime>,
    head: u64,
    tail: u64,
}

impl OutStream {
    /// Hands the assembled bytes over for draining and starts an empty
    /// page.
    fn take_page(&mut self) -> Bytes {
        let page = std::mem::take(&mut self.current);
        self.head += page.len() as u64;
        Bytes::from(page)
    }
}

/// Outcome of a `StreamLoad` against the input side.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ReadOutcome {
    /// Data available: `value` holds the little-endian bytes, `ready` is
    /// when the load can complete (page arrival may be in the future),
    /// `freed_pages` is how many ring slots this consume released (the
    /// firmware refills them).
    Data {
        /// Loaded value, little-endian in the low `width` bytes.
        value: u64,
        /// Completion time (max of `now` and page arrival).
        ready: SimTime,
        /// Ring slots released by this read.
        freed_pages: u32,
    },
    /// The ring has no (complete) data and the stream is still open: the
    /// core must wait for the firmware to push more pages.
    Blocked,
    /// The stream is closed and fully consumed — the paper's loop-exit
    /// condition ("the loop ends when StreamLoad hangs").
    Exhausted,
}

/// Outcome of a `StreamStore` against the output side.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WriteOutcome {
    /// When the store can retire (stalls when the ring is full of
    /// un-drained pages).
    pub ready: SimTime,
    /// A filled page handed to the firmware for draining, if the store
    /// completed one.
    pub completed_page: Option<Bytes>,
}

/// One per-core streambuffer (input or output role is per stream: a stream
/// is used either as input or output by the program).
#[derive(Debug, Clone)]
pub struct StreamBuffer {
    cfg: StreamBufferConfig,
    ins: Vec<InStream>,
    outs: Vec<OutStream>,
    bytes_in: u64,
    bytes_out: u64,
}

impl StreamBuffer {
    /// Creates an empty streambuffer.
    pub fn new(cfg: StreamBufferConfig) -> Self {
        StreamBuffer {
            cfg,
            ins: (0..cfg.streams).map(|_| InStream::default()).collect(),
            outs: (0..cfg.streams).map(|_| OutStream::default()).collect(),
            bytes_in: 0,
            bytes_out: 0,
        }
    }

    /// The configured shape.
    pub fn config(&self) -> StreamBufferConfig {
        self.cfg
    }

    fn in_stream(&mut self, sid: u32) -> Result<&mut InStream, MemError> {
        self.ins
            .get_mut(sid as usize)
            .ok_or(MemError::BadStream(sid))
    }

    fn out_stream(&mut self, sid: u32) -> Result<&mut OutStream, MemError> {
        self.outs
            .get_mut(sid as usize)
            .ok_or(MemError::BadStream(sid))
    }

    // ---------------------------------------------------------------- input

    /// Free input ring slots on `sid` (firmware checks before scheduling a
    /// page read — Figure 10's overflow avoidance). The subtraction
    /// saturates: a ring over capacity (only reachable through a config
    /// swap on a live buffer) reads as 0 free slots, not an underflow
    /// panic.
    ///
    /// # Errors
    ///
    /// Fails on a bad stream id, like every other per-stream accessor —
    /// a firmware bug addressing a nonexistent ring must surface, not
    /// read as "no free slots" and silently stall the refill loop.
    pub fn free_slots(&self, sid: u32) -> Result<u32, MemError> {
        self.ins
            .get(sid as usize)
            .map(|s| {
                self.cfg
                    .pages_per_stream
                    .saturating_sub(s.queue.len() as u32)
            })
            .ok_or(MemError::BadStream(sid))
    }

    /// Pushes a flash page into the input ring of `sid`, arriving at
    /// `avail`.
    ///
    /// # Errors
    ///
    /// Fails if the stream id is bad, the ring is full, or the page is
    /// larger than a slot.
    pub fn push_page(&mut self, sid: u32, data: Bytes, avail: SimTime) -> Result<(), MemError> {
        let page_bytes = self.cfg.page_bytes as usize;
        let pages = self.cfg.pages_per_stream as usize;
        let s = self.in_stream(sid)?;
        if s.queue.len() >= pages {
            return Err(MemError::StreamFull(sid));
        }
        if data.len() > page_bytes {
            return Err(MemError::BadPageSize {
                got: data.len(),
                want: page_bytes,
            });
        }
        s.tail += data.len() as u64;
        s.queue.push_back(InPage {
            avail,
            data,
            offset: 0,
        });
        Ok(())
    }

    /// Marks the input stream as fully scheduled: no more pages will come.
    ///
    /// # Errors
    ///
    /// Fails on a bad stream id.
    pub fn close(&mut self, sid: u32) -> Result<(), MemError> {
        self.in_stream(sid)?.closed = true;
        Ok(())
    }

    /// True if the input stream is closed and drained.
    pub fn is_exhausted(&self, sid: u32) -> bool {
        self.ins
            .get(sid as usize)
            .map(|s| s.closed && s.queue.is_empty())
            .unwrap_or(false)
    }

    /// Bytes queued and not yet consumed on input stream `sid`.
    pub fn in_bytes_available(&self, sid: u32) -> u64 {
        self.ins
            .get(sid as usize)
            .map(|s| {
                s.queue
                    .iter()
                    .map(|p| (p.data.len() - p.offset) as u64)
                    .sum()
            })
            .unwrap_or(0)
    }

    /// `StreamLoad`: consumes `width` bytes (1, 2, 4 or 8) from the head of
    /// input stream `sid`.
    ///
    /// # Errors
    ///
    /// Fails on bad stream ids or widths. Data-availability conditions are
    /// reported in [`ReadOutcome`], not as errors.
    #[inline]
    pub fn read(&mut self, sid: u32, width: u32, now: SimTime) -> Result<ReadOutcome, MemError> {
        match self.read_in_head_page(sid, width, now) {
            Some((value, ready)) => Ok(ReadOutcome::Data {
                value,
                ready,
                freed_pages: 0,
            }),
            None => self.read_rest(sid, width, now),
        }
    }

    /// The inline prefix of [`StreamBuffer::read`]: a valid word that sits
    /// in the head page and does not finish it (the common sequential
    /// `StreamLoad`) is one fixed-width load and a cursor bump. Returns
    /// the value and its ready time (`now` or the page's arrival, if
    /// later), exactly as `read` reports them with no page freed; `None`,
    /// with nothing changed, for every other read.
    #[inline]
    pub fn read_in_head_page(
        &mut self,
        sid: u32,
        width: u32,
        now: SimTime,
    ) -> Option<(u64, SimTime)> {
        let s = self.ins.get_mut(sid as usize)?;
        let page = s.queue.front_mut()?;
        let end = page.offset + width as usize;
        if end >= page.data.len() {
            return None;
        }
        let value = word::load_le(&page.data, page.offset, width)?;
        page.offset = end;
        s.head += width as u64;
        self.bytes_in += width as u64;
        Some((value, now.max(page.avail)))
    }

    /// The out-of-line remainder of [`StreamBuffer::read`]: bad ids and
    /// widths, blocked and exhausted streams, and words that finish or
    /// span pages (the ring slots they free are reported).
    #[cold]
    #[inline(never)]
    fn read_rest(&mut self, sid: u32, width: u32, now: SimTime) -> Result<ReadOutcome, MemError> {
        if !matches!(width, 1 | 2 | 4 | 8) {
            return Err(MemError::BadWidth(width));
        }
        let available = self.in_bytes_available(sid);
        let s = self.in_stream(sid)?;
        if available < width as u64 {
            return Ok(if s.closed {
                ReadOutcome::Exhausted
            } else {
                ReadOutcome::Blocked
            });
        }
        let mut value = [0u8; 8];
        let mut got = 0usize;
        let mut ready = now;
        let mut freed = 0u32;
        while got < width as usize {
            let page = s.queue.front_mut().expect("availability checked");
            ready = ready.max(page.avail);
            let take = (width as usize - got).min(page.data.len() - page.offset);
            value[got..got + take].copy_from_slice(&page.data[page.offset..page.offset + take]);
            page.offset += take;
            got += take;
            if page.offset == page.data.len() {
                s.queue.pop_front();
                freed += 1;
            }
        }
        s.head += width as u64;
        self.bytes_in += width as u64;
        Ok(ReadOutcome::Data {
            value: u64::from_le_bytes(value),
            ready,
            freed_pages: freed,
        })
    }

    /// Head (bytes consumed) and Tail (bytes arrived) CSRs of an input
    /// stream.
    pub fn in_csrs(&self, sid: u32) -> Option<(u64, u64)> {
        self.ins.get(sid as usize).map(|s| (s.head, s.tail))
    }

    // --------------------------------------------------------------- output

    /// `StreamStore`: appends the low `width` bytes of `value` to output
    /// stream `sid`.
    ///
    /// # Errors
    ///
    /// Fails on bad stream ids or widths.
    #[inline]
    pub fn write(
        &mut self,
        sid: u32,
        width: u32,
        value: u64,
        now: SimTime,
    ) -> Result<WriteOutcome, MemError> {
        if self.write_mid_page(sid, width, value).is_some() {
            return Ok(WriteOutcome {
                ready: now,
                completed_page: None,
            });
        }
        self.write_rest(sid, width, value, now)
    }

    /// The inline prefix of [`StreamBuffer::write`]: a valid word that
    /// lands inside the page under assembly and does not complete it
    /// needs no ring-slot reclaim and no completion handoff (that page's
    /// slot was claimed when its first word landed), so it is one
    /// fixed-width store and a cursor bump, ready at once. `None`, with
    /// nothing changed, for every other write.
    #[inline]
    pub fn write_mid_page(&mut self, sid: u32, width: u32, value: u64) -> Option<()> {
        let page_bytes = self.cfg.page_bytes as usize;
        let s = self.outs.get_mut(sid as usize)?;
        if s.current.is_empty() || s.current.len() + width as usize >= page_bytes {
            return None;
        }
        word::push_le(&mut s.current, width, value)?;
        s.tail += width as u64;
        self.bytes_out += width as u64;
        Some(())
    }

    /// The out-of-line remainder of [`StreamBuffer::write`]: bad ids and
    /// widths, the first word of a page (which needs a free ring slot:
    /// drained slots are reclaimed, and a full ring stalls until the
    /// oldest drain completes) and the word that completes a page.
    #[cold]
    #[inline(never)]
    fn write_rest(
        &mut self,
        sid: u32,
        width: u32,
        value: u64,
        now: SimTime,
    ) -> Result<WriteOutcome, MemError> {
        if !matches!(width, 1 | 2 | 4 | 8) {
            return Err(MemError::BadWidth(width));
        }
        let page_bytes = self.cfg.page_bytes as usize;
        let pages = self.cfg.pages_per_stream as usize;
        let s = self.out_stream(sid)?;
        let mut ready = now;
        if s.current.is_empty() {
            while let Some(&front) = s.pending.front() {
                if front <= now {
                    s.pending.pop_front();
                } else {
                    break;
                }
            }
            if s.pending.len() >= pages {
                ready = s.pending.pop_front().unwrap_or(now);
            }
        }
        word::push_le(&mut s.current, width, value).ok_or(MemError::BadWidth(width))?;
        s.tail += width as u64;
        // A word that crosses the page end lands whole, so the page it
        // completes may run past `page_bytes`.
        let completed_page = (s.current.len() >= page_bytes).then(|| s.take_page());
        self.bytes_out += width as u64;
        Ok(WriteOutcome {
            ready,
            completed_page,
        })
    }

    /// Registers the drain completion time of a page previously returned by
    /// [`StreamBuffer::write`] or [`StreamBuffer::flush`]: its ring slot
    /// stays occupied until `done`.
    ///
    /// # Errors
    ///
    /// Fails on a bad stream id.
    pub fn note_drain(&mut self, sid: u32, done: SimTime) -> Result<(), MemError> {
        self.out_stream(sid)?.pending.push_back(done);
        Ok(())
    }

    /// Takes the partially-filled final page of output stream `sid`, if
    /// any (end-of-compute flush by the firmware).
    ///
    /// # Errors
    ///
    /// Fails on a bad stream id.
    pub fn flush(&mut self, sid: u32) -> Result<Option<Bytes>, MemError> {
        let s = self.out_stream(sid)?;
        Ok((!s.current.is_empty()).then(|| s.take_page()))
    }

    /// Head/Tail CSRs of an output stream.
    pub fn out_csrs(&self, sid: u32) -> Option<(u64, u64)> {
        self.outs.get(sid as usize).map(|s| (s.head, s.tail))
    }

    /// Total bytes consumed (all input streams) and produced (all output
    /// streams).
    pub fn traffic(&self) -> (u64, u64) {
        (self.bytes_in, self.bytes_out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg(pages: u32, page_bytes: u32) -> StreamBufferConfig {
        StreamBufferConfig {
            streams: 2,
            pages_per_stream: pages,
            page_bytes,
        }
    }

    #[test]
    fn read_waits_for_arrival_time() {
        let mut sb = StreamBuffer::new(cfg(2, 8));
        sb.push_page(
            0,
            Bytes::from_static(&[1, 2, 3, 4, 5, 6, 7, 8]),
            SimTime::from_us(5),
        )
        .unwrap();
        match sb.read(0, 4, SimTime::ZERO).unwrap() {
            ReadOutcome::Data {
                value,
                ready,
                freed_pages,
            } => {
                assert_eq!(value, u32::from_le_bytes([1, 2, 3, 4]) as u64);
                assert_eq!(ready, SimTime::from_us(5));
                assert_eq!(freed_pages, 0);
            }
            o => panic!("unexpected {o:?}"),
        }
    }

    #[test]
    fn consuming_page_frees_slot() {
        let mut sb = StreamBuffer::new(cfg(2, 4));
        sb.push_page(0, Bytes::from_static(&[1, 2, 3, 4]), SimTime::ZERO)
            .unwrap();
        assert_eq!(sb.free_slots(0).unwrap(), 1);
        match sb.read(0, 4, SimTime::ZERO).unwrap() {
            ReadOutcome::Data { freed_pages, .. } => assert_eq!(freed_pages, 1),
            o => panic!("unexpected {o:?}"),
        }
        assert_eq!(sb.free_slots(0).unwrap(), 2);
    }

    #[test]
    fn free_slots_rejects_bad_stream_id() {
        let sb = StreamBuffer::new(cfg(2, 4));
        assert_eq!(sb.free_slots(9), Err(MemError::BadStream(9)));
    }

    #[test]
    fn read_spans_pages() {
        let mut sb = StreamBuffer::new(cfg(2, 4));
        sb.push_page(0, Bytes::from_static(&[1, 2, 3, 4]), SimTime::from_ns(10))
            .unwrap();
        sb.push_page(0, Bytes::from_static(&[5, 6, 7, 8]), SimTime::from_ns(30))
            .unwrap();
        sb.read(0, 2, SimTime::from_ns(100)).unwrap(); // consume 1,2
        match sb.read(0, 4, SimTime::from_ns(100)).unwrap() {
            ReadOutcome::Data {
                value,
                ready,
                freed_pages,
            } => {
                assert_eq!(value, u32::from_le_bytes([3, 4, 5, 6]) as u64);
                assert_eq!(ready, SimTime::from_ns(100)); // both pages arrived
                assert_eq!(freed_pages, 1);
            }
            o => panic!("unexpected {o:?}"),
        }
    }

    #[test]
    fn blocked_then_exhausted() {
        let mut sb = StreamBuffer::new(cfg(2, 4));
        assert_eq!(sb.read(0, 1, SimTime::ZERO).unwrap(), ReadOutcome::Blocked);
        sb.close(0).unwrap();
        assert_eq!(
            sb.read(0, 1, SimTime::ZERO).unwrap(),
            ReadOutcome::Exhausted
        );
        assert!(sb.is_exhausted(0));
    }

    #[test]
    fn overflow_is_an_error() {
        let mut sb = StreamBuffer::new(cfg(1, 4));
        sb.push_page(0, Bytes::from_static(&[0; 4]), SimTime::ZERO)
            .unwrap();
        assert_eq!(
            sb.push_page(0, Bytes::from_static(&[0; 4]), SimTime::ZERO),
            Err(MemError::StreamFull(0))
        );
    }

    #[test]
    fn csrs_track_head_tail() {
        let mut sb = StreamBuffer::new(cfg(2, 4));
        sb.push_page(0, Bytes::from_static(&[1, 2, 3, 4]), SimTime::ZERO)
            .unwrap();
        sb.read(0, 2, SimTime::ZERO).unwrap();
        assert_eq!(sb.in_csrs(0), Some((2, 4)));
    }

    #[test]
    fn writes_fill_pages_and_stall_on_full_ring() {
        let mut sb = StreamBuffer::new(cfg(1, 4));
        // Fill first page.
        let mut page = None;
        for i in 0..4u64 {
            let o = sb.write(0, 1, i, SimTime::ZERO).unwrap();
            if o.completed_page.is_some() {
                page = o.completed_page.clone();
            }
        }
        let page = page.expect("page completed");
        assert_eq!(&page[..], &[0, 1, 2, 3]);
        // Firmware drains it, finishing at t=1us; slot busy until then.
        sb.note_drain(0, SimTime::from_us(1)).unwrap();
        let o = sb.write(0, 1, 9, SimTime::ZERO).unwrap();
        assert_eq!(o.ready, SimTime::from_us(1), "ring full -> stall");
    }

    #[test]
    fn drained_slots_do_not_stall() {
        let mut sb = StreamBuffer::new(cfg(1, 2));
        for i in 0..2u64 {
            sb.write(0, 1, i, SimTime::ZERO).unwrap();
        }
        sb.note_drain(0, SimTime::from_ns(10)).unwrap();
        // Write at t=20ns: pending drain already completed, no stall.
        let o = sb.write(0, 1, 7, SimTime::from_ns(20)).unwrap();
        assert_eq!(o.ready, SimTime::from_ns(20));
    }

    #[test]
    fn flush_returns_partial_page() {
        let mut sb = StreamBuffer::new(cfg(2, 4));
        sb.write(0, 2, 0x0201, SimTime::ZERO).unwrap();
        let page = sb.flush(0).unwrap().expect("partial page");
        assert_eq!(&page[..], &[1, 2]);
        assert_eq!(sb.flush(0).unwrap(), None);
    }

    #[test]
    fn bad_ids_and_widths_error() {
        let mut sb = StreamBuffer::new(cfg(2, 4));
        assert_eq!(
            sb.read(9, 1, SimTime::ZERO).unwrap_err(),
            MemError::BadStream(9)
        );
        assert_eq!(
            sb.read(0, 3, SimTime::ZERO).unwrap_err(),
            MemError::BadWidth(3)
        );
        assert_eq!(
            sb.write(0, 16, 0, SimTime::ZERO).unwrap_err(),
            MemError::BadWidth(16)
        );
    }
}
