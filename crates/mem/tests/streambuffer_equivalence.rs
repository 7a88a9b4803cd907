//! Property tests pinning [`StreamBuffer`] — an inline head-page prefix
//! for `read`, an inline mid-page prefix for `write`, each with an
//! out-of-line remainder — to a reference model that keeps each stream
//! as a plain byte queue.
//!
//! The model tags every queued input byte with its page's arrival time
//! and whether it ends its page, so a read is "pop `width` bytes": its
//! ready time is the latest arrival among them and the pages it frees
//! are the page ends among them. The output side appends bytes to a
//! `Vec` and hands it over once it reaches a page. Random operation
//! sequences over page sizes 4, 6, 12 and 4096, widths 1, 2, 4 and 8
//! (plus a bad width and a bad stream id) and arrival and drain times
//! on both sides of `now` must give the same outcome for every call and
//! the same `in_csrs`, `out_csrs`, `free_slots`, `in_bytes_available`,
//! `is_exhausted` and `traffic` after every call.

use assasin_mem::{MemError, ReadOutcome, StreamBuffer, StreamBufferConfig, WriteOutcome};
use assasin_sim::SimTime;
use bytes::Bytes;
use proptest::collection::vec;
use proptest::prelude::*;
use std::collections::VecDeque;

const STREAMS: u32 = 2;

#[derive(Default)]
struct RefIn {
    /// `(byte, page arrival, ends its page)`.
    bytes: VecDeque<(u8, SimTime, bool)>,
    /// Pages with bytes still queued: the page ends in `bytes`.
    pages: usize,
    closed: bool,
    head: u64,
    tail: u64,
}

#[derive(Default)]
struct RefOut {
    current: Vec<u8>,
    pending: VecDeque<SimTime>,
    head: u64,
    tail: u64,
}

struct RefBuffer {
    cfg: StreamBufferConfig,
    ins: Vec<RefIn>,
    outs: Vec<RefOut>,
    bytes_in: u64,
    bytes_out: u64,
}

fn valid_width(width: u32) -> Result<usize, MemError> {
    match width {
        1 | 2 | 4 | 8 => Ok(width as usize),
        _ => Err(MemError::BadWidth(width)),
    }
}

impl RefBuffer {
    fn new(cfg: StreamBufferConfig) -> Self {
        RefBuffer {
            cfg,
            ins: (0..cfg.streams).map(|_| RefIn::default()).collect(),
            outs: (0..cfg.streams).map(|_| RefOut::default()).collect(),
            bytes_in: 0,
            bytes_out: 0,
        }
    }

    fn push_page(&mut self, sid: u32, data: &[u8], avail: SimTime) -> Result<(), MemError> {
        let (pages, page_bytes) = (self.cfg.pages_per_stream, self.cfg.page_bytes as usize);
        let s = self
            .ins
            .get_mut(sid as usize)
            .ok_or(MemError::BadStream(sid))?;
        if s.pages >= pages as usize {
            return Err(MemError::StreamFull(sid));
        }
        if data.len() > page_bytes {
            return Err(MemError::BadPageSize {
                got: data.len(),
                want: page_bytes,
            });
        }
        for (i, &b) in data.iter().enumerate() {
            s.bytes.push_back((b, avail, i + 1 == data.len()));
        }
        s.pages += 1;
        s.tail += data.len() as u64;
        Ok(())
    }

    fn close(&mut self, sid: u32) -> Result<(), MemError> {
        let s = self
            .ins
            .get_mut(sid as usize)
            .ok_or(MemError::BadStream(sid))?;
        s.closed = true;
        Ok(())
    }

    fn read(&mut self, sid: u32, width: u32, now: SimTime) -> Result<ReadOutcome, MemError> {
        let w = valid_width(width)?;
        let s = self
            .ins
            .get_mut(sid as usize)
            .ok_or(MemError::BadStream(sid))?;
        if s.bytes.len() < w {
            return Ok(if s.closed {
                ReadOutcome::Exhausted
            } else {
                ReadOutcome::Blocked
            });
        }
        let mut value = [0u8; 8];
        let mut ready = now;
        let mut freed_pages = 0;
        for slot in value.iter_mut().take(w) {
            let Some((b, avail, ends_page)) = s.bytes.pop_front() else {
                unreachable!("length checked");
            };
            *slot = b;
            ready = ready.max(avail);
            freed_pages += ends_page as u32;
        }
        s.pages -= freed_pages as usize;
        s.head += w as u64;
        self.bytes_in += w as u64;
        Ok(ReadOutcome::Data {
            value: u64::from_le_bytes(value),
            ready,
            freed_pages,
        })
    }

    fn write(
        &mut self,
        sid: u32,
        width: u32,
        value: u64,
        now: SimTime,
    ) -> Result<WriteOutcome, MemError> {
        let w = valid_width(width)?;
        let (pages, page_bytes) = (self.cfg.pages_per_stream as usize, self.cfg.page_bytes);
        let s = self
            .outs
            .get_mut(sid as usize)
            .ok_or(MemError::BadStream(sid))?;
        let mut ready = now;
        if s.current.is_empty() {
            while s.pending.front().is_some_and(|&done| done <= now) {
                s.pending.pop_front();
            }
            if s.pending.len() >= pages {
                ready = s.pending.pop_front().unwrap_or(now);
            }
        }
        s.current.extend_from_slice(&value.to_le_bytes()[..w]);
        s.tail += w as u64;
        self.bytes_out += w as u64;
        let completed_page = (s.current.len() >= page_bytes as usize).then(|| {
            s.head += s.current.len() as u64;
            Bytes::from(std::mem::take(&mut s.current))
        });
        Ok(WriteOutcome {
            ready,
            completed_page,
        })
    }

    fn note_drain(&mut self, sid: u32, done: SimTime) -> Result<(), MemError> {
        let s = self
            .outs
            .get_mut(sid as usize)
            .ok_or(MemError::BadStream(sid))?;
        s.pending.push_back(done);
        Ok(())
    }

    fn flush(&mut self, sid: u32) -> Result<Option<Bytes>, MemError> {
        let s = self
            .outs
            .get_mut(sid as usize)
            .ok_or(MemError::BadStream(sid))?;
        if s.current.is_empty() {
            return Ok(None);
        }
        s.head += s.current.len() as u64;
        Ok(Some(Bytes::from(std::mem::take(&mut s.current))))
    }

    /// Everything observable without a call that changes state.
    fn observe(&self) -> Observed {
        let per_sid = (0..=STREAMS)
            .map(|sid| {
                let i = self.ins.get(sid as usize);
                let o = self.outs.get(sid as usize);
                SidView {
                    in_csrs: i.map(|s| (s.head, s.tail)),
                    out_csrs: o.map(|s| (s.head, s.tail)),
                    free_slots: i
                        .map(|s| self.cfg.pages_per_stream - s.pages as u32)
                        .ok_or(MemError::BadStream(sid)),
                    in_bytes_available: i.map_or(0, |s| s.bytes.len() as u64),
                    exhausted: i.is_some_and(|s| s.closed && s.bytes.is_empty()),
                }
            })
            .collect();
        Observed {
            per_sid,
            traffic: (self.bytes_in, self.bytes_out),
        }
    }
}

#[derive(Debug, PartialEq, Eq)]
struct SidView {
    in_csrs: Option<(u64, u64)>,
    out_csrs: Option<(u64, u64)>,
    free_slots: Result<u32, MemError>,
    in_bytes_available: u64,
    exhausted: bool,
}

#[derive(Debug, PartialEq, Eq)]
struct Observed {
    per_sid: Vec<SidView>,
    traffic: (u64, u64),
}

fn observe(sb: &StreamBuffer) -> Observed {
    let per_sid = (0..=STREAMS)
        .map(|sid| SidView {
            in_csrs: sb.in_csrs(sid),
            out_csrs: sb.out_csrs(sid),
            free_slots: sb.free_slots(sid),
            in_bytes_available: sb.in_bytes_available(sid),
            exhausted: sb.is_exhausted(sid),
        })
        .collect();
    Observed {
        per_sid,
        traffic: sb.traffic(),
    }
}

/// One call's outcome, whatever the call.
#[derive(Debug, PartialEq, Eq)]
enum Outcome {
    Unit(Result<(), MemError>),
    Read(Result<ReadOutcome, MemError>),
    Write(Result<WriteOutcome, MemError>),
    Flush(Result<Option<Bytes>, MemError>),
}

const PAGE_SIZES: [u32; 4] = [4, 6, 12, 4096];

/// Stream 0 or 1, and now and then the bad id 2.
fn sid_of(x: u32) -> u32 {
    match x % 8 {
        0..=3 => 0,
        4..=6 => 1,
        _ => 2,
    }
}

/// A valid width, and now and then the bad width 3.
fn width_of(x: u32) -> u32 {
    [1, 2, 4, 8, 1, 2, 4, 8, 3][(x % 9) as usize]
}

/// Deterministic page contents (splitmix64).
fn page_data(seed: u64, len: usize) -> Vec<u8> {
    let mut x = seed;
    (0..len)
        .map(|_| {
            x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = x;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            (z ^ (z >> 31)) as u8
        })
        .collect()
}

/// A time up to 100 ns either side of `now`.
fn around(now: SimTime, x: u32) -> SimTime {
    SimTime::from_ps((now.as_ps() + (x % 200) as u64 * 1000).saturating_sub(100_000))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]
    #[test]
    fn streambuffer_matches_byte_queue_reference(
        shape in (0usize..4, 1u32..=3),
        ops in vec((0u8..16, any::<u32>(), any::<u32>(), any::<u64>()), 1..250),
    ) {
        let (size_idx, pages) = shape;
        let page_bytes = PAGE_SIZES[size_idx];
        let cfg = StreamBufferConfig { streams: STREAMS, pages_per_stream: pages, page_bytes };
        let mut sb = StreamBuffer::new(cfg);
        let mut reference = RefBuffer::new(cfg);
        let mut now = SimTime::ZERO;
        for (i, &(kind, a, b, c)) in ops.iter().enumerate() {
            now = SimTime::from_ps(now.as_ps() + (a % 64) as u64 * 1000);
            let sid = sid_of(b);
            let width = width_of(a >> 8);
            // Bursts repeat a read or write `n` times at one `now`, so
            // 4096-byte pages finish too.
            let n = if kind >= 14 { 1 + (b >> 8) % 700 } else { 1 };
            for _ in 0..n {
                let (got, want) = match kind {
                    // Push: a full page, a short one, or one byte too many.
                    0..=2 => {
                        let len = match (b >> 8) % 4 {
                            0 => page_bytes as usize + 1,
                            1 => page_bytes as usize,
                            _ => 1 + ((b >> 10) % page_bytes) as usize,
                        };
                        let data = page_data(c, len);
                        let avail = around(now, b >> 16);
                        (
                            Outcome::Unit(sb.push_page(sid, Bytes::from(data.clone()), avail)),
                            Outcome::Unit(reference.push_page(sid, &data, avail)),
                        )
                    }
                    3..=6 | 14 => (
                        Outcome::Read(sb.read(sid, width, now)),
                        Outcome::Read(reference.read(sid, width, now)),
                    ),
                    7..=10 | 15 => (
                        Outcome::Write(sb.write(sid, width, c, now)),
                        Outcome::Write(reference.write(sid, width, c, now)),
                    ),
                    11 => {
                        let done = around(now, b >> 16);
                        (
                            Outcome::Unit(sb.note_drain(sid, done)),
                            Outcome::Unit(reference.note_drain(sid, done)),
                        )
                    }
                    12 => (
                        Outcome::Flush(sb.flush(sid)),
                        Outcome::Flush(reference.flush(sid)),
                    ),
                    _ => {
                        // Rare: most of a run keeps its streams open.
                        if c % 4 == 0 {
                            (
                                Outcome::Unit(sb.close(sid)),
                                Outcome::Unit(reference.close(sid)),
                            )
                        } else {
                            (Outcome::Unit(Ok(())), Outcome::Unit(Ok(())))
                        }
                    }
                };
                prop_assert_eq!(&got, &want, "op {} (kind {}) on stream {}, width {}", i, kind, sid, width);
                prop_assert_eq!(observe(&sb), reference.observe(), "state after op {}", i);
            }
        }
    }
}
