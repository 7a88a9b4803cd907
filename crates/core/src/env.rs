//! The core's environment: who feeds streams and drains output.
//!
//! The paper separates control plane (firmware) from data plane (ASSASIN
//! cores): firmware constructs streams from pages at the LPAs of a
//! computational-storage request and keeps streambuffers fed (Figure 10).
//! [`StreamEnv`] is that boundary. The real implementation lives in
//! `assasin-ssd`; [`SyntheticEnv`] supplies in-memory data at a configurable
//! rate for unit tests and kernel verification.

use crate::bank_chunk;
use assasin_mem::StreamBuffer;
use assasin_sim::{SimDur, SimTime};
use bytes::Bytes;
use std::collections::VecDeque;

/// Services a core's stream demands. `core_id` identifies the calling core
/// when one environment serves several.
pub trait StreamEnv {
    /// Tops up input stream `sid` (called when ring slots free or the core
    /// would block). Implementations push pages with their arrival times
    /// and must [`close`](StreamBuffer::close) the stream once no pages
    /// remain to schedule.
    fn refill_stream(&mut self, core_id: usize, sid: u32, now: SimTime, sbuf: &mut StreamBuffer);

    /// Accepts a completed output page for draining (to flash, DRAM or the
    /// host). Returns the drain completion time, which holds the ring slot
    /// busy.
    fn drain_page(&mut self, core_id: usize, sid: u32, page: Bytes, now: SimTime) -> SimTime;

    /// Supplies the next ping-pong input bank (AssasinSp), or `None` when
    /// the input is exhausted. The returned time is when the bank finishes
    /// filling from flash.
    fn next_input_bank(&mut self, core_id: usize, now: SimTime) -> Option<(Bytes, SimTime)>;

    /// Accepts a ping-pong output bank for draining; returns completion.
    fn drain_bank(&mut self, core_id: usize, data: Bytes, now: SimTime) -> SimTime;
}

/// An environment with no data at all: every stream is immediately
/// exhausted. For pure-compute programs.
#[derive(Debug, Default)]
pub struct NullEnv;

impl StreamEnv for NullEnv {
    fn refill_stream(&mut self, _core: usize, sid: u32, _now: SimTime, sbuf: &mut StreamBuffer) {
        let _ = sbuf.close(sid);
    }
    fn drain_page(&mut self, _core: usize, _sid: u32, _page: Bytes, now: SimTime) -> SimTime {
        now
    }
    fn next_input_bank(&mut self, _core: usize, _now: SimTime) -> Option<(Bytes, SimTime)> {
        None
    }
    fn drain_bank(&mut self, _core: usize, _data: Bytes, now: SimTime) -> SimTime {
        now
    }
}

/// A test environment feeding canned data at a configurable byte rate
/// (emulating a flash channel) and collecting all output.
#[derive(Debug)]
pub struct SyntheticEnv {
    page_bytes: usize,
    inputs: Vec<VecDeque<Bytes>>,
    outputs: Vec<Vec<u8>>,
    banks: VecDeque<Bytes>,
    bank_outputs: Vec<u8>,
    /// None = data is instantly available.
    rate: Option<f64>,
    /// Per-input-stream delivery cursor (when the modeled channel frees).
    next_free: Vec<SimTime>,
}

impl SyntheticEnv {
    /// Creates an environment with `streams` input/output streams and the
    /// given staging page size.
    pub fn new(streams: u32, page_bytes: usize) -> Self {
        SyntheticEnv {
            page_bytes,
            inputs: (0..streams).map(|_| VecDeque::new()).collect(),
            outputs: (0..streams).map(|_| Vec::new()).collect(),
            banks: VecDeque::new(),
            bank_outputs: Vec::new(),
            rate: None,
            next_free: vec![SimTime::ZERO; streams as usize],
        }
    }

    /// Queues `data` as the full content of input stream `sid`, split into
    /// pages.
    pub fn set_input(&mut self, sid: u32, data: &[u8]) {
        let q = &mut self.inputs[sid as usize];
        q.clear();
        for chunk in data.chunks(self.page_bytes) {
            q.push_back(Bytes::copy_from_slice(chunk));
        }
    }

    /// Queues `data` as ping-pong input banks of `bank_bytes` each.
    pub fn set_banks(&mut self, data: &[u8], bank_bytes: usize) {
        self.banks = data
            .chunks(bank_bytes)
            .map(Bytes::copy_from_slice)
            .collect();
    }

    /// Queues equal-length `inputs` as ping-pong input banks the way the
    /// firmware fills them: each bank holds one [`bank_chunk`] of every
    /// stream in turn.
    pub fn set_interleaved_banks(
        &mut self,
        inputs: &[impl AsRef<[u8]>],
        bank_bytes: usize,
        granularity: usize,
    ) {
        let n = inputs.len();
        let len = inputs[0].as_ref().len();
        let chunk = bank_chunk(bank_bytes, n, granularity);
        let mut banks = Vec::with_capacity(len * n);
        for pos in (0..len).step_by(chunk) {
            let end = (pos + chunk).min(len);
            for input in inputs {
                banks.extend_from_slice(&input.as_ref()[pos..end]);
            }
        }
        self.set_banks(&banks, (chunk * n).min(banks.len().max(1)));
    }

    /// Limits delivery to `bytes_per_sec` (None = instantaneous).
    pub fn set_rate(&mut self, bytes_per_sec: Option<f64>) {
        self.rate = bytes_per_sec;
    }

    /// Everything written to output stream `sid` so far.
    pub fn output(&self, sid: u32) -> &[u8] {
        &self.outputs[sid as usize]
    }

    /// Everything drained from ping-pong output banks so far.
    pub fn bank_output(&self) -> &[u8] {
        &self.bank_outputs
    }

    fn delivery_time(&mut self, sid: usize, bytes: usize, now: SimTime) -> SimTime {
        match self.rate {
            None => now,
            Some(rate) => {
                let service = SimDur::from_secs_f64(bytes as f64 / rate);
                let start = now.max(self.next_free[sid]);
                let done = start + service;
                self.next_free[sid] = done;
                done
            }
        }
    }
}

impl StreamEnv for SyntheticEnv {
    fn refill_stream(&mut self, _core: usize, sid: u32, now: SimTime, sbuf: &mut StreamBuffer) {
        while sbuf.free_slots(sid).unwrap_or(0) > 0 {
            let Some(page) = self.inputs[sid as usize].pop_front() else {
                let _ = sbuf.close(sid);
                return;
            };
            let avail = self.delivery_time(sid as usize, page.len(), now);
            sbuf.push_page(sid, page, avail).expect("slot checked");
        }
        if self.inputs[sid as usize].is_empty() {
            let _ = sbuf.close(sid);
        }
    }

    fn drain_page(&mut self, _core: usize, sid: u32, page: Bytes, now: SimTime) -> SimTime {
        self.outputs[sid as usize].extend_from_slice(&page);
        match self.rate {
            None => now,
            Some(rate) => now + SimDur::from_secs_f64(page.len() as f64 / rate),
        }
    }

    fn next_input_bank(&mut self, _core: usize, now: SimTime) -> Option<(Bytes, SimTime)> {
        let bank = self.banks.pop_front()?;
        let ready = self.delivery_time(0, bank.len(), now);
        Some((bank, ready))
    }

    fn drain_bank(&mut self, _core: usize, data: Bytes, now: SimTime) -> SimTime {
        self.bank_outputs.extend_from_slice(&data);
        match self.rate {
            None => now,
            Some(rate) => now + SimDur::from_secs_f64(data.len() as f64 / rate),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use assasin_mem::{ReadOutcome, StreamBufferConfig};

    #[test]
    fn synthetic_env_feeds_and_closes() {
        let mut env = SyntheticEnv::new(2, 4);
        env.set_input(0, &[1, 2, 3, 4, 5, 6]);
        let mut sb = StreamBuffer::new(StreamBufferConfig {
            streams: 2,
            pages_per_stream: 2,
            page_bytes: 4,
        });
        env.refill_stream(0, 0, SimTime::ZERO, &mut sb);
        assert_eq!(sb.in_bytes_available(0), 6);
        // Consume everything.
        for _ in 0..6 {
            match sb.read(0, 1, SimTime::ZERO).unwrap() {
                ReadOutcome::Data { .. } => {}
                o => panic!("unexpected {o:?}"),
            }
        }
        env.refill_stream(0, 0, SimTime::ZERO, &mut sb);
        assert_eq!(
            sb.read(0, 1, SimTime::ZERO).unwrap(),
            ReadOutcome::Exhausted
        );
    }

    #[test]
    fn rate_limits_arrivals() {
        let mut env = SyntheticEnv::new(1, 4);
        env.set_input(0, &[0; 8]);
        env.set_rate(Some(4.0e9)); // 4 GB/s -> 1ns per page of 4B
        let mut sb = StreamBuffer::new(StreamBufferConfig {
            streams: 1,
            pages_per_stream: 2,
            page_bytes: 4,
        });
        env.refill_stream(0, 0, SimTime::ZERO, &mut sb);
        match sb.read(0, 4, SimTime::ZERO).unwrap() {
            ReadOutcome::Data { ready, .. } => assert_eq!(ready, SimTime::from_ns(1)),
            o => panic!("unexpected {o:?}"),
        }
        match sb.read(0, 4, SimTime::ZERO).unwrap() {
            ReadOutcome::Data { ready, .. } => assert_eq!(ready, SimTime::from_ns(2)),
            o => panic!("unexpected {o:?}"),
        }
    }

    #[test]
    fn null_env_exhausts_immediately() {
        let mut env = NullEnv;
        let mut sb = StreamBuffer::new(StreamBufferConfig::default());
        env.refill_stream(0, 0, SimTime::ZERO, &mut sb);
        assert!(sb.is_exhausted(0));
    }

    #[test]
    fn banks_round_trip() {
        let mut env = SyntheticEnv::new(1, 4);
        env.set_banks(&[1, 2, 3, 4, 5], 4);
        let (b1, _) = env.next_input_bank(0, SimTime::ZERO).unwrap();
        assert_eq!(&b1[..], &[1, 2, 3, 4]);
        let (b2, _) = env.next_input_bank(0, SimTime::ZERO).unwrap();
        assert_eq!(&b2[..], &[5]);
        assert!(env.next_input_bank(0, SimTime::ZERO).is_none());
        env.drain_bank(0, Bytes::from_static(&[9]), SimTime::ZERO);
        assert_eq!(env.bank_output(), &[9]);
    }
}
