//! The cache-DRAM hierarchy used by Baseline/Prefetch cores (Figure 4).

use crate::{Cache, CacheGeometry, DcptPrefetcher, Dram};
use assasin_sim::{SimDur, SimTime};
use std::collections::HashMap;

/// Which level served a demand access — drives the Figure 5 cycle
/// decomposition.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ServedBy {
    /// L1 hit.
    L1,
    /// Served by the L2.
    L2,
    /// Went to SSD DRAM.
    Dram,
    /// Covered by an in-flight prefetch.
    Prefetch,
}

/// Load or store.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AccessKind {
    /// A demand load — stalls the in-order pipeline until data returns.
    Load,
    /// A store — retires through the store buffer without stalling (the
    /// line fill and writeback still consume DRAM bandwidth).
    Store,
}

/// A per-core cache hierarchy in front of the SSD DRAM: Table IV's L1D
/// ([`CacheGeometry::L1D`]) and L2 ([`CacheGeometry::L2`]), plus DCPT on
/// Prefetch cores. The hierarchy holds no DRAM of its own: the device owns
/// the one DRAM bus, and each [`MemHierarchy::access`] borrows it for that
/// access.
///
/// Timing model: L1 hits cost [`MemHierarchy::L1_HIT`]; L1 misses that
/// hit in L2 cost 8 ns; L2 misses occupy the shared DRAM bus for a line
/// and pay the DRAM latency. Dirty evictions post
/// write-back traffic to DRAM without stalling the core. Prefetches issued
/// by DCPT consume real DRAM bandwidth and can later convert demand misses
/// into [`ServedBy::Prefetch`] hits.
#[derive(Debug)]
pub struct MemHierarchy {
    l1: Cache,
    l2: Cache,
    prefetch: Option<Prefetch>,
    /// Demand traffic brought in from DRAM, in bytes.
    dram_fill_bytes: u64,
}

/// The Prefetch engine's DCPT and the lines it has fetched.
#[derive(Debug)]
struct Prefetch {
    dcpt: DcptPrefetcher,
    /// In-flight (or completed-but-unclaimed) prefetches: line addr -> data
    /// ready time.
    inflight: HashMap<u64, SimTime>,
}

/// Line size shared by both levels.
const LINE_BYTES: u64 = CacheGeometry::L1D.line_bytes as u64;

/// DRAM-bus bytes charged per demand-fill byte. The Baseline SSD data path
/// stages flash pages into DRAM and reads them back, so every fill byte
/// costs two bus trips (Section III's blue arrows).
const FILL_BYTES_FACTOR: u64 = 2;

/// Fraction of the DRAM access latency exposed to a blocking load. Models
/// the memory-level parallelism a pipelined in-order core still extracts
/// (critical-word-first, fill/use overlap).
const MLP_LATENCY_FACTOR: f64 = 0.6;

/// L2 hit service time.
const L2_HIT: SimDur = SimDur::from_ns(8);

/// Largest number of outstanding prefetched lines tracked.
const MAX_INFLIGHT_PF: usize = 32;

/// The line holding byte `addr`.
#[inline(always)]
fn line_of(addr: u64) -> u64 {
    addr & !(LINE_BYTES - 1)
}

impl MemHierarchy {
    /// L1 hit service time: the load-use latency of an in-order
    /// five-stage core. The dcache answers in MEM, so a dependent
    /// consumer sees two cycles. (ASSASIN's scratchpad/streambuffer
    /// single-cycle access is exactly the contrast Section V-B draws.)
    pub const L1_HIT: SimDur = SimDur::from_ns(2);

    /// Builds Table IV's hierarchy: the Baseline's L1D and L2, plus DCPT
    /// when `prefetch` (the Prefetch engine). The DRAM it sits in front of
    /// is passed to each [`MemHierarchy::access`].
    pub fn new(prefetch: bool) -> Self {
        MemHierarchy {
            l1: Cache::new(CacheGeometry::L1D),
            l2: Cache::new(CacheGeometry::L2),
            prefetch: prefetch.then(|| Prefetch {
                dcpt: DcptPrefetcher::new(LINE_BYTES as u32),
                inflight: HashMap::new(),
            }),
            dram_fill_bytes: 0,
        }
    }

    /// The L1-hit prefix of [`MemHierarchy::access`]: a demand access
    /// that fits one line and hits L1. Such a hit changes nothing besides
    /// the line's LRU stamp and dirty bit, the hit counter and (with a
    /// prefetcher) the prefetcher's training on `dram`, so it skips the
    /// per-line loop, the writeback plumbing and the prefetch-table
    /// lookups. Returns the completion time, `ready` plus
    /// [`MemHierarchy::L1_HIT`]. Returns `None`, having changed nothing,
    /// for anything else, so that a following `access` replays the
    /// identical state machine.
    #[inline(always)]
    pub fn try_l1_hit(
        &mut self,
        dram: &mut Dram,
        kind: AccessKind,
        pc: u64,
        addr: u64,
        bytes: u32,
        ready: SimTime,
    ) -> Option<SimTime> {
        let line = line_of(addr);
        if line != line_of(addr + bytes.max(1) as u64 - 1) {
            return None;
        }
        if !self.l1.try_hit(line, matches!(kind, AccessKind::Store)) {
            return None;
        }
        if self.prefetch.is_some() {
            self.train_prefetcher(dram, pc, addr, ready);
        }
        Some(ready + Self::L1_HIT)
    }

    /// Performs a demand access of `bytes` at `addr` issued by the
    /// instruction at `pc`, ready at `ready`. Misses, prefetches and
    /// writebacks occupy `dram`'s bus. Returns the completion time and the
    /// level that served it.
    ///
    /// Accesses are line-granular: an access spanning two lines touches
    /// both and completes at the later one. An L1 hit takes
    /// [`MemHierarchy::try_l1_hit`].
    pub fn access(
        &mut self,
        dram: &mut Dram,
        kind: AccessKind,
        pc: u64,
        addr: u64,
        bytes: u32,
        ready: SimTime,
    ) -> (SimTime, ServedBy) {
        if let Some(done) = self.try_l1_hit(dram, kind, pc, addr, bytes, ready) {
            return (done, ServedBy::L1);
        }
        let first_line = line_of(addr);
        let last_line = line_of(addr + bytes.max(1) as u64 - 1);
        let mut complete = ready;
        let mut served = ServedBy::L1;
        let mut line = first_line;
        loop {
            let (t, s) = self.access_line(dram, kind, line, ready);
            if t > complete {
                complete = t;
                served = s;
            } else if line == first_line {
                served = s;
            }
            if line == last_line {
                break;
            }
            line += LINE_BYTES;
        }
        // Prefetcher observes the demand stream (trains on all accesses).
        if self.prefetch.is_some() {
            self.train_prefetcher(dram, pc, addr, ready);
        }
        (complete, served)
    }

    fn access_line(
        &mut self,
        dram: &mut Dram,
        kind: AccessKind,
        line: u64,
        ready: SimTime,
    ) -> (SimTime, ServedBy) {
        let l1_hit_time = ready + Self::L1_HIT;
        // L1 lookup.
        let r = self.l1.access(line, matches!(kind, AccessKind::Store));
        if r.writeback.is_some() {
            writeback(dram, ready);
        }
        if r.hit {
            return (l1_hit_time, ServedBy::L1);
        }
        // Prefetch coverage.
        if let Some(pf) = &mut self.prefetch {
            if let Some(pf_ready) = pf.inflight.remove(&line) {
                if self.l2.fill(line).is_some() {
                    writeback(dram, ready);
                }
                pf.dcpt.note_useful();
                let done = match kind {
                    AccessKind::Load => l1_hit_time.max(pf_ready),
                    AccessKind::Store => l1_hit_time,
                };
                return (done, ServedBy::Prefetch);
            }
        }
        // L2 lookup.
        let r = self.l2.access(line, false);
        if r.writeback.is_some() {
            writeback(dram, ready);
        }
        if r.hit {
            return (ready + L2_HIT, ServedBy::L2);
        }
        // DRAM fill: the Baseline data path pays `FILL_BYTES_FACTOR` bus
        // trips per byte (staging write + demand read), and a blocking load
        // sees `MLP_LATENCY_FACTOR` of the access latency.
        let fill = LINE_BYTES * FILL_BYTES_FACTOR;
        self.dram_fill_bytes += fill;
        let done = match kind {
            AccessKind::Load => dram.post(ready, fill) + exposed_latency(dram),
            // Store misses fetch the line for ownership but retire through
            // the store buffer: traffic yes, stall no.
            AccessKind::Store => {
                dram.post(ready, fill);
                l1_hit_time
            }
        };
        (done, ServedBy::Dram)
    }

    /// Shows the prefetcher one demand access; out of line, so the L1-hit
    /// prefix stays small.
    #[inline(never)]
    fn train_prefetcher(&mut self, dram: &mut Dram, pc: u64, addr: u64, now: SimTime) {
        let Some(pf) = &mut self.prefetch else {
            return;
        };
        for cand in pf.dcpt.observe(pc, addr) {
            let line = line_of(cand);
            if self.l1.probe(line) || self.l2.probe(line) || pf.inflight.contains_key(&line) {
                continue;
            }
            if pf.inflight.len() >= MAX_INFLIGHT_PF {
                break;
            }
            let fill = LINE_BYTES * FILL_BYTES_FACTOR;
            self.dram_fill_bytes += fill;
            let ready = dram.post(now, fill) + exposed_latency(dram);
            pf.inflight.insert(line, ready);
        }
    }

    /// Demand-fill traffic brought from DRAM so far, in bytes.
    pub fn dram_fill_bytes(&self) -> u64 {
        self.dram_fill_bytes
    }

    /// L1 (hits, misses).
    pub fn l1_counters(&self) -> (u64, u64) {
        self.l1.counters()
    }

    /// L2 (hits, misses).
    pub fn l2_counters(&self) -> (u64, u64) {
        self.l2.counters()
    }

    /// Prefetcher (issued, useful) counters, on the Prefetch engine.
    pub fn prefetch_counters(&self) -> Option<(u64, u64)> {
        self.prefetch.as_ref().map(|p| p.dcpt.counters())
    }
}

/// The part of `dram`'s access latency a blocking fill sees.
fn exposed_latency(dram: &Dram) -> SimDur {
    SimDur::from_secs_f64(dram.latency().as_secs_f64() * MLP_LATENCY_FACTOR)
}

/// Posts a dirty line's write-back traffic to `dram`.
fn writeback(dram: &mut Dram, ready: SimTime) {
    dram.post(ready, LINE_BYTES);
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A hierarchy plus the DRAM it borrows on every access.
    fn with_dram(prefetch: bool) -> (MemHierarchy, Dram) {
        (MemHierarchy::new(prefetch), Dram::lpddr5_8gbps())
    }

    #[test]
    fn l1_hit_is_fast() {
        let (mut h, mut dram) = with_dram(false);
        let (t0, s0) = h.access(&mut dram, AccessKind::Load, 0, 0x1000, 4, SimTime::ZERO);
        assert_eq!(s0, ServedBy::Dram);
        let (t1, s1) = h.access(&mut dram, AccessKind::Load, 0, 0x1004, 4, t0);
        assert_eq!(s1, ServedBy::L1);
        assert_eq!(t1, t0 + MemHierarchy::L1_HIT);
    }

    #[test]
    fn l2_serves_l1_victims() {
        let (mut h, mut dram) = with_dram(false);
        // Touch enough distinct lines to overflow L1 (32KiB = 512 lines)
        // but stay within L2 (4096 lines).
        for i in 0..1024u64 {
            h.access(
                &mut dram,
                AccessKind::Load,
                0,
                i * 64,
                4,
                SimTime::from_us(100),
            );
        }
        // Re-touch the first line: out of L1, still in L2.
        let (_, s) = h.access(&mut dram, AccessKind::Load, 0, 0, 4, SimTime::from_ms(1));
        assert_eq!(s, ServedBy::L2);
    }

    #[test]
    fn streaming_pays_dram_every_line() {
        let (mut h, mut dram) = with_dram(false);
        let mut dram_served = 0;
        let mut t = SimTime::ZERO;
        for i in 0..256u64 {
            let (done, s) = h.access(&mut dram, AccessKind::Load, 0, 0x10_0000 + i * 64, 4, t);
            t = done;
            if s == ServedBy::Dram {
                dram_served += 1;
            }
        }
        assert_eq!(dram_served, 256, "streaming has no reuse");
        // 2x per fill byte: staging write + demand read (Section III).
        assert_eq!(h.dram_fill_bytes(), 2 * 256 * 64);
    }

    #[test]
    fn prefetcher_converts_misses() {
        let (mut hp, mut dram) = with_dram(true);
        let mut t = SimTime::ZERO;
        let mut covered = 0;
        for i in 0..512u64 {
            let (done, s) = hp.access(&mut dram, AccessKind::Load, 0x40, 0x20_0000 + i * 64, 4, t);
            t = done;
            if s == ServedBy::Prefetch {
                covered += 1;
            }
        }
        assert!(
            covered > 100,
            "DCPT must cover a sequential stream, got {covered}"
        );
        let (issued, useful) = hp.prefetch_counters().unwrap();
        assert!(issued >= useful);
        assert!(useful > 0);
    }

    #[test]
    fn stores_do_not_stall() {
        let (mut h, mut dram) = with_dram(false);
        let (t, s) = h.access(&mut dram, AccessKind::Store, 0, 0x5000, 4, SimTime::ZERO);
        assert_eq!(s, ServedBy::Dram);
        assert_eq!(t, SimTime::ZERO + MemHierarchy::L1_HIT);
        // ... but they do produce DRAM traffic (2x per fill byte).
        assert_eq!(h.dram_fill_bytes(), 128);
    }

    #[test]
    fn straddling_access_touches_two_lines() {
        let (mut h, mut dram) = with_dram(false);
        h.access(&mut dram, AccessKind::Load, 0, 0x103C, 8, SimTime::ZERO);
        let (hits, misses) = h.l1_counters();
        assert_eq!((hits, misses), (0, 2));
    }
}
