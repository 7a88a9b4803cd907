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

/// Configuration of the per-core cache hierarchy.
#[derive(Debug, Clone, Copy)]
pub struct HierarchyConfig {
    /// L1 data cache geometry, if present.
    pub l1: Option<CacheGeometry>,
    /// L2 cache geometry, if present.
    pub l2: Option<CacheGeometry>,
    /// Whether the DCPT prefetcher is attached (the `Prefetch` variant).
    pub prefetch: bool,
    /// L1 hit service time (typically one pipeline cycle).
    pub l1_hit: SimDur,
    /// L2 hit service time.
    pub l2_hit: SimDur,
    /// DRAM-bus bytes charged per demand-fill byte. The Baseline SSD data
    /// path stages flash pages into DRAM and reads them back, so every
    /// fill byte costs two bus trips (Section III's blue arrows).
    pub fill_bytes_factor: u32,
    /// Fraction of the DRAM access latency exposed to a blocking load.
    /// Models the memory-level parallelism a pipelined in-order core still
    /// extracts (critical-word-first, fill/use overlap).
    pub mlp_latency_factor: f64,
}

impl HierarchyConfig {
    /// Table IV `Baseline`: 32 KiB/8-way L1D + 256 KiB/16-way L2, no
    /// prefetcher.
    pub fn baseline() -> Self {
        HierarchyConfig {
            l1: Some(CacheGeometry::L1D),
            l2: Some(CacheGeometry::L2),
            prefetch: false,
            // Load-use latency of an in-order five-stage core: the dcache
            // answers in MEM, so a dependent consumer sees two cycles.
            // (ASSASIN's scratchpad/streambuffer single-cycle access is
            // exactly the contrast Section V-B draws.)
            l1_hit: SimDur::from_ns(2),
            l2_hit: SimDur::from_ns(8),
            fill_bytes_factor: 2,
            mlp_latency_factor: 0.6,
        }
    }

    /// Table IV `Prefetch`: baseline plus DCPT.
    pub fn with_prefetcher() -> Self {
        HierarchyConfig {
            prefetch: true,
            ..HierarchyConfig::baseline()
        }
    }
}

/// A per-core cache hierarchy in front of the SSD DRAM. The hierarchy
/// holds no DRAM of its own: the device owns the one DRAM bus, and each
/// [`MemHierarchy::access`] borrows it for that access.
///
/// Timing model: L1 hits cost [`HierarchyConfig::l1_hit`]; L1 misses that
/// hit in L2 cost `l2_hit`; L2 misses occupy the shared DRAM bus for a line
/// and pay the DRAM latency. Dirty evictions post write-back traffic to
/// DRAM without stalling the core. Prefetches issued by DCPT consume real
/// DRAM bandwidth and can later convert demand misses into
/// [`ServedBy::Prefetch`] hits.
#[derive(Debug)]
pub struct MemHierarchy {
    cfg: HierarchyConfig,
    l1: Option<Cache>,
    l2: Option<Cache>,
    prefetcher: Option<DcptPrefetcher>,
    /// In-flight (or completed-but-unclaimed) prefetches: line addr -> data
    /// ready time.
    inflight_pf: HashMap<u64, SimTime>,
    line_bytes: u32,
    /// Demand traffic brought in from DRAM, in bytes.
    dram_fill_bytes: u64,
}

impl MemHierarchy {
    /// Largest number of outstanding prefetched lines tracked.
    const MAX_INFLIGHT_PF: usize = 32;

    /// Builds the hierarchy; the DRAM it sits in front of is passed to
    /// each [`MemHierarchy::access`].
    pub fn new(cfg: HierarchyConfig) -> Self {
        let line_bytes = cfg.l1.or(cfg.l2).map(|g| g.line_bytes).unwrap_or(64);
        MemHierarchy {
            l1: cfg.l1.map(Cache::new),
            l2: cfg.l2.map(Cache::new),
            prefetcher: if cfg.prefetch {
                Some(DcptPrefetcher::new(line_bytes))
            } else {
                None
            },
            cfg,
            inflight_pf: HashMap::new(),
            line_bytes,
            dram_fill_bytes: 0,
        }
    }

    /// The L1-hit prefix of [`MemHierarchy::access`]: a demand access
    /// that fits one line and hits L1. Such a hit changes nothing besides
    /// the line's LRU stamp and dirty bit, the hit counter and (with a
    /// prefetcher) the prefetcher's training on `dram`, so it skips the
    /// per-line loop, the writeback plumbing and the prefetch-table
    /// lookups. Returns the completion time, `ready` plus
    /// [`HierarchyConfig::l1_hit`]. Returns `None`, having changed
    /// nothing, for anything else, so that a following `access` replays
    /// the identical state machine.
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
        let line = addr & !(self.line_bytes as u64 - 1);
        let last_line = (addr + bytes.max(1) as u64 - 1) & !(self.line_bytes as u64 - 1);
        if line != last_line {
            return None;
        }
        let l1 = self.l1.as_mut()?;
        if !l1.try_hit(line, matches!(kind, AccessKind::Store)) {
            return None;
        }
        if self.prefetcher.is_some() {
            self.train_prefetcher(dram, pc, addr, ready);
        }
        Some(ready + self.cfg.l1_hit)
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
        let first_line = addr & !(self.line_bytes as u64 - 1);
        let last_line = (addr + bytes.max(1) as u64 - 1) & !(self.line_bytes as u64 - 1);
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
            line += self.line_bytes as u64;
        }
        // Prefetcher observes the demand stream (trains on all accesses).
        if self.prefetcher.is_some() {
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
        let l1_hit_time = ready + self.cfg.l1_hit;
        // L1 lookup.
        if let Some(l1) = &mut self.l1 {
            let r = l1.access(line, matches!(kind, AccessKind::Store));
            if let Some(wb) = r.writeback {
                self.writeback(dram, wb, ready);
            }
            if r.hit {
                return (l1_hit_time, ServedBy::L1);
            }
        }
        // Prefetch coverage.
        if let Some(pf_ready) = self.inflight_pf.remove(&line) {
            if let Some(l2) = &mut self.l2 {
                if let Some(wb) = l2.fill(line) {
                    self.writeback(dram, wb, ready);
                }
            }
            if let Some(pf) = &mut self.prefetcher {
                pf.note_useful();
            }
            let done = l1_hit_time.max(pf_ready);
            let served = ServedBy::Prefetch;
            let store = matches!(kind, AccessKind::Store);
            return (if store { l1_hit_time } else { done }, served);
        }
        // L2 lookup.
        if let Some(l2) = &mut self.l2 {
            let r = l2.access(line, false);
            if let Some(wb) = r.writeback {
                self.writeback(dram, wb, ready);
            }
            if r.hit {
                return (ready + self.cfg.l2_hit, ServedBy::L2);
            }
        }
        // DRAM fill: the Baseline data path pays `fill_bytes_factor` bus
        // trips per byte (staging write + demand read), and a blocking load
        // sees `mlp_latency_factor` of the access latency.
        let fill = self.line_bytes as u64 * self.cfg.fill_bytes_factor as u64;
        self.dram_fill_bytes += fill;
        let done = match kind {
            AccessKind::Load => {
                let bus = dram.post(ready, fill);
                bus + self.exposed_latency(dram)
            }
            // Store misses fetch the line for ownership but retire through
            // the store buffer: traffic yes, stall no.
            AccessKind::Store => {
                dram.post(ready, fill);
                ready + self.cfg.l1_hit
            }
        };
        (done, ServedBy::Dram)
    }

    /// Shows the prefetcher one demand access; out of line, so the L1-hit
    /// prefix stays small.
    #[inline(never)]
    fn train_prefetcher(&mut self, dram: &mut Dram, pc: u64, addr: u64, now: SimTime) {
        let Some(pf) = &mut self.prefetcher else {
            return;
        };
        let candidates = pf.observe(pc, addr);
        for cand in candidates {
            let line = cand & !(self.line_bytes as u64 - 1);
            let cached = self.l1.as_ref().map(|c| c.probe(line)).unwrap_or(false)
                || self.l2.as_ref().map(|c| c.probe(line)).unwrap_or(false);
            if cached || self.inflight_pf.contains_key(&line) {
                continue;
            }
            if self.inflight_pf.len() >= Self::MAX_INFLIGHT_PF {
                break;
            }
            let fill = self.line_bytes as u64 * self.cfg.fill_bytes_factor as u64;
            self.dram_fill_bytes += fill;
            let ready = {
                let bus = dram.post(now, fill);
                bus + self.exposed_latency(dram)
            };
            self.inflight_pf.insert(line, ready);
        }
    }

    /// The part of `dram`'s access latency a blocking fill sees.
    fn exposed_latency(&self, dram: &Dram) -> SimDur {
        SimDur::from_secs_f64(dram.latency().as_secs_f64() * self.cfg.mlp_latency_factor)
    }

    fn writeback(&self, dram: &mut Dram, _line: u64, ready: SimTime) {
        dram.post(ready, self.line_bytes as u64);
    }

    /// Demand-fill traffic brought from DRAM so far, in bytes.
    pub fn dram_fill_bytes(&self) -> u64 {
        self.dram_fill_bytes
    }

    /// L1 (hits, misses), if an L1 is configured.
    pub fn l1_counters(&self) -> Option<(u64, u64)> {
        self.l1.as_ref().map(|c| c.counters())
    }

    /// L2 (hits, misses), if an L2 is configured.
    pub fn l2_counters(&self) -> Option<(u64, u64)> {
        self.l2.as_ref().map(|c| c.counters())
    }

    /// Prefetcher (issued, useful) counters, if configured.
    pub fn prefetch_counters(&self) -> Option<(u64, u64)> {
        self.prefetcher.as_ref().map(|p| p.counters())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A hierarchy plus the DRAM it borrows on every access.
    fn with_dram(cfg: HierarchyConfig) -> (MemHierarchy, Dram) {
        (MemHierarchy::new(cfg), Dram::lpddr5_8gbps())
    }

    #[test]
    fn l1_hit_is_fast() {
        let (mut h, mut dram) = with_dram(HierarchyConfig::baseline());
        let (t0, s0) = h.access(&mut dram, AccessKind::Load, 0, 0x1000, 4, SimTime::ZERO);
        assert_eq!(s0, ServedBy::Dram);
        let (t1, s1) = h.access(&mut dram, AccessKind::Load, 0, 0x1004, 4, t0);
        assert_eq!(s1, ServedBy::L1);
        assert_eq!(t1, t0 + HierarchyConfig::baseline().l1_hit);
    }

    #[test]
    fn l2_serves_l1_victims() {
        let (mut h, mut dram) = with_dram(HierarchyConfig::baseline());
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
        let (mut h, mut dram) = with_dram(HierarchyConfig::baseline());
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
        let (mut hp, mut dram) = with_dram(HierarchyConfig::with_prefetcher());
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
        let (mut h, mut dram) = with_dram(HierarchyConfig::baseline());
        let (t, s) = h.access(&mut dram, AccessKind::Store, 0, 0x5000, 4, SimTime::ZERO);
        assert_eq!(s, ServedBy::Dram);
        assert_eq!(t, SimTime::ZERO + HierarchyConfig::baseline().l1_hit);
        // ... but they do produce DRAM traffic (2x per fill byte).
        assert_eq!(h.dram_fill_bytes(), 128);
    }

    #[test]
    fn straddling_access_touches_two_lines() {
        let (mut h, mut dram) = with_dram(HierarchyConfig::baseline());
        h.access(&mut dram, AccessKind::Load, 0, 0x103C, 8, SimTime::ZERO);
        let (hits, misses) = h.l1_counters().unwrap();
        assert_eq!((hits, misses), (0, 2));
    }
}
