//! Set-associative write-back cache with LRU replacement.

use serde::{Deserialize, Serialize};

/// Cache geometry (Table IV uses 32 KiB/8-way L1D and 256 KiB/16-way L2,
/// both with 64 B lines).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct CacheGeometry {
    /// Total capacity in bytes.
    pub size_bytes: u32,
    /// Associativity.
    pub ways: u32,
    /// Line size in bytes (must be a power of two).
    pub line_bytes: u32,
}

impl CacheGeometry {
    /// The paper's L1D: 32 KiB, 8-way, 64 B lines.
    pub const L1D: CacheGeometry = CacheGeometry {
        size_bytes: 32 * 1024,
        ways: 8,
        line_bytes: 64,
    };
    /// The paper's L2: 256 KiB, 16-way, 64 B lines.
    pub const L2: CacheGeometry = CacheGeometry {
        size_bytes: 256 * 1024,
        ways: 16,
        line_bytes: 64,
    };

    /// Number of sets.
    pub fn sets(&self) -> u32 {
        self.size_bytes / (self.ways * self.line_bytes)
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Line {
    tag: u64,
    valid: bool,
    dirty: bool,
    /// LRU stamp; larger = more recently used.
    stamp: u64,
}

impl Line {
    const EMPTY: Line = Line {
        tag: 0,
        valid: false,
        dirty: false,
        stamp: 0,
    };
}

/// Result of one cache lookup.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LookupResult {
    /// Whether the line was present.
    pub hit: bool,
    /// Line-aligned address of a dirty line evicted to make room
    /// (write-back traffic for the next level).
    pub writeback: Option<u64>,
}

/// A set-associative write-back, write-allocate cache.
///
/// Purely functional state (tags + LRU); timing lives in
/// [`MemHierarchy`](crate::MemHierarchy).
///
/// Storage is one flat boxed slice (set-major, `ways` contiguous slots
/// per set) with the set index/tag split precomputed at construction, and
/// a per-set MRU-way predictor so the common repeated-line hit touches a
/// single slot instead of scanning the set. Replacement behavior is
/// observably identical to the textbook `Vec<Vec<Line>>` formulation
/// (ticks are unique, so the LRU victim is unambiguous); a property test
/// in `tests/cache_equivalence.rs` pins that equivalence.
#[derive(Debug, Clone)]
pub struct Cache {
    geom: CacheGeometry,
    /// All lines, set-major: set `s` occupies `s*ways .. (s+1)*ways`.
    lines: Box<[Line]>,
    /// Per-set way index of the last hit (the MRU-way predictor).
    mru: Box<[u32]>,
    /// `log2(line_bytes)`.
    line_shift: u32,
    /// `(mask, shift)` when the set count is a power of two; the general
    /// div/mod split otherwise.
    set_split: Option<(u64, u32)>,
    ways: u32,
    sets: u32,
    tick: u64,
    hits: u64,
    misses: u64,
}

impl Cache {
    /// Creates an empty cache.
    ///
    /// # Panics
    ///
    /// Panics if geometry is degenerate (zero sets or non-power-of-two line).
    pub fn new(geom: CacheGeometry) -> Self {
        assert!(
            geom.line_bytes.is_power_of_two(),
            "line size must be a power of two"
        );
        let sets = geom.sets();
        assert!(sets > 0, "cache must have at least one set");
        let set_split = sets
            .is_power_of_two()
            .then(|| (sets as u64 - 1, sets.trailing_zeros()));
        Cache {
            geom,
            lines: vec![Line::EMPTY; (sets * geom.ways) as usize].into_boxed_slice(),
            mru: vec![0u32; sets as usize].into_boxed_slice(),
            line_shift: geom.line_bytes.trailing_zeros(),
            set_split,
            ways: geom.ways,
            sets,
            tick: 0,
            hits: 0,
            misses: 0,
        }
    }

    /// This cache's geometry.
    pub fn geometry(&self) -> CacheGeometry {
        self.geom
    }

    #[inline]
    fn split(&self, addr: u64) -> (usize, u64) {
        let line = addr >> self.line_shift;
        match self.set_split {
            Some((mask, shift)) => ((line & mask) as usize, line >> shift),
            None => ((line % self.sets as u64) as usize, line / self.sets as u64),
        }
    }

    /// Reconstructs the line-aligned address of `(set, tag)`.
    #[inline]
    fn unsplit(&self, set_idx: usize, tag: u64) -> u64 {
        let line_no = tag * self.sets as u64 + set_idx as u64;
        line_no << self.line_shift
    }

    /// Looks up `addr`; on miss, allocates the line (write-allocate),
    /// evicting LRU if the set is full. `write` marks the line dirty.
    pub fn access(&mut self, addr: u64, write: bool) -> LookupResult {
        self.tick += 1;
        let (set_idx, tag) = self.split(addr);
        let base = set_idx * self.ways as usize;
        let set = &mut self.lines[base..base + self.ways as usize];
        // MRU-way fast path: repeated hits to the same line skip the scan.
        let mru = self.mru[set_idx] as usize;
        if set[mru].valid && set[mru].tag == tag {
            set[mru].stamp = self.tick;
            set[mru].dirty |= write;
            self.hits += 1;
            return LookupResult {
                hit: true,
                writeback: None,
            };
        }
        if let Some(w) = set.iter().position(|l| l.valid && l.tag == tag) {
            set[w].stamp = self.tick;
            set[w].dirty |= write;
            self.hits += 1;
            self.mru[set_idx] = w as u32;
            return LookupResult {
                hit: true,
                writeback: None,
            };
        }
        self.misses += 1;
        let (victim_way, writeback) = self.evict_slot(set_idx);
        self.lines[base + victim_way] = Line {
            tag,
            valid: true,
            dirty: write,
            stamp: self.tick,
        };
        self.mru[set_idx] = victim_way as u32;
        LookupResult {
            hit: false,
            writeback,
        }
    }

    /// A hit-only lookup for the hierarchy's L1 fast path: on hit the LRU
    /// stamp, dirty bit and hit counter update exactly as [`Cache::access`]
    /// would; on miss *nothing* changes (no tick, no miss count) so the
    /// caller can fall back to the full `access` path and end up with the
    /// identical per-access state transition.
    #[inline(always)]
    pub fn try_hit(&mut self, addr: u64, write: bool) -> bool {
        let (set_idx, tag) = self.split(addr);
        let base = set_idx * self.ways as usize;
        let set = &mut self.lines[base..base + self.ways as usize];
        let mru = self.mru[set_idx] as usize;
        if set[mru].valid && set[mru].tag == tag {
            self.tick += 1;
            set[mru].stamp = self.tick;
            set[mru].dirty |= write;
            self.hits += 1;
            return true;
        }
        if let Some(w) = set.iter().position(|l| l.valid && l.tag == tag) {
            self.tick += 1;
            set[w].stamp = self.tick;
            set[w].dirty |= write;
            self.hits += 1;
            self.mru[set_idx] = w as u32;
            return true;
        }
        false
    }

    /// Picks the slot a new line lands in: an invalid way if one exists,
    /// else the LRU victim (unique minimal stamp). Returns the way index
    /// and the writeback address if the victim was dirty.
    fn evict_slot(&mut self, set_idx: usize) -> (usize, Option<u64>) {
        let base = set_idx * self.ways as usize;
        let set = &self.lines[base..base + self.ways as usize];
        let mut victim = 0usize;
        let mut best = u64::MAX;
        for (w, l) in set.iter().enumerate() {
            if !l.valid {
                return (w, None);
            }
            if l.stamp < best {
                best = l.stamp;
                victim = w;
            }
        }
        let v = set[victim];
        let writeback = v.dirty.then(|| self.unsplit(set_idx, v.tag));
        (victim, writeback)
    }

    /// Checks presence without disturbing LRU or counters (for prefetch
    /// filtering).
    pub fn probe(&self, addr: u64) -> bool {
        let (set_idx, tag) = self.split(addr);
        let base = set_idx * self.ways as usize;
        self.lines[base..base + self.ways as usize]
            .iter()
            .any(|l| l.valid && l.tag == tag)
    }

    /// Installs a line without counting a demand miss (prefetch fill).
    /// Returns the dirty line evicted, if any.
    pub fn fill(&mut self, addr: u64) -> Option<u64> {
        if self.probe(addr) {
            return None;
        }
        self.tick += 1;
        let (set_idx, tag) = self.split(addr);
        let (way, writeback) = self.evict_slot(set_idx);
        let base = set_idx * self.ways as usize;
        self.lines[base + way] = Line {
            tag,
            valid: true,
            dirty: false,
            stamp: self.tick,
        };
        writeback
    }

    /// (hits, misses) so far.
    pub fn counters(&self) -> (u64, u64) {
        (self.hits, self.misses)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> Cache {
        // 2 sets, 2 ways, 64B lines = 256B cache.
        Cache::new(CacheGeometry {
            size_bytes: 256,
            ways: 2,
            line_bytes: 64,
        })
    }

    #[test]
    fn geometry_sets() {
        assert_eq!(CacheGeometry::L1D.sets(), 64);
        assert_eq!(CacheGeometry::L2.sets(), 256);
    }

    #[test]
    fn first_touch_misses_then_hits() {
        let mut c = tiny();
        assert!(!c.access(0x100, false).hit);
        assert!(c.access(0x100, false).hit);
        assert!(c.access(0x13F, false).hit, "same line");
        assert!(!c.access(0x140, false).hit, "next line");
        assert_eq!(c.counters(), (2, 2));
    }

    #[test]
    fn lru_evicts_oldest() {
        let mut c = tiny();
        // Set 0 holds lines with even line index. Lines 0,2,4 map to set 0.
        c.access(0, false);
        c.access(2 * 64, false);
        c.access(0, false); // refresh line 0
        c.access(4 * 64, false); // evicts line 2 (LRU)
        assert!(c.probe(0));
        assert!(!c.probe(2 * 64));
        assert!(c.probe(4 * 64));
    }

    #[test]
    fn dirty_eviction_reports_writeback() {
        let mut c = tiny();
        c.access(0, true); // dirty line 0 (set 0)
        c.access(2 * 64, false);
        let r = c.access(4 * 64, false); // evicts dirty line 0
        assert_eq!(r.writeback, Some(0));
    }

    #[test]
    fn fill_does_not_count_as_demand() {
        let mut c = tiny();
        c.fill(0x100);
        assert_eq!(c.counters(), (0, 0));
        assert!(c.access(0x100, false).hit);
    }

    #[test]
    fn streaming_workload_always_misses() {
        // The Section III observation: caches don't help streaming data.
        let mut c = Cache::new(CacheGeometry::L1D);
        let line = CacheGeometry::L1D.line_bytes as u64;
        for i in 0..10_000u64 {
            c.access(i * line, false);
        }
        assert_eq!(c.counters().1, 10_000);
    }
}
