//! Property tests pinning the flattened, MRU-predicted [`Cache`] to the
//! textbook `Vec<Vec<Line>>` formulation it replaced.
//!
//! The reference model below is the pre-refactor implementation verbatim
//! (modulo naming). LRU stamps are unique, so the victim choice is
//! unambiguous and every observable — hit/miss results, writeback
//! addresses, probe outcomes, hit/miss counters — must agree on any
//! access trace, for power-of-two and non-power-of-two set counts alike.

use assasin_mem::{Cache, CacheGeometry};
use proptest::collection::vec;
use proptest::prelude::*;

#[derive(Clone, Copy)]
struct RefLine {
    tag: u64,
    dirty: bool,
    stamp: u64,
}

/// The old `Vec<Vec<Line>>` cache: push-on-allocate, swap-remove on
/// eviction, LRU victim by minimal stamp.
struct RefCache {
    geom: CacheGeometry,
    sets: Vec<Vec<RefLine>>,
    tick: u64,
    hits: u64,
    misses: u64,
}

impl RefCache {
    fn new(geom: CacheGeometry) -> Self {
        RefCache {
            geom,
            sets: vec![Vec::new(); geom.sets() as usize],
            tick: 0,
            hits: 0,
            misses: 0,
        }
    }

    fn split(&self, addr: u64) -> (usize, u64) {
        let line = addr / self.geom.line_bytes as u64;
        let set = (line % self.geom.sets() as u64) as usize;
        let tag = line / self.geom.sets() as u64;
        (set, tag)
    }

    fn evict_if_full(&mut self, set_idx: usize) -> Option<u64> {
        let ways = self.geom.ways as usize;
        let sets_count = self.geom.sets() as u64;
        let line_bytes = self.geom.line_bytes as u64;
        let set = &mut self.sets[set_idx];
        if set.len() < ways {
            return None;
        }
        let victim_idx = set
            .iter()
            .enumerate()
            .min_by_key(|(_, l)| l.stamp)
            .map(|(i, _)| i)
            .expect("full set has a victim");
        let victim = set.swap_remove(victim_idx);
        victim.dirty.then(|| {
            let line_no = victim.tag * sets_count + set_idx as u64;
            line_no * line_bytes
        })
    }

    /// `(hit, writeback)`, exactly [`Cache::access`]'s observables.
    fn access(&mut self, addr: u64, write: bool) -> (bool, Option<u64>) {
        self.tick += 1;
        let (set_idx, tag) = self.split(addr);
        if let Some(line) = self.sets[set_idx].iter_mut().find(|l| l.tag == tag) {
            line.stamp = self.tick;
            line.dirty |= write;
            self.hits += 1;
            return (true, None);
        }
        self.misses += 1;
        let writeback = self.evict_if_full(set_idx);
        let tick = self.tick;
        self.sets[set_idx].push(RefLine {
            tag,
            dirty: write,
            stamp: tick,
        });
        (false, writeback)
    }

    fn probe(&self, addr: u64) -> bool {
        let (set_idx, tag) = self.split(addr);
        self.sets[set_idx].iter().any(|l| l.tag == tag)
    }

    fn fill(&mut self, addr: u64) -> Option<u64> {
        if self.probe(addr) {
            return None;
        }
        self.tick += 1;
        let (set_idx, tag) = self.split(addr);
        let writeback = self.evict_if_full(set_idx);
        let tick = self.tick;
        self.sets[set_idx].push(RefLine {
            tag,
            dirty: false,
            stamp: tick,
        });
        writeback
    }
}

/// Geometries under test: the paper's L1D/L2, a tiny 2x2, and a
/// three-set cache (non-power-of-two sets exercise the div/mod split).
fn geometries() -> [CacheGeometry; 4] {
    [
        CacheGeometry::L1D,
        CacheGeometry::L2,
        CacheGeometry {
            size_bytes: 256,
            ways: 2,
            line_bytes: 64,
        },
        CacheGeometry {
            size_bytes: 3 * 2 * 32,
            ways: 2,
            line_bytes: 32,
        },
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]
    #[test]
    fn flat_cache_matches_reference_on_random_traces(
        geom_idx in 0usize..4,
        ops in vec((0u64..1 << 16, 0u8..4), 1..400),
    ) {
        let geom = geometries()[geom_idx];
        let mut flat = Cache::new(geom);
        let mut reference = RefCache::new(geom);
        for (i, &(addr, op)) in ops.iter().enumerate() {
            match op {
                // 0 = read access, 1 = write access.
                0 | 1 => {
                    let r = flat.access(addr, op == 1);
                    let (hit, wb) = reference.access(addr, op == 1);
                    prop_assert_eq!(r.hit, hit, "op {}: hit mismatch at {:#x}", i, addr);
                    prop_assert_eq!(
                        r.writeback, wb,
                        "op {}: writeback mismatch at {:#x}", i, addr
                    );
                }
                // 2 = probe (no state change).
                2 => prop_assert_eq!(
                    flat.probe(addr),
                    reference.probe(addr),
                    "op {}: probe mismatch at {:#x}", i, addr
                ),
                // 3 = prefetch fill.
                _ => prop_assert_eq!(
                    flat.fill(addr),
                    reference.fill(addr),
                    "op {}: fill mismatch at {:#x}", i, addr
                ),
            }
        }
        prop_assert_eq!(flat.counters(), (reference.hits, reference.misses));
    }

    /// Drives the flat cache the way `MemHierarchy` does — `try_hit`,
    /// falling back to `access` on miss, with prefetch fills between —
    /// and checks that the combination is indistinguishable from plain
    /// `access` on the reference model. Addresses fall on 256 lines, so
    /// the L1D and L2 geometries see several tags per set, or on 24, so
    /// long runs of hits on one line occur.
    #[test]
    fn try_hit_plus_access_fallback_matches_plain_access(
        geom_idx in 0usize..4,
        lines in prop_oneof![Just(256u64), Just(24u64)],
        ops in vec((0u64..1 << 14, 0u8..3), 1..400),
    ) {
        let geom = geometries()[geom_idx];
        let mut flat = Cache::new(geom);
        let mut reference = RefCache::new(geom);
        for (i, &(addr, op)) in ops.iter().enumerate() {
            let addr = addr % (lines * 64);
            if op == 2 {
                prop_assert_eq!(
                    flat.fill(addr),
                    reference.fill(addr),
                    "op {}: fill mismatch at {:#x}", i, addr
                );
                continue;
            }
            let write = op == 1;
            let (hit, wb) = if flat.try_hit(addr, write) {
                (true, None)
            } else {
                let r = flat.access(addr, write);
                (r.hit, r.writeback)
            };
            let (ref_hit, ref_wb) = reference.access(addr, write);
            prop_assert_eq!(hit, ref_hit, "op {}: hit mismatch at {:#x}", i, addr);
            prop_assert_eq!(wb, ref_wb, "op {}: writeback mismatch at {:#x}", i, addr);
        }
        prop_assert_eq!(flat.counters(), (reference.hits, reference.misses));
    }
}
