//! Property tests pinning the flattened, MRU-predicted [`Cache`] to the
//! textbook `Vec<Vec<Line>>` formulation it replaced.
//!
//! The reference model below is the pre-refactor implementation verbatim
//! (modulo naming). LRU stamps are unique, so the victim choice is
//! unambiguous and every observable — hit/miss results, writeback
//! addresses, probe outcomes, hit/miss counters — must agree on any
//! access trace, for power-of-two and non-power-of-two set counts alike.
//!
//! One level up, [`MemHierarchy::try_l1_hit`] is pinned the same way: the
//! prefix plus an [`MemHierarchy::access`] fallback must be
//! indistinguishable from `access` alone.

use assasin_mem::{AccessKind, Cache, CacheGeometry, Dram, MemHierarchy, ServedBy};
use assasin_sim::{SimDur, SimTime};
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

/// Every counter a hierarchy and its DRAM expose: L1, L2 and prefetch
/// (hits, misses)/(issued, useful), fill bytes, DRAM bus bytes.
type Observables = ((u64, u64), (u64, u64), Option<(u64, u64)>, u64, u64);

fn observables(h: &MemHierarchy, dram: &Dram) -> Observables {
    (
        h.l1_counters(),
        h.l2_counters(),
        h.prefetch_counters(),
        h.dram_fill_bytes(),
        dram.bytes_moved(),
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]
    /// Drives one hierarchy the way the core's Mem path does —
    /// `try_l1_hit` first, `access` only when it declines — and a twin
    /// with `access` alone, each over its own DRAM. Loads and stores of
    /// 1..=8 bytes at any offset (so some cross a line) from a few PCs
    /// over 256 lines, with runs of line-after-line loads from one PC that
    /// train the prefetcher: completion times, serving levels and every
    /// counter must agree after each access. The 256 lines are contiguous,
    /// or 8 lines apart so that they crowd 8 of the L1D's 64 sets,
    /// overflow it and reach the L2 and the writeback path.
    #[test]
    fn try_l1_hit_prefix_matches_plain_access(
        prefetch in any::<bool>(),
        stride in prop_oneof![Just(1u64), Just(8u64)],
        ops in vec(
            (0u64..256 * 64, 1u32..=8, any::<bool>(), 0u64..4, 0u64..40, 0u8..3),
            1..600,
        ),
    ) {
        let mut split = MemHierarchy::new(prefetch);
        let mut split_dram = Dram::lpddr5_8gbps();
        let mut plain = MemHierarchy::new(prefetch);
        let mut plain_dram = Dram::lpddr5_8gbps();
        let mut ready = SimTime::ZERO;
        let mut prev_line = 0;
        for (i, &(pos, bytes, store, pc, gap_ns, mode)) in ops.iter().enumerate() {
            ready += SimDur::from_ns(gap_ns);
            // Mode 0 goes anywhere; modes 1 and 2 load the next line.
            let (line, off, store, pc) = match mode {
                0 => (pos / 64, pos % 64, store, 0x100 + pc * 4),
                _ => ((prev_line + 1) % 256, 0, false, 0x80),
            };
            prev_line = line;
            let addr = line * stride * 64 + off;
            let kind = if store { AccessKind::Store } else { AccessKind::Load };
            let got = match split.try_l1_hit(&mut split_dram, kind, pc, addr, bytes, ready) {
                Some(done) => (done, ServedBy::L1),
                None => split.access(&mut split_dram, kind, pc, addr, bytes, ready),
            };
            let want = plain.access(&mut plain_dram, kind, pc, addr, bytes, ready);
            prop_assert_eq!(got, want, "op {}: {:?} of {} bytes at {:#x}", i, kind, bytes, addr);
            prop_assert_eq!(
                observables(&split, &split_dram),
                observables(&plain, &plain_dram),
                "op {}: counters diverge", i
            );
        }
    }
}
