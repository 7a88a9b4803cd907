//! Delta-Correlating Prediction Table (DCPT) prefetcher.
//!
//! DCPT (Grannaes, Jahre & Natvig) is the best-performing Gem5 prefetcher on
//! the paper's benchmarks (Section VI-A), so it is the one the `Prefetch`
//! configuration of Table IV uses. Each table entry tracks, per load PC,
//! the history of address deltas; when the two most recent deltas reappear
//! earlier in the history, the deltas that followed them are replayed to
//! predict future addresses.

use std::collections::VecDeque;

const DELTA_HISTORY: usize = 16;
const TABLE_ENTRIES: usize = 128;
const MAX_PREFETCH_DEGREE: usize = 4;

#[derive(Debug, Clone)]
struct Entry {
    pc: u64,
    last_addr: u64,
    last_prefetch: u64,
    deltas: VecDeque<i64>,
}

/// The DCPT prefetcher. Operates on line-granular addresses.
#[derive(Debug, Clone)]
pub struct DcptPrefetcher {
    line_bytes: u64,
    entries: Vec<Entry>,
    issued: u64,
    useful_hint: u64,
}

impl DcptPrefetcher {
    /// Creates a DCPT prefetcher for the given cache line size.
    pub fn new(line_bytes: u32) -> Self {
        DcptPrefetcher {
            line_bytes: line_bytes as u64,
            entries: Vec::new(),
            issued: 0,
            useful_hint: 0,
        }
    }

    /// Observes a demand access `(pc, addr)` and returns the line-aligned
    /// addresses that should be prefetched (already filtered against
    /// `last_prefetch` to avoid re-issuing).
    pub fn observe(&mut self, pc: u64, addr: u64) -> Vec<u64> {
        let line = addr / self.line_bytes;
        let idx = match self.entries.iter().position(|e| e.pc == pc) {
            Some(i) => i,
            None => {
                if self.entries.len() >= TABLE_ENTRIES {
                    self.entries.remove(0); // FIFO replacement
                }
                self.entries.push(Entry {
                    pc,
                    last_addr: line,
                    last_prefetch: 0,
                    deltas: VecDeque::with_capacity(DELTA_HISTORY),
                });
                return Vec::new();
            }
        };
        let entry = &mut self.entries[idx];
        let delta = line as i64 - entry.last_addr as i64;
        if delta == 0 {
            return Vec::new();
        }
        if entry.deltas.len() == DELTA_HISTORY {
            entry.deltas.pop_front();
        }
        entry.deltas.push_back(delta);
        entry.last_addr = line;

        // Correlate: find the most recent earlier occurrence of the last
        // two deltas, then replay what followed.
        let n = entry.deltas.len();
        if n < 3 {
            return Vec::new();
        }
        let (d1, d2) = (entry.deltas[n - 2], entry.deltas[n - 1]);
        let mut candidates = Vec::new();
        for i in (0..n - 2).rev() {
            if i + 1 < n - 2 && entry.deltas[i] == d1 && entry.deltas[i + 1] == d2 {
                let mut next_line = line;
                for j in i + 2..n {
                    let predicted = next_line as i64 + entry.deltas[j];
                    if predicted <= 0 {
                        break;
                    }
                    next_line = predicted as u64;
                    if next_line > entry.last_prefetch {
                        candidates.push(next_line * self.line_bytes);
                        entry.last_prefetch = next_line;
                        if candidates.len() >= MAX_PREFETCH_DEGREE {
                            break;
                        }
                    }
                }
                break;
            }
        }
        self.issued += candidates.len() as u64;
        candidates
    }

    /// Notes that a demand access was served by an in-flight prefetch
    /// (coverage accounting).
    pub fn note_useful(&mut self) {
        self.useful_hint += 1;
    }

    /// (prefetches issued, prefetches that proved useful).
    pub fn counters(&self) -> (u64, u64) {
        (self.issued, self.useful_hint)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sequential_stream_is_predicted() {
        let mut pf = DcptPrefetcher::new(64);
        let mut predicted = Vec::new();
        for i in 0..16u64 {
            predicted.extend(pf.observe(0x400, i * 64));
        }
        assert!(!predicted.is_empty(), "sequential deltas must correlate");
        // Predictions must be line-aligned and strictly ahead.
        assert!(predicted.iter().all(|a| a % 64 == 0));
        let mut sorted = predicted.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), predicted.len(), "no duplicate prefetches");
    }

    #[test]
    fn strided_stream_is_predicted() {
        let mut pf = DcptPrefetcher::new(64);
        let mut predicted = Vec::new();
        for i in 0..20u64 {
            predicted.extend(pf.observe(0x404, i * 256));
        }
        assert!(!predicted.is_empty());
        assert!(predicted.iter().all(|a| a % 256 == 0));
    }

    #[test]
    fn random_stream_stays_quiet() {
        let mut pf = DcptPrefetcher::new(64);
        // Deltas never repeat as pairs -> (almost) no predictions.
        let addrs = [0u64, 64, 3 * 64, 7 * 64, 20 * 64, 22 * 64, 50 * 64, 51 * 64];
        let mut predicted = Vec::new();
        for &a in &addrs {
            predicted.extend(pf.observe(0x408, a));
        }
        assert!(predicted.len() <= 1, "got {predicted:?}");
    }

    #[test]
    fn distinct_pcs_do_not_interfere() {
        let mut pf = DcptPrefetcher::new(64);
        for i in 0..10u64 {
            pf.observe(0x1, i * 64);
            let p = pf.observe(0x2, 1 << 20); // same addr repeatedly: delta 0
            assert!(p.is_empty());
        }
        assert!(pf.counters().0 > 0);
    }
}
