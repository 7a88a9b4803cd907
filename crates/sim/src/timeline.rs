//! Shared resources with earliest-fit (backfilling) arbitration.

use crate::{SimDur, SimTime};
use std::collections::VecDeque;

/// A reservation handed out by [`Timeline::acquire`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Grant {
    /// When service actually began (>= the requested ready time).
    pub start: SimTime,
    /// When service completes and the resource frees.
    pub end: SimTime,
    /// Time spent queued before service began.
    pub queued: SimDur,
}

/// An exclusive shared resource: a flash chip, a channel bus, a crossbar
/// port, a DRAM bus slot.
///
/// Reservations are *earliest-fit*: a request ready at time `t` takes the
/// first idle gap of sufficient length at or after `t`, even if later
/// requests were already booked beyond it. This models a fair arbiter and
/// keeps the bounded-slack co-simulation honest — cores are advanced one
/// epoch at a time, so their requests arrive out of global time order, and
/// strict FIFO booking would make each core queue behind every request the
/// previously-simulated core issued during the whole epoch.
///
/// Gaps older than [`Timeline::PRUNE_WINDOW`] behind the newest request are
/// permanently forfeited (bounded memory); the epoch length is far inside
/// that window.
///
/// ```
/// use assasin_sim::{SimDur, SimTime, Timeline};
/// let mut bus = Timeline::new("channel-0");
/// let a = bus.acquire(SimTime::ZERO, SimDur::from_us(4));
/// let b = bus.acquire(SimTime::ZERO, SimDur::from_us(4));
/// assert_eq!(b.start, a.end); // contended requests serialize
/// assert_eq!(bus.busy_time(), SimDur::from_us(8));
/// ```
#[derive(Debug, Clone)]
pub struct Timeline {
    name: String,
    /// Everything before this instant is settled; no new request may be
    /// placed there.
    floor: SimTime,
    /// Disjoint, sorted busy intervals `(start, end)` in picoseconds, all
    /// at or after `floor`.
    intervals: VecDeque<(u64, u64)>,
    newest_ready: SimTime,
    busy: SimDur,
    grants: u64,
}

impl Timeline {
    /// How far behind the newest request an idle gap stays claimable.
    pub const PRUNE_WINDOW: SimDur = SimDur::from_ms(10);

    /// Creates an idle resource. `name` appears in diagnostics only.
    pub fn new(name: impl Into<String>) -> Self {
        Timeline {
            name: name.into(),
            floor: SimTime::ZERO,
            intervals: VecDeque::new(),
            newest_ready: SimTime::ZERO,
            busy: SimDur::ZERO,
            grants: 0,
        }
    }

    /// Reserves the resource for `service` starting no earlier than
    /// `ready`, in the earliest idle gap that fits.
    ///
    /// The schedule tail doubles as a last-grant cursor: a request ready
    /// at or beyond it appends (or extends the tail interval) in O(1) —
    /// the overwhelmingly common case for a resource driven by requesters
    /// advancing in time order. Only a request ready *before* the tail
    /// pays the earliest-fit gap scan.
    pub fn acquire(&mut self, ready: SimTime, service: SimDur) -> Grant {
        let ready = ready.max(self.floor);
        self.newest_ready = self.newest_ready.max(ready);
        let need = service.as_ps();
        let ready_ps = ready.as_ps();
        let start = match self.intervals.back_mut() {
            Some(tail) if ready_ps >= tail.1 => {
                if ready_ps == tail.1 {
                    tail.1 += need;
                } else {
                    self.intervals.push_back((ready_ps, ready_ps + need));
                }
                ready_ps
            }
            Some(_) => self.place_earliest_fit(ready_ps, need),
            None => {
                self.intervals.push_back((ready_ps, ready_ps + need));
                ready_ps
            }
        };
        self.prune();
        self.busy += service;
        self.grants += 1;
        let start_t = SimTime::from_ps(start);
        Grant {
            start: start_t,
            end: SimTime::from_ps(start + need),
            queued: start_t.since(ready),
        }
    }

    /// Reserves `count` back-to-back service slots, each of length
    /// `service`, the first starting no earlier than `ready`.
    ///
    /// Used for multi-sense operations (read-retry re-senses a page with
    /// shifted read references): the chip stays occupied for each re-sense,
    /// and each slot is booked through the normal earliest-fit arbiter so
    /// competing requests interleave exactly as they would with separate
    /// `acquire` calls. The returned grant spans the first slot's start to
    /// the last slot's end; `queued` is the first slot's queueing delay.
    ///
    /// # Panics
    ///
    /// Panics if `count` is zero.
    pub fn acquire_repeated(&mut self, ready: SimTime, service: SimDur, count: u32) -> Grant {
        assert!(count > 0, "acquire_repeated needs at least one slot");
        let first = self.acquire(ready, service);
        let mut last = first;
        for _ in 1..count {
            last = self.acquire(last.end, service);
        }
        Grant {
            start: first.start,
            end: last.end,
            queued: first.queued,
        }
    }

    /// The slow path: scans for the earliest idle gap that fits, inserts,
    /// and merges touching neighbors. Returns the service start.
    fn place_earliest_fit(&mut self, ready_ps: u64, need: u64) -> u64 {
        // Intervals ending strictly before `ready` can neither host the
        // insertion point (their start is below `ready`) nor push `start`
        // forward (`max(e)` is a no-op), so skip them wholesale. The
        // deque is sorted, which makes that a binary search — the scan
        // then touches only the few intervals near the request, instead
        // of walking the whole booked window from its oldest entry.
        let first = self.intervals.partition_point(|&(_, e)| e < ready_ps);
        let mut start = ready_ps;
        let mut insert_at = self.intervals.len();
        for (i, &(s, e)) in self.intervals.range(first..).enumerate() {
            if start + need <= s {
                insert_at = first + i;
                break;
            }
            start = start.max(e);
        }
        self.intervals.insert(insert_at, (start, start + need));
        // Merge touching neighbors.
        if insert_at + 1 < self.intervals.len()
            && self.intervals[insert_at].1 == self.intervals[insert_at + 1].0
        {
            let (_, e2) = self
                .intervals
                .remove(insert_at + 1)
                .expect("bounds checked");
            self.intervals[insert_at].1 = e2;
        }
        if insert_at > 0 && self.intervals[insert_at - 1].1 == self.intervals[insert_at].0 {
            let (_, e2) = self.intervals.remove(insert_at).expect("bounds checked");
            self.intervals[insert_at - 1].1 = e2;
        }
        start
    }

    fn prune(&mut self) {
        let cutoff = self.newest_ready.saturating_since(SimTime::ZERO);
        let horizon = cutoff.saturating_sub(Self::PRUNE_WINDOW).as_ps();
        while let Some(&(_, e)) = self.intervals.front() {
            if e < horizon {
                self.floor = self.floor.max(SimTime::from_ps(e));
                self.intervals.pop_front();
            } else {
                break;
            }
        }
    }

    /// When the resource's last booked work completes.
    pub fn free_at(&self) -> SimTime {
        self.intervals
            .back()
            .map(|&(_, e)| SimTime::from_ps(e))
            .unwrap_or(self.floor)
    }

    /// Total time the resource has spent serving requests.
    pub fn busy_time(&self) -> SimDur {
        self.busy
    }

    /// Number of grants served.
    pub fn grants(&self) -> u64 {
        self.grants
    }

    /// Utilization over the window `[0, horizon]`.
    pub fn utilization(&self, horizon: SimTime) -> f64 {
        if horizon == SimTime::ZERO {
            return 0.0;
        }
        self.busy.as_secs_f64() / horizon.as_secs_f64()
    }

    /// Diagnostic name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The currently tracked busy intervals, oldest first (diagnostics and
    /// invariant tests; pruned history is not included).
    pub fn busy_intervals(&self) -> impl Iterator<Item = (SimTime, SimTime)> + '_ {
        self.intervals
            .iter()
            .map(|&(s, e)| (SimTime::from_ps(s), SimTime::from_ps(e)))
    }

    /// Resets busy/grant accounting without changing the schedule (used
    /// when an experiment measures only its steady-state window).
    pub fn reset_stats(&mut self) {
        self.busy = SimDur::ZERO;
        self.grants = 0;
    }

    /// Returns the resource to idle at t = 0 *and* clears accounting.
    /// Used between experiment phases (e.g. after dataset loading) so each
    /// measured run starts from a quiet device.
    pub fn reset_time(&mut self) {
        self.floor = SimTime::ZERO;
        self.intervals.clear();
        self.newest_ready = SimTime::ZERO;
        self.reset_stats();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn idle_resource_serves_immediately() {
        let mut t = Timeline::new("t");
        let g = t.acquire(SimTime::from_ns(5), SimDur::from_ns(10));
        assert_eq!(g.start, SimTime::from_ns(5));
        assert_eq!(g.end, SimTime::from_ns(15));
        assert_eq!(g.queued, SimDur::ZERO);
    }

    #[test]
    fn busy_resource_queues() {
        let mut t = Timeline::new("t");
        t.acquire(SimTime::ZERO, SimDur::from_ns(100));
        let g = t.acquire(SimTime::from_ns(30), SimDur::from_ns(10));
        assert_eq!(g.start, SimTime::from_ns(100));
        assert_eq!(g.queued, SimDur::from_ns(70));
    }

    #[test]
    fn gap_between_requests_leaves_idle_time() {
        let mut t = Timeline::new("t");
        t.acquire(SimTime::ZERO, SimDur::from_ns(10));
        t.acquire(SimTime::from_ns(100), SimDur::from_ns(10));
        assert_eq!(t.busy_time(), SimDur::from_ns(20));
        assert_eq!(t.free_at(), SimTime::from_ns(110));
        let u = t.utilization(SimTime::from_ns(110));
        assert!((u - 20.0 / 110.0).abs() < 1e-12);
    }

    #[test]
    fn backfill_takes_earlier_gaps() {
        // A late-simulated requester with an early ready time slots into
        // the idle gap instead of queueing at the tail.
        let mut t = Timeline::new("t");
        t.acquire(SimTime::from_ns(1000), SimDur::from_ns(100));
        let g = t.acquire(SimTime::from_ns(10), SimDur::from_ns(50));
        assert_eq!(g.start, SimTime::from_ns(10));
        assert_eq!(g.queued, SimDur::ZERO);
        // But a request too large for any gap lands after the tail.
        let g = t.acquire(SimTime::from_ns(0), SimDur::from_ns(2000));
        assert_eq!(g.start, SimTime::from_ns(1100));
    }

    #[test]
    fn merging_keeps_intervals_compact() {
        let mut t = Timeline::new("t");
        for i in 0..100u64 {
            t.acquire(SimTime::from_ns(i * 10), SimDur::from_ns(10));
        }
        assert_eq!(t.free_at(), SimTime::from_ns(1000));
        assert_eq!(t.busy_time(), SimDur::from_ns(1000));
    }

    #[test]
    fn repeated_acquire_books_contiguous_slots_when_idle() {
        let mut t = Timeline::new("t");
        let g = t.acquire_repeated(SimTime::from_ns(5), SimDur::from_ns(10), 3);
        assert_eq!(g.start, SimTime::from_ns(5));
        assert_eq!(g.end, SimTime::from_ns(35));
        assert_eq!(g.queued, SimDur::ZERO);
        assert_eq!(t.busy_time(), SimDur::from_ns(30));
        assert_eq!(t.grants(), 3);
    }

    #[test]
    fn repeated_acquire_queues_behind_existing_work() {
        let mut t = Timeline::new("t");
        t.acquire(SimTime::ZERO, SimDur::from_ns(100));
        let g = t.acquire_repeated(SimTime::from_ns(30), SimDur::from_ns(10), 2);
        assert_eq!(g.start, SimTime::from_ns(100));
        assert_eq!(g.end, SimTime::from_ns(120));
        assert_eq!(g.queued, SimDur::from_ns(70));
    }

    #[test]
    fn repeated_acquire_of_one_matches_acquire() {
        let mut a = Timeline::new("a");
        let mut b = Timeline::new("b");
        let ga = a.acquire(SimTime::from_ns(3), SimDur::from_ns(7));
        let gb = b.acquire_repeated(SimTime::from_ns(3), SimDur::from_ns(7), 1);
        assert_eq!(ga, gb);
        assert_eq!(a.busy_time(), b.busy_time());
    }

    #[test]
    fn reset_stats_keeps_schedule() {
        let mut t = Timeline::new("t");
        t.acquire(SimTime::ZERO, SimDur::from_ns(10));
        t.reset_stats();
        assert_eq!(t.busy_time(), SimDur::ZERO);
        assert_eq!(t.free_at(), SimTime::from_ns(10));
    }

    #[test]
    fn reset_time_clears_schedule() {
        let mut t = Timeline::new("t");
        t.acquire(SimTime::ZERO, SimDur::from_ms(5));
        t.reset_time();
        assert_eq!(t.free_at(), SimTime::ZERO);
        let g = t.acquire(SimTime::ZERO, SimDur::from_ns(1));
        assert_eq!(g.start, SimTime::ZERO);
    }

    #[test]
    fn old_gaps_are_forfeited() {
        let mut t = Timeline::new("t");
        t.acquire(SimTime::ZERO, SimDur::from_ns(10));
        // A request far in the future prunes the early region.
        t.acquire(SimTime::from_ms(100), SimDur::from_ns(10));
        let g = t.acquire(SimTime::ZERO, SimDur::from_ns(10));
        assert!(g.start >= SimTime::from_ns(10), "early gap forfeited");
    }

    #[test]
    fn backfill_merges_with_both_neighbors() {
        // Two booked intervals with an exactly-sized gap between them: the
        // backfilled request bridges both, collapsing three intervals into
        // one.
        let mut t = Timeline::new("t");
        t.acquire(SimTime::ZERO, SimDur::from_ns(10)); // [0, 10)
        t.acquire(SimTime::from_ns(20), SimDur::from_ns(10)); // [20, 30)
        assert_eq!(t.busy_intervals().count(), 2);
        let g = t.acquire(SimTime::from_ns(10), SimDur::from_ns(10)); // fills [10, 20)
        assert_eq!(g.start, SimTime::from_ns(10));
        assert_eq!(g.queued, SimDur::ZERO);
        let merged: Vec<_> = t.busy_intervals().collect();
        assert_eq!(merged, vec![(SimTime::ZERO, SimTime::from_ns(30))]);
        assert_eq!(t.busy_time(), SimDur::from_ns(30));
    }

    #[test]
    fn reservation_exactly_at_prune_horizon_survives() {
        let mut t = Timeline::new("t");
        let early = t.acquire(SimTime::ZERO, SimDur::from_ns(10));
        // Advance the newest request so the early interval's end sits
        // exactly on the prune horizon: `end == newest - PRUNE_WINDOW`
        // must NOT be forfeited (prune cuts strictly-older intervals).
        let newest = early.end + Timeline::PRUNE_WINDOW;
        t.acquire(newest, SimDur::from_ns(10));
        assert_eq!(t.busy_intervals().count(), 2, "horizon interval kept");
        // A backfill right behind it is still placeable.
        let g = t.acquire(SimTime::from_ns(10), SimDur::from_ns(5));
        assert_eq!(g.start, SimTime::from_ns(10));
        // One picosecond further and the early region is forfeited.
        t.acquire(newest + SimDur::from_ps(1), SimDur::from_ns(1));
        let g = t.acquire(SimTime::ZERO, SimDur::from_ns(1));
        assert!(g.start >= SimTime::from_ns(10), "past-horizon gap gone");
    }

    #[test]
    fn fast_append_and_earliest_fit_agree_on_tail_contention() {
        // Drive two interleaved requesters: one monotone (hits the O(1)
        // append path), one lagging (forces the gap scan). The schedule
        // must stay disjoint and account every picosecond of service.
        let mut t = Timeline::new("t");
        let mut granted = SimDur::ZERO;
        for i in 0..200u64 {
            let (ready, len) = if i % 3 == 0 {
                (SimTime::from_ns(i * 7), SimDur::from_ns(9))
            } else {
                (SimTime::from_ns(i), SimDur::from_ns(2))
            };
            let g = t.acquire(ready, len);
            assert!(g.start >= ready);
            assert_eq!(g.end.since(g.start), len);
            granted += len;
        }
        assert_eq!(t.busy_time(), granted);
        let iv: Vec<_> = t.busy_intervals().collect();
        for w in iv.windows(2) {
            assert!(w[0].1 < w[1].0, "disjoint and sorted: {w:?}");
        }
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Whatever the arrival pattern, the tracked intervals stay
        /// disjoint and sorted, and busy time equals the sum of granted
        /// service.
        #[test]
        fn schedule_invariants_hold(
            reqs in proptest::collection::vec((0u64..2_000, 1u64..300), 1..120)
        ) {
            let mut t = Timeline::new("prop");
            let mut service_sum = SimDur::ZERO;
            for &(ready_ns, len_ns) in &reqs {
                let len = SimDur::from_ns(len_ns);
                let g = t.acquire(SimTime::from_ns(ready_ns), len);
                prop_assert!(g.start >= SimTime::from_ns(ready_ns));
                prop_assert_eq!(g.end.since(g.start), len);
                service_sum += len;
            }
            prop_assert_eq!(t.busy_time(), service_sum);
            let iv: Vec<_> = t.busy_intervals().collect();
            for w in iv.windows(2) {
                prop_assert!(w[0].0 < w[0].1, "non-empty interval {:?}", w[0]);
                prop_assert!(w[0].1 < w[1].0, "disjoint, sorted, merged {:?}", w);
            }
        }
    }
}
