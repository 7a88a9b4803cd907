//! Byte-rate shared resources (DRAM bus, PCIe link).

use crate::{Grant, SimDur, SimTime, Timeline};

/// A shared link with a fixed byte rate, served FIFO.
///
/// This models the SSD DRAM bus and the PCIe host link: every transfer
/// occupies the link for `bytes / rate` seconds, so concurrent demand from
/// several cores (plus the flash-staging traffic on the Baseline
/// architecture) naturally produces the memory-wall queuing the paper
/// describes in Section III.
///
/// ```
/// use assasin_sim::{Bandwidth, SimTime};
/// let mut dram = Bandwidth::new("lpddr5", 8.0e9); // 8 GB/s
/// let t1 = dram.transfer(SimTime::ZERO, 4096);
/// let t2 = dram.transfer(SimTime::ZERO, 4096);
/// assert_eq!(t2.as_ps(), 2 * t1.as_ps()); // second transfer queues
/// ```
#[derive(Debug, Clone)]
pub struct Bandwidth {
    timeline: Timeline,
    bytes_per_sec: f64,
    bytes_moved: u64,
}

impl Bandwidth {
    /// Creates a link with the given capacity in bytes per second.
    ///
    /// # Panics
    ///
    /// Panics if `bytes_per_sec` is not strictly positive and finite.
    pub fn new(name: impl Into<String>, bytes_per_sec: f64) -> Self {
        assert!(
            bytes_per_sec > 0.0 && bytes_per_sec.is_finite(),
            "bandwidth must be positive and finite"
        );
        Bandwidth {
            timeline: Timeline::new(name),
            bytes_per_sec,
            bytes_moved: 0,
        }
    }

    /// Time the link needs to move `bytes`.
    pub fn service_time(&self, bytes: u64) -> SimDur {
        SimDur::from_secs_f64(bytes as f64 / self.bytes_per_sec)
    }

    /// Reserves the link for a transfer of `bytes` starting no earlier than
    /// `ready`; returns the completion time.
    pub fn transfer(&mut self, ready: SimTime, bytes: u64) -> SimTime {
        self.transfer_grant(ready, bytes).end
    }

    /// Like [`Bandwidth::transfer`] but exposes the full [`Grant`]
    /// (C-INTERMEDIATE), so callers can observe queuing delay.
    pub fn transfer_grant(&mut self, ready: SimTime, bytes: u64) -> Grant {
        let service = self.service_time(bytes);
        self.bytes_moved += bytes;
        self.timeline.acquire(ready, service)
    }

    /// Link capacity in bytes per second.
    pub fn bytes_per_sec(&self) -> f64 {
        self.bytes_per_sec
    }

    /// Total bytes moved over the link.
    pub fn bytes_moved(&self) -> u64 {
        self.bytes_moved
    }

    /// When the link next becomes free.
    pub fn free_at(&self) -> SimTime {
        self.timeline.free_at()
    }

    /// Total busy time on the link.
    pub fn busy_time(&self) -> SimDur {
        self.timeline.busy_time()
    }

    /// Utilization over `[0, horizon]`.
    pub fn utilization(&self, horizon: SimTime) -> f64 {
        self.timeline.utilization(horizon)
    }

    /// Achieved throughput in bytes/sec over `[0, horizon]`.
    pub fn achieved_rate(&self, horizon: SimTime) -> f64 {
        let secs = horizon.as_secs_f64();
        if secs == 0.0 {
            0.0
        } else {
            self.bytes_moved as f64 / secs
        }
    }

    /// Resets byte/busy accounting without changing the schedule.
    pub fn reset_stats(&mut self) {
        self.bytes_moved = 0;
        self.timeline.reset_stats();
    }

    /// Returns the link to idle at t = 0 and clears accounting.
    pub fn reset_time(&mut self) {
        self.bytes_moved = 0;
        self.timeline.reset_time();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn service_time_matches_rate() {
        let bw = Bandwidth::new("b", 1.0e9); // 1 GB/s
        assert_eq!(bw.service_time(1000), SimDur::from_us(1));
    }

    #[test]
    fn transfers_accumulate_bytes() {
        let mut bw = Bandwidth::new("b", 1.0e9);
        bw.transfer(SimTime::ZERO, 500);
        bw.transfer(SimTime::ZERO, 500);
        assert_eq!(bw.bytes_moved(), 1000);
        assert_eq!(bw.free_at(), SimTime::from_us(1));
    }

    #[test]
    fn contention_serializes() {
        let mut bw = Bandwidth::new("b", 8.0e9);
        let a = bw.transfer_grant(SimTime::ZERO, 4096);
        let b = bw.transfer_grant(SimTime::ZERO, 4096);
        assert_eq!(b.start, a.end);
        assert!(b.queued > SimDur::ZERO);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_rate_rejected() {
        let _ = Bandwidth::new("b", 0.0);
    }
}
