//! The SSD DRAM: a latency plus a shared bandwidth resource.

use assasin_sim::{Bandwidth, SimDur, SimTime};

/// The SSD's DRAM chip (Section II-A): page staging buffer, request queues
/// and FTL metadata all live here. Every consumer — flash controllers
/// staging pages, compute engines missing in their caches, the host DMA
/// path — shares one [`Bandwidth`] resource, which is exactly the memory
/// wall of Section III: at 8 GB/s effective bandwidth, staging traffic plus
/// compute traffic quickly exceeds capacity.
///
/// The device owns its one `Dram`; every consumer borrows it for the
/// length of one access (cores through their environment's
/// `StreamEnv::dram`, the firmware data plane directly).
#[derive(Debug)]
pub struct Dram {
    latency: SimDur,
    bus: Bandwidth,
}

impl Dram {
    /// Creates a DRAM with the given access latency and sustained bandwidth.
    pub fn new(latency: SimDur, bytes_per_sec: f64) -> Self {
        Dram {
            latency,
            bus: Bandwidth::new("ssd-dram", bytes_per_sec),
        }
    }

    /// Access latency of the evaluated LPDDR5 part (Section VI-A).
    pub const LPDDR5_LATENCY: SimDur = SimDur::from_ns(100);

    /// The paper's evaluated part: 2 GB LPDDR5 at 8 GB/s effective
    /// bandwidth (Section VI-A), 100 ns access latency.
    pub fn lpddr5_8gbps() -> Self {
        Dram::new(Self::LPDDR5_LATENCY, 8.0e9)
    }

    /// A demand access of `bytes` issued at `ready`: waits for a bus slot,
    /// then pays the access latency. Returns data-available time.
    pub fn access(&mut self, ready: SimTime, bytes: u64) -> SimTime {
        self.bus.transfer(ready, bytes) + self.latency
    }

    /// A posted (fire-and-forget) transfer — writebacks, staging writes.
    /// Consumes bandwidth but the caller does not wait for latency.
    pub fn post(&mut self, ready: SimTime, bytes: u64) -> SimTime {
        self.bus.transfer(ready, bytes)
    }

    /// Access latency component.
    pub fn latency(&self) -> SimDur {
        self.latency
    }

    /// Total bytes moved (staging + compute + host).
    pub fn bytes_moved(&self) -> u64 {
        self.bus.bytes_moved()
    }

    /// Configured bandwidth in bytes/second.
    pub fn bytes_per_sec(&self) -> f64 {
        self.bus.bytes_per_sec()
    }

    /// Bus utilization over `[0, horizon]`.
    pub fn utilization(&self, horizon: SimTime) -> f64 {
        self.bus.utilization(horizon)
    }

    /// Achieved traffic rate over `[0, horizon]` in bytes/second.
    pub fn achieved_rate(&self, horizon: SimTime) -> f64 {
        self.bus.achieved_rate(horizon)
    }

    /// Resets traffic accounting (measurement windows).
    pub fn reset_stats(&mut self) {
        self.bus.reset_stats();
    }

    /// Returns the bus to idle at t = 0 and clears accounting.
    pub fn reset_time(&mut self) {
        self.bus.reset_time();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn access_pays_latency_after_bus() {
        let mut d = Dram::new(SimDur::from_ns(100), 1.0e9);
        let done = d.access(SimTime::ZERO, 1000);
        assert_eq!(done, SimTime::from_ns(1100));
    }

    #[test]
    fn contention_queues_on_bus() {
        let mut d = Dram::lpddr5_8gbps();
        let a = d.access(SimTime::ZERO, 4096);
        let b = d.access(SimTime::ZERO, 4096);
        assert!(b > a);
        assert_eq!(d.bytes_moved(), 8192);
    }

    #[test]
    fn post_skips_latency() {
        let mut d = Dram::new(SimDur::from_ns(100), 1.0e9);
        let done = d.post(SimTime::ZERO, 1000);
        assert_eq!(done, SimTime::from_us(1));
    }
}
