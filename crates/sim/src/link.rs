//! Shared host-interconnect contention model for multi-device arrays.
//!
//! An N-device array hangs every device's private PCIe lane off one
//! shared root complex (a PCIe switch upstream port, or a CXL host
//! bridge — OpenCXD-shaped topologies). Each device already models its
//! own lane internally; [`HostLink`] models the *shared* stage: every
//! host-bound transfer that cleared its lane must then cross the root,
//! whose bandwidth is provisioned below the sum of the lanes. With one
//! device active the root is invisible; with many devices bursting at
//! once, root serialization is the bottleneck the paper-scale
//! single-device evaluation never sees.
//!
//! The model is deliberately the same [`Bandwidth`]/[`Timeline`]
//! machinery the in-device links use: FIFO earliest-fit service, so
//! charging transfers in a deterministic order yields a deterministic
//! schedule. Array execution merges per-device completions into
//! `(time, device, seq)` order before charging the root — see
//! `assasin-array`.

use crate::{Bandwidth, SimDur, SimTime};

/// Per-device accounting of root-complex crossings.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct LaneStats {
    /// Bytes this device moved through the root.
    pub bytes: u64,
    /// Transfers this device pushed through the root.
    pub transfers: u64,
    /// Time this device's transfers spent queued behind other devices at
    /// the root (its share of the contention stalls).
    pub stalled: SimDur,
}

/// The shared stage of an array host link: one root-complex
/// [`Bandwidth`] plus per-device contention accounting.
#[derive(Debug, Clone)]
pub struct HostLink {
    root: Bandwidth,
    latency: SimDur,
    lanes: Vec<LaneStats>,
}

impl HostLink {
    /// A root complex of `bytes_per_sec` shared by `devices` lanes, with
    /// `latency` added to every transfer's completion.
    ///
    /// # Panics
    ///
    /// Panics if `devices` is zero or the rate is not strictly positive
    /// and finite (via [`Bandwidth::new`]).
    pub fn new(devices: usize, bytes_per_sec: f64, latency: SimDur) -> Self {
        assert!(devices > 0, "a host link needs at least one lane");
        HostLink {
            root: Bandwidth::new("host-root", bytes_per_sec),
            latency,
            lanes: vec![LaneStats::default(); devices],
        }
    }

    /// Number of lanes (devices) sharing the root.
    pub fn devices(&self) -> usize {
        self.lanes.len()
    }

    /// Charges a transfer of `bytes` from `device`, ready at `ready`
    /// (i.e. already clear of the device's private lane), through the
    /// shared root. Returns the host-visible completion time. Queuing
    /// behind transfers charged earlier is recorded as that device's
    /// contention stall.
    ///
    /// Callers must charge transfers in a deterministic order (the array
    /// engine's merged `(completion, device, seq)` order) — the root is
    /// FIFO, so charge order is schedule order.
    ///
    /// # Panics
    ///
    /// Panics if `device` is out of range.
    pub fn transfer(&mut self, device: usize, ready: SimTime, bytes: u64) -> SimTime {
        let grant = self.root.transfer_grant(ready, bytes);
        let lane = &mut self.lanes[device];
        lane.bytes += bytes;
        lane.transfers += 1;
        lane.stalled += grant.queued;
        grant.end + self.latency
    }

    /// Per-device root-crossing stats.
    pub fn lane_stats(&self) -> &[LaneStats] {
        &self.lanes
    }

    /// Total bytes moved through the root.
    pub fn bytes_moved(&self) -> u64 {
        self.root.bytes_moved()
    }

    /// Total contention stall across all devices.
    pub fn total_stalled(&self) -> SimDur {
        self.lanes
            .iter()
            .fold(SimDur::ZERO, |acc, l| acc + l.stalled)
    }

    /// Root busy time (for utilization roll-ups).
    pub fn busy_time(&self) -> SimDur {
        self.root.busy_time()
    }

    /// Returns the link to idle at t = 0 and clears all accounting — the
    /// boundary between array operations, mirroring `Ssd::quiesce`.
    pub fn reset_time(&mut self) {
        self.root.reset_time();
        for lane in &mut self.lanes {
            *lane = LaneStats::default();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn link() -> HostLink {
        // 2 GB/s root, zero latency for round numbers.
        HostLink::new(4, 2.0e9, SimDur::ZERO)
    }

    #[test]
    fn single_device_sees_no_contention() {
        let mut l = link();
        let done = l.transfer(0, SimTime::ZERO, 2_000);
        assert_eq!(done, SimTime::from_us(1));
        assert_eq!(l.lane_stats()[0].stalled, SimDur::ZERO);
        assert_eq!(l.total_stalled(), SimDur::ZERO);
    }

    #[test]
    fn concurrent_devices_queue_and_record_stalls() {
        let mut l = link();
        let a = l.transfer(0, SimTime::ZERO, 2_000);
        let b = l.transfer(1, SimTime::ZERO, 2_000);
        // FIFO: the second transfer waits out the first.
        assert_eq!(b, a + SimDur::from_us(1));
        assert_eq!(l.lane_stats()[1].stalled, SimDur::from_us(1));
        assert_eq!(l.lane_stats()[0].stalled, SimDur::ZERO);
        assert_eq!(l.bytes_moved(), 4_000);
    }

    #[test]
    fn latency_adds_to_completion_not_occupancy() {
        let mut l = HostLink::new(2, 2.0e9, SimDur::from_us(3));
        let a = l.transfer(0, SimTime::ZERO, 2_000);
        assert_eq!(a, SimTime::from_us(4)); // 1us service + 3us latency
        let b = l.transfer(1, SimTime::ZERO, 2_000);
        // Occupancy ends at 1us, so the second starts there, not at 4us.
        assert_eq!(b, SimTime::from_us(5));
    }

    #[test]
    fn reset_time_clears_schedule_and_stats() {
        let mut l = link();
        l.transfer(0, SimTime::ZERO, 10_000);
        l.transfer(1, SimTime::ZERO, 10_000);
        l.reset_time();
        assert_eq!(l.bytes_moved(), 0);
        assert_eq!(l.total_stalled(), SimDur::ZERO);
        let again = l.transfer(2, SimTime::ZERO, 2_000);
        assert_eq!(again, SimTime::from_us(1));
    }

    #[test]
    #[should_panic(expected = "at least one lane")]
    fn zero_devices_rejected() {
        let _ = HostLink::new(0, 1.0e9, SimDur::ZERO);
    }
}
