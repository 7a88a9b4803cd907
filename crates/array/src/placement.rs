//! Host-side placement policies and the object catalog.
//!
//! The array places data at chunk granularity. A *chunk* is a run of
//! consecutive logical pages on one device; a *stripe* (RAID policies)
//! is one chunk per data device plus the parity chunks protecting them.
//! Chunk-to-device mapping is pure arithmetic on the data-chunk index,
//! so placement is deterministic and needs no stored map beyond the
//! per-object catalog entry.

use assasin_ftl::Lpa;

/// Host-side placement/erasure policy of an array.
///
/// (Named to avoid colliding with `assasin_ftl::Placement`, the
/// device-internal channel-placement knob.)
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ArrayPlacement {
    /// Round-robin chunks over all devices. No redundancy.
    Striped,
    /// Striping biased by per-device weights (device `i` receives
    /// `weights[i]` of every `sum(weights)` chunks) — the skewed
    /// placement of the rebuild-storm scenario. No redundancy.
    WeightedStriped {
        /// One positive weight per device.
        weights: Vec<u32>,
    },
    /// Every chunk stored on `copies` devices (primary plus
    /// `copies - 1` replicas on the next devices round-robin).
    /// Tolerates `copies - 1` failures.
    Replicated {
        /// Total copies of each chunk, `>= 2`.
        copies: usize,
    },
    /// XOR parity on a dedicated parity device (the last device), data
    /// striped over the rest. Tolerates one failure.
    Raid4,
    /// P+Q parity on the last two devices (P then Q), data striped over
    /// the rest. Tolerates two failures.
    Raid6,
}

impl ArrayPlacement {
    /// Human-readable policy name (report keys).
    pub fn name(&self) -> &'static str {
        match self {
            ArrayPlacement::Striped => "striped",
            ArrayPlacement::WeightedStriped { .. } => "weighted",
            ArrayPlacement::Replicated { .. } => "replicated",
            ArrayPlacement::Raid4 => "raid4",
            ArrayPlacement::Raid6 => "raid6",
        }
    }

    /// Smallest array this policy makes sense on.
    pub fn min_devices(&self) -> usize {
        match self {
            ArrayPlacement::Striped | ArrayPlacement::WeightedStriped { .. } => 1,
            ArrayPlacement::Replicated { copies } => (*copies).max(2),
            ArrayPlacement::Raid4 => 3,
            ArrayPlacement::Raid6 => 4,
        }
    }

    /// Devices dedicated to parity (0 except for the RAID policies).
    pub fn parity_devices(&self) -> usize {
        match self {
            ArrayPlacement::Raid4 => 1,
            ArrayPlacement::Raid6 => 2,
            _ => 0,
        }
    }

    /// Device failures the policy survives without data loss.
    pub fn redundancy(&self) -> usize {
        match self {
            ArrayPlacement::Striped | ArrayPlacement::WeightedStriped { .. } => 0,
            ArrayPlacement::Replicated { copies } => copies - 1,
            ArrayPlacement::Raid4 => 1,
            ArrayPlacement::Raid6 => 2,
        }
    }

    /// Number of devices holding data chunks on an array of `devices`.
    pub fn data_width(&self, devices: usize) -> usize {
        devices - self.parity_devices()
    }

    /// Device holding data chunk `chunk` on an array of `devices`.
    pub fn data_device(&self, devices: usize, chunk: usize) -> usize {
        match self {
            ArrayPlacement::Striped | ArrayPlacement::Replicated { .. } => chunk % devices,
            ArrayPlacement::WeightedStriped { weights } => {
                let total: u64 = weights.iter().map(|&w| w as u64).sum();
                let mut slot = (chunk as u64) % total;
                for (d, &w) in weights.iter().enumerate() {
                    if slot < w as u64 {
                        return d;
                    }
                    slot -= w as u64;
                }
                unreachable!("slot within weight total")
            }
            ArrayPlacement::Raid4 | ArrayPlacement::Raid6 => chunk % self.data_width(devices),
        }
    }

    /// Devices holding the extra copies of data chunk `chunk`
    /// (Replicated only; empty otherwise).
    pub fn replica_devices(&self, devices: usize, chunk: usize) -> Vec<usize> {
        match self {
            ArrayPlacement::Replicated { copies } => {
                let primary = self.data_device(devices, chunk);
                (1..*copies).map(|k| (primary + k) % devices).collect()
            }
            _ => Vec::new(),
        }
    }

    /// Devices holding the parity chunks of every stripe, in syndrome
    /// order (RAID4: `[P]`; RAID6: `[P, Q]`; empty otherwise).
    pub fn parity_device_ids(&self, devices: usize) -> Vec<usize> {
        match self {
            ArrayPlacement::Raid4 => vec![devices - 1],
            ArrayPlacement::Raid6 => vec![devices - 2, devices - 1],
            _ => Vec::new(),
        }
    }
}

/// One chunk's physical location: a run of logical pages on one device.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChunkLoc {
    /// Device holding the chunk.
    pub device: usize,
    /// The chunk's logical pages on that device, in order.
    pub lpas: Vec<Lpa>,
    /// Valid bytes (the final pages may be zero-padded).
    pub bytes: u64,
}

/// One RAID stripe: which data chunks it covers and where its parity
/// lives.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StripeLoc {
    /// Index of the stripe's first data chunk in
    /// [`StoredObject::chunks`].
    pub first_chunk: usize,
    /// Number of data chunks in the stripe (the final stripe may be
    /// short).
    pub width: usize,
    /// Coded stream length in bytes: every member is zero-padded to
    /// this length for parity math.
    pub len: u64,
    /// Parity chunks in syndrome order (RAID4: `[P]`; RAID6: `[P, Q]`).
    pub parity: Vec<ChunkLoc>,
}

/// Catalog entry for one stored object.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StoredObject {
    /// Object length in bytes.
    pub bytes: u64,
    /// Placement granularity the object was stored under.
    pub chunk_bytes: u64,
    /// Data chunks in object order.
    pub chunks: Vec<ChunkLoc>,
    /// `replicas[c]` = extra copies of chunk `c` (Replicated only).
    pub replicas: Vec<Vec<ChunkLoc>>,
    /// Stripe map (RAID policies only).
    pub stripes: Vec<StripeLoc>,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn striped_round_robins() {
        let p = ArrayPlacement::Striped;
        let devs: Vec<usize> = (0..8).map(|c| p.data_device(4, c)).collect();
        assert_eq!(devs, vec![0, 1, 2, 3, 0, 1, 2, 3]);
        assert_eq!(p.redundancy(), 0);
    }

    #[test]
    fn weighted_striping_respects_weights() {
        let p = ArrayPlacement::WeightedStriped {
            weights: vec![3, 1],
        };
        let devs: Vec<usize> = (0..8).map(|c| p.data_device(2, c)).collect();
        assert_eq!(devs, vec![0, 0, 0, 1, 0, 0, 0, 1]);
    }

    #[test]
    fn replication_spreads_copies() {
        let p = ArrayPlacement::Replicated { copies: 3 };
        assert_eq!(p.data_device(4, 2), 2);
        assert_eq!(p.replica_devices(4, 2), vec![3, 0]);
        assert_eq!(p.redundancy(), 2);
    }

    #[test]
    fn raid_reserves_parity_devices() {
        let p4 = ArrayPlacement::Raid4;
        assert_eq!(p4.data_width(4), 3);
        assert_eq!(p4.parity_device_ids(4), vec![3]);
        assert_eq!(p4.data_device(4, 5), 2);
        let p6 = ArrayPlacement::Raid6;
        assert_eq!(p6.data_width(6), 4);
        assert_eq!(p6.parity_device_ids(6), vec![4, 5]);
        assert_eq!(p6.redundancy(), 2);
    }
}
