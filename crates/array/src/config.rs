//! Array-level configuration: topology, placement policy, execution
//! engine, and the shared host-link budget.

use assasin_sim::SimDur;
use assasin_ssd::{SsdConfig, PCIE_BW, PCIE_LATENCY};

use crate::error::ArrayError;
use crate::placement::ArrayPlacement;

/// How the array advances its devices between sync points.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ArrayExec {
    /// All devices on the calling thread, in device order. The reference
    /// arm of the determinism property test.
    Serial,
    /// Each batch's devices on `assasin_parallel::par_map` capped at
    /// `workers` threads (and at the calling thread's own cap, see
    /// `assasin_parallel::with_max_threads`): the calling thread plus
    /// extra threads drawn
    /// from the process-wide budget for the batch. If the budget is
    /// exhausted the batch degrades toward serial — results are
    /// byte-identical either way.
    Threaded {
        /// Thread cap (calling thread included). At most one thread per
        /// device with commands in the batch is used.
        workers: usize,
    },
}

/// Configuration of an [`SsdArray`](crate::SsdArray).
#[derive(Debug, Clone)]
pub struct ArrayConfig {
    /// Number of devices in the array.
    pub devices: usize,
    /// Host-side placement/erasure policy.
    pub placement: ArrayPlacement,
    /// Placement granularity in bytes; must be a positive multiple of
    /// the flash page size.
    pub chunk_bytes: u64,
    /// Per-device configuration (every device is identical apart from
    /// [`fault_seeds`](Self::fault_seeds)).
    pub device: SsdConfig,
    /// Per-device NAND fault seeds. Empty means every device uses
    /// `device.fault.seed` as-is; otherwise one seed per device.
    pub fault_seeds: Vec<u64>,
    /// Shared root-complex bandwidth in bytes/second. Provisioned below
    /// `devices` times one device's [`PCIE_BW`] in any interesting
    /// topology.
    pub root_bw: f64,
    /// Latency added to every root crossing.
    pub root_latency: SimDur,
    /// Execution engine.
    pub exec: ArrayExec,
}

impl ArrayConfig {
    /// A config with conventional defaults: 16-page chunks, a root
    /// complex at twice one device's lane bandwidth (so 4+ active
    /// devices oversubscribe it), device PCIe latency, serial execution.
    pub fn new(devices: usize, placement: ArrayPlacement, device: SsdConfig) -> Self {
        ArrayConfig {
            devices,
            placement,
            chunk_bytes: 16 * device.geometry.page_bytes as u64,
            device,
            fault_seeds: Vec::new(),
            root_bw: PCIE_BW * 2.0,
            root_latency: PCIE_LATENCY,
            exec: ArrayExec::Serial,
        }
    }

    /// Sets the execution engine.
    pub fn with_exec(mut self, exec: ArrayExec) -> Self {
        self.exec = exec;
        self
    }

    /// Sets the placement granularity.
    pub fn with_chunk_bytes(mut self, chunk_bytes: u64) -> Self {
        self.chunk_bytes = chunk_bytes;
        self
    }

    /// Sets the shared root bandwidth.
    pub fn with_root_bw(mut self, bytes_per_sec: f64) -> Self {
        self.root_bw = bytes_per_sec;
        self
    }

    /// Sets per-device fault seeds (one per device).
    pub fn with_fault_seeds(mut self, seeds: Vec<u64>) -> Self {
        self.fault_seeds = seeds;
        self
    }

    /// The device config for device `d` (fault seed applied).
    pub(crate) fn device_cfg(&self, d: usize) -> SsdConfig {
        let mut cfg = self.device;
        if let Some(&seed) = self.fault_seeds.get(d) {
            cfg.fault.seed = seed;
        }
        cfg
    }

    /// Checks internal consistency.
    ///
    /// # Errors
    ///
    /// Returns [`ArrayError::BadConfig`] for an impossible topology:
    /// too few devices for the placement, a chunk size that is zero or
    /// not page-aligned, a fault-seed list of the wrong length, or a
    /// non-positive root bandwidth.
    pub fn validate(&self) -> Result<(), ArrayError> {
        let bad = |why: String| Err(ArrayError::BadConfig(why));
        let min = self.placement.min_devices();
        if self.devices < min {
            return bad(format!(
                "{} needs at least {min} devices, got {}",
                self.placement.name(),
                self.devices
            ));
        }
        if let ArrayPlacement::WeightedStriped { weights } = &self.placement {
            if weights.len() != self.devices {
                return bad(format!(
                    "weighted striping needs one weight per device: {} weights, {} devices",
                    weights.len(),
                    self.devices
                ));
            }
            if weights.contains(&0) {
                return bad("weighted striping weights must be positive".into());
            }
        }
        if let ArrayPlacement::Replicated { copies } = self.placement {
            if copies > self.devices {
                return bad(format!(
                    "{copies}-way replication does not fit on {} devices",
                    self.devices
                ));
            }
        }
        let page = self.device.geometry.page_bytes as u64;
        if self.chunk_bytes == 0 || !self.chunk_bytes.is_multiple_of(page) {
            return bad(format!(
                "chunk_bytes {} must be a positive multiple of the page size {page}",
                self.chunk_bytes
            ));
        }
        if !self.fault_seeds.is_empty() && self.fault_seeds.len() != self.devices {
            return bad(format!(
                "fault_seeds must name every device: {} seeds, {} devices",
                self.fault_seeds.len(),
                self.devices
            ));
        }
        if !(self.root_bw.is_finite() && self.root_bw > 0.0) {
            return bad(format!(
                "root bandwidth must be positive, got {}",
                self.root_bw
            ));
        }
        Ok(())
    }
}
