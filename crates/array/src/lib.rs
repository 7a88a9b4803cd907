//! Multi-device SSD arrays over the single-device simulator.
//!
//! The paper evaluates ASSASIN as one computational SSD on one host
//! link. Deployments aggregate many such devices behind a shared root
//! complex, and the interesting system effects — scaling, skew,
//! degraded reads, rebuild storms — only appear at array scale. This
//! crate builds that layer on top of `assasin-ssd` without touching the
//! device model:
//!
//! * [`SsdArray`] owns N fresh devices.
//! * [`ArrayPlacement`] is the host-side placement/erasure policy:
//!   striping, weighted (skewed) striping, K-way replication, and
//!   RAID4/RAID6 parity promoted from the device-local kernels
//!   (`assasin-kernels::raid`) to cross-device erasure with
//!   degraded-read and rebuild paths (see [`recover`]).
//! * A shared [`HostLink`](assasin_sim::HostLink) charges every
//!   host-bound byte through one root complex, so concurrent devices
//!   contend the way the paper-scale evaluation never shows.
//!
//! # Determinism contract
//!
//! The array owns its devices and advances them one batch of device
//! commands at a time; each batch is a host-visible sync point. With
//! [`ArrayExec::Threaded`] the batch's devices run on
//! `assasin_parallel::par_map`, one device's commands in issue order on
//! one thread; with [`ArrayExec::Serial`] the same map runs under a cap
//! of one thread. Every device command starts from a quiesced device
//! (t = 0) and reports its own elapsed time; all cross-device
//! bookkeeping happens on the host afterwards: per-device clocks
//! accumulate elapsed times in issue order, completions are merged in
//! `(completion_time, device_id, seq)` order, and the shared root is
//! charged FIFO in merged order. Nothing observable depends on thread
//! scheduling, so a threaded 8-device run is byte-identical to the
//! serial run — enforced by a property test, not by hope.

mod array;
mod config;
mod engine;
mod error;
mod placement;
pub mod recover;

pub use array::{
    ArrayRead, ArrayScomp, ArrayStats, DeviceLane, DeviceStats, LinkReport, RebuildReport,
    SsdArray, StoreReport,
};
pub use config::{ArrayConfig, ArrayExec};
pub use error::ArrayError;
pub use placement::{ArrayPlacement, ChunkLoc, StoredObject, StripeLoc};
