//! Memory-hierarchy models for the ASSASIN core variants.
//!
//! This crate provides every memory structure of Table IV and Figure 8:
//!
//! * [`Dram`] — the SSD's LPDDR5 DRAM: a latency plus a *shared* bandwidth
//!   resource. Contention on this resource is the in-SSD memory wall of
//!   Section III.
//! * [`Cache`] / [`MemHierarchy`] — set-associative write-back L1/L2 with
//!   LRU replacement, the Baseline/Prefetch cores' data path.
//! * [`DcptPrefetcher`] — a Delta-Correlating Prediction Table prefetcher
//!   (the best-performing Gem5 prefetcher per Section VI-A).
//! * [`Scratchpad`] — single-cycle (configurable) random-access function
//!   state memory.
//! * [`StreamBuffer`] — the ASSASIN streambuffer: `S` streams, each a
//!   circular buffer of `P` flash pages with Head/Tail CSRs (Figure 8),
//!   plus output-side drain management.
//! * [`word`] — the fixed-width little-endian word access all of them
//!   share.
//! * [`sram`] — an analytical SRAM timing/energy/area model standing in for
//!   Cacti (Figures 20 and Table V).
//!
//! ```
//! use assasin_mem::{StreamBuffer, StreamBufferConfig, ReadOutcome};
//! use assasin_sim::SimTime;
//! use bytes::Bytes;
//!
//! let mut sb = StreamBuffer::new(StreamBufferConfig { streams: 2, pages_per_stream: 2, page_bytes: 8 });
//! sb.push_page(0, Bytes::from_static(&[1, 2, 3, 4, 5, 6, 7, 8]), SimTime::ZERO)?;
//! match sb.read(0, 4, SimTime::ZERO)? {
//!     ReadOutcome::Data { value, .. } => assert_eq!(value, u64::from_le_bytes([1,2,3,4,0,0,0,0])),
//!     other => panic!("unexpected {other:?}"),
//! }
//! # Ok::<(), assasin_mem::MemError>(())
//! ```

mod cache;
mod dram;
mod error;
mod hierarchy;
mod prefetch;
mod scratchpad;
pub mod sram;
mod streambuffer;
pub mod word;

pub use cache::{Cache, CacheGeometry};
pub use dram::Dram;
pub use error::MemError;
pub use hierarchy::{AccessKind, MemHierarchy, ServedBy};
pub use prefetch::DcptPrefetcher;
pub use scratchpad::Scratchpad;
pub use streambuffer::{ReadOutcome, StreamBuffer, StreamBufferConfig, WriteOutcome};
