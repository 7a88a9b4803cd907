//! NAND flash array model — functional *and* timed.
//!
//! This crate replaces MQSim in the paper's methodology (Section VI-A,
//! Figure 11). It models the SSD back-end of Section II: multiple flash
//! channels, each with several independently-operating chips sharing one
//! ONFI-style bus, with page-granularity read/program and block-granularity
//! erase (Figure 3).
//!
//! The model is *functional*: pages store real bytes, so the kernels that
//! run above it (AES, RAID, filters) compute real results. It is also
//! *timed*: each chip and each channel bus is a FIFO [`Timeline`], so chip
//! interleaving, bus contention and the 1 GB/s-per-channel service rate of
//! the paper's configuration all emerge structurally.
//!
//! ```
//! use assasin_flash::{FlashArray, FlashGeometry, FlashTiming, PhysPageAddr};
//! use assasin_sim::SimTime;
//! use bytes::Bytes;
//!
//! let geom = FlashGeometry::small_for_tests();
//! let mut array = FlashArray::new(geom, FlashTiming::default());
//! let addr = PhysPageAddr { channel: 0, chip: 0, plane: 0, block: 0, page: 0 };
//! let page = Bytes::from(vec![7u8; geom.page_bytes as usize]);
//! array.write_page(addr, page.clone(), SimTime::ZERO)?;
//! let (data, arrival) = array.read_page(addr, SimTime::ZERO)?;
//! assert_eq!(data, page);
//! assert!(arrival > SimTime::ZERO);
//! # Ok::<(), assasin_flash::FlashError>(())
//! ```
//!
//! [`Timeline`]: assasin_sim::Timeline

mod array;
mod chip;
mod error;
mod fault;
mod geometry;
mod timing;

pub use array::{ChannelStats, FlashArray};
pub use chip::FlashChip;
pub use error::FlashError;
pub use fault::{FaultConfig, ReliabilityStats};
pub use geometry::{FlashGeometry, PhysPageAddr};
pub use timing::FlashTiming;
