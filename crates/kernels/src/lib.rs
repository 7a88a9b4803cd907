//! Computational-storage kernels written in the ASSASIN ISA.
//!
//! Section IV's workload study shows that computational-storage functions
//! share one shape: *streaming* access to storage data plus *random* access
//! to bounded function state (Table II). Every kernel here follows that
//! shape, and every kernel is generated in the three access styles of the
//! Table IV architectures via [`KernelIo`]:
//!
//! * [`AccessStyle::Stream`] — the ASSASIN stream ISA (`StreamLoad` /
//!   `StreamStore`), used by AssasinSb and AssasinSb$;
//! * [`AccessStyle::PingPong`] — explicit pointer walks over ping-pong
//!   staging scratchpads (AssasinSp);
//! * [`AccessStyle::Mem`] — explicit pointer walks over DRAM-staged data
//!   through the cache hierarchy (Baseline and Prefetch).
//!
//! The *same* kernel logic is emitted for each style, so configuration
//! comparisons measure the memory architecture, not the program. Each
//! kernel module also provides a pure-Rust golden model; tests run the
//! generated programs on the cycle-level core and demand bit-exact output.
//!
//! Kernels (Section VI-B/VI-C):
//!
//! | module | function | Table II states |
//! |---|---|---|
//! | [`scan`] | dummy byte scan (Figures 16–19) | none |
//! | [`stat`] | column sum | accumulators |
//! | [`raid`] | RAID4 / RAID6 erasure coding | GF(256) tables |
//! | [`aes`] | AES-128 encryption | T-tables + key schedule |
//! | [`query`] | Filter / Select / Parse / PSF pipeline | flags, state machines |
//! | [`compress`] | LZ decompression | sliding-window dictionary |
//! | [`dedup`] | block deduplication | fingerprint hash table |
//! | [`replicate`] | replica creation (write path) | none |
//! | [`nn`] | MLP inference | stationary weights |
//! | [`nn_train`] | streaming SGD training | stationary weights |
//! | [`graph`] | edge-list degree analysis | vertex statistics |

pub mod aes;
pub mod compress;
pub mod dedup;
pub mod gf256;
pub mod graph;
pub mod nn;
pub mod nn_train;
pub mod query;
pub mod raid;
pub mod replicate;
pub mod scan;
pub mod stat;
mod style;

#[cfg(test)]
mod slicing;
#[cfg(test)]
pub(crate) mod testutil;

pub use assasin_isa::{AccessStyle, LaunchInfo};
pub use style::KernelIo;
