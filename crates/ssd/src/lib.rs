//! The computational SSD assembly (Figures 2, 4, 6).
//!
//! [`Ssd`] wires every substrate together: the flash array behind
//! per-channel controllers, the FTL, the shared LPDDR5 DRAM, the PCIe host
//! link, the core↔channel crossbar, and the firmware logic that turns an
//! NVMe-style `scomp` request (`(compute, pData, List[List[LPA]])`,
//! Section V-D) into streams feeding the compute engines.
//!
//! One `Ssd` instance models one of the six Table IV architectures,
//! selected by [`SsdConfig::engine`]:
//!
//! * **Baseline/Prefetch** — flash pages are staged into SSD DRAM, cores
//!   read them back through their caches: every input byte crosses the
//!   DRAM bus twice (the Section III memory wall).
//! * **AssasinSp/AssasinSb/AssasinSb$** — pages flow through the crossbar
//!   directly into staging scratchpads or streambuffers; only results
//!   touch DRAM.
//! * **UDP** — lanes compute from DRAM-copied scratchpads, modeled
//!   analytically from the kernel's measured instruction mix.
//!
//! ```no_run
//! use assasin_ssd::{KernelBundle, ScompRequest, Ssd, SsdConfig};
//! use assasin_core::EngineKind;
//! use assasin_kernels::{scan, AccessStyle};
//!
//! let mut ssd = Ssd::new(SsdConfig::engine_config(EngineKind::AssasinSb));
//! let data = vec![0u8; 1 << 20];
//! let lpas = ssd.load_object(0, &data)?;
//! let req = ScompRequest::new(
//!     KernelBundle::new("scan", scan::TUPLE_BYTES, 0.0, |style| scan::program(style)),
//!     vec![lpas],
//! );
//! let result = ssd.scomp(&req)?;
//! println!("throughput {:.2} GB/s", result.throughput_gbps());
//! # Ok::<(), assasin_ssd::SsdError>(())
//! ```

mod backend;
mod config;
#[cfg(test)]
mod cosim_equivalence;
mod error;
mod request;
mod ssd;

pub use config::{SsdConfig, EPOCH, MEDIA_BACKOFF, PCIE_BW, PCIE_LATENCY};
pub use error::SsdError;
pub use request::{CoreReport, KernelBundle, OutputTarget, ScompRequest, ScompResult};
pub use ssd::{PlainIoResult, Ssd, SsdImage};
