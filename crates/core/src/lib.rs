//! The ASSASIN core: a cycle-level in-order scalar core model.
//!
//! This crate replaces Gem5 in the paper's methodology. A [`Core`] executes
//! [`assasin_isa`] programs *functionally* (real register values, real
//! bytes) while charging cycle-accurate-in-structure timing:
//!
//! * one instruction per cycle base rate (in-order scalar, ibex-class);
//! * multi-cycle multiply/divide and taken-branch penalties;
//! * blocking loads from the function-state scratchpad and from the one
//!   [`DataPath`] the engine reaches storage data through — a DRAM window
//!   behind the cache hierarchy ([`assasin_mem::MemHierarchy`]),
//!   ping-pong staging buffers, or the streambuffer;
//! * stall cycles attributed by cause, producing the Figure 5 cycle
//!   decomposition.
//!
//! The six Table IV configurations are constructed by [`CoreConfig`]:
//! `Baseline`, `Prefetch`, `AssasinSp`, `AssasinSb`, `AssasinSb$` and the
//! analytical [`UdpLane`] comparator.
//!
//! A core does not know where stream data comes from: the embedding SSD
//! (or a test harness) implements [`StreamEnv`] to refill input streams,
//! drain output pages, supply ping-pong banks, and lend the device DRAM
//! behind the cache hierarchy — mirroring the paper's
//! firmware/core split (Figure 10), where ASSASIN cores "only process
//! streams, without the need of knowing any flash array data layout".

mod config;
mod cpu;
mod env;
mod regions;
mod udp;

pub use config::{CoreConfig, EngineKind};
pub use cpu::{Core, CoreState, DataPath, InstrMix, RunOutcome};
pub use env::{NullEnv, StreamEnv, SyntheticEnv};
pub use regions::{bank_chunk, DramWindow, PingPong};
pub use udp::{KernelProfile, UdpLane};
