//! How a kernel reaches storage data, and the launch registers of the
//! DRAM-staged style.

use crate::Reg;

/// How a kernel reaches storage data (Table IV).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AccessStyle {
    /// Stream ISA extension (AssasinSb, AssasinSb$).
    Stream,
    /// Ping-pong staging scratchpads (AssasinSp).
    PingPong,
    /// DRAM-staged data through the cache hierarchy (Baseline, Prefetch).
    Mem,
}

impl AccessStyle {
    /// All three styles.
    pub const ALL: [AccessStyle; 3] =
        [AccessStyle::Stream, AccessStyle::PingPong, AccessStyle::Mem];
}

/// The launch-register convention for [`AccessStyle::Mem`] kernels, which
/// the firmware fills before starting the core. Offsets are relative to
/// [`layout::DRAM_BASE`](crate::layout::DRAM_BASE).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LaunchInfo {
    /// Bytes per input stream (written to `a0`).
    pub in_len: u32,
    /// Byte stride between consecutive stream bases in the DRAM window
    /// (written to `a1`; ignored for single-stream kernels).
    pub in_stride: u32,
    /// Output area offset within the DRAM window (written to `a2`).
    pub out_offset: u32,
}

impl LaunchInfo {
    /// The register a Mem kernel leaves its output cursor in at halt: its
    /// output is the bytes from the output area's base up to the cursor.
    pub const OUT_CURSOR: Reg = Reg::S5;

    /// Registers carrying the launch values, in order: `(a0, a1, a2)`.
    pub fn regs() -> (Reg, Reg, Reg) {
        (Reg::A0, Reg::A1, Reg::A2)
    }
}
