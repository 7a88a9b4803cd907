//! The ASSASIN instruction set.
//!
//! ASSASIN cores execute an RV32IM-like scalar base ISA extended with the
//! stream-access instructions of Table III (Section V-B):
//!
//! * [`Instr::StreamLoad`] — pop `width` bytes from the head of an input
//!   stream into a register, advancing the Head CSR automatically; blocks
//!   (never overflows/underflows) until data arrives, and *hangs* when the
//!   stream is exhausted — the paper's loop-exit convention (Listing 1).
//! * [`Instr::StreamStore`] — append `width` bytes to an output stream,
//!   advancing its Tail.
//! * [`Instr::StreamAvail`] / [`Instr::StreamEos`] — non-blocking occupancy
//!   and end-of-stream queries.
//! * [`Instr::BufSwap`] — the AssasinSp variant's ping-pong buffer swap
//!   (waits until the firmware has filled/drained the other bank).
//! * [`Instr::CsrR`] — read streambuffer Head/Tail CSRs or the cycle
//!   counter.
//!
//! Programs are built with the [`Assembler`], which resolves labels and
//! enforces RV32-style immediate ranges:
//!
//! ```
//! use assasin_isa::{Assembler, Reg};
//!
//! let mut asm = Assembler::new();
//! let loop_top = asm.label();
//! // sum bytes from stream 0 until it is exhausted, then the core halts.
//! asm.bind(loop_top);
//! asm.stream_load(Reg::A0, 0, 1);
//! asm.add(Reg::A1, Reg::A1, Reg::A0);
//! asm.j(loop_top);
//! let program = asm.finish()?;
//! assert_eq!(program.len(), 3);
//! # Ok::<(), assasin_isa::AsmError>(())
//! ```

mod asm;
mod encode;
mod error;
mod instr;
mod program;
mod reg;
mod style;
mod text;

pub use asm::{Assembler, Label};
pub use encode::{decode, encode};
pub use error::{AsmError, DecodeError};
pub use instr::{csr, layout, AluOp, BranchCond, Instr};
pub use program::Program;
pub use reg::Reg;
pub use style::{AccessStyle, LaunchInfo};
pub use text::{parse_program, TextError};
