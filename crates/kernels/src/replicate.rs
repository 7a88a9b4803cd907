//! Replication kernel (Table II: "Replicate — data & replicates, flags").
//!
//! A write-path function: each object streams in once and streams out
//! [`COPIES`] times. Paired with write-path `scomp` (results written back
//! to flash LPAs), this is in-SSD replica creation without any host or
//! DRAM traffic.

use crate::{AccessStyle, KernelIo};
use assasin_isa::{Assembler, Program, Reg};

/// Replicas produced per input object.
pub const COPIES: usize = 2;
/// Bytes per replicated unit.
pub const TUPLE_BYTES: u32 = 16;

/// Builds the replicate kernel.
pub fn program(style: AccessStyle) -> Program {
    let io = KernelIo::new(style, 1, TUPLE_BYTES);
    let mut asm = Assembler::with_name(format!("replicate-{style:?}"));
    let ctx = io.begin(&mut asm);
    let regs = [Reg::T0, Reg::T1, Reg::T2, Reg::T3];
    for (w, &r) in regs.iter().enumerate() {
        io.load(&mut asm, r, 0, (w * 4) as i64, 4, false);
    }
    for _ in 0..COPIES {
        for &r in &regs {
            io.emit(&mut asm, r, 4);
        }
    }
    io.end_iter(&mut asm, &ctx);
    io.end(&mut asm, ctx);
    asm.finish().expect("replicate kernel assembles")
}

/// Golden model.
///
/// # Panics
///
/// Panics unless `data` is tuple-aligned.
pub fn golden(data: &[u8]) -> Vec<u8> {
    assert_eq!(data.len() % TUPLE_BYTES as usize, 0, "tuple-aligned input");
    let mut out = Vec::with_capacity(data.len() * COPIES);
    for tuple in data.chunks_exact(TUPLE_BYTES as usize) {
        for _ in 0..COPIES {
            out.extend_from_slice(tuple);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::run_kernel;

    #[test]
    fn all_styles_match_golden() {
        let data: Vec<u8> = (0..2048).map(|i| (i % 253) as u8).collect();
        let expect = golden(&data);
        assert_eq!(expect.len(), data.len() * COPIES);
        for style in AccessStyle::ALL {
            let (_, out) = run_kernel(style, program(style), &[&data], TUPLE_BYTES as usize, &[]);
            assert_eq!(out, expect, "style {style:?}");
        }
    }

    #[test]
    fn copies_are_adjacent() {
        let data: Vec<u8> = (0..TUPLE_BYTES).map(|i| i as u8).collect();
        let out = golden(&data);
        assert_eq!(&out[..16], &out[16..32]);
    }
}
