//! The dummy scan kernel of Sections VI-D/VI-E.
//!
//! "A dummy workload where each ASSASIN core scans each byte of input":
//! the kernel reads every input word and folds it into a running checksum
//! kept in a register (no output stream). The loop is shaped so a 1 GHz
//! core consumes input at roughly 1 GB/s when data is always available —
//! the calibration point of Figure 16.

use crate::{AccessStyle, KernelIo};
use assasin_isa::{Assembler, Program, Reg};

/// Bytes consumed per loop iteration.
pub const TUPLE_BYTES: u32 = 8;

/// Builds the scan program for an access style. The checksum accumulates
/// in `t2` (readable after halt).
pub fn program(style: AccessStyle) -> Program {
    let io = KernelIo::new(style, 1, TUPLE_BYTES);
    let mut asm = Assembler::with_name(format!("scan-{style:?}"));
    let ctx = io.begin(&mut asm);
    io.load(&mut asm, Reg::T0, 0, 0, 4, false);
    io.load(&mut asm, Reg::T1, 0, 4, 4, false);
    asm.add(Reg::T2, Reg::T2, Reg::T0);
    asm.add(Reg::T2, Reg::T2, Reg::T1);
    io.end_iter(&mut asm, &ctx);
    io.end(&mut asm, ctx);
    asm.finish().expect("scan kernel assembles")
}

/// Builds a compute-heavier scan (~0.5 GB/s/core at 1 GHz): the same byte
/// coverage but with a mixing function per word. Used by the Section VI-E
/// skew experiment, where compute must be the bottleneck in the balanced
/// case for the crossbar's compute pooling to be observable.
pub fn heavy_program(style: AccessStyle) -> Program {
    let io = KernelIo::new(style, 1, TUPLE_BYTES);
    let mut asm = Assembler::with_name(format!("scan-heavy-{style:?}"));
    let ctx = io.begin(&mut asm);
    io.load(&mut asm, Reg::T0, 0, 0, 4, false);
    io.load(&mut asm, Reg::T1, 0, 4, 4, false);
    // xorshift-style mixing: ~14 ALU ops per 8 bytes.
    for &r in &[Reg::T0, Reg::T1] {
        asm.slli(Reg::T3, r, 13);
        asm.xor(Reg::T4, r, Reg::T3);
        asm.srli(Reg::T3, Reg::T4, 17);
        asm.xor(Reg::T4, Reg::T4, Reg::T3);
        asm.slli(Reg::T3, Reg::T4, 5);
        asm.xor(Reg::T4, Reg::T4, Reg::T3);
        asm.add(Reg::T2, Reg::T2, Reg::T4);
    }
    io.end_iter(&mut asm, &ctx);
    io.end(&mut asm, ctx);
    asm.finish().expect("heavy scan kernel assembles")
}

/// Golden model for [`heavy_program`]: the mixed checksum in `t2`.
pub fn heavy_golden(data: &[u8]) -> u32 {
    assert_eq!(data.len() % TUPLE_BYTES as usize, 0, "input must be padded");
    data.chunks_exact(4)
        .map(|w| {
            let mut v = u32::from_le_bytes(w.try_into().expect("4-byte chunk"));
            v ^= v << 13;
            v ^= v >> 17;
            v ^= v << 5;
            v
        })
        .fold(0u32, |a, b| a.wrapping_add(b))
}

/// Golden model: the checksum the kernel computes over `data` (length must
/// be a multiple of [`TUPLE_BYTES`]).
pub fn golden(data: &[u8]) -> u32 {
    assert_eq!(data.len() % TUPLE_BYTES as usize, 0, "input must be padded");
    data.chunks_exact(4)
        .map(|w| u32::from_le_bytes(w.try_into().expect("4-byte chunk")))
        .fold(0u32, |a, b| a.wrapping_add(b))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::run_kernel;
    use assasin_isa::Reg;

    fn data(n: usize) -> Vec<u8> {
        (0..n).map(|i| (i * 37 % 251) as u8).collect()
    }

    #[test]
    fn all_styles_match_golden() {
        let input = data(4096);
        let expect = golden(&input);
        for style in AccessStyle::ALL {
            let (core, out) =
                run_kernel(style, program(style), &[&input], TUPLE_BYTES as usize, &[]);
            assert_eq!(core.reg(Reg::T2), expect, "style {style:?}");
            assert!(out.is_empty(), "scan produces no output");
        }
    }

    #[test]
    fn stream_style_is_near_one_byte_per_cycle() {
        let input = data(64 * 1024);
        let (core, _) = run_kernel(
            AccessStyle::Stream,
            program(AccessStyle::Stream),
            &[&input],
            TUPLE_BYTES as usize,
            &[],
        );
        let cpb = core.cycles() as f64 / input.len() as f64;
        assert!(
            (0.7..=1.2).contains(&cpb),
            "scan should run near 1 cycle/byte, got {cpb:.3}"
        );
    }

    #[test]
    fn heavy_scan_matches_golden_and_is_slower() {
        let input = data(8192);
        let expect = heavy_golden(&input);
        for style in AccessStyle::ALL {
            let (core, _) = run_kernel(
                style,
                heavy_program(style),
                &[&input],
                TUPLE_BYTES as usize,
                &[],
            );
            assert_eq!(core.reg(Reg::T2), expect, "style {style:?}");
        }
        let (light, _) = run_kernel(
            AccessStyle::Stream,
            program(AccessStyle::Stream),
            &[&input],
            8,
            &[],
        );
        let (heavy, _) = run_kernel(
            AccessStyle::Stream,
            heavy_program(AccessStyle::Stream),
            &[&input],
            8,
            &[],
        );
        assert!(
            heavy.cycles() > 15 * input.len() as u64 / 8,
            "heavy is ~2 c/B"
        );
        assert!(heavy.cycles() > light.cycles());
    }

    #[test]
    fn stream_isa_beats_pointer_walks() {
        let input = data(16 * 1024);
        let (sb, _) = run_kernel(
            AccessStyle::Stream,
            program(AccessStyle::Stream),
            &[&input],
            TUPLE_BYTES as usize,
            &[],
        );
        let (pp, _) = run_kernel(
            AccessStyle::PingPong,
            program(AccessStyle::PingPong),
            &[&input],
            TUPLE_BYTES as usize,
            &[],
        );
        assert!(
            sb.cycles() < pp.cycles(),
            "stream ISA eliminates pointer management: {} vs {}",
            sb.cycles(),
            pp.cycles()
        );
    }
}
