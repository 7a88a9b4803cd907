//! The Statistics kernel (Figure 13's `Stat`): summing a column.
//!
//! Table II classifies statistics functions as streaming tuples with
//! accumulator state. Here the column is stored flat in binary (the
//! paper's "8 GiB data array serialized in binary flatly"), and the kernel
//! folds every 32-bit value into an accumulator. It is the least
//! compute-intense of the standalone functions — the one the memory wall
//! hits hardest.

use crate::{AccessStyle, KernelIo};
use assasin_isa::{Assembler, Program, Reg};

/// Bytes consumed per loop iteration (4 column values).
pub const TUPLE_BYTES: u32 = 16;

/// Builds the stat program. The running sum lives in `t4` (readable after
/// halt).
pub fn program(style: AccessStyle) -> Program {
    let io = KernelIo::new(style, 1, TUPLE_BYTES);
    let mut asm = Assembler::with_name(format!("stat-{style:?}"));
    let ctx = io.begin(&mut asm);
    for i in 0..4 {
        io.load(&mut asm, Reg::T0, 0, i * 4, 4, false);
        asm.add(Reg::T4, Reg::T4, Reg::T0);
    }
    io.end_iter(&mut asm, &ctx);
    io.end(&mut asm, ctx);
    asm.finish().expect("stat kernel assembles")
}

/// Golden model: wrapping sum of all little-endian u32 values.
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

    fn column(n_values: usize) -> Vec<u8> {
        (0..n_values as u32)
            .flat_map(|i| (i.wrapping_mul(0x9E37_79B9)).to_le_bytes())
            .collect()
    }

    #[test]
    fn all_styles_match_golden() {
        let input = column(2048);
        let expect = golden(&input);
        for style in AccessStyle::ALL {
            let (core, out) =
                run_kernel(style, program(style), &[&input], TUPLE_BYTES as usize, &[]);
            assert_eq!(core.reg(Reg::T4), expect, "style {style:?}");
            assert!(out.is_empty());
        }
    }

    #[test]
    fn compute_rate_exceeds_one_gbps_when_fed() {
        // With instant data, stat runs faster than 1 GB/s/core at 1 GHz —
        // that is why DRAM (8 GB/s shared by 8 cores x 2 trips) becomes the
        // bottleneck on the Baseline architecture (Section VI-B).
        let input = column(32 * 1024);
        let (core, _) = run_kernel(
            AccessStyle::Stream,
            program(AccessStyle::Stream),
            &[&input],
            TUPLE_BYTES as usize,
            &[],
        );
        let cpb = core.cycles() as f64 / input.len() as f64;
        assert!(cpb < 1.0, "stat must beat 1 cycle/byte, got {cpb:.3}");
    }
}
