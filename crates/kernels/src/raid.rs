//! RAID4 and RAID6 erasure-coding kernels (Figure 13).
//!
//! Table II: erasure coding "reads in multiple streams of data blocks and
//! generates extra coded blocks", with a Galois-field table as the only
//! cross-block state. Both kernels read [`DATA_STREAMS`] input streams:
//!
//! * RAID4 emits the XOR parity `P` word-by-word;
//! * RAID6 emits interleaved `(P, Q)` byte pairs, where
//!   `Q = Σ g^i · d_i` over GF(256) via per-stream multiply tables
//!   preloaded in the scratchpad (see [`raid6_tables`]).

use crate::{gf256, AccessStyle, KernelIo};
use assasin_isa::{Assembler, Program, Reg};

/// Number of data streams coded together.
pub const DATA_STREAMS: u32 = 4;

/// Scratchpad offset of stream `i`'s GF multiply table (RAID6).
pub fn table_offset(i: u32) -> u32 {
    0x100 + i * 0x100
}

/// The scratchpad preload for RAID6: per-stream multiply-by-`g^i` tables.
/// Returns `(offset, table)` pairs.
pub fn raid6_tables() -> Vec<(u32, Vec<u8>)> {
    (0..DATA_STREAMS)
        .map(|i| {
            (
                table_offset(i),
                gf256::mul_table(gf256::gen_pow(i)).to_vec(),
            )
        })
        .collect()
}

/// Builds the RAID4 parity kernel: reads one word from each stream, emits
/// their XOR.
pub fn raid4_program(style: AccessStyle) -> Program {
    let io = KernelIo::new(style, DATA_STREAMS, 4);
    let mut asm = Assembler::with_name(format!("raid4-{style:?}"));
    let ctx = io.begin(&mut asm);
    io.load(&mut asm, Reg::T0, 0, 0, 4, false);
    for sid in 1..DATA_STREAMS {
        io.load(&mut asm, Reg::T1, sid, 0, 4, false);
        asm.xor(Reg::T0, Reg::T0, Reg::T1);
    }
    io.emit(&mut asm, Reg::T0, 4);
    io.end_iter(&mut asm, &ctx);
    io.end(&mut asm, ctx);
    asm.finish().expect("raid4 kernel assembles")
}

/// Golden RAID4: XOR parity, word-wise, over equal-length streams.
pub fn raid4_golden(streams: &[&[u8]]) -> Vec<u8> {
    let len = streams[0].len();
    assert!(streams.iter().all(|s| s.len() == len));
    let mut out = vec![0u8; len];
    for s in streams {
        for (o, b) in out.iter_mut().zip(s.iter()) {
            *o ^= b;
        }
    }
    out
}

/// Builds the RAID6 kernel: per input byte position, emits the `P` byte
/// then the `Q` byte. Requires [`raid6_tables`] preloaded in the
/// scratchpad.
pub fn raid6_program(style: AccessStyle) -> Program {
    let io = KernelIo::new(style, DATA_STREAMS, 1);
    let mut asm = Assembler::with_name(format!("raid6-{style:?}"));
    // Table base registers, set once.
    let bases = [Reg::A4, Reg::A5, Reg::A6, Reg::A7];
    for i in 0..DATA_STREAMS {
        asm.li(bases[i as usize], table_offset(i) as i64);
    }
    let ctx = io.begin(&mut asm);
    asm.li(Reg::T0, 0); // P
    asm.li(Reg::T1, 0); // Q
    for sid in 0..DATA_STREAMS {
        io.load(&mut asm, Reg::T2, sid, 0, 1, false);
        asm.xor(Reg::T0, Reg::T0, Reg::T2);
        asm.add(Reg::T3, bases[sid as usize], Reg::T2);
        asm.lbu(Reg::T3, Reg::T3, 0);
        asm.xor(Reg::T1, Reg::T1, Reg::T3);
    }
    io.emit(&mut asm, Reg::T0, 1);
    io.emit(&mut asm, Reg::T1, 1);
    io.end_iter(&mut asm, &ctx);
    io.end(&mut asm, ctx);
    asm.finish().expect("raid6 kernel assembles")
}

/// Golden RAID6: interleaved `(P, Q)` byte pairs.
pub fn raid6_golden(streams: &[&[u8]]) -> Vec<u8> {
    let len = streams[0].len();
    assert!(streams.iter().all(|s| s.len() == len));
    let coeffs: Vec<u8> = (0..streams.len() as u32).map(gf256::gen_pow).collect();
    let mut out = Vec::with_capacity(len * 2);
    for pos in 0..len {
        let mut p = 0u8;
        let mut q = 0u8;
        for (s, &c) in streams.iter().zip(&coeffs) {
            p ^= s[pos];
            q ^= gf256::mul(c, s[pos]);
        }
        out.push(p);
        out.push(q);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::run_kernel;

    fn streams(len: usize) -> Vec<Vec<u8>> {
        (0..DATA_STREAMS as usize)
            .map(|s| {
                (0..len)
                    .map(|i| ((i * 31 + s * 97 + 7) % 256) as u8)
                    .collect()
            })
            .collect()
    }

    #[test]
    fn raid4_all_styles_match_golden() {
        let data = streams(1024);
        let refs: Vec<&[u8]> = data.iter().map(|v| v.as_slice()).collect();
        let expect = raid4_golden(&refs);
        for style in AccessStyle::ALL {
            let (_, out) = run_kernel(style, raid4_program(style), &refs, 4, &[]);
            assert_eq!(out, expect, "style {style:?}");
        }
    }

    #[test]
    fn raid4_parity_reconstructs_lost_stream() {
        // The point of parity: any one lost stream is recoverable.
        let data = streams(256);
        let refs: Vec<&[u8]> = data.iter().map(|v| v.as_slice()).collect();
        let parity = raid4_golden(&refs);
        // Reconstruct stream 2 from parity + others.
        let rebuilt: Vec<u8> = (0..256)
            .map(|i| parity[i] ^ data[0][i] ^ data[1][i] ^ data[3][i])
            .collect();
        assert_eq!(rebuilt, data[2]);
    }

    #[test]
    fn raid6_all_styles_match_golden() {
        let data = streams(512);
        let refs: Vec<&[u8]> = data.iter().map(|v| v.as_slice()).collect();
        let expect = raid6_golden(&refs);
        for style in AccessStyle::ALL {
            let (core, out) = run_kernel(style, raid6_program(style), &refs, 4, &raid6_tables());
            assert_eq!(out, expect, "style {style:?}");
            assert!(core.cycles() > 0);
        }
    }

    #[test]
    fn raid6_is_more_compute_intense_than_raid4() {
        let data = streams(2048);
        let refs: Vec<&[u8]> = data.iter().map(|v| v.as_slice()).collect();
        let (c4, _) = run_kernel(
            AccessStyle::Stream,
            raid4_program(AccessStyle::Stream),
            &refs,
            4,
            &[],
        );
        let (c6, _) = run_kernel(
            AccessStyle::Stream,
            raid6_program(AccessStyle::Stream),
            &refs,
            4,
            &raid6_tables(),
        );
        assert!(
            c6.cycles() > 2 * c4.cycles(),
            "raid6 {} vs raid4 {}",
            c6.cycles(),
            c4.cycles()
        );
    }
}
