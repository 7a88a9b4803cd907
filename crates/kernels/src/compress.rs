//! Decompression kernel (Table II: "Decompress — data and dictionary
//! indexes", with "an explicit upper bound on the history size").
//!
//! The format is a byte-oriented LZ with a [`WINDOW`]-byte sliding history
//! kept in the scratchpad (the bounded dictionary of Section IV):
//!
//! * token `0x00..=0x7F`: a literal run of `token + 1` bytes follows;
//! * token `0x80..=0xFF`: a match of `(token - 0x80) + 3` bytes at a
//!   2-byte little-endian distance that follows (1 ≤ distance ≤ WINDOW).
//!
//! [`compress`] is the pure-Rust reference compressor (greedy matching);
//! the kernel decompresses. Because tokens are *variable length*, the
//! kernel is generated for [`AccessStyle::Stream`] (StreamLoad's head-only
//! semantics consume tokens across page boundaries transparently) and
//! [`AccessStyle::Mem`] (the whole input is addressable). It is **not**
//! available for [`AccessStyle::PingPong`]: ping-pong staging splits the
//! input on fixed object boundaries, which a variable-length token stream
//! does not have — a real limitation of staging-buffer architectures that
//! the stream ISA removes.

use crate::{AccessStyle, KernelIo};
use assasin_isa::{Assembler, Program, Reg};

/// Sliding-window (dictionary) size in bytes; must be a power of two.
pub const WINDOW: usize = 2048;
/// Scratchpad offset of the history ring.
pub const HIST_BASE: i64 = 0x100;
/// Shortest encodable match.
pub const MIN_MATCH: usize = 3;
/// Longest encodable match.
pub const MAX_MATCH: usize = MIN_MATCH + 0x7F;

/// Builds the decompression kernel.
///
/// # Panics
///
/// Panics for [`AccessStyle::PingPong`] (see module docs).
pub fn decompress_program(style: AccessStyle) -> Program {
    assert!(
        style != AccessStyle::PingPong,
        "variable-length token streams cannot be split on ping-pong object boundaries"
    );
    let io = KernelIo::new(style, 1, 1);
    let mut asm = Assembler::with_name(format!("decompress-{style:?}"));
    // S10 = 0x80 (token class boundary), S11 = window mask, A6 = history
    // base, T2 = write cursor in the ring.
    asm.li(Reg::S10, 0x80);
    asm.li(Reg::S11, (WINDOW - 1) as i64);
    asm.li(Reg::A6, HIST_BASE);
    asm.li(Reg::T2, 0);
    let ctx = io.begin(&mut asm);
    let match_tok = asm.label();
    let lit_loop = asm.label();
    let m_loop = asm.label();

    // Token byte. (For Mem style `begin` already bounds-checks at the top,
    // and inner bytes of a well-formed token never cross the end.)
    io.load(&mut asm, Reg::T0, 0, 0, 1, false);
    io.end_iter_advance_only(&mut asm);
    asm.bgeu(Reg::T0, Reg::S10, match_tok);

    // Literal run of T0+1 bytes.
    asm.addi(Reg::T0, Reg::T0, 1);
    asm.bind(lit_loop);
    io.load(&mut asm, Reg::T1, 0, 0, 1, false);
    io.end_iter_advance_only(&mut asm);
    io.emit(&mut asm, Reg::T1, 1);
    asm.add(Reg::T4, Reg::A6, Reg::T2); // hist[wpos] = byte
    asm.sb(Reg::T1, Reg::T4, 0);
    asm.addi(Reg::T2, Reg::T2, 1);
    asm.and(Reg::T2, Reg::T2, Reg::S11);
    asm.addi(Reg::T0, Reg::T0, -1);
    asm.bnez(Reg::T0, lit_loop);
    io.loop_back(&mut asm, &ctx);

    // Match: length = (tok - 0x80) + MIN_MATCH at 16-bit distance.
    asm.bind(match_tok);
    asm.sub(Reg::T0, Reg::T0, Reg::S10);
    asm.addi(Reg::T0, Reg::T0, MIN_MATCH as i64);
    io.load(&mut asm, Reg::T5, 0, 0, 1, false); // distance low byte
    io.end_iter_advance_only(&mut asm);
    io.load(&mut asm, Reg::T3, 0, 0, 1, false); // distance high byte
    io.end_iter_advance_only(&mut asm);
    asm.slli(Reg::T3, Reg::T3, 8);
    asm.or(Reg::T5, Reg::T5, Reg::T3);
    // rpos = (wpos - distance) & mask
    asm.sub(Reg::T3, Reg::T2, Reg::T5);
    asm.and(Reg::T3, Reg::T3, Reg::S11);
    asm.bind(m_loop);
    asm.add(Reg::T4, Reg::A6, Reg::T3); // byte = hist[rpos]
    asm.lbu(Reg::T1, Reg::T4, 0);
    asm.addi(Reg::T3, Reg::T3, 1);
    asm.and(Reg::T3, Reg::T3, Reg::S11);
    io.emit(&mut asm, Reg::T1, 1);
    asm.add(Reg::T4, Reg::A6, Reg::T2); // hist[wpos] = byte
    asm.sb(Reg::T1, Reg::T4, 0);
    asm.addi(Reg::T2, Reg::T2, 1);
    asm.and(Reg::T2, Reg::T2, Reg::S11);
    asm.addi(Reg::T0, Reg::T0, -1);
    asm.bnez(Reg::T0, m_loop);
    io.loop_back(&mut asm, &ctx);

    io.end(&mut asm, ctx);
    asm.finish().expect("decompress kernel assembles")
}

/// Reference compressor: greedy longest-match within the window.
pub fn compress(data: &[u8]) -> Vec<u8> {
    let mut out = Vec::new();
    let mut pos = 0usize;
    let mut literals: Vec<u8> = Vec::new();
    let flush = |literals: &mut Vec<u8>, out: &mut Vec<u8>| {
        for chunk in literals.chunks(128) {
            out.push((chunk.len() - 1) as u8);
            out.extend_from_slice(chunk);
        }
        literals.clear();
    };
    while pos < data.len() {
        // Longest match search within the window, brute force (reference
        // code, run on the host — clarity over speed).
        let start = pos.saturating_sub(WINDOW);
        let mut best_len = 0usize;
        let mut best_dist = 0usize;
        for cand in start..pos {
            let mut len = 0;
            while len < MAX_MATCH && pos + len < data.len() && data[cand + len] == data[pos + len] {
                len += 1;
            }
            if len >= best_len {
                best_len = len;
                best_dist = pos - cand;
            }
        }
        if best_len >= MIN_MATCH {
            flush(&mut literals, &mut out);
            out.push(0x80 + (best_len - MIN_MATCH) as u8);
            out.push((best_dist & 0xFF) as u8);
            out.push((best_dist >> 8) as u8);
            pos += best_len;
        } else {
            literals.push(data[pos]);
            pos += 1;
        }
    }
    flush(&mut literals, &mut out);
    out
}

/// Reference decompressor (the golden model for the kernel).
pub fn decompress_golden(compressed: &[u8]) -> Vec<u8> {
    let mut out = Vec::new();
    let mut i = 0usize;
    while i < compressed.len() {
        let tok = compressed[i];
        i += 1;
        if tok < 0x80 {
            let n = tok as usize + 1;
            out.extend_from_slice(&compressed[i..i + n]);
            i += n;
        } else {
            let len = (tok - 0x80) as usize + MIN_MATCH;
            let dist = compressed[i] as usize | (compressed[i + 1] as usize) << 8;
            i += 2;
            let from = out.len() - dist;
            for k in 0..len {
                let b = out[from + k];
                out.push(b);
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::{run_mem, run_stream};

    fn sample(n: usize) -> Vec<u8> {
        // Compressible: repeated phrases with some noise.
        let phrase = b"the quick brown fox jumps over the lazy dog; ";
        let mut v = Vec::with_capacity(n);
        let mut x = 12345u32;
        while v.len() < n {
            v.extend_from_slice(phrase);
            x = x.wrapping_mul(1664525).wrapping_add(1013904223);
            v.push((x >> 24) as u8);
        }
        v.truncate(n);
        v
    }

    #[test]
    fn reference_roundtrip() {
        let data = sample(10_000);
        let packed = compress(&data);
        assert!(packed.len() < data.len() / 2, "compressible input");
        assert_eq!(decompress_golden(&packed), data);
    }

    #[test]
    fn kernel_matches_golden_stream_and_mem() {
        let data = sample(4096);
        let packed = compress(&data);
        let (_, out) = run_stream(decompress_program(AccessStyle::Stream), &[&packed], &[]);
        assert_eq!(out, data, "stream style");
        let (_, out) = run_mem(decompress_program(AccessStyle::Mem), &[&packed], &[]);
        assert_eq!(out, data, "mem style");
    }

    #[test]
    fn incompressible_data_roundtrips() {
        let data: Vec<u8> = (0..2048u32)
            .map(|i| (i.wrapping_mul(2654435761) >> 13) as u8)
            .collect();
        let packed = compress(&data);
        let (_, out) = run_stream(decompress_program(AccessStyle::Stream), &[&packed], &[]);
        assert_eq!(out, data);
    }

    #[test]
    #[should_panic(expected = "ping-pong")]
    fn pingpong_style_is_rejected() {
        let _ = decompress_program(AccessStyle::PingPong);
    }

    #[test]
    fn matches_at_window_edge() {
        // A long run forces maximum-distance matches.
        let mut data = vec![0xAAu8; WINDOW];
        data.extend_from_slice(&vec![0xAA; 512]);
        data.extend_from_slice(b"tail");
        let packed = compress(&data);
        assert_eq!(decompress_golden(&packed), data);
        let (_, out) = run_stream(decompress_program(AccessStyle::Stream), &[&packed], &[]);
        assert_eq!(out, data);
    }
}
