//! Deduplication kernel (Table II: "Deduplicate — data blocks, block
//! metadata").
//!
//! The stream is consumed in fixed [`BLOCK_BYTES`] blocks. Each block is
//! fingerprinted with word-granular FNV-1a; an open-addressing hash table
//! of seen fingerprints (the "block metadata" function state) lives in the
//! scratchpad. Output per block:
//!
//! * `0x01` for a duplicate (data suppressed — the data-reduction win), or
//! * `0x00` followed by the full block for first occurrences.
//!
//! As in production inline dedup, distinct blocks with colliding
//! fingerprints are treated as duplicates; the golden model uses the same
//! fingerprint, so kernel and model agree bit-exactly.

use crate::{AccessStyle, KernelIo};
use assasin_isa::{Assembler, Program, Reg};

/// Deduplication block size.
pub const BLOCK_BYTES: u32 = 256;
/// Scratchpad offset of the block staging buffer.
const BLOCK_BUF: i64 = 0x80;
/// Scratchpad offset of the fingerprint table.
const TABLE_BASE: i64 = 0x1000;
/// Fingerprint table slots (power of two).
pub const TABLE_SLOTS: u32 = 4096;
/// FNV-1a offset basis.
const FNV_OFFSET: u32 = 0x811C_9DC5;
/// FNV-1a prime.
const FNV_PRIME: u32 = 0x0100_0193;

/// Computes the block fingerprint (word-granular FNV-1a, forced non-zero
/// so zero can mark empty table slots).
pub fn fingerprint(block: &[u8]) -> u32 {
    let mut h = FNV_OFFSET;
    for w in block.chunks_exact(4) {
        let v = u32::from_le_bytes(w.try_into().expect("4-byte word"));
        h = (h ^ v).wrapping_mul(FNV_PRIME);
    }
    h | 1
}

/// Builds the dedup kernel.
pub fn program(style: AccessStyle) -> Program {
    let io = KernelIo::new(style, 1, BLOCK_BYTES);
    let mut asm = Assembler::with_name(format!("dedup-{style:?}"));
    // Constants: A6 = FNV prime, A7 = table base, S10 = slot mask.
    asm.li(Reg::A6, FNV_PRIME as i64);
    asm.li(Reg::A7, TABLE_BASE);
    asm.li(Reg::S10, (TABLE_SLOTS - 1) as i64);
    let ctx = io.begin(&mut asm);

    // Pass 1: read the block into the staging buffer, hashing as we go.
    // h in T0; word in T1.
    asm.li(Reg::T0, FNV_OFFSET as i64);
    let words = (BLOCK_BYTES / 4) as i64;
    for w in 0..words {
        io.load(&mut asm, Reg::T1, 0, w * 4, 4, false);
        asm.sw(Reg::T1, Reg::ZERO, BLOCK_BUF + w * 4);
        asm.xor(Reg::T0, Reg::T0, Reg::T1);
        asm.mul(Reg::T0, Reg::T0, Reg::A6);
    }
    asm.ori(Reg::T0, Reg::T0, 1);

    // Probe the table: idx (T2) = h & mask; linear probing.
    let probe = asm.label();
    let dup = asm.label();
    let next_slot = asm.label();
    let unique = asm.label();
    asm.and(Reg::T2, Reg::T0, Reg::S10);
    asm.bind(probe);
    asm.slli(Reg::T3, Reg::T2, 2);
    asm.add(Reg::T3, Reg::A7, Reg::T3);
    asm.lw(Reg::T4, Reg::T3, 0);
    asm.beq(Reg::T4, Reg::T0, dup);
    asm.beqz(Reg::T4, unique);
    asm.bind(next_slot);
    asm.addi(Reg::T2, Reg::T2, 1);
    asm.and(Reg::T2, Reg::T2, Reg::S10);
    asm.j(probe);

    // First occurrence: record the fingerprint, emit 0x00 + block.
    asm.bind(unique);
    asm.sw(Reg::T0, Reg::T3, 0);
    asm.li(Reg::T5, 0);
    io.emit(&mut asm, Reg::T5, 1);
    for w in 0..words {
        asm.lw(Reg::T1, Reg::ZERO, BLOCK_BUF + w * 4);
        io.emit(&mut asm, Reg::T1, 4);
    }
    io.end_iter(&mut asm, &ctx);

    // Duplicate: emit the flag only.
    asm.bind(dup);
    asm.li(Reg::T5, 1);
    io.emit(&mut asm, Reg::T5, 1);
    io.end_iter(&mut asm, &ctx);

    io.end(&mut asm, ctx);
    asm.finish().expect("dedup kernel assembles")
}

/// Golden model.
///
/// # Panics
///
/// Panics unless `data` is a whole number of blocks.
pub fn golden(data: &[u8]) -> Vec<u8> {
    assert_eq!(data.len() % BLOCK_BYTES as usize, 0, "block-aligned input");
    // Mirror the kernel's bounded open-addressing table exactly.
    let mut table = vec![0u32; TABLE_SLOTS as usize];
    let mut out = Vec::new();
    for block in data.chunks_exact(BLOCK_BYTES as usize) {
        let h = fingerprint(block);
        let mut idx = (h & (TABLE_SLOTS - 1)) as usize;
        loop {
            if table[idx] == h {
                out.push(1);
                break;
            }
            if table[idx] == 0 {
                table[idx] = h;
                out.push(0);
                out.extend_from_slice(block);
                break;
            }
            idx = (idx + 1) % TABLE_SLOTS as usize;
        }
    }
    out
}

/// The data-reduction ratio achieved on `data` (input bytes per output
/// byte).
pub fn reduction_ratio(data: &[u8]) -> f64 {
    let out = golden(data);
    data.len() as f64 / out.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::run_kernel;

    fn blocks(unique: usize, repeats: usize) -> Vec<u8> {
        let mut data = Vec::new();
        for r in 0..repeats {
            for u in 0..unique {
                let fill = (u * 7 + 3) as u8;
                let mut block = vec![fill; BLOCK_BYTES as usize];
                block[0] = u as u8; // make blocks distinct
                let _ = r;
                data.extend_from_slice(&block);
            }
        }
        data
    }

    #[test]
    fn all_styles_match_golden() {
        let data = blocks(16, 4);
        let expect = golden(&data);
        for style in AccessStyle::ALL {
            let (_, out) = run_kernel(style, program(style), &[&data], BLOCK_BYTES as usize, &[]);
            assert_eq!(out, expect, "style {style:?}");
        }
    }

    #[test]
    fn duplicates_are_suppressed() {
        let data = blocks(8, 8); // 8 unique blocks repeated 8 times
        let out = golden(&data);
        // 8 unique blocks (flag + data) + 56 duplicate flags.
        assert_eq!(
            out.len(),
            8 * (1 + BLOCK_BYTES as usize) + 56,
            "output size"
        );
        assert!(reduction_ratio(&data) > 7.0);
    }

    #[test]
    fn unique_data_passes_through() {
        let data: Vec<u8> = (0..8 * BLOCK_BYTES as usize)
            .map(|i| (i.wrapping_mul(2654435761) >> 7) as u8)
            .collect();
        let out = golden(&data);
        assert_eq!(out.len(), data.len() + 8, "one flag per block");
    }

    #[test]
    fn fingerprint_is_never_zero() {
        for fill in 0..=255u8 {
            let block = vec![fill; BLOCK_BYTES as usize];
            assert_ne!(fingerprint(&block), 0);
        }
    }
}
