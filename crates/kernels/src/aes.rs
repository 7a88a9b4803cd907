//! AES-128 encryption kernel (Figure 13's most compute-intense function).
//!
//! Table II classifies cryptography as streaming data blocks with "keys"
//! as function state. The kernel is a classic T-table software AES: four
//! 1 KiB lookup tables plus the expanded key schedule live in the
//! scratchpad; each 16-byte block takes ten rounds of table lookups. The
//! golden model is an independent byte-wise AES (SubBytes / ShiftRows /
//! MixColumns), validated against the FIPS-197 test vector, so the T-table
//! kernel and the golden model cross-check each other.

use crate::{AccessStyle, KernelIo};
use assasin_isa::{Assembler, Program, Reg};

/// Scratchpad offset of the expanded key schedule (44 words).
pub const KEY_BASE: u32 = 0x200;
/// Scratchpad offset of the S-box (final round).
pub const SBOX_BASE: u32 = 0x800;
/// Scratchpad offset of T-table `i` (rounds 1–9).
pub fn te_base(i: u32) -> u32 {
    0x1000 + i * 0x400
}

// ----------------------------------------------------------------- tables

/// AES field doubling (polynomial 0x11B).
const fn xtime(a: u8) -> u8 {
    let r = a << 1;
    if a & 0x80 != 0 {
        r ^ 0x1B
    } else {
        r
    }
}

const fn gf_mul(a: u8, mut b: u8) -> u8 {
    let mut acc = 0;
    let mut cur = a;
    while b != 0 {
        if b & 1 != 0 {
            acc ^= cur;
        }
        cur = xtime(cur);
        b >>= 1;
    }
    acc
}

/// `a^254` by square-and-multiply: the field inverse, since `a^255 = 1`
/// for nonzero `a`, and 0 for `a = 0` as the S-box defines it.
const fn gf_inv(a: u8) -> u8 {
    let mut acc = 1u8;
    let mut base = a;
    let mut n = 254u32;
    while n > 0 {
        if n & 1 != 0 {
            acc = gf_mul(acc, base);
        }
        base = gf_mul(base, base);
        n >>= 1;
    }
    acc
}

/// The S-box: the field inverse followed by the affine transform.
const fn build_sbox() -> [u8; 256] {
    let mut s = [0u8; 256];
    let mut x = 0;
    while x < 256 {
        let i = gf_inv(x as u8);
        s[x] = i ^ i.rotate_left(1) ^ i.rotate_left(2) ^ i.rotate_left(3) ^ i.rotate_left(4) ^ 0x63;
        x += 1;
    }
    s
}

/// T-table `t` holds, for each S-box output, the MixColumns column it
/// contributes from row `t`, in little-endian word encoding matching the
/// kernel's LE word loads.
const fn build_te() -> [[u32; 256]; 4] {
    let s = build_sbox();
    let mut te = [[0u32; 256]; 4];
    let mut t = 0;
    while t < 4 {
        let mut x = 0;
        while x < 256 {
            let mut col = [0u8; 4];
            let mut r = 0;
            while r < 4 {
                col[r] = gf_mul(MIX[r][t], s[x]);
                r += 1;
            }
            te[t][x] = u32::from_le_bytes(col);
            x += 1;
        }
        t += 1;
    }
    te
}

/// The AES S-box, computed at compile time.
pub static SBOX: [u8; 256] = build_sbox();

/// T-tables 0–3 (rounds 1–9), computed at compile time.
pub static TE: [[u32; 256]; 4] = build_te();

/// The MixColumns matrix.
const MIX: [[u8; 4]; 4] = [[2, 3, 1, 1], [1, 2, 3, 1], [1, 1, 2, 3], [3, 1, 1, 2]];

/// Expands a 16-byte key into 44 round-key words (LE column encoding).
pub fn key_schedule(key: &[u8; 16]) -> [u32; 44] {
    let s = &SBOX;
    let mut w = [[0u8; 4]; 44];
    for i in 0..4 {
        w[i].copy_from_slice(&key[4 * i..4 * i + 4]);
    }
    let mut rcon = 1u8;
    for i in 4..44 {
        let mut temp = w[i - 1];
        if i % 4 == 0 {
            temp = [
                s[temp[1] as usize],
                s[temp[2] as usize],
                s[temp[3] as usize],
                s[temp[0] as usize],
            ];
            temp[0] ^= rcon;
            rcon = xtime(rcon);
        }
        for j in 0..4 {
            w[i][j] = w[i - 4][j] ^ temp[j];
        }
    }
    let mut out = [0u32; 44];
    for (o, word) in out.iter_mut().zip(w.iter()) {
        *o = u32::from_le_bytes(*word);
    }
    out
}

/// The scratchpad preload image for a given key: `(offset, bytes)` pairs
/// the firmware writes before starting the kernel.
pub fn scratchpad_image(key: &[u8; 16]) -> Vec<(u32, Vec<u8>)> {
    let mut image = Vec::new();
    let keys: Vec<u8> = key_schedule(key)
        .iter()
        .flat_map(|w| w.to_le_bytes())
        .collect();
    image.push((KEY_BASE, keys));
    image.push((SBOX_BASE, SBOX.to_vec()));
    for (t, table) in TE.iter().enumerate() {
        let bytes: Vec<u8> = table.iter().flat_map(|w| w.to_le_bytes()).collect();
        image.push((te_base(t as u32), bytes));
    }
    image
}

// ----------------------------------------------------------------- golden

/// Golden byte-wise AES-128 block encryption.
pub fn encrypt_block(key: &[u8; 16], block: &[u8; 16]) -> [u8; 16] {
    encrypt_with(&key_schedule(key), block)
}

/// Encrypts one block under an already expanded key schedule.
fn encrypt_with(keys: &[u32; 44], block: &[u8; 16]) -> [u8; 16] {
    let s = &SBOX;
    // state[r][c]
    let mut st = [[0u8; 4]; 4];
    for (i, &b) in block.iter().enumerate() {
        st[i % 4][i / 4] = b;
    }
    let add_key = |st: &mut [[u8; 4]; 4], round: usize| {
        for c in 0..4 {
            let k = keys[round * 4 + c].to_le_bytes();
            for r in 0..4 {
                st[r][c] ^= k[r];
            }
        }
    };
    add_key(&mut st, 0);
    for round in 1..=9 {
        // SubBytes
        for row in st.iter_mut() {
            for b in row.iter_mut() {
                *b = s[*b as usize];
            }
        }
        // ShiftRows
        for (r, row) in st.iter_mut().enumerate() {
            row.rotate_left(r);
        }
        // MixColumns
        #[allow(clippy::needless_range_loop)] // column-major matrix math
        for c in 0..4 {
            let col = [st[0][c], st[1][c], st[2][c], st[3][c]];
            for r in 0..4 {
                st[r][c] = (0..4).fold(0, |acc, k| acc ^ gf_mul(MIX[r][k], col[k]));
            }
        }
        add_key(&mut st, round);
    }
    // Final round: no MixColumns.
    for row in st.iter_mut() {
        for b in row.iter_mut() {
            *b = s[*b as usize];
        }
    }
    for (r, row) in st.iter_mut().enumerate() {
        row.rotate_left(r);
    }
    add_key(&mut st, 10);
    let mut out = [0u8; 16];
    for c in 0..4 {
        for r in 0..4 {
            out[4 * c + r] = st[r][c];
        }
    }
    out
}

/// Golden ECB encryption of a whole buffer (length a multiple of 16).
pub fn golden(key: &[u8; 16], data: &[u8]) -> Vec<u8> {
    assert_eq!(data.len() % 16, 0, "input must be block-padded");
    let keys = key_schedule(key);
    data.chunks_exact(16)
        .flat_map(|b| encrypt_with(&keys, b.try_into().expect("16-byte block")))
        .collect()
}

// ----------------------------------------------------------------- kernel

/// Builds the AES-128 ECB encryption kernel. Requires
/// [`scratchpad_image`] preloaded.
pub fn program(style: AccessStyle) -> Program {
    let io = KernelIo::new(style, 1, 16);
    let mut asm = Assembler::with_name(format!("aes128-{style:?}"));
    // Table base registers (see module docs on register budget).
    let te = [Reg::S10, Reg::S11, Reg::A4, Reg::A5];
    for (i, &r) in te.iter().enumerate() {
        asm.li(r, te_base(i as u32) as i64);
    }
    asm.li(Reg::T6, SBOX_BASE as i64);

    let state = [Reg::T0, Reg::T1, Reg::T2, Reg::T3];
    let cols = [Reg::A0, Reg::A1, Reg::A2, Reg::A3];

    let ctx = io.begin(&mut asm);
    // Load the block and add round key 0.
    for (c, &st) in state.iter().enumerate() {
        io.load(&mut asm, st, 0, (c * 4) as i64, 4, false);
        asm.lw(Reg::T4, Reg::ZERO, (KEY_BASE + 4 * c as u32) as i64);
        asm.xor(st, st, Reg::T4);
    }
    // Rounds 1..=9: T-table lookups.
    for round in 1..=9u32 {
        for (j, &col) in cols.iter().enumerate() {
            for byte in 0..4usize {
                let src = state[(j + byte) % 4];
                if byte == 0 {
                    asm.andi(Reg::T4, src, 0xFF);
                } else {
                    asm.srli(Reg::T4, src, (byte * 8) as i64);
                    asm.andi(Reg::T4, Reg::T4, 0xFF);
                }
                asm.slli(Reg::T4, Reg::T4, 2);
                asm.add(Reg::T4, te[byte], Reg::T4);
                asm.lw(Reg::T5, Reg::T4, 0);
                if byte == 0 {
                    asm.mv(col, Reg::T5);
                } else {
                    asm.xor(col, col, Reg::T5);
                }
            }
            asm.lw(
                Reg::T4,
                Reg::ZERO,
                (KEY_BASE + 16 * round + 4 * j as u32) as i64,
            );
            asm.xor(col, col, Reg::T4);
        }
        for (&st, &col) in state.iter().zip(cols.iter()) {
            asm.mv(st, col);
        }
    }
    // Final round: S-box only.
    for (j, &col) in cols.iter().enumerate() {
        for byte in 0..4usize {
            let src = state[(j + byte) % 4];
            if byte == 0 {
                asm.andi(Reg::T4, src, 0xFF);
            } else {
                asm.srli(Reg::T4, src, (byte * 8) as i64);
                asm.andi(Reg::T4, Reg::T4, 0xFF);
            }
            asm.add(Reg::T4, Reg::T6, Reg::T4);
            asm.lbu(Reg::T5, Reg::T4, 0);
            if byte == 0 {
                asm.mv(col, Reg::T5);
            } else {
                asm.slli(Reg::T5, Reg::T5, (byte * 8) as i64);
                asm.xor(col, col, Reg::T5);
            }
        }
        asm.lw(Reg::T4, Reg::ZERO, (KEY_BASE + 160 + 4 * j as u32) as i64);
        asm.xor(col, col, Reg::T4);
    }
    for &col in &cols {
        io.emit(&mut asm, col, 4);
    }
    io.end_iter(&mut asm, &ctx);
    io.end(&mut asm, ctx);
    asm.finish().expect("aes kernel assembles")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::run_kernel;

    const FIPS_KEY: [u8; 16] = [
        0x00, 0x01, 0x02, 0x03, 0x04, 0x05, 0x06, 0x07, 0x08, 0x09, 0x0a, 0x0b, 0x0c, 0x0d, 0x0e,
        0x0f,
    ];

    /// The S-box derived by searching for each inverse: the reference
    /// the compile-time `a^254` derivation is checked against.
    fn sbox_by_search() -> [u8; 256] {
        let mut inv = [0u8; 256];
        for a in 1..=255u8 {
            for b in 1..=255u8 {
                if gf_mul(a, b) == 1 {
                    inv[a as usize] = b;
                    break;
                }
            }
        }
        let mut s = [0u8; 256];
        for x in 0..256 {
            let i = inv[x];
            let mut y = i;
            let mut res = i;
            for _ in 0..4 {
                y = y.rotate_left(1);
                res ^= y;
            }
            s[x] = res ^ 0x63;
        }
        s
    }

    #[test]
    fn sbox_known_values() {
        assert_eq!(SBOX[0x00], 0x63);
        assert_eq!(SBOX[0x01], 0x7c);
        assert_eq!(SBOX[0x53], 0xed);
        assert_eq!(SBOX[0xff], 0x16);
    }

    #[test]
    fn const_sbox_matches_search_derivation() {
        assert_eq!(SBOX, sbox_by_search());
    }

    #[test]
    fn fips_197_test_vector() {
        let plain: [u8; 16] = [
            0x00, 0x11, 0x22, 0x33, 0x44, 0x55, 0x66, 0x77, 0x88, 0x99, 0xaa, 0xbb, 0xcc, 0xdd,
            0xee, 0xff,
        ];
        let expect: [u8; 16] = [
            0x69, 0xc4, 0xe0, 0xd8, 0x6a, 0x7b, 0x04, 0x30, 0xd8, 0xcd, 0xb7, 0x80, 0x70, 0xb4,
            0xc5, 0x5a,
        ];
        assert_eq!(encrypt_block(&FIPS_KEY, &plain), expect);
    }

    #[test]
    fn key_schedule_fips_appendix_a() {
        // FIPS-197 appendix A.1 for key 2b7e1516...: w[4] = a0fafe17.
        let key: [u8; 16] = [
            0x2b, 0x7e, 0x15, 0x16, 0x28, 0xae, 0xd2, 0xa6, 0xab, 0xf7, 0x15, 0x88, 0x09, 0xcf,
            0x4f, 0x3c,
        ];
        let ks = key_schedule(&key);
        // Our words are LE-encoded columns; w[4] bytes a0 fa fe 17.
        assert_eq!(ks[4].to_le_bytes(), [0xa0, 0xfa, 0xfe, 0x17]);
        assert_eq!(ks[43].to_le_bytes(), [0xb6, 0x63, 0x0c, 0xa6]);
    }

    #[test]
    fn all_styles_match_golden() {
        let data: Vec<u8> = (0..512u32).map(|i| (i * 7 % 256) as u8).collect();
        let expect = golden(&FIPS_KEY, &data);
        for style in AccessStyle::ALL {
            let (_, out) = run_kernel(
                style,
                program(style),
                &[&data],
                16,
                &scratchpad_image(&FIPS_KEY),
            );
            assert_eq!(out, expect, "style {style:?}");
        }
    }

    #[test]
    fn aes_is_compute_bound() {
        let data = vec![0u8; 1024];
        let (core, _) = run_kernel(
            AccessStyle::Stream,
            program(AccessStyle::Stream),
            &[&data],
            16,
            &scratchpad_image(&FIPS_KEY),
        );
        let cpb = core.cycles() as f64 / data.len() as f64;
        assert!(
            cpb > 20.0,
            "AES should be strongly compute-bound, got {cpb:.1} c/B"
        );
        // Stalls are negligible: the memory wall does not apply.
        let b = core.breakdown();
        assert!(b.busy > 10 * (b.stall_stream + b.stall_swap));
    }
}
