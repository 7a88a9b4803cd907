//! Cross-device erasure math: parity generation and reconstruction.
//!
//! The device-local kernels (`assasin_kernels::raid`) compute RAID4/6
//! syndromes *inside* one SSD as a streaming workload. Promoted to
//! array scope, the same math protects chunks across devices: `P = Σ
//! d_i` and `Q = Σ g^i · d_i` over GF(256) with the field and generator
//! the kernels use (`assasin_kernels::gf256`, polynomial 0x11D,
//! `g = 2`). The coefficient index `i` is the chunk's position within
//! its stripe, matching the kernels' stream order — the unit tests pin
//! this module byte-for-byte against `raid4_golden`/`raid6_golden`.
//!
//! Streams of uneven length (a short final stripe member) are
//! zero-padded to the stripe length before coding, mirroring the
//! zero-padding flash pages already get on load.
//!
//! Every multiply goes through a 256-byte `gf256::mul_table` row built
//! once per coefficient, so each coded byte costs one lookup.

use assasin_kernels::gf256;

/// Pads `s` to `len` with zeros.
fn padded(s: &[u8], len: usize) -> Vec<u8> {
    let mut v = vec![0u8; len];
    v[..s.len()].copy_from_slice(s);
    v
}

fn xor_into(acc: &mut [u8], src: &[u8]) {
    for (a, b) in acc.iter_mut().zip(src.iter()) {
        *a ^= b;
    }
}

fn mul_xor_into(acc: &mut [u8], coeff: u8, src: &[u8]) {
    let row = gf256::mul_table(coeff);
    for (a, &b) in acc.iter_mut().zip(src.iter()) {
        *a ^= row[b as usize];
    }
}

fn mul_in_place(buf: &mut [u8], coeff: u8) {
    let row = gf256::mul_table(coeff);
    for b in buf.iter_mut() {
        *b = row[*b as usize];
    }
}

/// XOR parity of `streams`, each zero-padded to `len` (RAID4's `P`).
pub fn p_parity(streams: &[&[u8]], len: usize) -> Vec<u8> {
    let mut p = vec![0u8; len];
    for s in streams {
        xor_into(&mut p, s);
    }
    p
}

/// The `Q` syndrome of `streams` alone, each zero-padded to `len`, with
/// coefficients `g^i` by stream position.
pub fn q_parity(streams: &[&[u8]], len: usize) -> Vec<u8> {
    let mut q = vec![0u8; len];
    for (i, s) in streams.iter().enumerate() {
        mul_xor_into(&mut q, gf256::gen_pow(i as u32), s);
    }
    q
}

/// `(P, Q)` of `streams`, each zero-padded to `len`, with `Q`
/// coefficients `g^i` by stream position (RAID6). One pass per stream
/// updates both syndromes.
pub fn pq_parity(streams: &[&[u8]], len: usize) -> (Vec<u8>, Vec<u8>) {
    let mut p = vec![0u8; len];
    let mut q = vec![0u8; len];
    for (i, s) in streams.iter().enumerate() {
        let row = gf256::mul_table(gf256::gen_pow(i as u32));
        for ((p, q), &b) in p.iter_mut().zip(q.iter_mut()).zip(s.iter()) {
            *p ^= b;
            *q ^= row[b as usize];
        }
    }
    (p, q)
}

/// Recovers one lost stream from XOR parity: `d_x = P ^ Σ_{i≠x} d_i`.
/// `survivors` carries `(position, bytes)` pairs; positions are not
/// needed for XOR but keep the call shape uniform.
pub fn recover_from_p(survivors: &[(usize, &[u8])], p: &[u8]) -> Vec<u8> {
    let mut d = p.to_vec();
    for (_, s) in survivors {
        xor_into(&mut d, s);
    }
    d
}

/// Recovers the lost stream at position `lost` from `Q` alone:
/// `d_x = (Q ^ Σ_{i≠x} g^i d_i) / g^x`. Used when `P`'s device is down
/// too but `Q` survives.
pub fn recover_from_q(survivors: &[(usize, &[u8])], q: &[u8], lost: usize) -> Vec<u8> {
    let mut num = q.to_vec();
    for &(i, s) in survivors {
        mul_xor_into(&mut num, gf256::gen_pow(i as u32), s);
    }
    mul_in_place(&mut num, gf256::inv(gf256::gen_pow(lost as u32)));
    num
}

/// Recovers two lost streams at positions `x < y` from `P` and `Q`:
///
/// ```text
/// p' = P ^ Σ survivors           (= d_x ^ d_y)
/// q' = Q ^ Σ g^i·survivors       (= g^x·d_x ^ g^y·d_y)
/// d_x = (q' ^ g^y·p') / (g^x ^ g^y),   d_y = p' ^ d_x
/// ```
///
/// `g^x ≠ g^y` for distinct positions below the field order, so the
/// divisor never vanishes.
///
/// # Panics
///
/// Panics if `x == y`.
pub fn recover_two(
    survivors: &[(usize, &[u8])],
    p: &[u8],
    q: &[u8],
    x: usize,
    y: usize,
) -> (Vec<u8>, Vec<u8>) {
    assert!(x != y, "two-loss recovery needs two distinct positions");
    let mut dy = p.to_vec();
    let mut dx = q.to_vec();
    for &(i, s) in survivors {
        xor_into(&mut dy, s);
        mul_xor_into(&mut dx, gf256::gen_pow(i as u32), s);
    }
    // dy holds p', dx holds q': fold in g^y·p', divide, then d_y = p' ^ d_x.
    let gx = gf256::gen_pow(x as u32);
    let gy = gf256::gen_pow(y as u32);
    mul_xor_into(&mut dx, gy, &dy);
    mul_in_place(&mut dx, gf256::inv(gx ^ gy));
    xor_into(&mut dy, &dx);
    (dx, dy)
}

/// Zero-pads every stream to `len` (callers hand survivors whose true
/// byte counts differ on a short final stripe).
pub fn pad_streams(streams: &[(usize, &[u8])], len: usize) -> Vec<(usize, Vec<u8>)> {
    streams.iter().map(|&(i, s)| (i, padded(s, len))).collect()
}

/// Rebuilds the `lost` positions of one stripe (ascending, at most two)
/// from its `survivors` and whichever syndromes were fetched: one loss
/// from `P`, or from `Q` when `P` is absent; two losses from both.
/// Returns `None` when the fetched syndromes cannot cover the losses.
pub fn recover_lost(
    survivors: &[(usize, &[u8])],
    lost: &[usize],
    p: Option<&[u8]>,
    q: Option<&[u8]>,
) -> Option<Vec<(usize, Vec<u8>)>> {
    match (lost, p, q) {
        ([], _, _) => Some(Vec::new()),
        ([x], Some(p), _) => Some(vec![(*x, recover_from_p(survivors, p))]),
        ([x], None, Some(q)) => Some(vec![(*x, recover_from_q(survivors, q, *x))]),
        ([x, y], Some(p), Some(q)) => {
            let (dx, dy) = recover_two(survivors, p, q, *x, *y);
            Some(vec![(*x, dx), (*y, dy)])
        }
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use assasin_kernels::raid::{raid4_golden, raid6_golden};
    use proptest::prelude::*;

    fn streams() -> Vec<Vec<u8>> {
        // 4 deterministic pseudo-random streams, the kernel's
        // DATA_STREAMS shape.
        (0..4u64)
            .map(|s| {
                let mut x = 0x9e3779b97f4a7c15u64.wrapping_mul(s + 1);
                (0..64)
                    .map(|_| {
                        x ^= x << 13;
                        x ^= x >> 7;
                        x ^= x << 17;
                        (x >> 32) as u8
                    })
                    .collect()
            })
            .collect()
    }

    fn refs(v: &[Vec<u8>]) -> Vec<&[u8]> {
        v.iter().map(|s| s.as_slice()).collect()
    }

    fn survivors_without<'a>(data: &'a [Vec<u8>], lost: &[usize]) -> Vec<(usize, &'a [u8])> {
        data.iter()
            .enumerate()
            .filter(|(i, _)| !lost.contains(i))
            .map(|(i, s)| (i, s.as_slice()))
            .collect()
    }

    #[test]
    fn p_parity_matches_raid4_kernel_golden() {
        let data = streams();
        assert_eq!(p_parity(&refs(&data), 64), raid4_golden(&refs(&data)));
    }

    #[test]
    fn pq_parity_matches_raid6_kernel_golden() {
        let data = streams();
        let (p, q) = pq_parity(&refs(&data), 64);
        let golden = raid6_golden(&refs(&data));
        let (gp, gq): (Vec<u8>, Vec<u8>) = golden
            .chunks_exact(2)
            .map(|pair| (pair[0], pair[1]))
            .unzip();
        assert_eq!(p, gp);
        assert_eq!(q, gq);
    }

    #[test]
    fn single_loss_recovers_from_p_or_q() {
        let data = streams();
        let (p, q) = pq_parity(&refs(&data), 64);
        for lost in 0..4 {
            let survivors = survivors_without(&data, &[lost]);
            assert_eq!(recover_from_p(&survivors, &p), data[lost], "P, lost {lost}");
            assert_eq!(
                recover_from_q(&survivors, &q, lost),
                data[lost],
                "Q, lost {lost}"
            );
        }
    }

    #[test]
    fn double_loss_recovers_from_p_and_q() {
        let data = streams();
        let (p, q) = pq_parity(&refs(&data), 64);
        for x in 0..4 {
            for y in (x + 1)..4 {
                let survivors = survivors_without(&data, &[x, y]);
                let (dx, dy) = recover_two(&survivors, &p, &q, x, y);
                assert_eq!(dx, data[x], "lost ({x},{y})");
                assert_eq!(dy, data[y], "lost ({x},{y})");
            }
        }
    }

    #[test]
    fn short_members_code_as_zero_padded() {
        let data = streams();
        let mut short = data.clone();
        short[3].truncate(20);
        let padded_refs: Vec<Vec<u8>> = short.iter().map(|s| padded(s, 64)).collect();
        let (p, q) = pq_parity(&refs(&short), 64);
        let (pp, pq) = pq_parity(&refs(&padded_refs), 64);
        assert_eq!(p, pp);
        assert_eq!(q, pq);
    }

    #[test]
    fn uncovered_loss_patterns_recover_nothing() {
        let data = streams();
        let (p, q) = pq_parity(&refs(&data), 64);
        let one = survivors_without(&data, &[1]);
        let two = survivors_without(&data, &[1, 2]);
        let three = survivors_without(&data, &[0, 1, 2]);
        assert!(recover_lost(&one, &[1], None, None).is_none());
        assert!(recover_lost(&two, &[1, 2], Some(&p), None).is_none());
        assert!(recover_lost(&two, &[1, 2], None, Some(&q)).is_none());
        assert!(recover_lost(&three, &[0, 1, 2], Some(&p), Some(&q)).is_none());
        assert_eq!(
            recover_lost(&survivors_without(&data, &[]), &[], None, None),
            Some(Vec::new())
        );
    }

    /// Bit-serial shift-and-add multiply over 0x11D, the same reference
    /// `gf256`'s own tests hold its tables to (test items are not
    /// visible across crates, so it is repeated here).
    fn mul_ref(mut a: u8, mut b: u8) -> u8 {
        let mut acc = 0u8;
        while b != 0 {
            if b & 1 != 0 {
                acc ^= a;
            }
            let hi = a & 0x80 != 0;
            a <<= 1;
            if hi {
                a ^= gf256::POLY;
            }
            b >>= 1;
        }
        acc
    }

    /// Byte `k` of `s` zero-padded.
    fn byte(s: &[u8], k: usize) -> u8 {
        s.get(k).copied().unwrap_or(0)
    }

    /// `P` byte by byte.
    fn p_ref(streams: &[&[u8]], len: usize) -> Vec<u8> {
        (0..len)
            .map(|k| streams.iter().fold(0, |acc, s| acc ^ byte(s, k)))
            .collect()
    }

    /// `Q` byte by byte, with `g^i` by repeated doubling.
    fn q_ref(streams: &[&[u8]], len: usize) -> Vec<u8> {
        (0..len)
            .map(|k| {
                let mut g = 1u8;
                let mut acc = 0u8;
                for s in streams {
                    acc ^= mul_ref(g, byte(s, k));
                    g = mul_ref(g, 2);
                }
                acc
            })
            .collect()
    }

    /// A stripe of `width` pseudo-random members of `len` bytes, the last
    /// one cut to `last` bytes.
    fn stripe(width: usize, len: usize, last: usize, seed: u64) -> Vec<Vec<u8>> {
        let mut x = seed | 1;
        (0..width)
            .map(|i| {
                let n = if i + 1 == width { last } else { len };
                (0..n)
                    .map(|_| {
                        x ^= x << 13;
                        x ^= x >> 7;
                        x ^= x << 17;
                        (x >> 24) as u8
                    })
                    .collect()
            })
            .collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// The table-driven syndromes equal byte-wise bit-serial loops, and
        /// every one- and two-loss pattern decodes back to the zero-padded
        /// members, on stripes of 2–6 members with a short last member.
        #[test]
        fn table_coding_matches_bit_serial_reference(
            (width, len, last, seed) in (2usize..=6, 1usize..=96, 0usize..=96, any::<u64>())
        ) {
            let data = stripe(width, len, last.min(len), seed);
            let streams = refs(&data);
            let p_want = p_ref(&streams, len);
            let q_want = q_ref(&streams, len);
            let (p, q) = pq_parity(&streams, len);
            prop_assert_eq!(&p, &p_want);
            prop_assert_eq!(&q, &q_want);
            // The rebuild's single-syndrome path.
            prop_assert_eq!(p_parity(&streams, len), p_want);
            prop_assert_eq!(q_parity(&streams, len), q_want);
            for x in 0..width {
                let survivors = survivors_without(&data, &[x]);
                let want_x = padded(&data[x], len);
                prop_assert_eq!(recover_from_p(&survivors, &p), want_x.clone());
                prop_assert_eq!(recover_from_q(&survivors, &q, x), want_x.clone());
                for y in (x + 1)..width {
                    let survivors = survivors_without(&data, &[x, y]);
                    let (dx, dy) = recover_two(&survivors, &p, &q, x, y);
                    prop_assert_eq!(dx, want_x.clone(), "lost ({}, {})", x, y);
                    prop_assert_eq!(dy, padded(&data[y], len), "lost ({}, {})", x, y);
                }
            }
        }
    }
}
