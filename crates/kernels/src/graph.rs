//! Graph-analysis kernel (Table II: "Graph Analysis — edge list, vertex
//! list, statistics").
//!
//! Section IV: "we can also stream the edge list or vertex list while
//! performing updates on the statistics kept in close memory". This kernel
//! streams an edge list of `(src, dst)` u32 pairs and maintains per-vertex
//! degree counters in the scratchpad (vertex ids bounded by
//! [`MAX_VERTICES`], the "statistics" function state). Out-degrees land at
//! [`OUT_DEG_BASE`], in-degrees at [`IN_DEG_BASE`]; the kernel emits no
//! output stream — the firmware reads the statistics out of the scratchpad
//! afterwards, like `Stat`'s accumulators.

use crate::{AccessStyle, KernelIo};
use assasin_isa::{Assembler, Program, Reg};

/// Bytes per streamed edge.
pub const EDGE_BYTES: u32 = 8;
/// Highest vertex id + 1 the statistics arrays hold.
pub const MAX_VERTICES: u32 = 4096;
/// Scratchpad offset of the out-degree array (`MAX_VERTICES` u32s).
pub const OUT_DEG_BASE: u32 = 0x1000;
/// Scratchpad offset of the in-degree array.
pub const IN_DEG_BASE: u32 = 0x5000;

/// Builds the degree-counting kernel.
pub fn program(style: AccessStyle) -> Program {
    let io = KernelIo::new(style, 1, EDGE_BYTES);
    let mut asm = Assembler::with_name(format!("graph-degree-{style:?}"));
    // A6/A7 = table bases, S10 = vertex-id mask (power of two).
    asm.li(Reg::A6, OUT_DEG_BASE as i64);
    asm.li(Reg::A7, IN_DEG_BASE as i64);
    asm.li(Reg::S10, (MAX_VERTICES - 1) as i64);
    let ctx = io.begin(&mut asm);
    // src
    io.load(&mut asm, Reg::T0, 0, 0, 4, false);
    asm.and(Reg::T0, Reg::T0, Reg::S10);
    asm.slli(Reg::T0, Reg::T0, 2);
    asm.add(Reg::T0, Reg::A6, Reg::T0);
    asm.lw(Reg::T2, Reg::T0, 0);
    asm.addi(Reg::T2, Reg::T2, 1);
    asm.sw(Reg::T2, Reg::T0, 0);
    // dst
    io.load(&mut asm, Reg::T1, 0, 4, 4, false);
    asm.and(Reg::T1, Reg::T1, Reg::S10);
    asm.slli(Reg::T1, Reg::T1, 2);
    asm.add(Reg::T1, Reg::A7, Reg::T1);
    asm.lw(Reg::T2, Reg::T1, 0);
    asm.addi(Reg::T2, Reg::T2, 1);
    asm.sw(Reg::T2, Reg::T1, 0);
    io.end_iter(&mut asm, &ctx);
    io.end(&mut asm, ctx);
    asm.finish().expect("graph kernel assembles")
}

/// Golden model: `(out_degrees, in_degrees)` with vertex ids wrapped to
/// `MAX_VERTICES`, exactly as the kernel computes them.
pub fn golden(edges: &[u8]) -> (Vec<u32>, Vec<u32>) {
    assert_eq!(edges.len() % EDGE_BYTES as usize, 0, "edge-aligned input");
    let mut out_deg = vec![0u32; MAX_VERTICES as usize];
    let mut in_deg = vec![0u32; MAX_VERTICES as usize];
    for e in edges.chunks_exact(EDGE_BYTES as usize) {
        let src = u32::from_le_bytes(e[0..4].try_into().expect("src")) & (MAX_VERTICES - 1);
        let dst = u32::from_le_bytes(e[4..8].try_into().expect("dst")) & (MAX_VERTICES - 1);
        out_deg[src as usize] += 1;
        in_deg[dst as usize] += 1;
    }
    (out_deg, in_deg)
}

/// Serializes an edge list.
pub fn edges_to_bytes(edges: &[(u32, u32)]) -> Vec<u8> {
    edges
        .iter()
        .flat_map(|&(s, d)| {
            let mut b = s.to_le_bytes().to_vec();
            b.extend_from_slice(&d.to_le_bytes());
            b
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::run_kernel;
    use assasin_core::Core;

    fn sample_edges(n: usize) -> Vec<u8> {
        let edges: Vec<(u32, u32)> = (0..n as u32)
            .map(|i| (i.wrapping_mul(31) % 100, i.wrapping_mul(17) % 100))
            .collect();
        edges_to_bytes(&edges)
    }

    fn degrees_from(core: &Core) -> (Vec<u32>, Vec<u32>) {
        let read = |base: u32| {
            (0..MAX_VERTICES)
                .map(|v| core.scratchpad().load((base + v * 4) as u64, 4).unwrap() as u32)
                .collect::<Vec<u32>>()
        };
        (read(OUT_DEG_BASE), read(IN_DEG_BASE))
    }

    #[test]
    fn all_styles_match_golden() {
        let data = sample_edges(500);
        let (out_exp, in_exp) = golden(&data);
        for style in AccessStyle::ALL {
            let (core, emitted) =
                run_kernel(style, program(style), &[&data], EDGE_BYTES as usize, &[]);
            assert!(emitted.is_empty(), "degree counting emits nothing");
            let (out_got, in_got) = degrees_from(&core);
            assert_eq!(out_got, out_exp, "style {style:?}");
            assert_eq!(in_got, in_exp, "style {style:?}");
        }
    }

    #[test]
    fn degree_totals_equal_edge_count() {
        let data = sample_edges(321);
        let (out_deg, in_deg) = golden(&data);
        assert_eq!(out_deg.iter().sum::<u32>(), 321);
        assert_eq!(in_deg.iter().sum::<u32>(), 321);
    }

    #[test]
    fn vertex_ids_wrap_into_the_table() {
        let data = edges_to_bytes(&[(MAX_VERTICES + 5, u32::MAX)]);
        let (out_deg, in_deg) = golden(&data);
        assert_eq!(out_deg[5], 1);
        // u32::MAX masked into the table lands on the last slot.
        assert_eq!(in_deg[(MAX_VERTICES - 1) as usize], 1);
        let (core, _) = run_kernel(
            AccessStyle::Stream,
            program(AccessStyle::Stream),
            &[&data],
            8,
            &[],
        );
        let (out_got, in_got) = degrees_from(&core);
        assert_eq!(out_got, out_deg);
        assert_eq!(in_got, in_deg);
    }
}
