//! Neural-network inference kernel (Table II: "NN Inference — inference
//! input, model parameters").
//!
//! Section IV: "it is sensible ... to keep weights of the model stationary
//! in fast-and-close memory (e.g. scratchpads) and stream in the inference
//! ... data". This kernel is a two-layer integer MLP
//! (`IN_DIM → HIDDEN → OUT_DIM`, ReLU) whose weights live in the
//! scratchpad; feature vectors stream in, logits stream out. Arithmetic is
//! wrapping `i32` fixed-point, so the golden model matches the kernel
//! bit-exactly.

use crate::{AccessStyle, KernelIo};
use assasin_isa::{Assembler, Program, Reg};

/// Input features per vector.
pub const IN_DIM: usize = 16;
/// Hidden units.
pub const HIDDEN: usize = 8;
/// Output logits.
pub const OUT_DIM: usize = 4;
/// Bytes consumed per inference (one feature vector).
pub const TUPLE_BYTES: u32 = (IN_DIM * 4) as u32;

/// Scratchpad layout.
mod layout {
    /// Streamed input vector staging.
    pub const X: i64 = 0x80;
    /// Hidden activations.
    pub const H: i64 = 0x100;
    /// Layer-1 weights, row-major `[HIDDEN][IN_DIM]`.
    pub const W1: i64 = 0x400;
    /// Layer-1 biases.
    pub const B1: i64 = 0x600;
    /// Layer-2 weights, row-major `[OUT_DIM][HIDDEN]`.
    pub const W2: i64 = 0x640;
    /// Layer-2 biases.
    pub const B2: i64 = 0x6C0;
}

/// The model parameters (the scratchpad-stationary function state).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Model {
    /// `[HIDDEN][IN_DIM]` layer-1 weights.
    pub w1: Vec<i32>,
    /// `[HIDDEN]` layer-1 biases.
    pub b1: Vec<i32>,
    /// `[OUT_DIM][HIDDEN]` layer-2 weights.
    pub w2: Vec<i32>,
    /// `[OUT_DIM]` layer-2 biases.
    pub b2: Vec<i32>,
}

impl Model {
    /// A deterministic pseudo-random model.
    pub fn demo(seed: u32) -> Model {
        let mut x = seed | 1;
        let mut next = || {
            x = x.wrapping_mul(1664525).wrapping_add(1013904223);
            ((x >> 16) as i32 % 17) - 8
        };
        Model {
            w1: (0..HIDDEN * IN_DIM).map(|_| next()).collect(),
            b1: (0..HIDDEN).map(|_| next()).collect(),
            w2: (0..OUT_DIM * HIDDEN).map(|_| next()).collect(),
            b2: (0..OUT_DIM).map(|_| next()).collect(),
        }
    }

    /// The scratchpad preload image: `(offset, bytes)` pairs.
    pub fn scratchpad_image(&self) -> Vec<(u32, Vec<u8>)> {
        let ser = |v: &[i32]| v.iter().flat_map(|x| x.to_le_bytes()).collect::<Vec<u8>>();
        vec![
            (layout::W1 as u32, ser(&self.w1)),
            (layout::B1 as u32, ser(&self.b1)),
            (layout::W2 as u32, ser(&self.w2)),
            (layout::B2 as u32, ser(&self.b2)),
        ]
    }

    /// Golden inference over one feature vector.
    pub fn infer(&self, x: &[i32]) -> Vec<i32> {
        assert_eq!(x.len(), IN_DIM);
        let mut h = [0i32; HIDDEN];
        for (j, hj) in h.iter_mut().enumerate() {
            let mut acc = self.b1[j];
            for (i, &xi) in x.iter().enumerate() {
                acc = acc.wrapping_add(self.w1[j * IN_DIM + i].wrapping_mul(xi));
            }
            *hj = acc.max(0); // ReLU
        }
        let mut out = vec![0i32; OUT_DIM];
        for (k, ok) in out.iter_mut().enumerate() {
            let mut acc = self.b2[k];
            for (j, &hj) in h.iter().enumerate() {
                acc = acc.wrapping_add(self.w2[k * HIDDEN + j].wrapping_mul(hj));
            }
            *ok = acc;
        }
        out
    }

    /// Golden batch inference over packed little-endian i32 vectors.
    pub fn golden(&self, data: &[u8]) -> Vec<u8> {
        assert_eq!(data.len() % TUPLE_BYTES as usize, 0, "vector-aligned input");
        let mut out = Vec::new();
        for vec_bytes in data.chunks_exact(TUPLE_BYTES as usize) {
            let x: Vec<i32> = vec_bytes
                .chunks_exact(4)
                .map(|b| i32::from_le_bytes(b.try_into().expect("word")))
                .collect();
            for v in self.infer(&x) {
                out.extend_from_slice(&v.to_le_bytes());
            }
        }
        out
    }
}

/// Builds the inference kernel. Requires [`Model::scratchpad_image`]
/// preloaded.
pub fn program(style: AccessStyle) -> Program {
    let io = KernelIo::new(style, 1, TUPLE_BYTES);
    let mut asm = Assembler::with_name(format!("nn-infer-{style:?}"));
    let ctx = io.begin(&mut asm);

    // Stage the input vector in the scratchpad.
    for i in 0..IN_DIM as i64 {
        io.load(&mut asm, Reg::T0, 0, i * 4, 4, false);
        asm.sw(Reg::T0, Reg::ZERO, layout::X + i * 4);
    }

    // Hidden layer: for j in 0..HIDDEN { h[j] = relu(b1[j] + Σ w1[j][i]*x[i]) }
    // T0=acc, T1=w, T2=x, T3=i counter, T4=w1 row ptr, T5=x ptr, A6=relu tmp.
    asm.li(Reg::A6, layout::W1);
    for j in 0..HIDDEN as i64 {
        asm.lw(Reg::T0, Reg::ZERO, layout::B1 + j * 4);
        asm.li(Reg::T3, IN_DIM as i64);
        asm.mv(Reg::T4, Reg::A6);
        asm.li(Reg::T5, layout::X);
        let dot = asm.label();
        asm.bind(dot);
        asm.lw(Reg::T1, Reg::T4, 0);
        asm.lw(Reg::T2, Reg::T5, 0);
        asm.mul(Reg::T1, Reg::T1, Reg::T2);
        asm.add(Reg::T0, Reg::T0, Reg::T1);
        asm.addi(Reg::T4, Reg::T4, 4);
        asm.addi(Reg::T5, Reg::T5, 4);
        asm.addi(Reg::T3, Reg::T3, -1);
        asm.bnez(Reg::T3, dot);
        // ReLU.
        let pos = asm.label();
        asm.bge(Reg::T0, Reg::ZERO, pos);
        asm.li(Reg::T0, 0);
        asm.bind(pos);
        asm.sw(Reg::T0, Reg::ZERO, layout::H + j * 4);
        asm.addi(Reg::A6, Reg::A6, (IN_DIM * 4) as i64);
    }

    // Output layer: for k in 0..OUT_DIM { emit(b2[k] + Σ w2[k][j]*h[j]) }
    asm.li(Reg::A6, layout::W2);
    for k in 0..OUT_DIM as i64 {
        asm.lw(Reg::T0, Reg::ZERO, layout::B2 + k * 4);
        asm.li(Reg::T3, HIDDEN as i64);
        asm.mv(Reg::T4, Reg::A6);
        asm.li(Reg::T5, layout::H);
        let dot = asm.label();
        asm.bind(dot);
        asm.lw(Reg::T1, Reg::T4, 0);
        asm.lw(Reg::T2, Reg::T5, 0);
        asm.mul(Reg::T1, Reg::T1, Reg::T2);
        asm.add(Reg::T0, Reg::T0, Reg::T1);
        asm.addi(Reg::T4, Reg::T4, 4);
        asm.addi(Reg::T5, Reg::T5, 4);
        asm.addi(Reg::T3, Reg::T3, -1);
        asm.bnez(Reg::T3, dot);
        io.emit(&mut asm, Reg::T0, 4);
        asm.addi(Reg::A6, Reg::A6, (HIDDEN * 4) as i64);
    }

    io.end_iter(&mut asm, &ctx);
    io.end(&mut asm, ctx);
    asm.finish().expect("nn kernel assembles")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::run_kernel;

    fn vectors(n: usize) -> Vec<u8> {
        (0..n * IN_DIM)
            .map(|i| ((i as i64 * 37 % 41) - 20) as i32)
            .flat_map(|v| v.to_le_bytes())
            .collect()
    }

    #[test]
    fn all_styles_match_golden() {
        let model = Model::demo(99);
        let data = vectors(64);
        let expect = model.golden(&data);
        for style in AccessStyle::ALL {
            let (_, out) = run_kernel(
                style,
                program(style),
                &[&data],
                TUPLE_BYTES as usize,
                &model.scratchpad_image(),
            );
            assert_eq!(out, expect, "style {style:?}");
        }
    }

    #[test]
    fn relu_clamps_negative_hidden_units() {
        // A model with strongly negative biases must still match.
        let mut model = Model::demo(7);
        for b in &mut model.b1 {
            *b = -1_000_000;
        }
        let data = vectors(4);
        let expect = model.golden(&data);
        // All hidden units die -> outputs equal b2.
        for (k, chunk) in expect.chunks_exact(4).take(OUT_DIM).enumerate() {
            assert_eq!(i32::from_le_bytes(chunk.try_into().unwrap()), model.b2[k]);
        }
    }

    #[test]
    fn inference_is_compute_intense() {
        let model = Model::demo(3);
        let data = vectors(32);
        let (core, _) = run_kernel(
            AccessStyle::Stream,
            program(AccessStyle::Stream),
            &[&data],
            TUPLE_BYTES as usize,
            &model.scratchpad_image(),
        );
        let cpb = core.cycles() as f64 / data.len() as f64;
        assert!(cpb > 10.0, "NN inference ~{cpb:.1} c/B");
        assert!(core.mix().muldiv > 0);
    }
}
