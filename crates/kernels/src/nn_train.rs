//! Neural-network training kernel (Table II: "NN Training — training
//! data, model parameters").
//!
//! Streaming SGD on a single linear layer: the model (weights `w[IN_DIM]`
//! and a bias) stays stationary in the scratchpad while `(x, y)` training
//! samples stream in. Per sample, in wrapping i32 fixed point:
//!
//! ```text
//! pred = b + Σ w[i] * x[i]
//! err  = y - pred
//! w[i] += round(err * x[i], LR_SHIFT)   // round-to-nearest shift
//! b    += round(err, LR_SHIFT)
//! ```
//!
//! The shift-based learning rate uses round-to-nearest (`+2^(s-1)` before
//! the arithmetic shift) — plain truncation rounds toward -inf and makes
//! integer SGD drift. Kernel and golden model stay bit-exact.
//! The kernel emits the prediction error per sample (a training-loss
//! stream), so convergence is observable from the host.

use crate::{AccessStyle, KernelIo};
use assasin_isa::{Assembler, Program, Reg};

/// Features per training sample.
pub const IN_DIM: usize = 8;
/// Bytes per streamed sample: IN_DIM features + 1 label, all i32.
pub const TUPLE_BYTES: u32 = ((IN_DIM + 1) * 4) as u32;
/// Learning-rate shift (lr = 2^-LR_SHIFT).
pub const LR_SHIFT: u32 = 5;
/// Scratchpad offset of the weights (`IN_DIM` i32s then the bias).
pub const W_BASE: u32 = 0x400;

mod layout {
    /// Streamed sample staging.
    pub const X: i64 = 0x80;
}

/// The linear model (the scratchpad-stationary state).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LinearModel {
    /// Weights.
    pub w: Vec<i32>,
    /// Bias.
    pub b: i32,
}

impl LinearModel {
    /// The zero model (cold start).
    pub fn zeroed() -> LinearModel {
        LinearModel {
            w: vec![0; IN_DIM],
            b: 0,
        }
    }

    /// The scratchpad preload image.
    pub fn scratchpad_image(&self) -> Vec<(u32, Vec<u8>)> {
        let mut bytes: Vec<u8> = self.w.iter().flat_map(|v| v.to_le_bytes()).collect();
        bytes.extend_from_slice(&self.b.to_le_bytes());
        vec![(W_BASE, bytes)]
    }

    /// One golden SGD step; returns the error emitted by the kernel.
    pub fn step(&mut self, x: &[i32], y: i32) -> i32 {
        assert_eq!(x.len(), IN_DIM);
        let round = |v: i32| v.wrapping_add(1 << (LR_SHIFT - 1)) >> LR_SHIFT;
        let mut pred = self.b;
        for (w, &xi) in self.w.iter().zip(x) {
            pred = pred.wrapping_add(w.wrapping_mul(xi));
        }
        let err = y.wrapping_sub(pred);
        for (w, &xi) in self.w.iter_mut().zip(x) {
            *w = w.wrapping_add(round(err.wrapping_mul(xi)));
        }
        self.b = self.b.wrapping_add(round(err));
        err
    }

    /// Golden training pass over packed samples; returns the error stream
    /// and mutates the model.
    pub fn golden(&mut self, data: &[u8]) -> Vec<u8> {
        assert_eq!(data.len() % TUPLE_BYTES as usize, 0, "sample-aligned input");
        let mut out = Vec::new();
        for sample in data.chunks_exact(TUPLE_BYTES as usize) {
            let vals: Vec<i32> = sample
                .chunks_exact(4)
                .map(|b| i32::from_le_bytes(b.try_into().expect("word")))
                .collect();
            let err = self.step(&vals[..IN_DIM], vals[IN_DIM]);
            out.extend_from_slice(&err.to_le_bytes());
        }
        out
    }
}

/// Builds the training kernel. Requires [`LinearModel::scratchpad_image`]
/// preloaded.
pub fn program(style: AccessStyle) -> Program {
    let io = KernelIo::new(style, 1, TUPLE_BYTES);
    let mut asm = Assembler::with_name(format!("nn-train-{style:?}"));
    asm.li(Reg::A6, W_BASE as i64);
    let ctx = io.begin(&mut asm);

    // Stage the sample; y ends up in A7.
    for i in 0..IN_DIM as i64 {
        io.load(&mut asm, Reg::T0, 0, i * 4, 4, false);
        asm.sw(Reg::T0, Reg::ZERO, layout::X + i * 4);
    }
    io.load(&mut asm, Reg::A7, 0, (IN_DIM * 4) as i64, 4, false);

    // pred (T0) = b + Σ w[i]*x[i]
    asm.lw(Reg::T0, Reg::A6, (IN_DIM * 4) as i64); // bias
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

    // err (T0) = y - pred; emit it.
    asm.sub(Reg::T0, Reg::A7, Reg::T0);
    io.emit(&mut asm, Reg::T0, 4);

    // Update loop: w[i] += (err*x[i]) >> LR_SHIFT
    asm.li(Reg::T3, IN_DIM as i64);
    asm.mv(Reg::T4, Reg::A6);
    asm.li(Reg::T5, layout::X);
    let upd = asm.label();
    asm.bind(upd);
    asm.lw(Reg::T2, Reg::T5, 0);
    asm.mul(Reg::T2, Reg::T0, Reg::T2);
    asm.addi(Reg::T2, Reg::T2, 1 << (LR_SHIFT - 1)); // round to nearest
    asm.srai(Reg::T2, Reg::T2, LR_SHIFT as i64);
    asm.lw(Reg::T1, Reg::T4, 0);
    asm.add(Reg::T1, Reg::T1, Reg::T2);
    asm.sw(Reg::T1, Reg::T4, 0);
    asm.addi(Reg::T4, Reg::T4, 4);
    asm.addi(Reg::T5, Reg::T5, 4);
    asm.addi(Reg::T3, Reg::T3, -1);
    asm.bnez(Reg::T3, upd);
    // b += round(err, LR_SHIFT)
    asm.addi(Reg::T2, Reg::T0, 1 << (LR_SHIFT - 1));
    asm.srai(Reg::T2, Reg::T2, LR_SHIFT as i64);
    asm.lw(Reg::T1, Reg::A6, (IN_DIM * 4) as i64);
    asm.add(Reg::T1, Reg::T1, Reg::T2);
    asm.sw(Reg::T1, Reg::A6, (IN_DIM * 4) as i64);

    io.end_iter(&mut asm, &ctx);
    io.end(&mut asm, ctx);
    asm.finish().expect("nn-train kernel assembles")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::run_kernel;

    fn samples(n: usize) -> Vec<u8> {
        // A learnable target: y = 3*x0 - 2*x1 + 2 with x scaled so the
        // fixed-point gradient steps are expressive.
        (0..n)
            .flat_map(|i| {
                let mut x = vec![0i32; IN_DIM];
                x[0] = (((i * 7) % 5) as i32 - 2) * 2;
                x[1] = (((i * 3) % 7) as i32 - 3) * 2;
                let y = 3 * x[0] - 2 * x[1] + 2;
                x.push(y);
                x.into_iter()
                    .flat_map(|v| v.to_le_bytes())
                    .collect::<Vec<u8>>()
            })
            .collect()
    }

    #[test]
    fn all_styles_match_golden_including_final_weights() {
        let data = samples(96);
        let mut model = LinearModel::zeroed();
        let expect_errs = model.golden(&data);
        for style in AccessStyle::ALL {
            let (core, errs) = run_kernel(
                style,
                program(style),
                &[&data],
                TUPLE_BYTES as usize,
                &LinearModel::zeroed().scratchpad_image(),
            );
            assert_eq!(errs, expect_errs, "style {style:?}");
            // Final weights in the scratchpad match the golden model.
            for (i, &w) in model.w.iter().enumerate() {
                let got = core
                    .scratchpad()
                    .load((W_BASE + 4 * i as u32) as u64, 4)
                    .unwrap() as u32;
                assert_eq!(got as i32, w, "w[{i}] style {style:?}");
            }
        }
    }

    #[test]
    fn training_converges_on_a_linear_target() {
        let data = samples(512);
        let mut model = LinearModel::zeroed();
        let errs = model.golden(&data);
        let early: i64 = errs[..64]
            .chunks_exact(4)
            .map(|b| (i32::from_le_bytes(b.try_into().unwrap()) as i64).abs())
            .sum();
        let late: i64 = errs[errs.len() - 64..]
            .chunks_exact(4)
            .map(|b| (i32::from_le_bytes(b.try_into().unwrap()) as i64).abs())
            .sum();
        assert!(late * 4 < early.max(1), "loss must fall: {early} -> {late}");
        // Learned coefficients approach the target.
        assert!((model.w[0] - 3).abs() <= 1, "w0 {}", model.w[0]);
        assert!((model.w[1] + 2).abs() <= 1, "w1 {}", model.w[1]);
    }
}
