//! Access-style abstraction: one kernel body, three memory architectures.
//!
//! [`KernelIo`] emits the input/output scaffolding for a kernel: stream
//! instructions for AssasinSb, pointer walks over ping-pong staging banks
//! for AssasinSp, and pointer walks over DRAM-staged windows for
//! Baseline/Prefetch. The kernel body between [`KernelIo::begin`] and
//! [`KernelIo::end`] is identical across styles, so architecture
//! comparisons isolate the memory system — the paper's experimental
//! control.

use assasin_isa::{csr, layout, AccessStyle, Assembler, Label, LaunchInfo, Reg};

/// The output cursor of the pointer-walking styles, which a Mem kernel's
/// output extraction reads at halt.
const OUT: Reg = LaunchInfo::OUT_CURSOR;

/// Loop labels handed back by [`KernelIo::begin`].
#[derive(Debug, Clone, Copy)]
pub struct LoopCtx {
    top: Label,
    exit: Label,
    outer: Option<Label>,
    bank_done: Option<Label>,
}

/// Emits per-style input/output scaffolding.
///
/// Register reservations (kernel bodies must not clobber these):
/// `s0..s3` input cursors, `s4` stream-0 end bound, `s5` output cursor,
/// `s6` bank length, `s7` io scratch, and `s8`/`s9` for multi-stream
/// ping-pong chunking. Bodies are free to use `t0-t6`, `a0-a7`, `s10`,
/// `s11`.
#[derive(Debug, Clone, Copy)]
pub struct KernelIo {
    style: AccessStyle,
    n_in: u32,
    tuple_bytes: u32,
}

impl KernelIo {
    /// Creates an emitter for a kernel consuming `tuple_bytes` per
    /// iteration from each of `n_in` input streams.
    ///
    /// # Panics
    ///
    /// Panics if `n_in` is 0 or exceeds 4, or `tuple_bytes` is 0.
    pub fn new(style: AccessStyle, n_in: u32, tuple_bytes: u32) -> Self {
        assert!((1..=4).contains(&n_in), "1..=4 input streams supported");
        assert!(tuple_bytes > 0, "tuple size must be positive");
        KernelIo {
            style,
            n_in,
            tuple_bytes,
        }
    }

    fn cursor(i: u32) -> Reg {
        [Reg::S0, Reg::S1, Reg::S2, Reg::S3][i as usize]
    }

    /// Emits the prologue and the loop head; the kernel body follows.
    pub fn begin(&self, asm: &mut Assembler) -> LoopCtx {
        match self.style {
            AccessStyle::Stream => {
                let top = asm.label();
                let exit = asm.label();
                asm.bind(top);
                LoopCtx {
                    top,
                    exit,
                    outer: None,
                    bank_done: None,
                }
            }
            AccessStyle::Mem => {
                let top = asm.label();
                let exit = asm.label();
                let (len, stride, out_offset) = LaunchInfo::regs();
                // Bases: s_i = DRAM_BASE + i*stride.
                asm.li(Reg::S7, layout::DRAM_BASE as i64);
                asm.mv(Reg::S0, Reg::S7);
                for i in 1..self.n_in {
                    asm.add(Self::cursor(i), Self::cursor(i - 1), stride);
                }
                // End bound for stream 0.
                asm.add(Reg::S4, Reg::S0, len);
                asm.add(OUT, Reg::S7, out_offset);
                asm.bind(top);
                asm.bgeu(Reg::S0, Reg::S4, exit);
                LoopCtx {
                    top,
                    exit,
                    outer: None,
                    bank_done: None,
                }
            }
            AccessStyle::PingPong => {
                let outer = asm.label();
                let top = asm.label();
                let exit = asm.label();
                let bank_done = asm.label();
                asm.bind(outer);
                asm.buf_swap(0);
                asm.csrr(Reg::S6, csr::IN_BANK_LEN);
                asm.beqz(Reg::S6, exit);
                asm.li(Reg::S7, layout::STAGING_IN_BASE as i64);
                asm.mv(Reg::S0, Reg::S7);
                if self.n_in > 1 {
                    // Banks carry n_in equal chunks: chunk = len / n_in.
                    asm.li(Reg::S9, self.n_in as i64);
                    asm.divu(Reg::S8, Reg::S6, Reg::S9);
                    for i in 1..self.n_in {
                        asm.add(Self::cursor(i), Self::cursor(i - 1), Reg::S8);
                    }
                    asm.add(Reg::S4, Reg::S0, Reg::S8);
                } else {
                    asm.add(Reg::S4, Reg::S0, Reg::S6);
                }
                asm.li(Reg::S7, layout::STAGING_OUT_BASE as i64);
                asm.mv(OUT, Reg::S7);
                asm.bind(top);
                asm.bgeu(Reg::S0, Reg::S4, bank_done);
                LoopCtx {
                    top,
                    exit,
                    outer: Some(outer),
                    bank_done: Some(bank_done),
                }
            }
        }
    }

    /// Loads `width` bytes at `off` within the current tuple of input
    /// stream `sid` into `rd`.
    ///
    /// For [`AccessStyle::Stream`] the calls within one iteration must
    /// cover offsets `0..tuple_bytes` of each stream contiguously and in
    /// order (streams are consumed head-first).
    pub fn load(&self, asm: &mut Assembler, rd: Reg, sid: u32, off: i64, width: u8, signed: bool) {
        match self.style {
            AccessStyle::Stream => asm.stream_load(rd, sid as u8, width),
            _ => {
                let base = Self::cursor(sid);
                match (width, signed) {
                    (1, false) => asm.lbu(rd, base, off),
                    (1, true) => asm.lb(rd, base, off),
                    (2, false) => asm.lhu(rd, base, off),
                    (2, true) => asm.lh(rd, base, off),
                    _ => asm.lw(rd, base, off),
                }
            }
        }
    }

    /// Appends the low `width` bytes of `rs` to the kernel's output.
    pub fn emit(&self, asm: &mut Assembler, rs: Reg, width: u8) {
        match self.style {
            AccessStyle::Stream => asm.stream_store(0, width, rs),
            _ => {
                match width {
                    1 => asm.sb(rs, OUT, 0),
                    2 => asm.sh(rs, OUT, 0),
                    _ => asm.sw(rs, OUT, 0),
                }
                asm.addi(OUT, OUT, width as i64);
            }
        }
    }

    /// Closes one iteration: advances cursors and loops.
    pub fn end_iter(&self, asm: &mut Assembler, ctx: &LoopCtx) {
        self.end_iter_advance_only(asm);
        self.loop_back(asm, ctx);
    }

    /// Advances the input cursors by one tuple *without* looping — for
    /// kernels that consume a variable number of units per iteration
    /// (e.g. decompression) and manage their own control flow.
    pub fn end_iter_advance_only(&self, asm: &mut Assembler) {
        if self.style != AccessStyle::Stream {
            for i in 0..self.n_in {
                asm.addi(Self::cursor(i), Self::cursor(i), self.tuple_bytes as i64);
            }
        }
    }

    /// Jumps back to the loop head (whose bounds check, where the style
    /// has one, decides termination).
    pub fn loop_back(&self, asm: &mut Assembler, ctx: &LoopCtx) {
        asm.j(ctx.top);
    }

    /// Emits the epilogue (bank drains, outer loops, halt).
    pub fn end(&self, asm: &mut Assembler, ctx: LoopCtx) {
        match self.style {
            AccessStyle::Stream => {
                // Streams exit by hanging on an exhausted StreamLoad; the
                // exit label exists for kernels with explicit early-outs.
                asm.bind(ctx.exit);
                asm.halt();
            }
            AccessStyle::Mem => {
                asm.bind(ctx.exit);
                asm.halt();
            }
            AccessStyle::PingPong => {
                asm.bind(ctx.bank_done.expect("pingpong ctx"));
                asm.buf_swap(1);
                asm.j(ctx.outer.expect("pingpong ctx"));
                asm.bind(ctx.exit);
                asm.halt();
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_styles_assemble_a_copy_kernel() {
        for style in AccessStyle::ALL {
            let io = KernelIo::new(style, 1, 4);
            let mut asm = Assembler::with_name("copy");
            let ctx = io.begin(&mut asm);
            io.load(&mut asm, Reg::T0, 0, 0, 4, false);
            io.emit(&mut asm, Reg::T0, 4);
            io.end_iter(&mut asm, &ctx);
            io.end(&mut asm, ctx);
            let p = asm.finish().expect("assembles");
            assert!(p.len() >= 4, "style {style:?}");
        }
    }

    #[test]
    #[should_panic(expected = "input streams")]
    fn too_many_streams_rejected() {
        let _ = KernelIo::new(AccessStyle::Stream, 5, 4);
    }
}
