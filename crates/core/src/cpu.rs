//! The cycle-level in-order core interpreter.

use crate::regions::{layout, DramWindow, PingPong};
use crate::{CoreConfig, EngineKind, StreamEnv};
use assasin_isa::{csr, AluOp, BranchCond, Instr, Program};
use assasin_mem::{
    AccessKind, MemHierarchy, ReadOutcome, Scratchpad, ServedBy, SharedDram, StreamBuffer,
};
use assasin_sim::stats::CycleBreakdown;
use assasin_sim::SimTime;
use std::collections::HashMap;
use std::sync::{Arc, Mutex, OnceLock};

/// Dynamic instruction mix, used for reporting and to parameterize the UDP
/// analytical model.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct InstrMix {
    /// Instructions retired.
    pub total: u64,
    /// Simple ALU operations.
    pub alu: u64,
    /// Multiply/divide operations.
    pub muldiv: u64,
    /// Memory loads (cache/scratchpad/staging).
    pub loads: u64,
    /// Memory stores.
    pub stores: u64,
    /// Conditional branches retired.
    pub branches: u64,
    /// Conditional branches taken.
    pub taken: u64,
    /// Unconditional jumps.
    pub jumps: u64,
    /// Stream loads.
    pub stream_loads: u64,
    /// Stream stores.
    pub stream_stores: u64,
}

/// Execution state of a core.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CoreState {
    /// Executing instructions.
    Running,
    /// Stopped: explicit `halt`, or a `StreamLoad` on an exhausted stream
    /// (the paper's completion convention, after which firmware resets the
    /// core).
    Halted,
    /// An unrecoverable model error (bad address, starved stream): a bug in
    /// the embedding, surfaced loudly.
    Wedged(String),
}

/// Why [`Core::run`] returned: the information an event-driven scheduler
/// needs to pick the next deadline without polling.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RunOutcome {
    /// The core halted (explicit `halt`, or exhausted input stream).
    Halted,
    /// The core hit an unrecoverable model error; the message is in
    /// [`Core::state`].
    Wedged,
    /// The deadline was reached mid-execution. The core cannot retire its
    /// next instruction before the contained time (the boundary of the
    /// first cycle past the deadline), so any deadline below it is a no-op.
    BlockedUntil(SimTime),
}

/// A single-cycle ALU micro-op in fused form: `rd = op(rs1, src)` where
/// `src` is either a register index or a pre-resolved immediate. `Lui`
/// lowers to `add rd, x0, imm` (x0 is hardwired zero, so the result is the
/// pre-shifted immediate) — one shape covers all three simple ALU forms.
#[derive(Debug, Clone, Copy)]
pub(crate) struct AluUop {
    op: AluOp,
    rd: u8,
    rs1: u8,
    /// `src` is an immediate (else a register index).
    imm: bool,
    src: u32,
}

/// One predecoded instruction: register fields resolved to raw indices,
/// immediates pre-shifted/cast to their execution form, and multi-cycle
/// ALU stalls baked in at decode, so the dispatch loop does no per-step
/// field conversion beyond a single bounds check on the slot fetch.
///
/// The pair variants (`Alu2`, `AluBranch`, `AluJal`, `SlAlu`, `SlBranch`,
/// `Sl2`, `BrBr`, `LdAlu`, `LdBranch`) are macro-op fusions
/// produced by [`fuse`]: a fused slot sits at the *first* instruction's
/// index and executes both halves in one dispatch, while the second
/// instruction keeps its original slot at its own index — so any branch or
/// `jalr` landing between the pair executes exactly the unfused tail.
/// Fusion is timing-transparent: each half charges its own base cycle, and
/// the pair re-checks the run deadline between halves (see
/// [`Core::exec_slot`]), so epoch-sliced execution retires the same
/// instruction at the same cycle as unfused code.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Slot {
    /// Single-cycle register-register ALU operation.
    Alu {
        op: AluOp,
        rd: u8,
        rs1: u8,
        rs2: u8,
    },
    /// Multi-cycle mul/div with the extra stall cycles pre-resolved from
    /// [`CoreConfig::mul_cycles`]/[`CoreConfig::div_cycles`].
    MulDiv {
        op: AluOp,
        rd: u8,
        rs1: u8,
        rs2: u8,
        stall: u64,
    },
    AluImm {
        op: AluOp,
        rd: u8,
        rs1: u8,
        imm: u32,
    },
    /// `Lui` with the `imm << 12` shift already applied.
    Lui {
        rd: u8,
        imm: u32,
    },
    Load {
        width: u8,
        signed: bool,
        rd: u8,
        base: u8,
        offset: u32,
    },
    Store {
        width: u8,
        rs: u8,
        base: u8,
        offset: u32,
    },
    Branch {
        cond: BranchCond,
        rs1: u8,
        rs2: u8,
        target: u32,
    },
    Jal {
        rd: u8,
        target: u32,
    },
    Jalr {
        rd: u8,
        base: u8,
        offset: u32,
    },
    Halt,
    StreamLoad {
        rd: u8,
        sid: u8,
        width: u8,
    },
    StreamStore {
        sid: u8,
        width: u8,
        rs: u8,
    },
    StreamAvail {
        rd: u8,
        sid: u8,
    },
    StreamEos {
        rd: u8,
        sid: u8,
    },
    BufSwap {
        bank: u8,
    },
    CsrR {
        rd: u8,
        csr: u16,
    },
    /// Fused pair of single-cycle ALU ops.
    Alu2 {
        a: AluUop,
        b: AluUop,
    },
    /// Single-cycle ALU op fused with the following conditional branch.
    AluBranch {
        a: AluUop,
        cond: BranchCond,
        rs1: u8,
        rs2: u8,
        target: u32,
    },
    /// Single-cycle ALU op fused with the following `jal`.
    AluJal {
        a: AluUop,
        rd: u8,
        target: u32,
    },
    /// Stream load fused with the following single-cycle ALU op.
    SlAlu {
        rd: u8,
        sid: u8,
        width: u8,
        b: AluUop,
    },
    /// Stream load fused with the following conditional branch.
    SlBranch {
        rd: u8,
        sid: u8,
        width: u8,
        cond: BranchCond,
        rs1: u8,
        rs2: u8,
        target: u32,
    },
    /// Fused pair of stream loads.
    Sl2 {
        rd1: u8,
        sid1: u8,
        w1: u8,
        rd2: u8,
        sid2: u8,
        w2: u8,
    },
    /// Fused pair of conditional branches (fall-through into the second).
    BrBr {
        c1: BranchCond,
        rs1a: u8,
        rs2a: u8,
        t1: u32,
        c2: BranchCond,
        rs1b: u8,
        rs2b: u8,
        t2: u32,
    },
    /// Memory load fused with the following single-cycle ALU op.
    LdAlu {
        width: u8,
        signed: bool,
        rd: u8,
        base: u8,
        offset: u32,
        b: AluUop,
    },
    /// Memory load fused with the following conditional branch.
    LdBranch {
        width: u8,
        signed: bool,
        rd: u8,
        base: u8,
        offset: u32,
        cond: BranchCond,
        rs1: u8,
        rs2: u8,
        target: u32,
    },
}

/// The fusable single-cycle ALU forms, as a micro-op.
fn as_uop(s: Slot) -> Option<AluUop> {
    match s {
        Slot::Alu { op, rd, rs1, rs2 } => Some(AluUop {
            op,
            rd,
            rs1,
            imm: false,
            src: rs2 as u32,
        }),
        Slot::AluImm { op, rd, rs1, imm } => Some(AluUop {
            op,
            rd,
            rs1,
            imm: true,
            src: imm,
        }),
        Slot::Lui { rd, imm } => Some(AluUop {
            op: AluOp::Add,
            rd,
            rs1: 0,
            imm: true,
            src: imm,
        }),
        _ => None,
    }
}

/// Macro-op fusion pass over the predecoded array. Every index whose
/// original pair matches a pattern gets a fused slot; the second
/// instruction's slot is *kept* at its own index (fused slots may overlap:
/// a run `a b c` fuses to `[ab, bc, c]`, and execution entering at any
/// index retires exactly the original sequence).
fn fuse(slots: &mut [Slot]) {
    let orig: Vec<Slot> = slots.to_vec();
    for i in 0..orig.len().saturating_sub(1) {
        let next = orig[i + 1];
        if let Some(a) = as_uop(orig[i]) {
            if let Some(b) = as_uop(next) {
                slots[i] = Slot::Alu2 { a, b };
            } else if let Slot::Branch {
                cond,
                rs1,
                rs2,
                target,
            } = next
            {
                slots[i] = Slot::AluBranch {
                    a,
                    cond,
                    rs1,
                    rs2,
                    target,
                };
            } else if let Slot::Jal { rd, target } = next {
                slots[i] = Slot::AluJal { a, rd, target };
            }
        } else if let Slot::StreamLoad { rd, sid, width } = orig[i] {
            if let Some(b) = as_uop(next) {
                slots[i] = Slot::SlAlu { rd, sid, width, b };
            } else if let Slot::Branch {
                cond,
                rs1,
                rs2,
                target,
            } = next
            {
                slots[i] = Slot::SlBranch {
                    rd,
                    sid,
                    width,
                    cond,
                    rs1,
                    rs2,
                    target,
                };
            } else if let Slot::StreamLoad {
                rd: rd2,
                sid: sid2,
                width: w2,
            } = next
            {
                slots[i] = Slot::Sl2 {
                    rd1: rd,
                    sid1: sid,
                    w1: width,
                    rd2,
                    sid2,
                    w2,
                };
            }
        } else if let Slot::Branch {
            cond: c1,
            rs1: rs1a,
            rs2: rs2a,
            target: t1,
        } = orig[i]
        {
            if let Slot::Branch {
                cond: c2,
                rs1: rs1b,
                rs2: rs2b,
                target: t2,
            } = next
            {
                slots[i] = Slot::BrBr {
                    c1,
                    rs1a,
                    rs2a,
                    t1,
                    c2,
                    rs1b,
                    rs2b,
                    t2,
                };
            }
        } else if let Slot::Load {
            width,
            signed,
            rd,
            base,
            offset,
        } = orig[i]
        {
            if let Some(b) = as_uop(next) {
                slots[i] = Slot::LdAlu {
                    width,
                    signed,
                    rd,
                    base,
                    offset,
                    b,
                };
            } else if let Slot::Branch {
                cond,
                rs1,
                rs2,
                target,
            } = next
            {
                slots[i] = Slot::LdBranch {
                    width,
                    signed,
                    rd,
                    base,
                    offset,
                    cond,
                    rs1,
                    rs2,
                    target,
                };
            }
        }
    }
}

/// Predecodes a program into the dense execution array the dispatch loop
/// runs from, then runs the [`fuse`] pass. A representation change only:
/// every slot sequence executes exactly as the corresponding [`Instr`]s
/// did.
fn predecode(program: &Program, cfg: &CoreConfig) -> Arc<[Slot]> {
    let mut slots: Vec<Slot> = program
        .instrs()
        .iter()
        .map(|&i| match i {
            Instr::Alu { op, rd, rs1, rs2 } if op.is_muldiv() => {
                let lat = if matches!(op, AluOp::Mul | AluOp::Mulh | AluOp::Mulhu) {
                    cfg.mul_cycles
                } else {
                    cfg.div_cycles
                };
                Slot::MulDiv {
                    op,
                    rd: rd.index(),
                    rs1: rs1.index(),
                    rs2: rs2.index(),
                    stall: lat.saturating_sub(1) as u64,
                }
            }
            Instr::Alu { op, rd, rs1, rs2 } => Slot::Alu {
                op,
                rd: rd.index(),
                rs1: rs1.index(),
                rs2: rs2.index(),
            },
            Instr::AluImm { op, rd, rs1, imm } => Slot::AluImm {
                op,
                rd: rd.index(),
                rs1: rs1.index(),
                imm: imm as u32,
            },
            Instr::Lui { rd, imm } => Slot::Lui {
                rd: rd.index(),
                imm: imm << 12,
            },
            Instr::Load {
                width,
                signed,
                rd,
                base,
                offset,
            } => Slot::Load {
                width,
                signed,
                rd: rd.index(),
                base: base.index(),
                offset: offset as u32,
            },
            Instr::Store {
                width,
                rs,
                base,
                offset,
            } => Slot::Store {
                width,
                rs: rs.index(),
                base: base.index(),
                offset: offset as u32,
            },
            Instr::Branch {
                cond,
                rs1,
                rs2,
                target,
            } => Slot::Branch {
                cond,
                rs1: rs1.index(),
                rs2: rs2.index(),
                target,
            },
            Instr::Jal { rd, target } => Slot::Jal {
                rd: rd.index(),
                target,
            },
            Instr::Jalr { rd, base, offset } => Slot::Jalr {
                rd: rd.index(),
                base: base.index(),
                offset: offset as u32,
            },
            Instr::Halt => Slot::Halt,
            Instr::StreamLoad { rd, sid, width } => Slot::StreamLoad {
                rd: rd.index(),
                sid,
                width,
            },
            Instr::StreamStore { sid, width, rs } => Slot::StreamStore {
                sid,
                width,
                rs: rs.index(),
            },
            Instr::StreamAvail { rd, sid } => Slot::StreamAvail {
                rd: rd.index(),
                sid,
            },
            Instr::StreamEos { rd, sid } => Slot::StreamEos {
                rd: rd.index(),
                sid,
            },
            Instr::BufSwap { bank } => Slot::BufSwap { bank },
            Instr::CsrR { rd, csr } => Slot::CsrR {
                rd: rd.index(),
                csr,
            },
        })
        .collect();
    fuse(&mut slots);
    slots.into()
}

/// Predecode-cache key. The only [`CoreConfig`] inputs to predecode are
/// the mul/div latencies (baked into `MulDiv` stalls), so programs shared
/// across engine variants lower once. The program itself is keyed by its
/// content fingerprint; a hit is verified by full instruction comparison,
/// so a fingerprint collision can never alias two programs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct CodeKey {
    fingerprint: u64,
    len: usize,
    mul_cycles: u32,
    div_cycles: u32,
}

/// A cached lowering: the source program (kept for exact hit
/// verification) and the shared predecoded slots.
type CachedCode = (Program, Arc<[Slot]>);

static CODE_CACHE: OnceLock<Mutex<HashMap<CodeKey, CachedCode>>> = OnceLock::new();

/// Bound on retained lowerings — far above any real sweep's distinct
/// (program, latency) count, but keeps a pathological generator from
/// growing the cache without limit.
const CODE_CACHE_CAP: usize = 4096;

/// Dedupes [`predecode`] across cores and sweep points: identical programs
/// lowered with identical latencies share one `Arc`, so a sweep lowers
/// each kernel once instead of once per core per point.
fn predecode_cached(program: &Program, cfg: &CoreConfig) -> Arc<[Slot]> {
    let key = CodeKey {
        fingerprint: program.fingerprint(),
        len: program.len(),
        mul_cycles: cfg.mul_cycles,
        div_cycles: cfg.div_cycles,
    };
    let cache = CODE_CACHE.get_or_init(|| Mutex::new(HashMap::new()));
    let mut cache = cache.lock().expect("predecode cache poisoned");
    if let Some((cached, code)) = cache.get(&key) {
        if cached.instrs() == program.instrs() {
            return code.clone();
        }
        // Fingerprint collision: serve a fresh lowering, leave the cache.
        return predecode(program, cfg);
    }
    let code = predecode(program, cfg);
    if cache.len() >= CODE_CACHE_CAP {
        cache.clear();
    }
    cache.insert(key, (program.clone(), code.clone()));
    code
}

/// One in-order scalar core with the Table IV memory structures attached.
#[derive(Debug)]
pub struct Core {
    id: usize,
    cfg: CoreConfig,
    regs: [u32; 32],
    pc: u32,
    /// Predecoded execution array (see [`Slot`]); `pc` indexes into it.
    /// Shared via the predecode cache: cores built from the same program
    /// and latency config point at the same allocation.
    code: Arc<[Slot]>,
    cycle: u64,
    state: CoreState,
    scratchpad: Scratchpad,
    sbuf: StreamBuffer,
    hierarchy: Option<MemHierarchy>,
    window: Option<DramWindow>,
    staging: Option<PingPong>,
    breakdown: CycleBreakdown,
    mix: InstrMix,
}

impl Core {
    /// Builds a core. `dram` is required for configurations with a cache
    /// hierarchy (Baseline, Prefetch, AssasinSb$).
    ///
    /// # Panics
    ///
    /// Panics if the configuration needs a DRAM handle and none is given,
    /// or if [`CoreConfig::kind`] is [`EngineKind::Udp`] (UDP lanes are
    /// modeled by [`UdpLane`](crate::UdpLane), not by this interpreter).
    pub fn new(id: usize, cfg: CoreConfig, program: Program, dram: Option<SharedDram>) -> Self {
        assert!(
            cfg.kind != EngineKind::Udp,
            "UDP lanes are modeled analytically, not by Core"
        );
        let hierarchy = cfg.hierarchy.map(|h| {
            MemHierarchy::new(
                h,
                dram.clone()
                    .expect("cache hierarchy requires a DRAM handle"),
            )
        });
        let staging = (cfg.kind == EngineKind::AssasinSp).then(|| PingPong::new(cfg.staging_bytes));
        let code = predecode_cached(&program, &cfg);
        Core {
            id,
            cfg,
            regs: [0; 32],
            pc: 0,
            code,
            cycle: 0,
            state: CoreState::Running,
            scratchpad: Scratchpad::new(cfg.scratchpad_bytes as usize),
            sbuf: StreamBuffer::new(cfg.streambuffer),
            hierarchy,
            window: None,
            staging,
            breakdown: CycleBreakdown::default(),
            mix: InstrMix::default(),
        }
    }

    /// This core's id (used when one [`StreamEnv`] serves many cores).
    pub fn id(&self) -> usize {
        self.id
    }

    /// The configuration this core was built with.
    pub fn config(&self) -> &CoreConfig {
        &self.cfg
    }

    /// Current state.
    pub fn state(&self) -> &CoreState {
        &self.state
    }

    /// Cycles elapsed on this core's clock.
    pub fn cycles(&self) -> u64 {
        self.cycle
    }

    /// Current program counter (instruction index), for hang diagnostics.
    pub fn pc(&self) -> u32 {
        self.pc
    }

    /// Instructions retired.
    pub fn mix(&self) -> &InstrMix {
        &self.mix
    }

    /// Cycle decomposition (Figure 5).
    pub fn breakdown(&self) -> &CycleBreakdown {
        &self.breakdown
    }

    /// This core's current local time.
    pub fn local_time(&self) -> SimTime {
        self.cfg.clock.cycle_time(SimTime::ZERO, self.cycle)
    }

    /// Reads an architectural register.
    pub fn reg(&self, r: assasin_isa::Reg) -> u32 {
        self.regs[r.index() as usize]
    }

    /// Writes an architectural register (kernel launch arguments).
    pub fn set_reg(&mut self, r: assasin_isa::Reg, v: u32) {
        self.set_reg_idx(r.index(), v);
    }

    /// Register write by predecoded index (x0 stays hardwired to zero).
    #[inline]
    fn set_reg_idx(&mut self, rd: u8, v: u32) {
        if rd != 0 {
            self.regs[rd as usize] = v;
        }
    }

    /// The function-state scratchpad (firmware preloads state here).
    pub fn scratchpad_mut(&mut self) -> &mut Scratchpad {
        &mut self.scratchpad
    }

    /// Immutable scratchpad view (result extraction).
    pub fn scratchpad(&self) -> &Scratchpad {
        &self.scratchpad
    }

    /// The streambuffer (firmware prefill / final flush).
    pub fn sbuf_mut(&mut self) -> &mut StreamBuffer {
        &mut self.sbuf
    }

    /// Streambuffer view.
    pub fn sbuf(&self) -> &StreamBuffer {
        &self.sbuf
    }

    /// Attaches the DRAM staging window (Baseline/Prefetch/Sb$ data path).
    pub fn set_window(&mut self, window: DramWindow) {
        self.window = Some(window);
    }

    /// The DRAM staging window, if attached.
    pub fn window(&self) -> Option<&DramWindow> {
        self.window.as_ref()
    }

    /// Mutable DRAM staging window (the firmware stages pages into it).
    pub fn window_mut(&mut self) -> Option<&mut DramWindow> {
        self.window.as_mut()
    }

    /// Cache/prefetch counters, if a hierarchy is attached.
    pub fn hierarchy(&self) -> Option<&MemHierarchy> {
        self.hierarchy.as_ref()
    }

    /// Serializes every predecode-independent field: architectural
    /// registers, `pc`, local clock, run state, scratchpad, streambuffer,
    /// the optional hierarchy/window/staging structures, and the cycle and
    /// instruction-mix counters. The predecoded `code`, the config and the
    /// shared DRAM handle are *not* encoded — a restore target is built
    /// with [`Core::new`] from the same program and config, which
    /// reproduces them (via the predecode cache, usually for free).
    pub fn save_state(&self, enc: &mut assasin_snap::Encoder) {
        enc.u64(self.id as u64);
        for r in self.regs {
            enc.u32(r);
        }
        enc.u32(self.pc);
        enc.u64(self.cycle);
        match &self.state {
            CoreState::Running => enc.u8(0),
            CoreState::Halted => enc.u8(1),
            CoreState::Wedged(msg) => {
                enc.u8(2);
                enc.str(msg);
            }
        }
        self.scratchpad.save_state(enc);
        self.sbuf.save_state(enc);
        match &self.hierarchy {
            Some(h) => {
                enc.bool(true);
                h.save_state(enc);
            }
            None => enc.bool(false),
        }
        match &self.window {
            Some(w) => {
                enc.bool(true);
                w.save_state(enc);
            }
            None => enc.bool(false),
        }
        match &self.staging {
            Some(s) => {
                enc.bool(true);
                s.save_state(enc);
            }
            None => enc.bool(false),
        }
        let b = &self.breakdown;
        for v in [
            b.busy,
            b.stall_l1,
            b.stall_l2,
            b.stall_dram,
            b.stall_scratchpad,
            b.stall_stream,
            b.stall_swap,
        ] {
            enc.u64(v);
        }
        let m = &self.mix;
        for v in [
            m.total,
            m.alu,
            m.muldiv,
            m.loads,
            m.stores,
            m.branches,
            m.taken,
            m.jumps,
            m.stream_loads,
            m.stream_stores,
        ] {
            enc.u64(v);
        }
    }

    /// Restores [`Core::save_state`] bytes onto a freshly built core.
    /// `self` must come from [`Core::new`] with the same id, config and
    /// program the snapshot was taken under.
    ///
    /// # Errors
    ///
    /// Fails on truncation, an id mismatch, or a hierarchy/staging
    /// presence mismatch (the snapshot was taken under a different
    /// engine configuration).
    pub fn load_snapshot(
        &mut self,
        dec: &mut assasin_snap::Decoder<'_>,
    ) -> Result<(), assasin_snap::SnapError> {
        let id = dec.u64()?;
        if id != self.id as u64 {
            return Err(assasin_snap::SnapError::Malformed(format!(
                "core id mismatch: snapshot {id}, target {}",
                self.id
            )));
        }
        let mut regs = [0u32; 32];
        for r in &mut regs {
            *r = dec.u32()?;
        }
        let pc = dec.u32()?;
        let cycle = dec.u64()?;
        let state = match dec.u8()? {
            0 => CoreState::Running,
            1 => CoreState::Halted,
            2 => CoreState::Wedged(dec.str()?.to_string()),
            t => {
                return Err(assasin_snap::SnapError::Malformed(format!(
                    "unknown core state tag {t}"
                )))
            }
        };
        let scratchpad = Scratchpad::restore_state(dec)?;
        let sbuf = StreamBuffer::restore_state(dec)?;
        let h_present = dec.bool()?;
        if h_present != self.hierarchy.is_some() {
            return Err(assasin_snap::SnapError::Malformed(
                "core hierarchy presence mismatch".into(),
            ));
        }
        if let Some(h) = self.hierarchy.as_mut() {
            h.load_snapshot(dec)?;
        }
        let window = if dec.bool()? {
            Some(DramWindow::restore_state(dec)?)
        } else {
            None
        };
        let s_present = dec.bool()?;
        if s_present != self.staging.is_some() {
            return Err(assasin_snap::SnapError::Malformed(
                "core staging presence mismatch".into(),
            ));
        }
        let staging = if s_present {
            Some(PingPong::restore_state(dec)?)
        } else {
            None
        };
        let breakdown = CycleBreakdown {
            busy: dec.u64()?,
            stall_l1: dec.u64()?,
            stall_l2: dec.u64()?,
            stall_dram: dec.u64()?,
            stall_scratchpad: dec.u64()?,
            stall_stream: dec.u64()?,
            stall_swap: dec.u64()?,
        };
        let mix = InstrMix {
            total: dec.u64()?,
            alu: dec.u64()?,
            muldiv: dec.u64()?,
            loads: dec.u64()?,
            stores: dec.u64()?,
            branches: dec.u64()?,
            taken: dec.u64()?,
            jumps: dec.u64()?,
            stream_loads: dec.u64()?,
            stream_stores: dec.u64()?,
        };
        self.regs = regs;
        self.pc = pc;
        self.cycle = cycle;
        self.state = state;
        self.scratchpad = scratchpad;
        self.sbuf = sbuf;
        self.window = window;
        self.staging = staging;
        self.breakdown = breakdown;
        self.mix = mix;
        Ok(())
    }

    /// Flushes `n` batched retirements into the unconditional
    /// per-instruction counters (`mix.total` plus one base busy cycle
    /// each). The dispatch loops accumulate locally and flush once per
    /// call; these counters are only observed between epochs.
    fn flush_retired(&mut self, n: u64) {
        self.mix.total += n;
        self.breakdown.busy += n;
    }

    fn wedge(&mut self, msg: String) {
        self.state = CoreState::Wedged(format!("core {} @pc {}: {msg}", self.id, self.pc));
    }

    /// Charges `extra` stall cycles into a breakdown bucket.
    fn charge(&mut self, extra: u64, bucket: fn(&mut CycleBreakdown) -> &mut u64) {
        *bucket(&mut self.breakdown) += extra;
        self.cycle += extra;
    }

    /// Converts an absolute completion time into extra stall cycles beyond
    /// the instruction's base cycle, advancing nothing.
    fn stall_cycles(&self, issue: SimTime, complete: SimTime) -> u64 {
        // Steady-state accesses complete within the issue cycle; skip the
        // division entirely (ceil(0) - 1 saturates to 0 anyway).
        if complete <= issue {
            return 0;
        }
        let dur = complete.saturating_since(issue);
        self.cfg.clock.dur_to_cycles_ceil(dur).saturating_sub(1)
    }

    /// Runs until `deadline` (exclusive) or until the core stops. Returns
    /// *why* it stopped; a still-running core reports the earliest time a
    /// larger deadline could make it retire another instruction, which the
    /// SSD's event-driven scheduler uses to skip dead epochs.
    ///
    /// The unconditional per-instruction counters (`mix.total`, the base
    /// busy cycle) are accumulated locally and flushed once per call —
    /// they are only observed between epochs, and keeping them out of the
    /// dispatch loop measurably speeds up the interpreter. Cycle counts
    /// and stall buckets stay exact per instruction (timing depends on
    /// them mid-step).
    ///
    /// The `CoreState` check lives only in the dispatch loop (`exec_slot`
    /// assumes a running core); the deadline is pre-converted to a cycle
    /// count so the per-instruction bound is one integer compare.
    pub fn run(&mut self, env: &mut dyn StreamEnv, deadline: SimTime) -> RunOutcome {
        let period = self.cfg.clock.period_ps();
        self.run_cycles(env, deadline.as_ps() / period);
        match self.state {
            CoreState::Running => {
                // Stalls are charged eagerly (the local clock jumps past
                // them), so the next instruction retires in cycle
                // `self.cycle` — observable once the deadline covers the
                // end of that cycle.
                RunOutcome::BlockedUntil(SimTime::from_ps((self.cycle + 1) * period))
            }
            CoreState::Halted => RunOutcome::Halted,
            CoreState::Wedged(_) => RunOutcome::Wedged,
        }
    }

    /// The dispatch loop shared by [`Core::run`] and [`Core::run_to_halt`]:
    /// runs while the core is running and its clock is below
    /// `cycle_limit`, then flushes the batched per-instruction counters.
    pub(crate) fn run_cycles(&mut self, env: &mut dyn StreamEnv, cycle_limit: u64) {
        let mut retired = 0u64;
        while self.state == CoreState::Running && self.cycle < cycle_limit {
            retired += self.step_inner(env, cycle_limit) as u64;
        }
        self.flush_retired(retired);
    }

    /// Runs to completion (no deadline). Mostly for tests; the SSD uses
    /// bounded epochs. Batches the per-instruction counters like
    /// [`Core::run`].
    pub fn run_to_halt(&mut self, env: &mut dyn StreamEnv) -> &CoreState {
        self.run_cycles(env, u64::MAX);
        &self.state
    }

    /// Executes one instruction. (The limit of `cycle + 1` makes a fused
    /// pair stop after its first half, so `step` retires exactly one
    /// architectural instruction.)
    pub fn step(&mut self, env: &mut dyn StreamEnv) {
        if self.state != CoreState::Running {
            return;
        }
        let n = self.step_inner(env, self.cycle + 1);
        self.flush_retired(n as u64);
    }

    /// The issue time of the instruction dispatched at `cycle` — computed
    /// lazily, only by the handlers that model memory or stream timing
    /// (ALU and control flow never pay the conversion).
    fn issue_at(&self, cycle: u64) -> SimTime {
        self.cfg.clock.cycle_time(SimTime::ZERO, cycle)
    }

    /// Fetches and dispatches one slot. Returns the number of instructions
    /// retired: 0 on a fetch wedge, 2 when a fused pair completed, else 1.
    #[inline(always)]
    fn step_inner(&mut self, env: &mut dyn StreamEnv, limit: u64) -> u32 {
        let Some(&slot) = self.code.get(self.pc as usize) else {
            self.wedge("pc past end of program".into());
            return 0;
        };
        self.exec_slot(slot, env, limit)
    }

    /// Executes one single-cycle ALU micro-op (one half of a fused pair).
    #[inline(always)]
    fn exec_uop(&mut self, u: AluUop) {
        let a = self.regs[u.rs1 as usize];
        let b = if u.imm {
            u.src
        } else {
            self.regs[u.src as usize]
        };
        let v = alu_eval(u.op, a, b);
        self.set_reg_idx(u.rd, v);
        self.mix.alu += 1;
    }

    /// Dispatches one predecoded slot (two architectural instructions for
    /// the fused variants). Returns the retired count, which the callers
    /// batch into `mix.total` plus base busy cycles.
    ///
    /// `limit` is the run deadline in cycles: a fused pair re-checks it
    /// between halves and stops with `pc` on the second instruction when
    /// the first half crossed it, so epoch-sliced execution retires the
    /// same instructions at the same cycles as unfused dispatch.
    ///
    /// Assumes the core is running — the state check is hoisted into the
    /// dispatch loops ([`Core::run_cycles`] and [`Core::step`]).
    #[inline(always)]
    pub(crate) fn exec_slot(&mut self, slot: Slot, env: &mut dyn StreamEnv, limit: u64) -> u32 {
        let issue_cycle = self.cycle;
        let mut next_pc = self.pc + 1;
        // Base cost: one cycle, charged up front; stalls add on top.
        self.cycle += 1;

        match slot {
            Slot::Alu { op, rd, rs1, rs2 } => {
                let a = self.regs[rs1 as usize];
                let b = self.regs[rs2 as usize];
                let v = alu_eval(op, a, b);
                self.set_reg_idx(rd, v);
                self.mix.alu += 1;
            }
            Slot::MulDiv {
                op,
                rd,
                rs1,
                rs2,
                stall,
            } => {
                let a = self.regs[rs1 as usize];
                let b = self.regs[rs2 as usize];
                let v = alu_eval(op, a, b);
                self.set_reg_idx(rd, v);
                self.mix.muldiv += 1;
                self.breakdown.busy += stall;
                self.cycle += stall;
            }
            Slot::AluImm { op, rd, rs1, imm } => {
                let a = self.regs[rs1 as usize];
                let v = alu_eval(op, a, imm);
                self.set_reg_idx(rd, v);
                self.mix.alu += 1;
            }
            Slot::Lui { rd, imm } => {
                self.set_reg_idx(rd, imm);
                self.mix.alu += 1;
            }
            Slot::Alu2 { a, b } => {
                self.exec_uop(a);
                if self.cycle >= limit {
                    self.pc += 1;
                    return 1;
                }
                self.cycle += 1;
                self.exec_uop(b);
                self.pc += 2;
                return 2;
            }
            Slot::AluBranch {
                a,
                cond,
                rs1,
                rs2,
                target,
            } => {
                self.exec_uop(a);
                if self.cycle >= limit {
                    self.pc += 1;
                    return 1;
                }
                self.cycle += 1;
                self.mix.branches += 1;
                let x = self.regs[rs1 as usize];
                let y = self.regs[rs2 as usize];
                if branch_eval(cond, x, y) {
                    self.mix.taken += 1;
                    self.pc = target;
                    let pen = self.cfg.branch_penalty as u64;
                    self.breakdown.busy += pen;
                    self.cycle += pen;
                } else {
                    self.pc += 2;
                }
                return 2;
            }
            Slot::AluJal { a, rd, target } => {
                self.exec_uop(a);
                if self.cycle >= limit {
                    self.pc += 1;
                    return 1;
                }
                self.cycle += 1;
                self.mix.jumps += 1;
                let link = self.pc + 2;
                self.set_reg_idx(rd, link);
                self.pc = target;
                let pen = self.cfg.branch_penalty as u64;
                self.breakdown.busy += pen;
                self.cycle += pen;
                return 2;
            }
            Slot::SlAlu { rd, sid, width, b } => {
                self.mix.stream_loads += 1;
                match self.stream_load(env, sid as u32, width as u32, self.issue_at(issue_cycle)) {
                    Ok(Some(v)) => self.set_reg_idx(rd, v),
                    // Halted on an exhausted stream: `pc` stays on the
                    // fused index, matching the scalar early return.
                    Ok(None) => return 1,
                    Err(msg) => {
                        self.wedge(msg);
                        return 1;
                    }
                }
                if self.cycle >= limit {
                    self.pc += 1;
                    return 1;
                }
                self.cycle += 1;
                self.exec_uop(b);
                self.pc += 2;
                return 2;
            }
            Slot::SlBranch {
                rd,
                sid,
                width,
                cond,
                rs1,
                rs2,
                target,
            } => {
                self.mix.stream_loads += 1;
                match self.stream_load(env, sid as u32, width as u32, self.issue_at(issue_cycle)) {
                    Ok(Some(v)) => self.set_reg_idx(rd, v),
                    Ok(None) => return 1, // halted on exhausted stream
                    Err(msg) => {
                        self.wedge(msg);
                        return 1;
                    }
                }
                if self.cycle >= limit {
                    self.pc += 1;
                    return 1;
                }
                self.cycle += 1;
                self.mix.branches += 1;
                let x = self.regs[rs1 as usize];
                let y = self.regs[rs2 as usize];
                if branch_eval(cond, x, y) {
                    self.mix.taken += 1;
                    self.pc = target;
                    let pen = self.cfg.branch_penalty as u64;
                    self.breakdown.busy += pen;
                    self.cycle += pen;
                } else {
                    self.pc += 2;
                }
                return 2;
            }
            Slot::Sl2 {
                rd1,
                sid1,
                w1,
                rd2,
                sid2,
                w2,
            } => {
                self.mix.stream_loads += 1;
                match self.stream_load(env, sid1 as u32, w1 as u32, self.issue_at(issue_cycle)) {
                    Ok(Some(v)) => self.set_reg_idx(rd1, v),
                    Ok(None) => return 1, // halted on exhausted stream
                    Err(msg) => {
                        self.wedge(msg);
                        return 1;
                    }
                }
                if self.cycle >= limit {
                    self.pc += 1;
                    return 1;
                }
                let issue2 = self.cycle;
                self.cycle += 1;
                self.mix.stream_loads += 1;
                match self.stream_load(env, sid2 as u32, w2 as u32, self.issue_at(issue2)) {
                    Ok(Some(v)) => self.set_reg_idx(rd2, v),
                    // Second half halted/wedged: `pc` rests on the second
                    // instruction, exactly where unfused dispatch stops.
                    Ok(None) => {
                        self.pc += 1;
                        return 2;
                    }
                    Err(msg) => {
                        self.wedge(msg);
                        self.pc += 1;
                        return 2;
                    }
                }
                self.pc += 2;
                return 2;
            }
            Slot::BrBr {
                c1,
                rs1a,
                rs2a,
                t1,
                c2,
                rs1b,
                rs2b,
                t2,
            } => {
                self.mix.branches += 1;
                let x = self.regs[rs1a as usize];
                let y = self.regs[rs2a as usize];
                if branch_eval(c1, x, y) {
                    self.mix.taken += 1;
                    self.pc = t1;
                    let pen = self.cfg.branch_penalty as u64;
                    self.breakdown.busy += pen;
                    self.cycle += pen;
                    return 1;
                }
                if self.cycle >= limit {
                    self.pc += 1;
                    return 1;
                }
                self.cycle += 1;
                self.mix.branches += 1;
                let x = self.regs[rs1b as usize];
                let y = self.regs[rs2b as usize];
                if branch_eval(c2, x, y) {
                    self.mix.taken += 1;
                    self.pc = t2;
                    let pen = self.cfg.branch_penalty as u64;
                    self.breakdown.busy += pen;
                    self.cycle += pen;
                } else {
                    self.pc += 2;
                }
                return 2;
            }
            Slot::LdAlu {
                width,
                signed,
                rd,
                base,
                offset,
                b,
            } => {
                self.mix.loads += 1;
                let addr = self.regs[base as usize].wrapping_add(offset) as u64;
                match self.mem_load(addr, width as u32, self.issue_at(issue_cycle)) {
                    Ok(raw) => {
                        let v = if signed {
                            sign_extend(raw, width as u32)
                        } else {
                            raw
                        };
                        self.set_reg_idx(rd, v);
                    }
                    Err(msg) => {
                        self.wedge(msg);
                        return 1;
                    }
                }
                if self.cycle >= limit {
                    self.pc += 1;
                    return 1;
                }
                self.cycle += 1;
                self.exec_uop(b);
                self.pc += 2;
                return 2;
            }
            Slot::LdBranch {
                width,
                signed,
                rd,
                base,
                offset,
                cond,
                rs1,
                rs2,
                target,
            } => {
                self.mix.loads += 1;
                let addr = self.regs[base as usize].wrapping_add(offset) as u64;
                match self.mem_load(addr, width as u32, self.issue_at(issue_cycle)) {
                    Ok(raw) => {
                        let v = if signed {
                            sign_extend(raw, width as u32)
                        } else {
                            raw
                        };
                        self.set_reg_idx(rd, v);
                    }
                    Err(msg) => {
                        self.wedge(msg);
                        return 1;
                    }
                }
                if self.cycle >= limit {
                    self.pc += 1;
                    return 1;
                }
                self.cycle += 1;
                self.mix.branches += 1;
                let x = self.regs[rs1 as usize];
                let y = self.regs[rs2 as usize];
                if branch_eval(cond, x, y) {
                    self.mix.taken += 1;
                    self.pc = target;
                    let pen = self.cfg.branch_penalty as u64;
                    self.breakdown.busy += pen;
                    self.cycle += pen;
                } else {
                    self.pc += 2;
                }
                return 2;
            }
            Slot::Load {
                width,
                signed,
                rd,
                base,
                offset,
            } => {
                self.mix.loads += 1;
                let addr = self.regs[base as usize].wrapping_add(offset) as u64;
                match self.mem_load(addr, width as u32, self.issue_at(issue_cycle)) {
                    Ok(raw) => {
                        let v = if signed {
                            sign_extend(raw, width as u32)
                        } else {
                            raw
                        };
                        self.set_reg_idx(rd, v);
                    }
                    Err(msg) => {
                        self.wedge(msg);
                        return 1;
                    }
                }
            }
            Slot::Store {
                width,
                rs,
                base,
                offset,
            } => {
                self.mix.stores += 1;
                let addr = self.regs[base as usize].wrapping_add(offset) as u64;
                let value = self.regs[rs as usize];
                if let Err(msg) =
                    self.mem_store(addr, width as u32, value, self.issue_at(issue_cycle))
                {
                    self.wedge(msg);
                    return 1;
                }
            }
            Slot::Branch {
                cond,
                rs1,
                rs2,
                target,
            } => {
                self.mix.branches += 1;
                let a = self.regs[rs1 as usize];
                let b = self.regs[rs2 as usize];
                if branch_eval(cond, a, b) {
                    self.mix.taken += 1;
                    next_pc = target;
                    let pen = self.cfg.branch_penalty as u64;
                    self.breakdown.busy += pen;
                    self.cycle += pen;
                }
            }
            Slot::Jal { rd, target } => {
                self.mix.jumps += 1;
                self.set_reg_idx(rd, self.pc + 1);
                next_pc = target;
                let pen = self.cfg.branch_penalty as u64;
                self.breakdown.busy += pen;
                self.cycle += pen;
            }
            Slot::Jalr { rd, base, offset } => {
                self.mix.jumps += 1;
                let t = self.regs[base as usize].wrapping_add(offset);
                self.set_reg_idx(rd, self.pc + 1);
                next_pc = t;
                let pen = self.cfg.branch_penalty as u64;
                self.breakdown.busy += pen;
                self.cycle += pen;
            }
            Slot::Halt => {
                self.state = CoreState::Halted;
                return 1;
            }
            Slot::StreamLoad { rd, sid, width } => {
                self.mix.stream_loads += 1;
                match self.stream_load(env, sid as u32, width as u32, self.issue_at(issue_cycle)) {
                    Ok(Some(v)) => self.set_reg_idx(rd, v),
                    Ok(None) => return 1, // halted on exhausted stream
                    Err(msg) => {
                        self.wedge(msg);
                        return 1;
                    }
                }
            }
            Slot::StreamStore { sid, width, rs } => {
                self.mix.stream_stores += 1;
                let value = self.regs[rs as usize];
                if let Err(msg) = self.stream_store(
                    env,
                    sid as u32,
                    width as u32,
                    value,
                    self.issue_at(issue_cycle),
                ) {
                    self.wedge(msg);
                    return 1;
                }
            }
            Slot::StreamAvail { rd, sid } => {
                env.refill_stream(
                    self.id,
                    sid as u32,
                    self.issue_at(issue_cycle),
                    &mut self.sbuf,
                );
                let avail = self
                    .sbuf
                    .in_bytes_available(sid as u32)
                    .min(u32::MAX as u64);
                self.set_reg_idx(rd, avail as u32);
            }
            Slot::StreamEos { rd, sid } => {
                env.refill_stream(
                    self.id,
                    sid as u32,
                    self.issue_at(issue_cycle),
                    &mut self.sbuf,
                );
                let eos = self.sbuf.is_exhausted(sid as u32);
                self.set_reg_idx(rd, eos as u32);
            }
            Slot::BufSwap { bank } => {
                if let Err(msg) = self.buf_swap(env, bank, self.issue_at(issue_cycle)) {
                    self.wedge(msg);
                    return 1;
                }
            }
            Slot::CsrR { rd, csr: num } => {
                let v = self.read_csr(num);
                self.set_reg_idx(rd, v);
            }
        }
        self.pc = next_pc;
        1
    }

    fn read_csr(&self, num: u16) -> u32 {
        match num {
            csr::CYCLE => self.cycle as u32,
            Self::CSR_IN_BANK_LEN => self
                .staging
                .as_ref()
                .map(|s| s.in_len() as u32)
                .unwrap_or(0),
            n if (0x800..0x808).contains(&n) => self
                .sbuf
                .in_csrs((n - 0x800) as u32)
                .map(|c| c.0)
                .unwrap_or(0) as u32,
            n if (0x810..0x818).contains(&n) => self
                .sbuf
                .in_csrs((n - 0x810) as u32)
                .map(|c| c.1)
                .unwrap_or(0) as u32,
            n if (0x820..0x828).contains(&n) => self
                .sbuf
                .out_csrs((n - 0x820) as u32)
                .map(|c| c.0)
                .unwrap_or(0) as u32,
            n if (0x830..0x838).contains(&n) => self
                .sbuf
                .out_csrs((n - 0x830) as u32)
                .map(|c| c.1)
                .unwrap_or(0) as u32,
            _ => 0,
        }
    }

    /// CSR holding the valid length of the current AssasinSp input bank.
    pub const CSR_IN_BANK_LEN: u16 = 0xC10;

    // ------------------------------------------------------------- memory

    fn mem_load(&mut self, addr: u64, width: u32, issue: SimTime) -> Result<u32, String> {
        if addr >= layout::STAGING_OUT_BASE {
            return Err(format!("load from output staging window {addr:#x}"));
        }
        if addr >= layout::STAGING_IN_BASE {
            let off = addr - layout::STAGING_IN_BASE;
            let Some(staging) = &self.staging else {
                return Err("staging access without ping-pong buffers".into());
            };
            if off as usize + width as usize > staging.in_len() {
                return Err(format!("staging load past bank length at {off:#x}"));
            }
            let v = staging.load_in(off, width);
            let extra = self.cfg.scratchpad_cycles.saturating_sub(1) as u64;
            self.charge(extra, |b| &mut b.stall_scratchpad);
            return Ok(v);
        }
        if addr >= layout::DRAM_BASE {
            let off = addr - layout::DRAM_BASE;
            let Some(window) = &self.window else {
                return Err("DRAM access without a staging window".into());
            };
            if !window.contains(off, width) {
                return Err(format!("DRAM load outside window at {off:#x}"));
            }
            let Some(hier) = &mut self.hierarchy else {
                return Err("DRAM access without a cache hierarchy".into());
            };
            let (complete, served) =
                hier.access(AccessKind::Load, self.pc as u64, off, width, issue);
            let value = window.load(off, width);
            let avail = window.avail_at(off);
            let stall = self.stall_cycles(issue, complete);
            let bucket: fn(&mut CycleBreakdown) -> &mut u64 = match served {
                ServedBy::L1 => |b| &mut b.stall_l1,
                ServedBy::L2 => |b| &mut b.stall_l2,
                ServedBy::Dram | ServedBy::Prefetch => |b| &mut b.stall_dram,
            };
            self.charge(stall, bucket);
            // Wait further if the firmware has not staged the page yet.
            if avail > complete {
                let extra = self.stall_cycles(issue, avail).saturating_sub(stall);
                self.charge(extra, |b| &mut b.stall_stream);
            }
            return Ok(value);
        }
        // Scratchpad.
        match self.scratchpad.load(addr, width) {
            Ok(v) => {
                let extra = self.cfg.scratchpad_cycles.saturating_sub(1) as u64;
                self.charge(extra, |b| &mut b.stall_scratchpad);
                Ok(v as u32)
            }
            Err(e) => Err(format!("scratchpad load failed: {e}")),
        }
    }

    fn mem_store(
        &mut self,
        addr: u64,
        width: u32,
        value: u32,
        issue: SimTime,
    ) -> Result<(), String> {
        if addr >= layout::STAGING_OUT_BASE {
            let off = addr - layout::STAGING_OUT_BASE;
            let Some(staging) = &mut self.staging else {
                return Err("staging access without ping-pong buffers".into());
            };
            if off as usize + width as usize > staging.bank_bytes() as usize {
                return Err(format!("staging store past bank at {off:#x}"));
            }
            staging.store_out(off, width, value);
            let extra = self.cfg.scratchpad_cycles.saturating_sub(1) as u64;
            self.charge(extra, |b| &mut b.stall_scratchpad);
            return Ok(());
        }
        if addr >= layout::STAGING_IN_BASE {
            return Err(format!("store into input staging window {addr:#x}"));
        }
        if addr >= layout::DRAM_BASE {
            let off = addr - layout::DRAM_BASE;
            let Some(window) = &mut self.window else {
                return Err("DRAM access without a staging window".into());
            };
            if !window.contains(off, width) {
                return Err(format!("DRAM store outside window at {off:#x}"));
            }
            window.store(off, width, value);
            let Some(hier) = &mut self.hierarchy else {
                return Err("DRAM access without a cache hierarchy".into());
            };
            let (complete, _) = hier.access(AccessKind::Store, self.pc as u64, off, width, issue);
            let stall = self.stall_cycles(issue, complete);
            self.charge(stall, |b| &mut b.stall_l1);
            return Ok(());
        }
        self.scratchpad
            .store(addr, width, value as u64)
            .map_err(|e| format!("scratchpad store failed: {e}"))?;
        let extra = self.cfg.scratchpad_cycles.saturating_sub(1) as u64;
        self.charge(extra, |b| &mut b.stall_scratchpad);
        Ok(())
    }

    // ------------------------------------------------------------- streams

    fn stream_load(
        &mut self,
        env: &mut dyn StreamEnv,
        sid: u32,
        width: u32,
        issue: SimTime,
    ) -> Result<Option<u32>, String> {
        {
            match self.sbuf.read(sid, width, issue) {
                Ok(ReadOutcome::Data {
                    value,
                    ready,
                    freed_pages,
                }) => {
                    let stall = self.stall_cycles(issue, ready);
                    self.charge(stall, |b| &mut b.stall_stream);
                    if freed_pages > 0 {
                        let now = self.local_time();
                        env.refill_stream(self.id, sid, now, &mut self.sbuf);
                    }
                    Ok(Some(value as u32))
                }
                Ok(ReadOutcome::Blocked) => {
                    env.refill_stream(self.id, sid, issue, &mut self.sbuf);
                    match self.sbuf.read(sid, width, issue) {
                        Ok(ReadOutcome::Blocked) => {
                            Err(format!("stream {sid} starved after refill"))
                        }
                        Ok(ReadOutcome::Exhausted) => {
                            self.state = CoreState::Halted;
                            Ok(None)
                        }
                        Ok(ReadOutcome::Data {
                            value,
                            ready,
                            freed_pages,
                        }) => {
                            let stall = self.stall_cycles(issue, ready);
                            self.charge(stall, |b| &mut b.stall_stream);
                            if freed_pages > 0 {
                                let now = self.local_time();
                                env.refill_stream(self.id, sid, now, &mut self.sbuf);
                            }
                            Ok(Some(value as u32))
                        }
                        Err(e) => Err(format!("stream load failed: {e}")),
                    }
                }
                Ok(ReadOutcome::Exhausted) => {
                    self.state = CoreState::Halted;
                    Ok(None)
                }
                Err(e) => Err(format!("stream load failed: {e}")),
            }
        }
    }

    fn stream_store(
        &mut self,
        env: &mut dyn StreamEnv,
        sid: u32,
        width: u32,
        value: u32,
        issue: SimTime,
    ) -> Result<(), String> {
        let outcome = self
            .sbuf
            .write(sid, width, value as u64, issue)
            .map_err(|e| format!("stream store failed: {e}"))?;
        let stall = self.stall_cycles(issue, outcome.ready);
        self.charge(stall, |b| &mut b.stall_swap);
        if let Some(page) = outcome.completed_page {
            let now = self.local_time();
            let done = env.drain_page(self.id, sid, page, now);
            self.sbuf
                .note_drain(sid, done)
                .map_err(|e| format!("drain bookkeeping failed: {e}"))?;
        }
        Ok(())
    }

    fn buf_swap(
        &mut self,
        env: &mut dyn StreamEnv,
        bank: u8,
        issue: SimTime,
    ) -> Result<(), String> {
        let Some(_) = self.staging else {
            return Err("buf.swap without ping-pong buffers".into());
        };
        match bank {
            0 => {
                match env.next_input_bank(self.id, issue) {
                    Some((data, ready)) => {
                        let staging = self.staging.as_mut().expect("checked");
                        staging.install_input(data);
                        let stall = self.stall_cycles(issue, ready);
                        self.charge(stall, |b| &mut b.stall_swap);
                    }
                    None => {
                        self.staging.as_mut().expect("checked").set_exhausted();
                    }
                }
                Ok(())
            }
            1 => {
                let staging = self.staging.as_mut().expect("checked");
                let prev_done = staging.drain_done();
                let data = staging.take_output();
                let stall = self.stall_cycles(issue, prev_done);
                self.charge(stall, |b| &mut b.stall_swap);
                let now = self.local_time().max(prev_done);
                let done = env.drain_bank(self.id, data, now);
                self.staging.as_mut().expect("checked").set_drain_done(done);
                Ok(())
            }
            other => Err(format!("buf.swap of unknown bank {other}")),
        }
    }
}

fn sign_extend(v: u32, width: u32) -> u32 {
    match width {
        1 => v as u8 as i8 as i32 as u32,
        2 => v as u16 as i16 as i32 as u32,
        _ => v,
    }
}

#[allow(clippy::manual_checked_ops)] // RISC-V semantics spelled explicitly
#[inline(always)]
fn alu_eval(op: AluOp, a: u32, b: u32) -> u32 {
    match op {
        AluOp::Add => a.wrapping_add(b),
        AluOp::Sub => a.wrapping_sub(b),
        AluOp::Sll => a.wrapping_shl(b & 31),
        AluOp::Slt => ((a as i32) < (b as i32)) as u32,
        AluOp::Sltu => (a < b) as u32,
        AluOp::Xor => a ^ b,
        AluOp::Srl => a.wrapping_shr(b & 31),
        AluOp::Sra => ((a as i32).wrapping_shr(b & 31)) as u32,
        AluOp::Or => a | b,
        AluOp::And => a & b,
        AluOp::Mul => a.wrapping_mul(b),
        AluOp::Mulh => (((a as i32 as i64) * (b as i32 as i64)) >> 32) as u32,
        AluOp::Mulhu => (((a as u64) * (b as u64)) >> 32) as u32,
        AluOp::Div => {
            if b == 0 {
                u32::MAX
            } else if a == i32::MIN as u32 && b == u32::MAX {
                a
            } else {
                ((a as i32) / (b as i32)) as u32
            }
        }
        AluOp::Divu => {
            if b == 0 {
                u32::MAX
            } else {
                a / b
            }
        }
        AluOp::Rem => {
            if b == 0 {
                a
            } else if a == i32::MIN as u32 && b == u32::MAX {
                0
            } else {
                ((a as i32) % (b as i32)) as u32
            }
        }
        AluOp::Remu => {
            if b == 0 {
                a
            } else {
                a % b
            }
        }
    }
}

#[inline(always)]
fn branch_eval(cond: BranchCond, a: u32, b: u32) -> bool {
    match cond {
        BranchCond::Eq => a == b,
        BranchCond::Ne => a != b,
        BranchCond::Lt => (a as i32) < (b as i32),
        BranchCond::Ge => (a as i32) >= (b as i32),
        BranchCond::Ltu => a < b,
        BranchCond::Geu => a >= b,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{NullEnv, SyntheticEnv};
    use assasin_isa::{Assembler, Reg};

    fn run_program(asm: Assembler, cfg: CoreConfig) -> Core {
        let program = asm.finish().expect("assembles");
        let mut core = Core::new(0, cfg, program, None);
        core.run_to_halt(&mut NullEnv);
        core
    }

    #[test]
    fn arithmetic_and_halt() {
        let mut asm = Assembler::new();
        asm.li(Reg::A0, 21);
        asm.li(Reg::A1, 2);
        asm.mul(Reg::A2, Reg::A0, Reg::A1);
        asm.halt();
        let core = run_program(asm, CoreConfig::assasin_sb());
        assert_eq!(core.state(), &CoreState::Halted);
        assert_eq!(core.reg(Reg::A2), 42);
        // li (2) + li (2)... actually each li of a small const is 1 addi.
        assert_eq!(core.mix().total, 4);
        // mul pays 3 cycles, everything else 1.
        assert_eq!(core.cycles(), 3 + 3);
    }

    #[test]
    fn x0_is_hardwired() {
        let mut asm = Assembler::new();
        asm.li(Reg::ZERO, 99);
        asm.addi(Reg::A0, Reg::ZERO, 5);
        asm.halt();
        let core = run_program(asm, CoreConfig::assasin_sb());
        assert_eq!(core.reg(Reg::ZERO), 0);
        assert_eq!(core.reg(Reg::A0), 5);
    }

    #[test]
    fn loop_counts_correctly() {
        // Sum 1..=10 with a countdown loop.
        let mut asm = Assembler::new();
        asm.li(Reg::A0, 10);
        asm.li(Reg::A1, 0);
        let top = asm.label();
        asm.bind(top);
        asm.add(Reg::A1, Reg::A1, Reg::A0);
        asm.addi(Reg::A0, Reg::A0, -1);
        asm.bnez(Reg::A0, top);
        asm.halt();
        let core = run_program(asm, CoreConfig::assasin_sb());
        assert_eq!(core.reg(Reg::A1), 55);
        assert_eq!(core.mix().taken, 9);
        assert_eq!(core.mix().branches, 10);
    }

    #[test]
    fn snapshot_roundtrip_continues_identically() {
        // Sum a long countdown so a mid-run deadline lands inside the loop.
        let mut asm = Assembler::new();
        asm.li(Reg::A0, 500);
        asm.li(Reg::A1, 0);
        let top = asm.label();
        asm.bind(top);
        asm.add(Reg::A1, Reg::A1, Reg::A0);
        asm.addi(Reg::A0, Reg::A0, -1);
        asm.bnez(Reg::A0, top);
        asm.halt();
        let program = asm.finish().expect("assembles");
        let cfg = CoreConfig::assasin_sb();
        let mut original = Core::new(0, cfg, program.clone(), None);
        original.run(&mut NullEnv, SimTime::from_ns(100));
        assert_eq!(original.state(), &CoreState::Running, "deadline mid-loop");

        let mut enc = assasin_snap::Encoder::new();
        original.save_state(&mut enc);
        let bytes = enc.into_bytes();
        let mut restored = Core::new(0, cfg, program, None);
        let mut dec = assasin_snap::Decoder::new(&bytes);
        restored.load_snapshot(&mut dec).expect("load snapshot");
        dec.finish().expect("snapshot fully consumed");

        // Canonical bytes: re-saving the restored core is byte-identical.
        let mut enc2 = assasin_snap::Encoder::new();
        restored.save_state(&mut enc2);
        assert_eq!(bytes, enc2.into_bytes());

        // Continuation: both cores finish in lockstep.
        original.run_to_halt(&mut NullEnv);
        restored.run_to_halt(&mut NullEnv);
        assert_eq!(original.state(), restored.state());
        assert_eq!(original.cycles(), restored.cycles());
        assert_eq!(original.reg(Reg::A1), restored.reg(Reg::A1));
        assert_eq!(original.mix(), restored.mix());
        assert_eq!(original.breakdown(), restored.breakdown());
    }

    #[test]
    fn snapshot_rejects_mismatched_target() {
        let mut asm = Assembler::new();
        asm.halt();
        let program = asm.finish().expect("assembles");
        let core = Core::new(3, CoreConfig::assasin_sb(), program.clone(), None);
        let mut enc = assasin_snap::Encoder::new();
        core.save_state(&mut enc);
        let bytes = enc.into_bytes();
        // Wrong id: the section was routed to the wrong core.
        let mut other = Core::new(4, CoreConfig::assasin_sb(), program, None);
        let mut dec = assasin_snap::Decoder::new(&bytes);
        assert!(matches!(
            other.load_snapshot(&mut dec),
            Err(assasin_snap::SnapError::Malformed(_))
        ));
    }

    #[test]
    fn riscv_division_semantics() {
        let mut asm = Assembler::new();
        asm.li(Reg::A0, 7);
        asm.li(Reg::A1, 0);
        asm.div(Reg::A2, Reg::A0, Reg::A1); // div by zero -> all ones
        asm.rem(Reg::A3, Reg::A0, Reg::A1); // rem by zero -> dividend
        asm.halt();
        let core = run_program(asm, CoreConfig::assasin_sb());
        assert_eq!(core.reg(Reg::A2), u32::MAX);
        assert_eq!(core.reg(Reg::A3), 7);
    }

    #[test]
    fn scratchpad_roundtrip_and_latency() {
        let mut asm = Assembler::new();
        asm.li(Reg::A0, 0x1234);
        asm.sw(Reg::A0, Reg::ZERO, 16);
        asm.lw(Reg::A1, Reg::ZERO, 16);
        asm.halt();
        let mut cfg = CoreConfig::assasin_sp();
        cfg.scratchpad_cycles = 2;
        let core = run_program(asm, cfg);
        assert_eq!(core.reg(Reg::A1), 0x1234);
        assert_eq!(
            core.breakdown().stall_scratchpad,
            2,
            "one extra cycle per access"
        );
    }

    #[test]
    fn stream_sum_matches_golden() {
        // Sum bytes of stream 0, write the 4-byte total to stream 0 out on
        // exhaustion... (stream loads hang at end, so accumulate in sp).
        let mut asm = Assembler::new();
        let top = asm.label();
        asm.bind(top);
        asm.stream_load(Reg::A0, 0, 1);
        asm.add(Reg::A1, Reg::A1, Reg::A0);
        asm.sw(Reg::A1, Reg::ZERO, 0); // keep latest sum in scratchpad
        asm.j(top);
        let program = asm.finish().unwrap();

        let data: Vec<u8> = (0..=255u8).collect();
        let golden: u32 = data.iter().map(|&b| b as u32).sum();

        let mut env = SyntheticEnv::new(8, 64);
        env.set_input(0, &data);
        let mut core = Core::new(0, CoreConfig::assasin_sb(), program, None);
        core.run_to_halt(&mut env);
        assert_eq!(core.state(), &CoreState::Halted);
        assert_eq!(core.scratchpad().load(0, 4).unwrap() as u32, golden);
        assert_eq!(core.mix().stream_loads as usize, data.len() + 1);
    }

    #[test]
    fn stream_copy_roundtrip() {
        // Copy stream 0 -> out stream 0, word at a time.
        let mut asm = Assembler::new();
        let top = asm.label();
        asm.bind(top);
        asm.stream_load(Reg::A0, 0, 4);
        asm.stream_store(0, 4, Reg::A0);
        asm.j(top);
        let program = asm.finish().unwrap();

        let data: Vec<u8> = (0..1024u32).flat_map(|i| i.to_le_bytes()).collect();
        let mut env = SyntheticEnv::new(8, 256);
        env.set_input(0, &data);
        let mut core = Core::new(0, CoreConfig::assasin_sb(), program, None);
        core.run_to_halt(&mut env);
        // Flush the partial final page like the firmware would.
        if let Some(tail) = core.sbuf_mut().flush(0).unwrap() {
            env.drain_page(0, 0, tail, SimTime::ZERO);
        }
        assert_eq!(env.output(0), &data[..]);
    }

    #[test]
    fn stream_stall_accounting_under_slow_input() {
        let mut asm = Assembler::new();
        let top = asm.label();
        asm.bind(top);
        asm.stream_load(Reg::A0, 0, 4);
        asm.j(top);
        let program = asm.finish().unwrap();

        let data = vec![0u8; 64 * 1024];
        let mut env = SyntheticEnv::new(8, 4096);
        env.set_input(0, &data);
        env.set_rate(Some(0.5e9)); // 0.5 GB/s: slower than the core scans
        let mut core = Core::new(0, CoreConfig::assasin_sb(), program, None);
        core.run_to_halt(&mut env);
        assert_eq!(core.state(), &CoreState::Halted);
        assert!(
            core.breakdown().stall_stream > core.breakdown().busy,
            "input-bound run must be dominated by stream stalls: {:?}",
            core.breakdown()
        );
    }

    #[test]
    fn dram_window_load_uses_hierarchy() {
        use assasin_mem::Dram;
        let mut asm = Assembler::new();
        asm.lui(Reg::S0, 0x10000); // DRAM_BASE
        asm.lw(Reg::A0, Reg::S0, 0);
        asm.lw(Reg::A1, Reg::S0, 4);
        asm.halt();
        let program = asm.finish().unwrap();
        let dram = Dram::lpddr5_8gbps().into_shared();
        let mut core = Core::new(0, CoreConfig::baseline(), program, Some(dram));
        let mut w = DramWindow::new(4096, 4096);
        w.stage(0, &[1, 0, 0, 0, 2, 0, 0, 0], SimTime::ZERO);
        core.set_window(w);
        core.run_to_halt(&mut NullEnv);
        assert_eq!(core.state(), &CoreState::Halted);
        assert_eq!(core.reg(Reg::A0), 1);
        assert_eq!(core.reg(Reg::A1), 2);
        // First lw misses to DRAM, second hits L1.
        assert!(core.breakdown().stall_dram > 0);
        let (hits, misses) = core.hierarchy().unwrap().l1_counters().unwrap();
        assert_eq!((hits, misses), (1, 1));
    }

    #[test]
    fn pingpong_swap_flow() {
        // Scan banks byte by byte until exhausted; count bytes in a3.
        let mut asm = Assembler::new();
        let outer = asm.label();
        let done = asm.label();
        asm.bind(outer);
        asm.buf_swap(0);
        asm.csrr(Reg::A0, Core::CSR_IN_BANK_LEN);
        asm.beqz(Reg::A0, done);
        asm.lui(Reg::S0, 0x20000); // STAGING_IN_BASE
        asm.li(Reg::T0, 0);
        let inner = asm.label();
        asm.bind(inner);
        asm.add(Reg::T1, Reg::S0, Reg::T0);
        asm.lbu(Reg::T2, Reg::T1, 0);
        asm.add(Reg::A3, Reg::A3, Reg::T2);
        asm.addi(Reg::T0, Reg::T0, 1);
        asm.bltu(Reg::T0, Reg::A0, inner);
        asm.j(outer);
        asm.bind(done);
        asm.halt();
        let program = asm.finish().unwrap();

        let data: Vec<u8> = (0..300u32).map(|i| (i % 251) as u8).collect();
        let golden: u32 = data.iter().map(|&b| b as u32).sum();
        let mut env = SyntheticEnv::new(1, 64);
        env.set_banks(&data, 128);
        let mut core = Core::new(0, CoreConfig::assasin_sp(), program, None);
        core.run_to_halt(&mut env);
        assert_eq!(core.state(), &CoreState::Halted, "{:?}", core.state());
        assert_eq!(core.reg(Reg::A3), golden);
    }

    #[test]
    fn wedges_on_bad_address() {
        let mut asm = Assembler::new();
        asm.lui(Reg::S0, 0x0F000);
        asm.lw(Reg::A0, Reg::S0, 0); // far past scratchpad
        asm.halt();
        let program = asm.finish().unwrap();
        let mut core = Core::new(0, CoreConfig::assasin_sb(), program, None);
        core.run_to_halt(&mut NullEnv);
        assert!(matches!(core.state(), CoreState::Wedged(_)));
    }

    #[test]
    fn deadline_bounds_execution() {
        let mut asm = Assembler::new();
        let top = asm.label();
        asm.bind(top);
        asm.addi(Reg::A0, Reg::A0, 1);
        asm.j(top);
        let program = asm.finish().unwrap();
        let mut core = Core::new(0, CoreConfig::assasin_sb(), program, None);
        core.run(&mut NullEnv, SimTime::from_us(1));
        assert_eq!(core.state(), &CoreState::Running);
        let c1 = core.cycles();
        assert!((990..=1010).contains(&c1), "cycles {c1}");
    }
}

#[cfg(test)]
mod more_tests {
    use super::*;
    use crate::{CoreConfig, NullEnv, SyntheticEnv};
    use assasin_isa::{csr, Assembler, Reg};

    fn run(asm: Assembler) -> Core {
        let mut core = Core::new(0, CoreConfig::assasin_sb(), asm.finish().unwrap(), None);
        core.run_to_halt(&mut NullEnv);
        core
    }

    #[test]
    fn csr_cycle_counts_up() {
        let mut asm = Assembler::new();
        asm.csrr(Reg::A0, csr::CYCLE);
        asm.nop();
        asm.nop();
        asm.csrr(Reg::A1, csr::CYCLE);
        asm.halt();
        let core = run(asm);
        assert!(core.reg(Reg::A1) > core.reg(Reg::A0));
    }

    #[test]
    fn stream_csrs_track_head_and_tail() {
        let mut asm = Assembler::new();
        asm.stream_load(Reg::A0, 0, 4);
        asm.stream_store(1, 4, Reg::A0);
        asm.csrr(Reg::A2, csr::in_head(0));
        asm.csrr(Reg::A3, csr::out_tail(1));
        asm.halt();
        let mut env = SyntheticEnv::new(8, 64);
        env.set_input(0, &[1, 2, 3, 4, 5, 6, 7, 8]);
        let mut core = Core::new(0, CoreConfig::assasin_sb(), asm.finish().unwrap(), None);
        core.run_to_halt(&mut env);
        assert_eq!(core.state(), &CoreState::Halted);
        assert_eq!(core.reg(Reg::A2), 4, "in head after one word");
        assert_eq!(core.reg(Reg::A3), 4, "out tail after one word");
    }

    #[test]
    fn stream_avail_and_eos_report_state() {
        let mut asm = Assembler::new();
        asm.stream_avail(Reg::A0, 0); // triggers refill: full input queued
        asm.stream_eos(Reg::A1, 0); // not exhausted yet
        asm.stream_load(Reg::A2, 0, 4);
        asm.stream_eos(Reg::A3, 0); // all consumed + closed -> 1
        asm.halt();
        let mut env = SyntheticEnv::new(8, 64);
        env.set_input(0, &[9, 0, 0, 0]);
        let mut core = Core::new(0, CoreConfig::assasin_sb(), asm.finish().unwrap(), None);
        core.run_to_halt(&mut env);
        assert_eq!(core.reg(Reg::A0), 4, "four bytes available");
        assert_eq!(core.reg(Reg::A1), 0, "not exhausted");
        assert_eq!(core.reg(Reg::A2), 9);
        assert_eq!(core.reg(Reg::A3), 1, "exhausted after consuming");
    }

    #[test]
    fn call_and_return_through_ra() {
        let mut asm = Assembler::new();
        let func = asm.label();
        let done = asm.label();
        asm.li(Reg::A0, 5);
        asm.jal(Reg::RA, func);
        asm.j(done);
        asm.bind(func);
        asm.addi(Reg::A0, Reg::A0, 37);
        asm.ret();
        asm.bind(done);
        asm.halt();
        let core = run(asm);
        assert_eq!(core.reg(Reg::A0), 42);
        assert_eq!(core.state(), &CoreState::Halted);
    }

    #[test]
    fn narrow_loads_sign_extend() {
        let mut asm = Assembler::new();
        asm.li(Reg::T0, 0xFF); // byte 0xFF in scratchpad
        asm.sb(Reg::T0, Reg::ZERO, 0);
        asm.lb(Reg::A0, Reg::ZERO, 0); // signed: -1
        asm.lbu(Reg::A1, Reg::ZERO, 0); // unsigned: 255
        asm.li(Reg::T0, 0x8000);
        asm.sh(Reg::T0, Reg::ZERO, 4);
        asm.lh(Reg::A2, Reg::ZERO, 4);
        asm.lhu(Reg::A3, Reg::ZERO, 4);
        asm.halt();
        let core = run(asm);
        assert_eq!(core.reg(Reg::A0), u32::MAX);
        assert_eq!(core.reg(Reg::A1), 255);
        assert_eq!(core.reg(Reg::A2), 0xFFFF_8000);
        assert_eq!(core.reg(Reg::A3), 0x8000);
    }

    #[test]
    fn shift_semantics_match_riscv() {
        let mut asm = Assembler::new();
        asm.li(Reg::T0, -8);
        asm.srai(Reg::A0, Reg::T0, 1); // arithmetic: -4
        asm.srli(Reg::A1, Reg::T0, 1); // logical: big positive
        asm.li(Reg::T1, 33);
        asm.sll(Reg::A2, Reg::T0, Reg::T1); // shamt masked to 1
        asm.halt();
        let core = run(asm);
        assert_eq!(core.reg(Reg::A0) as i32, -4);
        assert_eq!(core.reg(Reg::A1), (-8i32 as u32) >> 1);
        assert_eq!(core.reg(Reg::A2), (-8i32 as u32) << 1);
    }

    #[test]
    fn mulh_variants() {
        let mut asm = Assembler::new();
        asm.li(Reg::T0, -2);
        asm.li(Reg::T1, 3);
        asm.mulh(Reg::A0, Reg::T0, Reg::T1); // signed high of -6 = -1
        asm.mulhu(Reg::A1, Reg::T0, Reg::T1); // unsigned high of huge product
        asm.halt();
        let core = run(asm);
        assert_eq!(core.reg(Reg::A0), u32::MAX);
        let expect = ((0xFFFF_FFFEu64 * 3) >> 32) as u32;
        assert_eq!(core.reg(Reg::A1), expect);
    }

    #[test]
    fn wedges_on_store_to_input_staging() {
        let mut asm = Assembler::new();
        asm.lui(Reg::S0, 0x20000);
        asm.sw(Reg::A0, Reg::S0, 0);
        asm.halt();
        let mut core = Core::new(0, CoreConfig::assasin_sp(), asm.finish().unwrap(), None);
        core.run_to_halt(&mut NullEnv);
        assert!(matches!(core.state(), CoreState::Wedged(m) if m.contains("input staging")));
    }

    #[test]
    fn wedges_on_pc_past_end() {
        let mut asm = Assembler::new();
        asm.nop(); // falls off the end
        let mut core = Core::new(0, CoreConfig::assasin_sb(), asm.finish().unwrap(), None);
        core.run_to_halt(&mut NullEnv);
        assert!(matches!(core.state(), CoreState::Wedged(m) if m.contains("past end")));
    }

    #[test]
    fn taken_branches_cost_the_penalty() {
        // Two programs: taken vs not-taken branch.
        let build = |taken: bool| {
            let mut asm = Assembler::new();
            let l = asm.label();
            asm.li(Reg::T0, if taken { 0 } else { 1 });
            asm.beqz(Reg::T0, l);
            asm.nop();
            asm.bind(l);
            asm.halt();
            let mut core = Core::new(0, CoreConfig::assasin_sb(), asm.finish().unwrap(), None);
            core.run_to_halt(&mut NullEnv);
            core.cycles()
        };
        let taken = build(true);
        let not_taken = build(false);
        // Taken: li + beq(1+2) + halt = 5; not taken: li + beq + nop + halt = 4.
        assert_eq!(taken, 5);
        assert_eq!(not_taken, 4);
    }
}
