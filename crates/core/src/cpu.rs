//! The cycle-level in-order core interpreter.

use crate::regions::{DramWindow, PingPong};
use crate::{CoreConfig, EngineKind, StreamEnv};
use assasin_isa::{csr, layout, AccessStyle, AluOp, BranchCond, Instr, LaunchInfo, Program};
use assasin_mem::{
    AccessKind, MemError, MemHierarchy, ReadOutcome, Scratchpad, ServedBy, StreamBuffer,
};
use assasin_sim::stats::CycleBreakdown;
use assasin_sim::SimTime;

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

/// The base ALU ops: the one list the [`Slot`] variants, the predecode
/// mapping and the dispatch arms are generated from, so each op's
/// expression is written once. Each entry names the [`AluOp`], its
/// register-form and immediate-form slots, and its value over the
/// operands `a` and `b`; the M-extension ops, evaluated by
/// [`muldiv_eval`], lead the list. Passes `$args` and the list to
/// `$callback`.
macro_rules! alu_ops {
    ($callback:ident! $args:tt) => {
        $callback! {
            $args
            muldiv: Mul Mulh Mulhu Div Divu Rem Remu;
            Add, AddI: |a, b| a.wrapping_add(b);
            Sub, SubI: |a, b| a.wrapping_sub(b);
            Sll, SllI: |a, b| a.wrapping_shl(b & 31);
            Slt, SltI: |a, b| ((a as i32) < (b as i32)) as u32;
            Sltu, SltuI: |a, b| (a < b) as u32;
            Xor, XorI: |a, b| a ^ b;
            Srl, SrlI: |a, b| a.wrapping_shr(b & 31);
            Sra, SraI: |a, b| ((a as i32).wrapping_shr(b & 31)) as u32;
            Or, OrI: |a, b| a | b;
            And, AndI: |a, b| a & b;
        }
    };
}

/// Declares `enum Slot` with one register-form and one immediate-form
/// variant per base ALU op ahead of the variants written out.
macro_rules! slot_enum {
    (
        { $(#[$attr:meta])* enum Slot { $($rest:tt)* } }
        muldiv: $($m:ident)*;
        $($op:ident, $imm:ident: |$a:ident, $b:ident| $e:expr;)*
    ) => {
        $(#[$attr])*
        enum Slot {
            $(
                $op { rd: u8, rs1: u8, rs2: u8 },
                $imm { rd: u8, rs1: u8, imm: u32 },
            )*
            $($rest)*
        }
    };
}

/// Defines `alu_slot` and `alu_imm_slot`, which lower a base ALU op to
/// its own slot and hand an M-extension op back as a [`MulDivOp`].
macro_rules! alu_lowering {
    (
        {}
        muldiv: $($m:ident)*;
        $($op:ident, $imm:ident: |$a:ident, $b:ident| $e:expr;)*
    ) => {
        /// The slot of a register-form base ALU op, or the M-extension op.
        fn alu_slot(op: AluOp, rd: u8, rs1: u8, rs2: u8) -> Result<Slot, MulDivOp> {
            match op {
                $(AluOp::$op => Ok(Slot::$op { rd, rs1, rs2 }),)*
                $(AluOp::$m => Err(MulDivOp::$m),)*
            }
        }

        /// The slot of an immediate-form base ALU op, or the M-extension op.
        fn alu_imm_slot(op: AluOp, rd: u8, rs1: u8, imm: u32) -> Result<Slot, MulDivOp> {
            match op {
                $(AluOp::$op => Ok(Slot::$imm { rd, rs1, imm }),)*
                $(AluOp::$m => Err(MulDivOp::$m),)*
            }
        }
    };
}

/// Expands to `match $slot { <the base ALU arms> <the arms written out> }`
/// inside a `Core` method, so every slot, ALU or not, is one arm of one
/// `match`: one dispatch per instruction.
macro_rules! dispatch {
    (
        { $core:ident, $slot:expr, $($rest:tt)* }
        muldiv: $($m:ident)*;
        $($op:ident, $imm:ident: |$a:ident, $b:ident| $e:expr;)*
    ) => {
        match $slot {
            $(
                Slot::$op { rd, rs1, rs2 } => {
                    let $a = $core.regs[rs1 as usize];
                    let $b = $core.regs[rs2 as usize];
                    $core.set_reg_idx(rd, $e);
                    $core.mix.alu += 1;
                }
                Slot::$imm { rd, rs1, imm } => {
                    let $a = $core.regs[rs1 as usize];
                    let $b = imm;
                    $core.set_reg_idx(rd, $e);
                    $core.mix.alu += 1;
                }
            )*
            $($rest)*
        }
    };
}

alu_ops!(slot_enum! {
    /// One predecoded instruction: register fields resolved to raw
    /// indices, immediates pre-shifted/cast to their execution form, and
    /// multi-cycle ALU stalls baked in at decode, so the dispatch loop
    /// does no per-step field conversion beyond a single bounds check on
    /// the slot fetch. Each [`Instr`] lowers to exactly one slot, so `pc`
    /// indexes instructions and slots alike; each base ALU op has a
    /// register-form and an immediate-form variant of its own (see
    /// [`alu_ops`]), so an ALU instruction dispatches once.
    #[derive(Debug, Clone, Copy)]
    enum Slot {
        /// Multi-cycle mul/div with the extra stall cycles pre-resolved
        /// from [`CoreConfig::mul_cycles`]/[`CoreConfig::div_cycles`].
        MulDiv {
            op: MulDivOp,
            rd: u8,
            rs1: u8,
            rs2: u8,
            stall: u64,
        },
        /// An M-extension op in immediate form: encodable, and executed
        /// like a base immediate op (one cycle, counted as ALU).
        MulDivImm {
            op: MulDivOp,
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
    }
});

alu_ops!(alu_lowering! {});

/// The M-extension ops: one [`Slot::MulDiv`] variant evaluated by
/// [`muldiv_eval`].
#[derive(Debug, Clone, Copy)]
enum MulDivOp {
    Mul,
    Mulh,
    Mulhu,
    Div,
    Divu,
    Rem,
    Remu,
}

impl MulDivOp {
    /// Extra cycles beyond the base cycle, from the configured latency.
    fn stall(self, cfg: &CoreConfig) -> u64 {
        let latency = match self {
            MulDivOp::Mul | MulDivOp::Mulh | MulDivOp::Mulhu => cfg.mul_cycles,
            MulDivOp::Div | MulDivOp::Divu | MulDivOp::Rem | MulDivOp::Remu => cfg.div_cycles,
        };
        latency.saturating_sub(1) as u64
    }
}

/// Predecodes a program into the dense execution array the dispatch loop
/// runs from. A representation change only: every slot executes exactly
/// as the corresponding [`Instr`] did.
fn predecode(program: &Program, cfg: &CoreConfig) -> Box<[Slot]> {
    program
        .instrs()
        .iter()
        .map(|&i| match i {
            Instr::Alu { op, rd, rs1, rs2 } => {
                let (rd, rs1, rs2) = (rd.index(), rs1.index(), rs2.index());
                alu_slot(op, rd, rs1, rs2).unwrap_or_else(|op| Slot::MulDiv {
                    op,
                    rd,
                    rs1,
                    rs2,
                    stall: op.stall(cfg),
                })
            }
            Instr::AluImm { op, rd, rs1, imm } => {
                let (rd, rs1, imm) = (rd.index(), rs1.index(), imm as u32);
                alu_imm_slot(op, rd, rs1, imm).unwrap_or_else(|op| Slot::MulDivImm {
                    op,
                    rd,
                    rs1,
                    imm,
                })
            }
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
        .collect()
}

/// How a core reaches storage data (Table IV): the one structure that
/// differs between the interpreted engines. Chosen by [`Core::new`] from
/// [`EngineKind::style`]; a program touching a structure its engine lacks
/// wedges the core.
// One per core, built once and never moved per instruction: boxing the
// hierarchy would only add a pointer chase to every DRAM access.
#[allow(clippy::large_enum_variant)]
#[derive(Debug)]
pub enum DataPath {
    /// Baseline, Prefetch: a DRAM window the firmware stages pages into,
    /// read through the cache hierarchy. The DRAM itself belongs to the
    /// device; the environment lends it per access ([`StreamEnv::dram`]).
    Mem {
        /// The L1/L2 (and prefetcher) in front of DRAM.
        hierarchy: MemHierarchy,
        /// The staged input and the output area (empty until
        /// [`Core::launch_mem`]).
        window: DramWindow,
    },
    /// AssasinSp: ping-pong staging banks.
    PingPong(PingPong),
    /// AssasinSb, AssasinSb$: the streambuffer behind the stream ISA.
    Stream(StreamBuffer),
}

/// The wedge messages for a program touching a structure its engine
/// lacks, one per structure.
const NO_DRAM: &str = "this engine has no DRAM window";
const NO_STAGING: &str = "this engine has no ping-pong staging";
const NO_SBUF: &str = "this engine has no streambuffer";

impl DataPath {
    fn staging(&mut self) -> Result<&mut PingPong, &'static str> {
        match self {
            DataPath::PingPong(staging) => Ok(staging),
            _ => Err(NO_STAGING),
        }
    }

    fn stream(&mut self) -> Result<&mut StreamBuffer, &'static str> {
        match self {
            DataPath::Stream(sbuf) => Ok(sbuf),
            _ => Err(NO_SBUF),
        }
    }
}

/// One in-order scalar core with the Table IV memory structures attached.
#[derive(Debug)]
pub struct Core {
    id: usize,
    cfg: CoreConfig,
    regs: [u32; 32],
    pc: u32,
    /// Predecoded execution array (see [`Slot`]); `pc` indexes into it.
    code: Box<[Slot]>,
    cycle: u64,
    state: CoreState,
    scratchpad: Scratchpad,
    path: DataPath,
    /// Stall cycles of an L1 hit on the Mem data path, beyond the base
    /// cycle (0 on the other paths): the same for every hit, so computed
    /// once here rather than divided out per access.
    l1_hit_stall: u64,
    breakdown: CycleBreakdown,
    mix: InstrMix,
}

impl Core {
    /// Builds a core. The Mem data path (Baseline, Prefetch) gets Table
    /// IV's L1D and L2, plus DCPT on Prefetch, and reaches DRAM through
    /// the environment it runs in ([`StreamEnv::dram`]); its cache
    /// hierarchy models the LPDDR5 part's access latency.
    ///
    /// # Panics
    ///
    /// Panics if [`CoreConfig::kind`] is [`EngineKind::Udp`] (UDP lanes
    /// are modeled by [`UdpLane`](crate::UdpLane), not by this
    /// interpreter).
    pub fn new(id: usize, cfg: CoreConfig, program: Program) -> Self {
        assert!(
            cfg.kind != EngineKind::Udp,
            "UDP lanes are modeled analytically, not by Core"
        );
        let mut l1_hit_stall = 0;
        let path = match cfg.kind.style() {
            AccessStyle::Mem => {
                l1_hit_stall = cfg
                    .clock
                    .dur_to_cycles_ceil(MemHierarchy::L1_HIT)
                    .saturating_sub(1);
                DataPath::Mem {
                    hierarchy: MemHierarchy::new(cfg.kind == EngineKind::Prefetch),
                    window: DramWindow::default(),
                }
            }
            AccessStyle::PingPong => DataPath::PingPong(PingPong::new(cfg.staging_bytes)),
            AccessStyle::Stream => DataPath::Stream(StreamBuffer::new(cfg.streambuffer)),
        };
        let code = predecode(&program, &cfg);
        Core {
            id,
            cfg,
            regs: [0; 32],
            pc: 0,
            code,
            cycle: 0,
            state: CoreState::Running,
            scratchpad: Scratchpad::new(cfg.scratchpad_bytes as usize),
            path,
            l1_hit_stall,
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

    /// Immutable scratchpad view (result extraction).
    pub fn scratchpad(&self) -> &Scratchpad {
        &self.scratchpad
    }

    /// Writes a kernel's function state into the scratchpad before launch:
    /// `(offset, bytes)` pairs, as the kernels' `scratchpad_image`
    /// functions return them.
    pub fn preload(&mut self, image: &[(u32, Vec<u8>)]) -> Result<(), MemError> {
        for (off, bytes) in image {
            self.scratchpad.write_bytes(*off as u64, bytes)?;
        }
        Ok(())
    }

    /// How this core reaches storage data.
    pub fn data_path(&self) -> &DataPath {
        &self.path
    }

    /// Mutable data path (the firmware prefills streambuffers).
    pub fn data_path_mut(&mut self) -> &mut DataPath {
        &mut self.path
    }

    /// Attaches a Mem-style launch window and writes its [`LaunchInfo`]
    /// into the launch registers. Fails on engines without a DRAM window.
    pub fn launch_mem(&mut self, window: DramWindow) -> Result<(), String> {
        let DataPath::Mem { window: slot, .. } = &mut self.path else {
            return Err(NO_DRAM.into());
        };
        let launch = window.launch();
        *slot = window;
        let (r_len, r_stride, r_out) = LaunchInfo::regs();
        self.set_reg(r_len, launch.in_len);
        self.set_reg(r_stride, launch.in_stride);
        self.set_reg(r_out, launch.out_offset);
        Ok(())
    }

    /// The output a halted Mem-style kernel left in its DRAM window (see
    /// [`DramWindow::output`]). Fails on engines without a DRAM window.
    pub fn mem_output(&self) -> Result<&[u8], String> {
        let DataPath::Mem { window, .. } = &self.path else {
            return Err(NO_DRAM.into());
        };
        window.output(self.reg(LaunchInfo::OUT_CURSOR))
    }

    /// Drains the partial last page of output stream 0 into `env` at the
    /// core's local time, as the firmware does once the core halts. Does
    /// nothing on engines without a streambuffer.
    pub fn flush_output<E: StreamEnv>(&mut self, env: &mut E) -> Result<(), String> {
        let now = self.local_time();
        let DataPath::Stream(sbuf) = &mut self.path else {
            return Ok(());
        };
        if let Some(tail) = sbuf.flush(0).map_err(|e| format!("flush: {e}"))? {
            env.drain_page(self.id, 0, tail, now);
        }
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
    #[inline(always)]
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
    /// Generic over the environment, so every refill, drain and DRAM
    /// borrow is a direct call the compiler can inline.
    ///
    /// The unconditional per-instruction counters (`mix.total`, the base
    /// busy cycle) are accumulated locally and flushed once per call —
    /// they are only observed between epochs, and keeping them out of the
    /// dispatch loop measurably speeds up the interpreter. Cycle counts
    /// and stall buckets stay exact per instruction (timing depends on
    /// them mid-step).
    ///
    /// `CoreState` is checked once on entry; after that the loop stops
    /// only when a slot reports that it stopped the core (halt, exhausted
    /// stream, wedge) or the clock reaches the deadline, which is
    /// pre-converted to a cycle count so the per-instruction bound is one
    /// integer compare.
    pub fn run<E: StreamEnv>(&mut self, env: &mut E, deadline: SimTime) -> RunOutcome {
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
    /// on a running core, fetches and dispatches slots until one stops
    /// the core or the clock reaches `cycle_limit`, then flushes the
    /// batched per-instruction counters. Every dispatched slot counts as
    /// retired, the one that stops the core included.
    fn run_cycles<E: StreamEnv>(&mut self, env: &mut E, cycle_limit: u64) {
        if self.state != CoreState::Running {
            return;
        }
        let mut retired = 0u64;
        while self.cycle < cycle_limit {
            let Some(&slot) = self.code.get(self.pc as usize) else {
                self.wedge("pc past end of program".into());
                break;
            };
            retired += 1;
            if !self.exec_slot(slot, env) {
                break;
            }
        }
        self.flush_retired(retired);
    }

    /// Runs to completion (no deadline). Mostly for tests; the SSD uses
    /// bounded epochs. Batches the per-instruction counters like
    /// [`Core::run`].
    pub fn run_to_halt<E: StreamEnv>(&mut self, env: &mut E) -> &CoreState {
        self.run_cycles(env, u64::MAX);
        &self.state
    }

    /// The issue time of the instruction dispatched at `cycle` — computed
    /// lazily, only by the handlers that model memory or stream timing
    /// (ALU and control flow never pay the conversion).
    fn issue_at(&self, cycle: u64) -> SimTime {
        self.cfg.clock.cycle_time(SimTime::ZERO, cycle)
    }

    /// Dispatches one predecoded slot, which retires one instruction; the
    /// caller batches that into `mix.total` plus a base busy cycle.
    /// Returns whether the core still runs: `false` once the slot halted
    /// or wedged it.
    ///
    /// Assumes the core is running — [`Core::run_cycles`] checks the state
    /// on entry and stops when this returns `false`.
    #[inline(always)]
    fn exec_slot<E: StreamEnv>(&mut self, slot: Slot, env: &mut E) -> bool {
        let issue_cycle = self.cycle;
        let mut next_pc = self.pc + 1;
        // Base cost: one cycle, charged up front; stalls add on top.
        self.cycle += 1;

        alu_ops!(dispatch! { self, slot,
            Slot::MulDiv {
                op,
                rd,
                rs1,
                rs2,
                stall,
            } => {
                let a = self.regs[rs1 as usize];
                let b = self.regs[rs2 as usize];
                self.set_reg_idx(rd, muldiv_eval(op, a, b));
                self.mix.muldiv += 1;
                self.breakdown.busy += stall;
                self.cycle += stall;
            }
            Slot::MulDivImm { op, rd, rs1, imm } => {
                let a = self.regs[rs1 as usize];
                self.set_reg_idx(rd, muldiv_eval(op, a, imm));
                self.mix.alu += 1;
            }
            Slot::Lui { rd, imm } => {
                self.set_reg_idx(rd, imm);
                self.mix.alu += 1;
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
                let width = width as u32;
                let loaded = if addr < layout::DRAM_BASE {
                    self.scratchpad_load(addr, width)
                } else {
                    let issue = self.issue_at(issue_cycle);
                    match self.dram_load_l1_hit(env, addr, width, issue) {
                        Some(v) => Ok(v),
                        None => self.mem_load(env, addr, width, issue),
                    }
                };
                match loaded {
                    Ok(raw) => {
                        let v = if signed { sign_extend(raw, width) } else { raw };
                        self.set_reg_idx(rd, v);
                    }
                    Err(msg) => {
                        self.wedge(msg);
                        return false;
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
                let width = width as u32;
                let stored = if addr < layout::DRAM_BASE {
                    self.scratchpad_store(addr, width, value)
                } else {
                    let issue = self.issue_at(issue_cycle);
                    match self.dram_store_l1_hit(env, addr, width, value, issue) {
                        Some(()) => Ok(()),
                        None => self.mem_store(env, addr, width, value, issue),
                    }
                };
                if let Err(msg) = stored {
                    self.wedge(msg);
                    return false;
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
                return false;
            }
            Slot::StreamLoad { rd, sid, width } => {
                self.mix.stream_loads += 1;
                let (sid, width) = (sid as u32, width as u32);
                let issue = self.issue_at(issue_cycle);
                // Fast arm: a word inside the head page that does not
                // finish it; everything else takes `stream_load`.
                let head = match &mut self.path {
                    DataPath::Stream(sbuf) => sbuf.read_in_head_page(sid, width, issue),
                    _ => None,
                };
                let loaded = match head {
                    Some((value, ready)) => {
                        let stall = self.stall_cycles(issue, ready);
                        self.charge(stall, |b| &mut b.stall_stream);
                        Ok(Some(value as u32))
                    }
                    None => self.stream_load(env, sid, width, issue),
                };
                match loaded {
                    Ok(Some(v)) => self.set_reg_idx(rd, v),
                    Ok(None) => return false, // halted on exhausted stream
                    Err(msg) => {
                        self.wedge(msg);
                        return false;
                    }
                }
            }
            Slot::StreamStore { sid, width, rs } => {
                self.mix.stream_stores += 1;
                let (sid, width) = (sid as u32, width as u32);
                let value = self.regs[rs as usize];
                // Fast arm: a word inside the page under assembly that
                // does not complete it is ready at once (no stall);
                // everything else takes `stream_store`.
                let mid = match &mut self.path {
                    DataPath::Stream(sbuf) => sbuf.write_mid_page(sid, width, value as u64),
                    _ => None,
                };
                if mid.is_none() {
                    let issue = self.issue_at(issue_cycle);
                    if let Err(msg) = self.stream_store(env, sid, width, value, issue) {
                        self.wedge(msg);
                        return false;
                    }
                }
            }
            Slot::StreamAvail { rd, sid } => {
                let sid = sid as u32;
                let issue = self.issue_at(issue_cycle);
                match self.stream_query(env, sid, issue, |sbuf| {
                    sbuf.in_bytes_available(sid).min(u32::MAX as u64) as u32
                }) {
                    Ok(avail) => self.set_reg_idx(rd, avail),
                    Err(msg) => {
                        self.wedge(msg);
                        return false;
                    }
                }
            }
            Slot::StreamEos { rd, sid } => {
                let sid = sid as u32;
                let issue = self.issue_at(issue_cycle);
                match self.stream_query(env, sid, issue, |sbuf| sbuf.is_exhausted(sid) as u32) {
                    Ok(eos) => self.set_reg_idx(rd, eos),
                    Err(msg) => {
                        self.wedge(msg);
                        return false;
                    }
                }
            }
            Slot::BufSwap { bank } => {
                if let Err(msg) = self.buf_swap(env, bank, self.issue_at(issue_cycle)) {
                    self.wedge(msg);
                    return false;
                }
            }
            Slot::CsrR { rd, csr: num } => {
                let v = self.read_csr(num);
                self.set_reg_idx(rd, v);
            }
        });
        self.pc = next_pc;
        true
    }

    fn read_csr(&self, num: u16) -> u32 {
        match (num, &self.path) {
            (csr::CYCLE, _) => self.cycle as u32,
            (csr::IN_BANK_LEN, DataPath::PingPong(staging)) => staging.in_len() as u32,
            // Head/tail of input (0x800/0x810) and output (0x820/0x830)
            // streams 0..8.
            (0x800..0x838, DataPath::Stream(sbuf)) if num & 0x8 == 0 => {
                let sid = (num & 0x7) as u32;
                let csrs = if num < 0x820 {
                    sbuf.in_csrs(sid)
                } else {
                    sbuf.out_csrs(sid)
                };
                csrs.map_or(0, |(head, tail)| if num & 0x10 == 0 { head } else { tail }) as u32
            }
            _ => 0,
        }
    }

    // ------------------------------------------------------------- memory

    /// Charges the scratchpad's (and the staging banks') extra access
    /// cycles.
    #[inline(always)]
    fn charge_scratchpad(&mut self) {
        let extra = self.cfg.scratchpad_cycles.saturating_sub(1) as u64;
        self.charge(extra, |b| &mut b.stall_scratchpad);
    }

    /// A load below [`layout::DRAM_BASE`]: the scratchpad.
    #[inline(always)]
    fn scratchpad_load(&mut self, addr: u64, width: u32) -> Result<u32, String> {
        let v = self
            .scratchpad
            .load(addr, width)
            .map_err(|e| format!("scratchpad load failed: {e}"))?;
        self.charge_scratchpad();
        Ok(v as u32)
    }

    /// A store below [`layout::DRAM_BASE`]: the scratchpad.
    #[inline(always)]
    fn scratchpad_store(&mut self, addr: u64, width: u32, value: u32) -> Result<(), String> {
        self.scratchpad
            .store(addr, width, value as u64)
            .map_err(|e| format!("scratchpad store failed: {e}"))?;
        self.charge_scratchpad();
        Ok(())
    }

    /// The L1-hit prefix of a DRAM-window load: a word in the window that
    /// [`MemHierarchy::try_l1_hit`] serves (on Prefetch cores, training
    /// the prefetcher out of line). Charges the L1-hit stall computed in
    /// [`Core::new`], plus any wait for a page not staged yet. Returns
    /// `None`, having changed nothing, for anything else (a miss, a word
    /// crossing a line, the staging windows, an address outside the
    /// window, another data path), which [`Core::mem_load`] takes.
    #[inline(always)]
    fn dram_load_l1_hit<E: StreamEnv>(
        &mut self,
        env: &mut E,
        addr: u64,
        width: u32,
        issue: SimTime,
    ) -> Option<u32> {
        let DataPath::Mem { hierarchy, window } = &mut self.path else {
            return None;
        };
        if addr >= layout::STAGING_IN_BASE {
            return None;
        }
        let off = addr - layout::DRAM_BASE;
        let value = window.load(off, width)?;
        let pc = self.pc as u64;
        let complete = hierarchy.try_l1_hit(env.dram(), AccessKind::Load, pc, off, width, issue)?;
        let avail = window.avail_for(off, issue);
        self.charge_dram_load(issue, complete, avail, self.l1_hit_stall, |b| {
            &mut b.stall_l1
        });
        Some(value)
    }

    /// The L1-hit prefix of a DRAM-window store, as
    /// [`Core::dram_load_l1_hit`]; [`Core::mem_store`] takes the rest. A
    /// store the L1 misses has written the window already, and the
    /// remainder writes the same bytes again.
    #[inline(always)]
    fn dram_store_l1_hit<E: StreamEnv>(
        &mut self,
        env: &mut E,
        addr: u64,
        width: u32,
        value: u32,
        issue: SimTime,
    ) -> Option<()> {
        let DataPath::Mem { hierarchy, window } = &mut self.path else {
            return None;
        };
        if addr >= layout::STAGING_IN_BASE {
            return None;
        }
        let off = addr - layout::DRAM_BASE;
        window.store(off, width, value)?;
        let pc = self.pc as u64;
        hierarchy.try_l1_hit(env.dram(), AccessKind::Store, pc, off, width, issue)?;
        self.charge(self.l1_hit_stall, |b| &mut b.stall_l1);
        Some(())
    }

    /// Charges a DRAM-window load that the hierarchy completed at
    /// `complete`: its `stall` cycles beyond the base cycle into `bucket`,
    /// then, if the firmware stages the word's page only at `avail`, the
    /// further wait into `stall_stream`. The one place a Mem load's stall
    /// is charged, for the L1-hit prefix and the remainder alike.
    #[inline(always)]
    fn charge_dram_load(
        &mut self,
        issue: SimTime,
        complete: SimTime,
        avail: SimTime,
        stall: u64,
        bucket: fn(&mut CycleBreakdown) -> &mut u64,
    ) {
        self.charge(stall, bucket);
        if avail > complete {
            let extra = self.stall_cycles(issue, avail).saturating_sub(stall);
            self.charge(extra, |b| &mut b.stall_stream);
        }
    }

    /// A load at or above [`layout::DRAM_BASE`] that the L1-hit prefix
    /// declined: the DRAM window through the whole hierarchy, or the input
    /// staging bank.
    fn mem_load<E: StreamEnv>(
        &mut self,
        env: &mut E,
        addr: u64,
        width: u32,
        issue: SimTime,
    ) -> Result<u32, String> {
        if addr >= layout::STAGING_OUT_BASE {
            return Err(format!("load from output staging window {addr:#x}"));
        }
        if addr >= layout::STAGING_IN_BASE {
            let off = addr - layout::STAGING_IN_BASE;
            let v = self
                .path
                .staging()?
                .load_in(off, width)
                .ok_or_else(|| format!("staging load past bank length at {off:#x}"))?;
            self.charge_scratchpad();
            return Ok(v);
        }
        let off = addr - layout::DRAM_BASE;
        let DataPath::Mem { hierarchy, window } = &mut self.path else {
            return Err(NO_DRAM.into());
        };
        let value = window
            .load(off, width)
            .ok_or_else(|| format!("DRAM load outside window at {off:#x}"))?;
        let pc = self.pc as u64;
        let (complete, served) =
            hierarchy.access(env.dram(), AccessKind::Load, pc, off, width, issue);
        let avail = window.avail_for(off, issue);
        let stall = self.stall_cycles(issue, complete);
        let bucket: fn(&mut CycleBreakdown) -> &mut u64 = match served {
            ServedBy::L1 => |b| &mut b.stall_l1,
            ServedBy::L2 => |b| &mut b.stall_l2,
            ServedBy::Dram | ServedBy::Prefetch => |b| &mut b.stall_dram,
        };
        self.charge_dram_load(issue, complete, avail, stall, bucket);
        Ok(value)
    }

    /// A store at or above [`layout::DRAM_BASE`] that the L1-hit prefix
    /// declined: the DRAM window through the whole hierarchy, or the
    /// output staging bank.
    fn mem_store<E: StreamEnv>(
        &mut self,
        env: &mut E,
        addr: u64,
        width: u32,
        value: u32,
        issue: SimTime,
    ) -> Result<(), String> {
        if addr >= layout::STAGING_OUT_BASE {
            let off = addr - layout::STAGING_OUT_BASE;
            self.path
                .staging()?
                .store_out(off, width, value)
                .ok_or_else(|| format!("staging store past bank at {off:#x}"))?;
            self.charge_scratchpad();
            return Ok(());
        }
        if addr >= layout::STAGING_IN_BASE {
            return Err(format!("store into input staging window {addr:#x}"));
        }
        let off = addr - layout::DRAM_BASE;
        let DataPath::Mem { hierarchy, window } = &mut self.path else {
            return Err(NO_DRAM.into());
        };
        window
            .store(off, width, value)
            .ok_or_else(|| format!("DRAM store outside window at {off:#x}"))?;
        let pc = self.pc as u64;
        let (complete, _) = hierarchy.access(env.dram(), AccessKind::Store, pc, off, width, issue);
        let stall = self.stall_cycles(issue, complete);
        self.charge(stall, |b| &mut b.stall_l1);
        Ok(())
    }

    // ------------------------------------------------------------- streams

    fn stream_load<E: StreamEnv>(
        &mut self,
        env: &mut E,
        sid: u32,
        width: u32,
        issue: SimTime,
    ) -> Result<Option<u32>, String> {
        let id = self.id;
        let sbuf = self.path.stream()?;
        let mut read = sbuf.read(sid, width, issue);
        if let Ok(ReadOutcome::Blocked) = read {
            env.refill_stream(id, sid, issue, sbuf);
            read = sbuf.read(sid, width, issue);
        }
        match read {
            Ok(ReadOutcome::Data {
                value,
                ready,
                freed_pages,
            }) => {
                let stall = self.stall_cycles(issue, ready);
                self.charge(stall, |b| &mut b.stall_stream);
                if freed_pages > 0 {
                    let now = self.local_time();
                    env.refill_stream(id, sid, now, self.path.stream()?);
                }
                Ok(Some(value as u32))
            }
            Ok(ReadOutcome::Exhausted) => {
                self.state = CoreState::Halted;
                Ok(None)
            }
            Ok(ReadOutcome::Blocked) => Err(format!("stream {sid} starved after refill")),
            Err(e) => Err(format!("stream load failed: {e}")),
        }
    }

    /// Refills input stream `sid`, then reads one fact off the
    /// streambuffer (`StreamAvail`, `StreamEos`).
    fn stream_query<E: StreamEnv>(
        &mut self,
        env: &mut E,
        sid: u32,
        issue: SimTime,
        fact: impl FnOnce(&StreamBuffer) -> u32,
    ) -> Result<u32, String> {
        let sbuf = self.path.stream()?;
        env.refill_stream(self.id, sid, issue, sbuf);
        Ok(fact(sbuf))
    }

    fn stream_store<E: StreamEnv>(
        &mut self,
        env: &mut E,
        sid: u32,
        width: u32,
        value: u32,
        issue: SimTime,
    ) -> Result<(), String> {
        let outcome = self
            .path
            .stream()?
            .write(sid, width, value as u64, issue)
            .map_err(|e| format!("stream store failed: {e}"))?;
        let stall = self.stall_cycles(issue, outcome.ready);
        self.charge(stall, |b| &mut b.stall_swap);
        if let Some(page) = outcome.completed_page {
            let now = self.local_time();
            let done = env.drain_page(self.id, sid, page, now);
            self.path
                .stream()?
                .note_drain(sid, done)
                .map_err(|e| format!("drain bookkeeping failed: {e}"))?;
        }
        Ok(())
    }

    fn buf_swap<E: StreamEnv>(
        &mut self,
        env: &mut E,
        bank: u8,
        issue: SimTime,
    ) -> Result<(), String> {
        let id = self.id;
        let staging = self.path.staging()?;
        match bank {
            0 => match env.next_input_bank(id, issue) {
                Some((data, ready)) => {
                    staging.install_input(data);
                    let stall = self.stall_cycles(issue, ready);
                    self.charge(stall, |b| &mut b.stall_swap);
                }
                None => staging.set_exhausted(),
            },
            1 => {
                let prev_done = staging.drain_done();
                let data = staging.take_output();
                let stall = self.stall_cycles(issue, prev_done);
                self.charge(stall, |b| &mut b.stall_swap);
                let now = self.local_time().max(prev_done);
                let done = env.drain_bank(id, data, now);
                self.path.staging()?.set_drain_done(done);
            }
            other => return Err(format!("buf.swap of unknown bank {other}")),
        }
        Ok(())
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
fn muldiv_eval(op: MulDivOp, a: u32, b: u32) -> u32 {
    match op {
        MulDivOp::Mul => a.wrapping_mul(b),
        MulDivOp::Mulh => (((a as i32 as i64) * (b as i32 as i64)) >> 32) as u32,
        MulDivOp::Mulhu => (((a as u64) * (b as u64)) >> 32) as u32,
        MulDivOp::Div => {
            if b == 0 {
                u32::MAX
            } else if a == i32::MIN as u32 && b == u32::MAX {
                a
            } else {
                ((a as i32) / (b as i32)) as u32
            }
        }
        MulDivOp::Divu => {
            if b == 0 {
                u32::MAX
            } else {
                a / b
            }
        }
        MulDivOp::Rem => {
            if b == 0 {
                a
            } else if a == i32::MIN as u32 && b == u32::MAX {
                0
            } else {
                ((a as i32) % (b as i32)) as u32
            }
        }
        MulDivOp::Remu => {
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
        let mut core = Core::new(0, cfg, program);
        core.run_to_halt(&mut NullEnv::default());
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
        let mut core = Core::new(0, CoreConfig::assasin_sb(), program);
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
        let mut core = Core::new(0, CoreConfig::assasin_sb(), program);
        core.run_to_halt(&mut env);
        // Flush the partial final page like the firmware would.
        core.flush_output(&mut env).unwrap();
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
        let mut core = Core::new(0, CoreConfig::assasin_sb(), program);
        core.run_to_halt(&mut env);
        assert_eq!(core.state(), &CoreState::Halted);
        assert!(
            core.breakdown().stall_stream > core.breakdown().busy,
            "input-bound run must be dominated by stream stalls: {:?}",
            core.breakdown()
        );
    }

    #[test]
    fn odd_widths_on_the_dram_window_do_not_panic() {
        // `Program::from_instrs` takes any width; an 8-byte word reads
        // its low 32 bits and a 3-byte one wedges, as on the scratchpad.
        let load = |width| {
            let instrs = vec![
                Instr::Lui {
                    rd: Reg::S0,
                    imm: (layout::DRAM_BASE >> 12) as u32,
                },
                Instr::Load {
                    width,
                    signed: false,
                    rd: Reg::A0,
                    base: Reg::S0,
                    offset: 0,
                },
                Instr::Halt,
            ];
            let program = Program::from_instrs("odd-width", instrs);
            let mut core = Core::new(0, CoreConfig::baseline(), program);
            let mut w = DramWindow::new(1, 8, 0, 4096);
            w.stage(0, 0, &[1, 2, 3, 4, 5, 6, 7, 8], SimTime::ZERO);
            core.launch_mem(w).unwrap();
            core.run_to_halt(&mut NullEnv::default());
            core
        };
        let wide = load(8);
        assert_eq!(wide.state(), &CoreState::Halted);
        assert_eq!(wide.reg(Reg::A0), 0x0403_0201);
        assert!(matches!(load(3).state(), CoreState::Wedged(_)));
    }

    #[test]
    fn dram_window_load_uses_hierarchy() {
        let mut asm = Assembler::new();
        asm.li(Reg::S0, layout::DRAM_BASE as i64);
        asm.lw(Reg::A0, Reg::S0, 0);
        asm.lw(Reg::A1, Reg::S0, 4);
        asm.halt();
        let program = asm.finish().unwrap();
        let mut core = Core::new(0, CoreConfig::baseline(), program);
        let mut w = DramWindow::new(1, 8, 0, 4096);
        w.stage(0, 0, &[1, 0, 0, 0, 2, 0, 0, 0], SimTime::ZERO);
        core.launch_mem(w).unwrap();
        let mut env = NullEnv::default();
        core.run_to_halt(&mut env);
        // The one line fill crossed the environment's DRAM bus.
        assert!(env.dram().bytes_moved() > 0);
        assert_eq!(core.state(), &CoreState::Halted);
        assert_eq!(core.reg(Reg::A0), 1);
        assert_eq!(core.reg(Reg::A1), 2);
        // First lw misses to DRAM, second hits L1.
        assert!(core.breakdown().stall_dram > 0);
        let DataPath::Mem { hierarchy, .. } = core.data_path() else {
            panic!("Baseline runs on the Mem data path");
        };
        let (hits, misses) = hierarchy.l1_counters();
        assert_eq!((hits, misses), (1, 1));
    }

    /// What a DRAM-window run's timing shows: cycles, every breakdown
    /// bucket (busy, L1, L2, DRAM, scratchpad, stream, swap), the whole
    /// instruction mix (in field order), the L1, L2 and prefetch (hits,
    /// misses) / (issued, useful) counters and the DRAM bus bytes.
    #[derive(Debug, PartialEq, Eq)]
    struct MemRun {
        cycles: u64,
        breakdown: [u64; 7],
        mix: [u64; 10],
        l1: (u64, u64),
        l2: (u64, u64),
        prefetch: Option<(u64, u64)>,
        dram_bytes: u64,
    }

    /// Runs a program that takes every kind of DRAM-window access: byte,
    /// halfword and word L1 hits, a word crossing a 64 B line, L1 misses
    /// served by the L2 and by DRAM, store hits and misses, and loads from
    /// page 1, which is staged only at 20 us — first missing to it, then
    /// (on 3000-byte pages, where line 46 straddles pages 0 and 1) hitting
    /// it in L1. Checks the loaded values against the staged bytes.
    fn mem_run(cfg: CoreConfig, page_bytes: u32) -> MemRun {
        let in_len = 40 * 1024;
        let mut w = DramWindow::new(1, in_len, 256, page_bytes);
        let data: Vec<u8> = (0..in_len).map(|i| (i * 7 + i / 256 + 1) as u8).collect();
        for (p, page) in data.chunks(page_bytes as usize).enumerate() {
            let at = if p == 1 {
                SimTime::from_us(20)
            } else {
                SimTime::ZERO
            };
            w.stage(0, p as u64 * page_bytes as u64, page, at);
        }
        let dram = layout::DRAM_BASE as i64;
        let out = dram + w.launch().out_offset as i64;
        let mut asm = Assembler::new();
        asm.li(Reg::S0, dram);
        asm.lbu(Reg::A0, Reg::S0, 0); // miss to DRAM
        asm.lbu(Reg::A1, Reg::S0, 1); // byte hit
        asm.lw(Reg::A2, Reg::S0, 4); // word hit
        asm.lh(Reg::A3, Reg::S0, 2); // halfword hit
        asm.lw(Reg::A4, Reg::S0, 62); // crosses into line 1: miss
        asm.li(Reg::S1, dram + 2990);
        asm.lw(Reg::A5, Reg::S1, 0); // line 46, page 0: miss
        asm.lw(Reg::A6, Reg::S1, 10); // line 46, page 1 on 3000 B pages
                                      // Eight more lines in L1 set 0 (stride 4096) evict line 0; the
                                      // first (offset 4096) is in the late page.
        asm.li(Reg::T0, 8);
        asm.mv(Reg::T1, Reg::S0);
        let top = asm.label();
        asm.bind(top);
        asm.li(Reg::T2, 4096);
        asm.add(Reg::T1, Reg::T1, Reg::T2);
        asm.lw(Reg::T3, Reg::T1, 0);
        asm.addi(Reg::T0, Reg::T0, -1);
        asm.bnez(Reg::T0, top);
        asm.lbu(Reg::A7, Reg::S0, 0); // line 0 again: an L2 hit
        asm.li(Reg::S2, out);
        asm.sw(Reg::A2, Reg::S2, 0); // store miss
        asm.sw(Reg::A4, Reg::S2, 4); // store hit
        asm.sb(Reg::A1, Reg::S2, 8); // byte store hit
        asm.sw(Reg::A5, Reg::S2, 62); // store into the next line
        asm.lw(Reg::S3, Reg::S2, 4); // hit on a stored line
        asm.halt();
        let mut core = Core::new(0, cfg, asm.finish().unwrap());
        core.launch_mem(w).unwrap();
        let mut env = NullEnv::default();
        core.run_to_halt(&mut env);
        assert_eq!(core.state(), &CoreState::Halted, "{:?}", core.state());

        let word = |at: usize| u32::from_le_bytes(data[at..at + 4].try_into().unwrap());
        let half = i16::from_le_bytes([data[2], data[3]]) as i32 as u32;
        let loaded = [
            Reg::A0,
            Reg::A1,
            Reg::A2,
            Reg::A3,
            Reg::A4,
            Reg::A5,
            Reg::A6,
            Reg::A7,
        ];
        let expect = [data[0] as u32, data[1] as u32, word(4), half, word(62)];
        let expect = expect
            .into_iter()
            .chain([word(2990), word(3000), data[0] as u32]);
        for (r, v) in loaded.into_iter().zip(expect) {
            assert_eq!(core.reg(r), v, "{r:?}");
        }
        assert_eq!(core.reg(Reg::S3), word(62), "load of a stored word");

        let DataPath::Mem { hierarchy, .. } = core.data_path() else {
            panic!("Mem engines run on the Mem data path");
        };
        let b = core.breakdown();
        let m = core.mix();
        MemRun {
            cycles: core.cycles(),
            breakdown: [
                b.busy,
                b.stall_l1,
                b.stall_l2,
                b.stall_dram,
                b.stall_scratchpad,
                b.stall_stream,
                b.stall_swap,
            ],
            mix: [
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
            ],
            l1: hierarchy.l1_counters(),
            l2: hierarchy.l2_counters(),
            prefetch: hierarchy.prefetch_counters(),
            dram_bytes: env.dram().bytes_moved(),
        }
    }

    #[test]
    fn mem_path_timing_is_pinned() {
        // (config, page bytes, cycles, breakdown, L1, L2, prefetch, DRAM
        // bytes). The 3000-byte layout's output area starts at byte
        // 42000, so its `li` takes one more instruction and its store at
        // +62 opens a new line instead of crossing one.
        let (baseline, prefetch) = (CoreConfig::baseline(), CoreConfig::prefetch());
        #[rustfmt::skip]
        let cases = [
            (baseline, 4096, 20596, [74, 9, 7, 825, 0, 19681, 0], (9, 14), (1, 13), None, 1664),
            (baseline, 3000, 20677, [75, 9, 7, 825, 0, 19761, 0], (8, 14), (1, 13), None, 1664),
            (prefetch, 4096, 20432, [74, 9, 7, 661, 0, 19681, 0], (9, 14), (1, 9), Some((5, 4)), 1792),
            (prefetch, 3000, 20513, [75, 9, 7, 661, 0, 19761, 0], (8, 14), (1, 10), Some((5, 3)), 1920),
        ];
        for (cfg, page_bytes, cycles, breakdown, l1, l2, prefetch, dram_bytes) in cases {
            let extra_li = (page_bytes == 3000) as u64;
            let expect = MemRun {
                cycles,
                breakdown,
                mix: [60 + extra_li, 30 + extra_li, 0, 17, 4, 8, 7, 0, 0, 0],
                l1,
                l2,
                prefetch,
                dram_bytes,
            };
            let got = mem_run(cfg, page_bytes);
            assert_eq!(got, expect, "{:?} on {page_bytes}-byte pages", cfg.kind);
            assert_eq!(got.cycles, got.breakdown.iter().sum::<u64>());
        }
    }

    #[test]
    fn pingpong_swap_flow() {
        // Scan banks byte by byte until exhausted; count bytes in a3.
        let mut asm = Assembler::new();
        let outer = asm.label();
        let done = asm.label();
        asm.bind(outer);
        asm.buf_swap(0);
        asm.csrr(Reg::A0, csr::IN_BANK_LEN);
        asm.beqz(Reg::A0, done);
        asm.li(Reg::S0, layout::STAGING_IN_BASE as i64);
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
        let mut core = Core::new(0, CoreConfig::assasin_sp(), program);
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
        let mut core = Core::new(0, CoreConfig::assasin_sb(), program);
        core.run_to_halt(&mut NullEnv::default());
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
        let mut core = Core::new(0, CoreConfig::assasin_sb(), program);
        core.run(&mut NullEnv::default(), SimTime::from_us(1));
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
        let mut core = Core::new(0, CoreConfig::assasin_sb(), asm.finish().unwrap());
        core.run_to_halt(&mut NullEnv::default());
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
        let mut core = Core::new(0, CoreConfig::assasin_sb(), asm.finish().unwrap());
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
        let mut core = Core::new(0, CoreConfig::assasin_sb(), asm.finish().unwrap());
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
    fn every_alu_op_agrees_in_both_forms() {
        use AluOp::*;
        let cfg = CoreConfig::assasin_sb();
        for op in [
            Add, Sub, Sll, Slt, Sltu, Xor, Srl, Sra, Or, And, Mul, Mulh, Mulhu, Div, Divu, Rem,
            Remu,
        ] {
            let (rd, rs1) = (Reg::A0, Reg::T0);
            let program = Program::from_instrs(
                "alu",
                vec![
                    Instr::AluImm {
                        op: Add,
                        rd: rs1,
                        rs1: Reg::ZERO,
                        imm: -7,
                    },
                    Instr::AluImm {
                        op: Add,
                        rd: Reg::T1,
                        rs1: Reg::ZERO,
                        imm: 3,
                    },
                    Instr::Alu {
                        op,
                        rd,
                        rs1,
                        rs2: Reg::T1,
                    },
                    Instr::AluImm {
                        op,
                        rd: Reg::A1,
                        rs1,
                        imm: 3,
                    },
                    Instr::Halt,
                ],
            );
            let mut core = Core::new(0, cfg, program);
            core.run_to_halt(&mut NullEnv::default());
            assert_eq!(core.reg(rd), core.reg(Reg::A1), "{op:?}");
            // Only the register form of an M-extension op is multi-cycle.
            let stall = match op {
                Mul | Mulh | Mulhu => cfg.mul_cycles - 1,
                Div | Divu | Rem | Remu => cfg.div_cycles - 1,
                _ => 0,
            };
            assert_eq!(core.cycles(), 5 + stall as u64, "{op:?}");
            let muldiv = op.is_muldiv() as u64;
            assert_eq!((core.mix().alu, core.mix().muldiv), (4 - muldiv, muldiv));
        }
    }

    #[test]
    fn wedges_on_store_to_input_staging() {
        let mut asm = Assembler::new();
        asm.li(Reg::S0, layout::STAGING_IN_BASE as i64);
        asm.sw(Reg::A0, Reg::S0, 0);
        asm.halt();
        let mut core = Core::new(0, CoreConfig::assasin_sp(), asm.finish().unwrap());
        core.run_to_halt(&mut NullEnv::default());
        assert!(matches!(core.state(), CoreState::Wedged(m) if m.contains("input staging")));
    }

    #[test]
    fn each_engine_wedges_on_structures_it_lacks() {
        use AccessStyle as S;
        fn mem_op(asm: &mut Assembler, base: u64, store: bool) {
            asm.li(Reg::S0, base as i64);
            match store {
                true => asm.sw(Reg::A0, Reg::S0, 0),
                false => asm.lw(Reg::A0, Reg::S0, 0),
            }
        }
        type Probe = fn(&mut Assembler);
        let probes: [(S, Probe); 9] = [
            (S::Mem, |a| mem_op(a, layout::DRAM_BASE, false)),
            (S::Mem, |a| mem_op(a, layout::DRAM_BASE, true)),
            (S::PingPong, |a| mem_op(a, layout::STAGING_IN_BASE, false)),
            (S::PingPong, |a| mem_op(a, layout::STAGING_OUT_BASE, true)),
            (S::Stream, |a| a.stream_load(Reg::A0, 0, 4)),
            (S::Stream, |a| a.stream_store(0, 4, Reg::A0)),
            (S::Stream, |a| a.stream_avail(Reg::A0, 0)),
            (S::Stream, |a| a.stream_eos(Reg::A0, 0)),
            (S::PingPong, |a| a.buf_swap(0)),
        ];
        for kind in EngineKind::ALL
            .into_iter()
            .filter(|&k| k != EngineKind::Udp)
        {
            for (i, (needs, probe)) in probes.iter().enumerate() {
                let mut asm = Assembler::new();
                probe(&mut asm);
                asm.halt();
                let mut core = Core::new(0, CoreConfig::for_kind(kind), asm.finish().unwrap());
                core.run_to_halt(&mut NullEnv::default());
                let structure = match needs {
                    S::Mem => "no DRAM window",
                    S::PingPong => "no ping-pong staging",
                    S::Stream => "no streambuffer",
                };
                let wedged = matches!(core.state(), CoreState::Wedged(m) if m.contains(structure));
                let state = core.state();
                assert_eq!(
                    wedged,
                    kind.style() != *needs,
                    "{kind:?} probe {i}: {state:?}"
                );
            }
        }
    }

    #[test]
    fn wedges_on_pc_past_end() {
        let mut asm = Assembler::new();
        asm.nop(); // falls off the end
        let mut core = Core::new(0, CoreConfig::assasin_sb(), asm.finish().unwrap());
        core.run_to_halt(&mut NullEnv::default());
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
            let mut core = Core::new(0, CoreConfig::assasin_sb(), asm.finish().unwrap());
            core.run_to_halt(&mut NullEnv::default());
            core.cycles()
        };
        let taken = build(true);
        let not_taken = build(false);
        // Taken: li + beq(1+2) + halt = 5; not taken: li + beq + nop + halt = 4.
        assert_eq!(taken, 5);
        assert_eq!(not_taken, 4);
    }
}
