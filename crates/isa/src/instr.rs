//! Instruction definitions.

use crate::Reg;
use serde::{Deserialize, Serialize};
use std::fmt;

/// ALU operations shared by register-register and register-immediate forms.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum AluOp {
    /// Addition.
    Add,
    /// Subtraction (register form only).
    Sub,
    /// Logical shift left.
    Sll,
    /// Signed set-less-than.
    Slt,
    /// Unsigned set-less-than.
    Sltu,
    /// Bitwise xor.
    Xor,
    /// Logical shift right.
    Srl,
    /// Arithmetic shift right.
    Sra,
    /// Bitwise or.
    Or,
    /// Bitwise and.
    And,
    /// 32x32 -> low 32 multiply (M extension).
    Mul,
    /// Signed high multiply.
    Mulh,
    /// Unsigned high multiply.
    Mulhu,
    /// Signed division.
    Div,
    /// Unsigned division.
    Divu,
    /// Signed remainder.
    Rem,
    /// Unsigned remainder.
    Remu,
}

impl AluOp {
    /// True for the multi-cycle M-extension operations.
    pub fn is_muldiv(self) -> bool {
        matches!(
            self,
            AluOp::Mul
                | AluOp::Mulh
                | AluOp::Mulhu
                | AluOp::Div
                | AluOp::Divu
                | AluOp::Rem
                | AluOp::Remu
        )
    }
}

/// Branch comparison conditions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum BranchCond {
    /// Equal.
    Eq,
    /// Not equal.
    Ne,
    /// Signed less-than.
    Lt,
    /// Signed greater-or-equal.
    Ge,
    /// Unsigned less-than.
    Ltu,
    /// Unsigned greater-or-equal.
    Geu,
}

/// One ASSASIN instruction. Branch and jump targets are *instruction
/// indices* into the owning [`Program`](crate::Program) (the assembler
/// resolves labels to these).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Instr {
    /// Register-register ALU operation.
    Alu {
        /// Operation.
        op: AluOp,
        /// Destination.
        rd: Reg,
        /// First source.
        rs1: Reg,
        /// Second source.
        rs2: Reg,
    },
    /// Register-immediate ALU operation (12-bit signed immediate; shifts
    /// use the low 5 bits).
    AluImm {
        /// Operation (`Sub` is not encodable; use a negative `Add` imm).
        op: AluOp,
        /// Destination.
        rd: Reg,
        /// Source.
        rs1: Reg,
        /// Immediate.
        imm: i32,
    },
    /// Load upper immediate: `rd = imm << 12`.
    Lui {
        /// Destination.
        rd: Reg,
        /// Upper 20 bits.
        imm: u32,
    },
    /// Memory load of `width` bytes (1, 2 or 4).
    Load {
        /// Access width in bytes.
        width: u8,
        /// Sign-extend narrow loads.
        signed: bool,
        /// Destination.
        rd: Reg,
        /// Base address register.
        base: Reg,
        /// Signed byte offset.
        offset: i32,
    },
    /// Memory store of `width` bytes (1, 2 or 4).
    Store {
        /// Access width in bytes.
        width: u8,
        /// Value source.
        rs: Reg,
        /// Base address register.
        base: Reg,
        /// Signed byte offset.
        offset: i32,
    },
    /// Conditional branch to instruction index `target`.
    Branch {
        /// Comparison.
        cond: BranchCond,
        /// Left operand.
        rs1: Reg,
        /// Right operand.
        rs2: Reg,
        /// Target instruction index.
        target: u32,
    },
    /// Jump and link to instruction index `target`.
    Jal {
        /// Link register (receives return instruction index).
        rd: Reg,
        /// Target instruction index.
        target: u32,
    },
    /// Indirect jump and link.
    Jalr {
        /// Link register.
        rd: Reg,
        /// Base register (holds an instruction index).
        base: Reg,
        /// Signed offset in instructions.
        offset: i32,
    },
    /// Stops the core (firmware-visible completion for non-stream kernels).
    Halt,
    /// Stream extension (Table III): pop `width` bytes (1, 2 or 4) from the
    /// head of input stream `sid` into `rd`. Blocks until data arrives;
    /// hangs (halting the core) when the stream is exhausted.
    StreamLoad {
        /// Destination.
        rd: Reg,
        /// Input stream id.
        sid: u8,
        /// Bytes to pop (1, 2 or 4).
        width: u8,
    },
    /// Stream extension: append the low `width` bytes of `rs` to output
    /// stream `sid`. Blocks while the output ring drains.
    StreamStore {
        /// Output stream id.
        sid: u8,
        /// Bytes to push (1, 2 or 4).
        width: u8,
        /// Value source.
        rs: Reg,
    },
    /// Stream extension: `rd =` bytes currently available on input stream
    /// `sid` (saturated to `u32::MAX`), without blocking.
    StreamAvail {
        /// Destination.
        rd: Reg,
        /// Input stream id.
        sid: u8,
    },
    /// Stream extension: `rd = 1` if input stream `sid` is closed and fully
    /// consumed, else 0.
    StreamEos {
        /// Destination.
        rd: Reg,
        /// Input stream id.
        sid: u8,
    },
    /// AssasinSp ping-pong swap: wait until the other bank of staging
    /// scratchpad `bank` is ready, then switch to it.
    BufSwap {
        /// 0 = input staging buffer, 1 = output staging buffer.
        bank: u8,
    },
    /// Read a control/status register (stream Head/Tail, cycle counter).
    CsrR {
        /// Destination.
        rd: Reg,
        /// CSR number (see [`csr`]).
        csr: u16,
    },
}

/// CSR numbers for [`Instr::CsrR`].
pub mod csr {
    /// Head (bytes consumed) of input stream `sid`.
    pub fn in_head(sid: u8) -> u16 {
        0x800 + sid as u16
    }
    /// Tail (bytes arrived) of input stream `sid`.
    pub fn in_tail(sid: u8) -> u16 {
        0x810 + sid as u16
    }
    /// Head (bytes drained) of output stream `sid`.
    pub fn out_head(sid: u8) -> u16 {
        0x820 + sid as u16
    }
    /// Tail (bytes produced) of output stream `sid`.
    pub fn out_tail(sid: u8) -> u16 {
        0x830 + sid as u16
    }
    /// Core cycle counter (low 32 bits).
    pub const CYCLE: u16 = 0xC00;
    /// Valid bytes in the current AssasinSp input bank (0 once the input
    /// is exhausted, and on engines without ping-pong staging).
    pub const IN_BANK_LEN: u16 = 0xC10;
}

/// The core's address map: where each data-path structure appears to a
/// program's loads and stores.
pub mod layout {
    /// Function-state scratchpad base.
    pub const SCRATCHPAD_BASE: u64 = 0x0000_0000;
    /// DRAM window base: staged input and output of Baseline/Prefetch
    /// ([`AccessStyle::Mem`](crate::AccessStyle::Mem)) kernels.
    pub const DRAM_BASE: u64 = 0x1000_0000;
    /// AssasinSp input staging bank window base.
    pub const STAGING_IN_BASE: u64 = 0x2000_0000;
    /// AssasinSp output staging bank window base.
    pub const STAGING_OUT_BASE: u64 = 0x2800_0000;
}

impl fmt::Display for Instr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            Instr::Alu { op, rd, rs1, rs2 } => {
                write!(f, "{} {rd}, {rs1}, {rs2}", alu_name(op))
            }
            Instr::AluImm { op, rd, rs1, imm } => {
                write!(f, "{}i {rd}, {rs1}, {imm}", alu_name(op))
            }
            Instr::Lui { rd, imm } => write!(f, "lui {rd}, {imm:#x}"),
            Instr::Load {
                width,
                signed,
                rd,
                base,
                offset,
            } => {
                let name = match (width, signed) {
                    (1, true) => "lb",
                    (1, false) => "lbu",
                    (2, true) => "lh",
                    (2, false) => "lhu",
                    _ => "lw",
                };
                write!(f, "{name} {rd}, {offset}({base})")
            }
            Instr::Store {
                width,
                rs,
                base,
                offset,
            } => {
                let name = match width {
                    1 => "sb",
                    2 => "sh",
                    _ => "sw",
                };
                write!(f, "{name} {rs}, {offset}({base})")
            }
            Instr::Branch {
                cond,
                rs1,
                rs2,
                target,
            } => {
                let name = match cond {
                    BranchCond::Eq => "beq",
                    BranchCond::Ne => "bne",
                    BranchCond::Lt => "blt",
                    BranchCond::Ge => "bge",
                    BranchCond::Ltu => "bltu",
                    BranchCond::Geu => "bgeu",
                };
                write!(f, "{name} {rs1}, {rs2}, @{target}")
            }
            Instr::Jal { rd, target } => write!(f, "jal {rd}, @{target}"),
            Instr::Jalr { rd, base, offset } => write!(f, "jalr {rd}, {offset}({base})"),
            Instr::Halt => write!(f, "halt"),
            Instr::StreamLoad { rd, sid, width } => {
                write!(f, "stream.load {rd}, s{sid}, {width}")
            }
            Instr::StreamStore { sid, width, rs } => {
                write!(f, "stream.store s{sid}, {width}, {rs}")
            }
            Instr::StreamAvail { rd, sid } => write!(f, "stream.avail {rd}, s{sid}"),
            Instr::StreamEos { rd, sid } => write!(f, "stream.eos {rd}, s{sid}"),
            Instr::BufSwap { bank } => write!(f, "buf.swap {bank}"),
            Instr::CsrR { rd, csr } => write!(f, "csrr {rd}, {csr:#x}"),
        }
    }
}

fn alu_name(op: AluOp) -> &'static str {
    match op {
        AluOp::Add => "add",
        AluOp::Sub => "sub",
        AluOp::Sll => "sll",
        AluOp::Slt => "slt",
        AluOp::Sltu => "sltu",
        AluOp::Xor => "xor",
        AluOp::Srl => "srl",
        AluOp::Sra => "sra",
        AluOp::Or => "or",
        AluOp::And => "and",
        AluOp::Mul => "mul",
        AluOp::Mulh => "mulh",
        AluOp::Mulhu => "mulhu",
        AluOp::Div => "div",
        AluOp::Divu => "divu",
        AluOp::Rem => "rem",
        AluOp::Remu => "remu",
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_assembly_like() {
        let i = Instr::Alu {
            op: AluOp::Add,
            rd: Reg::A0,
            rs1: Reg::A1,
            rs2: Reg::A2,
        };
        assert_eq!(i.to_string(), "add a0, a1, a2");
        let i = Instr::Load {
            width: 4,
            signed: true,
            rd: Reg::T0,
            base: Reg::S0,
            offset: -8,
        };
        assert_eq!(i.to_string(), "lw t0, -8(s0)");
        let i = Instr::StreamLoad {
            rd: Reg::A0,
            sid: 2,
            width: 4,
        };
        assert_eq!(i.to_string(), "stream.load a0, s2, 4");
    }

    #[test]
    fn csr_numbers_do_not_collide() {
        let mut all: Vec<u16> = (0..8)
            .flat_map(|s| {
                [
                    csr::in_head(s),
                    csr::in_tail(s),
                    csr::out_head(s),
                    csr::out_tail(s),
                ]
            })
            .collect();
        all.push(csr::CYCLE);
        all.push(csr::IN_BANK_LEN);
        let n = all.len();
        all.sort_unstable();
        all.dedup();
        assert_eq!(all.len(), n);
    }

    #[test]
    fn muldiv_classification() {
        assert!(AluOp::Mul.is_muldiv());
        assert!(AluOp::Rem.is_muldiv());
        assert!(!AluOp::Add.is_muldiv());
    }
}
