//! Binary encoding of the ASSASIN ISA.
//!
//! A compact fixed 32-bit format (Table III shows the paper's extension
//! also fits the 32-bit instruction word). The encoding here is our own —
//! the reproduction does not need binary compatibility with RV32 — but it
//! proves the ISA (including the stream extension) fits 32-bit words, and
//! tests exercise the encode/decode round-trip. Branch/jump targets are
//! instruction indices and are limited to 14 bits (branches) / 22 bits
//! (jumps); kernels are far smaller.

use crate::instr::{AluOp, BranchCond};
use crate::{AsmError, DecodeError, Instr, Reg};

const OP_ALU: u32 = 0;
const OP_ALUI: u32 = 1;
const OP_LUI: u32 = 2;
const OP_LOAD: u32 = 3;
const OP_STORE: u32 = 4;
const OP_BRANCH: u32 = 5;
const OP_JAL: u32 = 6;
const OP_JALR: u32 = 7;
const OP_HALT: u32 = 8;
const OP_SLOAD: u32 = 9;
const OP_SSTORE: u32 = 10;
const OP_SAVAIL: u32 = 11;
const OP_SEOS: u32 = 12;
const OP_BUFSWAP: u32 = 13;
const OP_CSRR: u32 = 14;

fn alu_code(op: AluOp) -> u32 {
    match op {
        AluOp::Add => 0,
        AluOp::Sub => 1,
        AluOp::Sll => 2,
        AluOp::Slt => 3,
        AluOp::Sltu => 4,
        AluOp::Xor => 5,
        AluOp::Srl => 6,
        AluOp::Sra => 7,
        AluOp::Or => 8,
        AluOp::And => 9,
        AluOp::Mul => 10,
        AluOp::Mulh => 11,
        AluOp::Mulhu => 12,
        AluOp::Div => 13,
        AluOp::Divu => 14,
        AluOp::Rem => 15,
        AluOp::Remu => 16,
    }
}

fn alu_from(code: u32) -> Option<AluOp> {
    Some(match code {
        0 => AluOp::Add,
        1 => AluOp::Sub,
        2 => AluOp::Sll,
        3 => AluOp::Slt,
        4 => AluOp::Sltu,
        5 => AluOp::Xor,
        6 => AluOp::Srl,
        7 => AluOp::Sra,
        8 => AluOp::Or,
        9 => AluOp::And,
        10 => AluOp::Mul,
        11 => AluOp::Mulh,
        12 => AluOp::Mulhu,
        13 => AluOp::Div,
        14 => AluOp::Divu,
        15 => AluOp::Rem,
        16 => AluOp::Remu,
        _ => return None,
    })
}

fn cond_code(c: BranchCond) -> u32 {
    match c {
        BranchCond::Eq => 0,
        BranchCond::Ne => 1,
        BranchCond::Lt => 2,
        BranchCond::Ge => 3,
        BranchCond::Ltu => 4,
        BranchCond::Geu => 5,
    }
}

fn cond_from(code: u32) -> Option<BranchCond> {
    Some(match code {
        0 => BranchCond::Eq,
        1 => BranchCond::Ne,
        2 => BranchCond::Lt,
        3 => BranchCond::Ge,
        4 => BranchCond::Ltu,
        5 => BranchCond::Geu,
        _ => return None,
    })
}

fn width_code(w: u8) -> u32 {
    match w {
        1 => 0,
        2 => 1,
        _ => 2,
    }
}

fn width_from(code: u32) -> u8 {
    match code {
        0 => 1,
        1 => 2,
        _ => 4,
    }
}

fn imm12(v: i32) -> Result<u32, AsmError> {
    if !(-2048..=2047).contains(&v) {
        return Err(AsmError::ImmOutOfRange {
            value: v as i64,
            bits: 12,
        });
    }
    Ok((v as u32) & 0xFFF)
}

fn sext12(v: u32) -> i32 {
    ((v << 20) as i32) >> 20
}

/// Encodes one instruction into a 32-bit word.
///
/// # Errors
///
/// Fails when an immediate or branch target exceeds its field width.
pub fn encode(i: Instr) -> Result<u32, AsmError> {
    let r = |r: Reg| r.index() as u32;
    Ok(match i {
        Instr::Alu { op, rd, rs1, rs2 } => {
            OP_ALU | alu_code(op) << 5 | r(rd) << 10 | r(rs1) << 15 | r(rs2) << 20
        }
        Instr::AluImm { op, rd, rs1, imm } => {
            OP_ALUI | alu_code(op) << 5 | r(rd) << 10 | r(rs1) << 15 | imm12(imm)? << 20
        }
        Instr::Lui { rd, imm } => {
            if imm > 0xF_FFFF {
                return Err(AsmError::ImmOutOfRange {
                    value: imm as i64,
                    bits: 20,
                });
            }
            OP_LUI | r(rd) << 5 | imm << 10
        }
        Instr::Load {
            width,
            signed,
            rd,
            base,
            offset,
        } => {
            OP_LOAD
                | width_code(width) << 5
                | (signed as u32) << 7
                | r(rd) << 8
                | r(base) << 13
                | imm12(offset)? << 18
        }
        Instr::Store {
            width,
            rs,
            base,
            offset,
        } => OP_STORE | width_code(width) << 5 | r(rs) << 7 | r(base) << 12 | imm12(offset)? << 17,
        Instr::Branch {
            cond,
            rs1,
            rs2,
            target,
        } => {
            if target > 0x3FFF {
                return Err(AsmError::ImmOutOfRange {
                    value: target as i64,
                    bits: 14,
                });
            }
            OP_BRANCH | cond_code(cond) << 5 | r(rs1) << 8 | r(rs2) << 13 | target << 18
        }
        Instr::Jal { rd, target } => {
            if target > 0x3F_FFFF {
                return Err(AsmError::ImmOutOfRange {
                    value: target as i64,
                    bits: 22,
                });
            }
            OP_JAL | r(rd) << 5 | target << 10
        }
        Instr::Jalr { rd, base, offset } => {
            OP_JALR | r(rd) << 5 | r(base) << 10 | imm12(offset)? << 15
        }
        Instr::Halt => OP_HALT,
        Instr::StreamLoad { rd, sid, width } => {
            OP_SLOAD | r(rd) << 5 | (sid as u32) << 10 | width_code(width) << 13
        }
        Instr::StreamStore { sid, width, rs } => {
            OP_SSTORE | r(rs) << 5 | (sid as u32) << 10 | width_code(width) << 13
        }
        Instr::StreamAvail { rd, sid } => OP_SAVAIL | r(rd) << 5 | (sid as u32) << 10,
        Instr::StreamEos { rd, sid } => OP_SEOS | r(rd) << 5 | (sid as u32) << 10,
        Instr::BufSwap { bank } => OP_BUFSWAP | (bank as u32) << 5,
        Instr::CsrR { rd, csr } => OP_CSRR | r(rd) << 5 | (csr as u32) << 10,
    })
}

/// Decodes a 32-bit word back into an instruction.
///
/// # Errors
///
/// Fails on unknown opcodes or operation codes.
pub fn decode(word: u32) -> Result<Instr, DecodeError> {
    let err = DecodeError { word };
    let reg = |v: u32| Reg::new((v & 0x1F) as u8);
    Ok(match word & 0x1F {
        OP_ALU => Instr::Alu {
            op: alu_from(word >> 5 & 0x1F).ok_or(err)?,
            rd: reg(word >> 10),
            rs1: reg(word >> 15),
            rs2: reg(word >> 20),
        },
        OP_ALUI => Instr::AluImm {
            op: alu_from(word >> 5 & 0x1F).ok_or(err)?,
            rd: reg(word >> 10),
            rs1: reg(word >> 15),
            imm: sext12(word >> 20 & 0xFFF),
        },
        OP_LUI => Instr::Lui {
            rd: reg(word >> 5),
            imm: word >> 10 & 0xF_FFFF,
        },
        OP_LOAD => Instr::Load {
            width: width_from(word >> 5 & 0x3),
            signed: word >> 7 & 1 == 1,
            rd: reg(word >> 8),
            base: reg(word >> 13),
            offset: sext12(word >> 18 & 0xFFF),
        },
        OP_STORE => Instr::Store {
            width: width_from(word >> 5 & 0x3),
            rs: reg(word >> 7),
            base: reg(word >> 12),
            offset: sext12(word >> 17 & 0xFFF),
        },
        OP_BRANCH => Instr::Branch {
            cond: cond_from(word >> 5 & 0x7).ok_or(err)?,
            rs1: reg(word >> 8),
            rs2: reg(word >> 13),
            target: word >> 18 & 0x3FFF,
        },
        OP_JAL => Instr::Jal {
            rd: reg(word >> 5),
            target: word >> 10 & 0x3F_FFFF,
        },
        OP_JALR => Instr::Jalr {
            rd: reg(word >> 5),
            base: reg(word >> 10),
            offset: sext12(word >> 15 & 0xFFF),
        },
        OP_HALT => Instr::Halt,
        OP_SLOAD => Instr::StreamLoad {
            rd: reg(word >> 5),
            sid: (word >> 10 & 0x7) as u8,
            width: width_from(word >> 13 & 0x3),
        },
        OP_SSTORE => Instr::StreamStore {
            rs: reg(word >> 5),
            sid: (word >> 10 & 0x7) as u8,
            width: width_from(word >> 13 & 0x3),
        },
        OP_SAVAIL => Instr::StreamAvail {
            rd: reg(word >> 5),
            sid: (word >> 10 & 0x7) as u8,
        },
        OP_SEOS => Instr::StreamEos {
            rd: reg(word >> 5),
            sid: (word >> 10 & 0x7) as u8,
        },
        OP_BUFSWAP => Instr::BufSwap {
            bank: (word >> 5 & 1) as u8,
        },
        OP_CSRR => Instr::CsrR {
            rd: reg(word >> 5),
            csr: (word >> 10 & 0xFFF) as u16,
        },
        _ => return Err(err),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_instrs() -> Vec<Instr> {
        vec![
            Instr::Alu {
                op: AluOp::Xor,
                rd: Reg::A0,
                rs1: Reg::T3,
                rs2: Reg::S11,
            },
            Instr::AluImm {
                op: AluOp::Add,
                rd: Reg::SP,
                rs1: Reg::SP,
                imm: -16,
            },
            Instr::Lui {
                rd: Reg::T0,
                imm: 0xABCDE,
            },
            Instr::Load {
                width: 2,
                signed: false,
                rd: Reg::A1,
                base: Reg::S0,
                offset: 2047,
            },
            Instr::Store {
                width: 4,
                rs: Reg::A2,
                base: Reg::S1,
                offset: -2048,
            },
            Instr::Branch {
                cond: BranchCond::Ltu,
                rs1: Reg::A0,
                rs2: Reg::A1,
                target: 12345,
            },
            Instr::Jal {
                rd: Reg::RA,
                target: 99999,
            },
            Instr::Jalr {
                rd: Reg::ZERO,
                base: Reg::RA,
                offset: 3,
            },
            Instr::Halt,
            Instr::StreamLoad {
                rd: Reg::A0,
                sid: 7,
                width: 4,
            },
            Instr::StreamStore {
                sid: 3,
                width: 1,
                rs: Reg::T6,
            },
            Instr::StreamAvail {
                rd: Reg::A3,
                sid: 5,
            },
            Instr::StreamEos {
                rd: Reg::A4,
                sid: 0,
            },
            Instr::BufSwap { bank: 1 },
            Instr::CsrR {
                rd: Reg::A5,
                csr: 0xC00,
            },
        ]
    }

    #[test]
    fn roundtrip_all_forms() {
        for i in sample_instrs() {
            let w = encode(i).unwrap();
            let back = decode(w).unwrap();
            assert_eq!(back, i, "word {w:#010x}");
        }
    }

    #[test]
    fn out_of_range_targets_rejected() {
        let e = encode(Instr::Branch {
            cond: BranchCond::Eq,
            rs1: Reg::A0,
            rs2: Reg::A0,
            target: 1 << 20,
        })
        .unwrap_err();
        assert!(matches!(e, AsmError::ImmOutOfRange { bits: 14, .. }));
    }

    #[test]
    fn unknown_opcode_fails_decode() {
        assert!(decode(0x1F).is_err());
        assert!(decode(OP_ALU | 17 << 5).is_err(), "bad alu code");
    }
}
