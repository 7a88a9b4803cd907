//! Assembled programs.

use crate::Instr;
use std::fmt;
use std::sync::Arc;

/// An assembled, label-resolved instruction sequence. Execution starts at
/// instruction index 0. Programs are immutable and cheaply shareable across
/// the (up to 16) cores that run the same offloaded function.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Program {
    instrs: Arc<Vec<Instr>>,
    name: String,
}

impl Program {
    /// Wraps a resolved instruction sequence. Prefer
    /// [`Assembler::finish`](crate::Assembler::finish), which validates
    /// label resolution.
    pub fn from_instrs(name: impl Into<String>, instrs: Vec<Instr>) -> Self {
        Program {
            instrs: Arc::new(instrs),
            name: name.into(),
        }
    }

    /// The instruction at `pc`, or `None` past the end.
    pub fn fetch(&self, pc: u32) -> Option<Instr> {
        self.instrs.get(pc as usize).copied()
    }

    /// The whole resolved instruction sequence. Interpreters predecode
    /// from this slice once instead of `fetch`ing per step.
    pub fn instrs(&self) -> &[Instr] {
        &self.instrs
    }

    /// Number of instructions.
    pub fn len(&self) -> usize {
        self.instrs.len()
    }

    /// True for an empty program.
    pub fn is_empty(&self) -> bool {
        self.instrs.is_empty()
    }

    /// The program's diagnostic name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Iterates over instructions.
    pub fn iter(&self) -> impl Iterator<Item = &Instr> {
        self.instrs.iter()
    }
}

impl fmt::Display for Program {
    /// Disassembly listing.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "; {} ({} instructions)", self.name, self.len())?;
        for (i, instr) in self.instrs.iter().enumerate() {
            writeln!(f, "{i:6}: {instr}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{AluOp, Reg};

    #[test]
    fn fetch_and_metadata() {
        let p = Program::from_instrs(
            "demo",
            vec![
                Instr::Halt,
                Instr::Alu {
                    op: AluOp::Add,
                    rd: Reg::A0,
                    rs1: Reg::A0,
                    rs2: Reg::A1,
                },
            ],
        );
        assert_eq!(p.len(), 2);
        assert_eq!(p.fetch(0), Some(Instr::Halt));
        assert_eq!(p.fetch(2), None);
        assert!(!p.is_empty());
    }

    #[test]
    fn display_lists_instructions() {
        let p = Program::from_instrs("demo", vec![Instr::Halt]);
        let text = p.to_string();
        assert!(text.contains("; demo"));
        assert!(text.contains("0: halt"));
    }
}
