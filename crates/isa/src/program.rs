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

    /// Static code size in bytes (4 bytes per instruction).
    pub fn code_bytes(&self) -> usize {
        self.instrs.len() * 4
    }

    /// A stable 64-bit content fingerprint of the instruction sequence
    /// (FNV-1a over the instructions' `Hash` feed). Names are excluded:
    /// two programs with identical code share a fingerprint, which is what
    /// the predecode cache keys on. Collisions are guarded by full
    /// instruction comparison at the use site.
    pub fn fingerprint(&self) -> u64 {
        use std::hash::Hash;
        let mut h = Fnv1a(0xcbf2_9ce4_8422_2325);
        self.instrs.hash(&mut h);
        h.0
    }
}

/// FNV-1a, the repo-wide stable hash (same constants as the golden report
/// hashes) — `DefaultHasher` makes no cross-version stability promise.
struct Fnv1a(u64);

impl std::hash::Hasher for Fnv1a {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x100_0000_01b3);
        }
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
        assert_eq!(p.code_bytes(), 8);
        assert_eq!(p.fetch(0), Some(Instr::Halt));
        assert_eq!(p.fetch(2), None);
        assert!(!p.is_empty());
    }

    #[test]
    fn fingerprint_tracks_code_not_name() {
        let code = vec![
            Instr::Alu {
                op: AluOp::Add,
                rd: Reg::A0,
                rs1: Reg::A0,
                rs2: Reg::A1,
            },
            Instr::Halt,
        ];
        let a = Program::from_instrs("a", code.clone());
        let b = Program::from_instrs("b", code);
        assert_eq!(a.fingerprint(), b.fingerprint(), "names are excluded");
        let c = Program::from_instrs("a", vec![Instr::Halt]);
        assert_ne!(a.fingerprint(), c.fingerprint());
    }

    #[test]
    fn display_lists_instructions() {
        let p = Program::from_instrs("demo", vec![Instr::Halt]);
        let text = p.to_string();
        assert!(text.contains("; demo"));
        assert!(text.contains("0: halt"));
    }
}
