//! Disassembly: `Display` implementations for instructions and programs.

use crate::instr::{Instr, Instruction, Space, Special};
use crate::program::Program;
use std::fmt;

impl fmt::Display for Space {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.spelling())
    }
}

impl fmt::Display for Special {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.spelling())
    }
}

impl fmt::Display for Instr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Instr::Alu { op, d, a, b, c } => {
                write!(f, "{} {d}", op.spelling())?;
                for src in [a, b, c].iter().take(op.arity()) {
                    write!(f, ", {src}")?;
                }
                Ok(())
            }
            Instr::Setp { cmp, p, a, b } => write!(f, "setp.{} {p}, {a}, {b}", cmp.spelling()),
            Instr::Selp { d, a, b, p } => write!(f, "selp.b32 {d}, {a}, {b}, {p}"),
            Instr::Mov { d, a } => write!(f, "mov.b32 {d}, {a}"),
            Instr::ReadSpecial { d, s } => write!(f, "mov.u32 {d}, {s}"),
            Instr::Ld {
                space,
                d,
                addr,
                offset,
                width,
            } => write!(f, "ld.{space}.{} {d}, [{addr}{offset:+}]", width.spelling()),
            Instr::St {
                space,
                a,
                addr,
                offset,
                width,
            } => write!(f, "st.{space}.{} [{addr}{offset:+}], {a}", width.spelling()),
            Instr::Bra { target } => write!(f, "bra {target}"),
            Instr::Exit => f.write_str("exit"),
            Instr::Spawn { target, ptr } => write!(f, "spawn {target}, {ptr}"),
            Instr::Nop => f.write_str("nop"),
        }
    }
}

impl fmt::Display for Instruction {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if let Some(g) = self.guard {
            if g.negate {
                write!(f, "@!{} ", g.pred)?;
            } else {
                write!(f, "@{} ", g.pred)?;
            }
        }
        write!(f, "{}", self.op)
    }
}

impl Program {
    /// Emits assembly source that re-assembles to an equivalent program:
    /// resource directives, `.kernel` entry declarations, labels, and one
    /// instruction per line. Anonymous branch/spawn targets (no label at
    /// the target pc) print numerically and rely on the assembler's
    /// numeric-target fallback.
    ///
    /// Entry points whose name is also a label *elsewhere* in the program
    /// cannot be expressed in source (the assembler binds `.kernel` to the
    /// same-named label); the assembler itself never produces such a
    /// program.
    pub fn to_source(&self) -> String {
        use std::fmt::Write as _;
        let mut s = String::new();
        let r = self.resource_usage();
        if r.shared_bytes != 0 {
            let _ = writeln!(s, ".shared {}", r.shared_bytes);
        }
        if r.local_bytes != 0 {
            let _ = writeln!(s, ".local {}", r.local_bytes);
        }
        if r.global_bytes != 0 {
            let _ = writeln!(s, ".global {}", r.global_bytes);
        }
        if r.const_bytes != 0 {
            let _ = writeln!(s, ".const {}", r.const_bytes);
        }
        if r.spawn_state_bytes != 0 {
            let _ = writeln!(s, ".spawnstate {}", r.spawn_state_bytes);
        }
        // Entries with a same-named label bind through the label and can be
        // declared up front; the rest must sit directly before their pc so
        // the directive's "next instruction" binding lands correctly.
        let mut inline_entries: Vec<(usize, &str)> = Vec::new();
        for e in self.entry_points() {
            if self.labels().get(&e.name) == Some(&e.pc) {
                let _ = writeln!(s, ".kernel {}", e.name);
            } else {
                inline_entries.push((e.pc, e.name.as_str()));
            }
        }
        for (pc, i) in self.instrs().iter().enumerate() {
            for &(epc, name) in &inline_entries {
                if epc == pc {
                    let _ = writeln!(s, ".kernel {name}");
                }
            }
            for (name, &lpc) in self.labels() {
                if lpc == pc {
                    let _ = writeln!(s, "{name}:");
                }
            }
            let _ = writeln!(s, "    {i}");
        }
        // Trailing labels (pc == len) re-bind to the same off-end index.
        for (name, &lpc) in self.labels() {
            if lpc == self.len() {
                let _ = writeln!(s, "{name}:");
            }
        }
        s
    }
}

impl fmt::Display for Program {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "; program `{}` ({} instructions)",
            self.name(),
            self.len()
        )?;
        // Reverse label map for annotation.
        for (pc, i) in self.instrs().iter().enumerate() {
            for (name, &lpc) in self.labels() {
                if lpc == pc {
                    writeln!(f, "{name}:")?;
                }
            }
            writeln!(f, "  {pc:4}: {i}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::asm::assemble;
    use crate::instr::AluOp;
    use crate::reg::{Operand, Pred, Reg};

    #[test]
    fn instruction_display_is_nonempty() {
        let i = Instruction::guarded(
            Pred(0),
            true,
            Instr::Alu {
                op: AluOp::FAdd,
                d: Reg(1),
                a: Operand::Reg(Reg(2)),
                b: Operand::imm_f32(1.0),
                c: Operand::Imm(0),
            },
        );
        let s = i.to_string();
        assert!(s.starts_with("@!p0 add.f32 r1, r2"), "{s}");
    }

    #[test]
    fn program_display_contains_labels() {
        let p = assemble("start:\nnop\nbra start").unwrap();
        let s = p.to_string();
        assert!(s.contains("start:"), "{s}");
        assert!(s.contains("bra 0"), "{s}");
    }

    #[test]
    fn memory_display_roundtrip_shape() {
        let p = assemble("ld.spawn.v4 r4, [r2+16]\nexit").unwrap();
        assert_eq!(p.instrs()[0].to_string(), "ld.spawn.v4 r4, [r2+16]");
        let p = assemble("st.global.u32 [r2-4], r1\nexit").unwrap();
        assert_eq!(p.instrs()[0].to_string(), "st.global.u32 [r2-4], r1");
    }
}
