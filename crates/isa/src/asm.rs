//! Two-pass textual assembler for the PTX-like ISA.
//!
//! ## Syntax
//!
//! ```text
//! ; comment        # comment        // comment
//! .kernel main                 ; entry point at the next instruction
//! .shared 56                   ; per-thread shared-memory bytes
//! .local  384                  ; per-thread local-memory bytes
//! .global 384                  ; per-thread global-memory bytes
//! .const  24                   ; constant-memory bytes
//! .spawnstate 48               ; spawn-memory state-record bytes
//!
//! main:
//!     mov.u32      r1, %tid
//!     mov.f32      r2, 1.5
//! @p0 add.s32      r3, r1, 7
//! @!p1 bra         done
//!     setp.lt.f32  p0, r2, r3
//!     selp.b32     r4, r1, r3, p0
//!     ld.global.u32 r5, [r4+16]
//!     st.spawn.v4  [r4+0], r8
//!     spawn        $traverse, r4
//! done:
//!     exit
//! ```
//!
//! Labels resolve to instruction indices. Immediates in `.f32` instructions
//! are parsed as floats, everything else as integers (decimal, `0x` hex, or
//! negative decimal).

use crate::instr::{AluOp, CmpOp, Instr, Instruction, Pick, Space, Special, Width};
use crate::program::{EntryPoint, Program, ResourceUsage, ValidateError};
use crate::reg::{Operand, Pred, Reg};
use std::collections::BTreeMap;
use std::fmt;

/// Errors produced by [`assemble`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AsmError {
    /// A line failed to parse.
    Parse {
        /// 1-based source line.
        line: usize,
        /// Human-readable description.
        msg: String,
    },
    /// A referenced label was never defined.
    UnknownLabel {
        /// 1-based source line.
        line: usize,
        /// The missing label.
        label: String,
    },
    /// A label was defined twice.
    DuplicateLabel {
        /// 1-based source line of the second definition.
        line: usize,
        /// The label name.
        label: String,
    },
    /// The assembled program failed validation.
    Invalid(ValidateError),
}

impl fmt::Display for AsmError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AsmError::Parse { line, msg } => write!(f, "line {line}: {msg}"),
            AsmError::UnknownLabel { line, label } => {
                write!(f, "line {line}: unknown label `{label}`")
            }
            AsmError::DuplicateLabel { line, label } => {
                write!(f, "line {line}: duplicate label `{label}`")
            }
            AsmError::Invalid(e) => write!(f, "invalid program: {e}"),
        }
    }
}

impl std::error::Error for AsmError {}

impl From<ValidateError> for AsmError {
    fn from(e: ValidateError) -> Self {
        AsmError::Invalid(e)
    }
}

/// Assembles source text into a validated [`Program`].
///
/// # Errors
///
/// Returns [`AsmError`] on syntax errors, unknown/duplicate labels, or when
/// the resulting program fails [`Program`] validation (see
/// [`ValidateError`]).
pub fn assemble(src: &str) -> Result<Program, AsmError> {
    Assembler::new().assemble("program", src)
}

/// Assembles source text under an explicit program name.
///
/// # Errors
///
/// Same conditions as [`assemble`].
pub fn assemble_named(name: &str, src: &str) -> Result<Program, AsmError> {
    Assembler::new().assemble(name, src)
}

struct PendingInstr {
    line: usize,
    text: String,
}

struct Assembler {
    labels: BTreeMap<String, usize>,
    entries: Vec<EntryPoint>,
    resources: ResourceUsage,
    pending: Vec<PendingInstr>,
}

fn strip_comment(line: &str) -> &str {
    let mut end = line.len();
    for pat in [";", "#", "//"] {
        if let Some(i) = line.find(pat) {
            end = end.min(i);
        }
    }
    &line[..end]
}

fn is_ident(s: &str) -> bool {
    !s.is_empty()
        && s.chars()
            .next()
            .is_some_and(|c| c.is_ascii_alphabetic() || c == '_')
        && s.chars().all(|c| c.is_ascii_alphanumeric() || c == '_')
}

impl Assembler {
    fn new() -> Self {
        Assembler {
            labels: BTreeMap::new(),
            entries: Vec::new(),
            resources: ResourceUsage::default(),
            pending: Vec::new(),
        }
    }

    fn assemble(mut self, name: &str, src: &str) -> Result<Program, AsmError> {
        // Pass 1: labels, directives, instruction collection.
        for (idx, raw) in src.lines().enumerate() {
            let line_no = idx + 1;
            let mut line = strip_comment(raw).trim();
            if line.is_empty() {
                continue;
            }
            if let Some(rest) = line.strip_prefix('.') {
                self.directive(line_no, rest)?;
                continue;
            }
            // `label:` possibly followed by an instruction on the same line.
            while let Some(colon) = line.find(':') {
                let (head, tail) = line.split_at(colon);
                let head = head.trim();
                if !is_ident(head) {
                    break;
                }
                if self
                    .labels
                    .insert(head.to_string(), self.pending.len())
                    .is_some()
                {
                    return Err(AsmError::DuplicateLabel {
                        line: line_no,
                        label: head.to_string(),
                    });
                }
                line = tail[1..].trim();
                if line.is_empty() {
                    break;
                }
            }
            if !line.is_empty() {
                self.pending.push(PendingInstr {
                    line: line_no,
                    text: line.to_string(),
                });
            }
        }
        // Bind `.kernel` entries declared before any instruction of their body:
        // entries recorded with usize::MAX bind to the label of the same name,
        // or to the next instruction emitted after the directive (handled in
        // `directive` by recording pending.len()).
        for e in &mut self.entries {
            if let Some(&pc) = self.labels.get(&e.name) {
                e.pc = pc;
            }
        }

        // Pass 2: parse instructions with label resolution.
        let mut instrs = Vec::with_capacity(self.pending.len());
        for p in &self.pending {
            instrs.push(parse_instruction(p.line, &p.text, &self.labels)?);
        }
        Ok(Program::new(
            name,
            instrs,
            self.labels,
            self.entries,
            self.resources,
        )?)
    }

    fn directive(&mut self, line: usize, rest: &str) -> Result<(), AsmError> {
        let mut it = rest.split_whitespace();
        let key = it.next().unwrap_or("");
        let arg = it.next();
        let parse_bytes = |arg: Option<&str>| -> Result<u32, AsmError> {
            arg.and_then(|a| a.parse::<u32>().ok())
                .ok_or(AsmError::Parse {
                    line,
                    msg: format!(".{key} expects a byte count"),
                })
        };
        match key {
            "kernel" => {
                let name = arg.ok_or(AsmError::Parse {
                    line,
                    msg: ".kernel expects a name".into(),
                })?;
                if !is_ident(name) {
                    return Err(AsmError::Parse {
                        line,
                        msg: format!("invalid kernel name `{name}`"),
                    });
                }
                self.entries.push(EntryPoint {
                    name: name.to_string(),
                    // Provisional: next instruction; overridden by a
                    // same-named label if one exists.
                    pc: self.pending.len(),
                });
            }
            "shared" => self.resources.shared_bytes = parse_bytes(arg)?,
            "local" => self.resources.local_bytes = parse_bytes(arg)?,
            "global" => self.resources.global_bytes = parse_bytes(arg)?,
            "const" => self.resources.const_bytes = parse_bytes(arg)?,
            "spawnstate" => self.resources.spawn_state_bytes = parse_bytes(arg)?,
            _ => {
                return Err(AsmError::Parse {
                    line,
                    msg: format!("unknown directive `.{key}`"),
                })
            }
        }
        Ok(())
    }
}

fn parse_reg(line: usize, tok: &str) -> Result<Reg, AsmError> {
    let tok = tok.trim();
    tok.strip_prefix('r')
        .and_then(|n| n.parse::<u8>().ok())
        .map(Reg)
        .ok_or_else(|| AsmError::Parse {
            line,
            msg: format!("expected register, found `{tok}`"),
        })
}

fn parse_pred(line: usize, tok: &str) -> Result<Pred, AsmError> {
    let tok = tok.trim();
    tok.strip_prefix('p')
        .and_then(|n| n.parse::<u8>().ok())
        .map(Pred)
        .ok_or_else(|| AsmError::Parse {
            line,
            msg: format!("expected predicate register, found `{tok}`"),
        })
}

fn parse_int(tok: &str) -> Option<u32> {
    let tok = tok.trim();
    if let Some(hex) = tok.strip_prefix("0x").or_else(|| tok.strip_prefix("0X")) {
        return u32::from_str_radix(hex, 16).ok();
    }
    if let Some(neg) = tok.strip_prefix('-') {
        return neg
            .parse::<u32>()
            .ok()
            .map(|v| (v as i64).wrapping_neg() as u32);
    }
    tok.parse::<u32>().ok()
}

/// Parses an operand; `float_ctx` selects float parsing for immediates.
fn parse_operand(line: usize, tok: &str, float_ctx: bool) -> Result<Operand, AsmError> {
    let tok = tok.trim();
    if tok.starts_with('r') && tok[1..].chars().all(|c| c.is_ascii_digit()) && tok.len() > 1 {
        return Ok(Operand::Reg(parse_reg(line, tok)?));
    }
    if float_ctx {
        if let Ok(v) = tok.parse::<f32>() {
            return Ok(Operand::imm_f32(v));
        }
    }
    if let Some(v) = parse_int(tok) {
        return Ok(Operand::Imm(v));
    }
    if !float_ctx {
        // Allow float-looking literals in integer context only if exact.
        if let Ok(v) = tok.parse::<f32>() {
            if v.fract() == 0.0 {
                return Ok(Operand::Imm(v as i64 as u32));
            }
        }
    }
    Err(AsmError::Parse {
        line,
        msg: format!("cannot parse operand `{tok}`"),
    })
}

/// Parses a `[rN+off]` or `[rN-off]` address expression.
fn parse_addr(line: usize, tok: &str) -> Result<(Reg, i32), AsmError> {
    let tok = tok.trim();
    let inner = tok
        .strip_prefix('[')
        .and_then(|t| t.strip_suffix(']'))
        .ok_or_else(|| AsmError::Parse {
            line,
            msg: format!("expected [reg+offset], found `{tok}`"),
        })?;
    let (reg_s, off) = if let Some(plus) = inner.find('+') {
        let off = inner[plus + 1..].trim();
        let off = parse_int(off).ok_or_else(|| AsmError::Parse {
            line,
            msg: format!("bad offset in `{tok}`"),
        })? as i32;
        (&inner[..plus], off)
    } else if let Some(minus) = inner.find('-') {
        let off = inner[minus + 1..].trim();
        let off = parse_int(off).ok_or_else(|| AsmError::Parse {
            line,
            msg: format!("bad offset in `{tok}`"),
        })? as i32;
        (&inner[..minus], off.wrapping_neg())
    } else {
        (inner, 0)
    };
    Ok((parse_reg(line, reg_s)?, off))
}

/// The dotted parts a `cvt` reads as its destination and source types.
const CVT_TYPES: [&str; 3] = ["f32", "s32", "u32"];

fn split_args(s: &str) -> Vec<&str> {
    s.split(',')
        .map(str::trim)
        .filter(|t| !t.is_empty())
        .collect()
}

/// The ALU operation whose spelling starts with `base` and whose type rule
/// admits the dotted `parts` after it; at most one does.
fn pick_alu(base: &str, parts: &[&str]) -> Option<AluOp> {
    AluOp::ALL.into_iter().find(|op| {
        let mut spelling = op.spelling().split('.');
        spelling.next() == Some(base)
            && match op.pick() {
                Pick::Any => true,
                Pick::With(part) => parts.contains(&part),
                Pick::Without(part) => !parts.contains(&part),
                Pick::Convert => parts
                    .iter()
                    .copied()
                    .filter(|p| CVT_TYPES.contains(p))
                    .eq(spelling),
            }
    })
}

fn parse_instruction(
    line: usize,
    text: &str,
    labels: &BTreeMap<String, usize>,
) -> Result<Instruction, AsmError> {
    let mut text = text.trim();
    // Guard.
    let mut guard = None;
    if let Some(rest) = text.strip_prefix('@') {
        let (g, rest) = rest
            .split_once(char::is_whitespace)
            .ok_or(AsmError::Parse {
                line,
                msg: "guard without instruction".into(),
            })?;
        let (negate, pname) = match g.strip_prefix('!') {
            Some(p) => (true, p),
            None => (false, g),
        };
        guard = Some(crate::instr::Guard {
            pred: parse_pred(line, pname)?,
            negate,
        });
        text = rest.trim();
    }

    let (mnemonic, rest) = match text.split_once(char::is_whitespace) {
        Some((m, r)) => (m, r.trim()),
        None => (text, ""),
    };
    let mut dotted = mnemonic.split('.');
    let base = dotted.next().unwrap_or("");
    let parts: Vec<&str> = dotted.collect();
    let resolve = |lbl: &str| -> Result<usize, AsmError> {
        let name = lbl.trim().trim_start_matches('$');
        if let Some(&pc) = labels.get(name) {
            return Ok(pc);
        }
        // Raw numeric targets (as the disassembler prints for anonymous
        // branch/spawn targets) resolve to the instruction index directly;
        // `Program::new` still range-checks them.
        if let Ok(pc) = name.parse::<usize>() {
            return Ok(pc);
        }
        Err(AsmError::UnknownLabel {
            line,
            label: name.to_string(),
        })
    };

    let op = match base {
        "nop" => Instr::Nop,
        "exit" => Instr::Exit,
        "bra" => Instr::Bra {
            target: resolve(rest)?,
        },
        "spawn" => {
            let args = split_args(rest);
            if args.len() != 2 {
                return Err(AsmError::Parse {
                    line,
                    msg: "spawn expects `spawn $kernel, rptr`".into(),
                });
            }
            Instr::Spawn {
                target: resolve(args[0])?,
                ptr: parse_reg(line, args[1])?,
            }
        }
        "mov" => {
            let args = split_args(rest);
            if args.len() != 2 {
                return Err(AsmError::Parse {
                    line,
                    msg: "mov expects two operands".into(),
                });
            }
            let d = parse_reg(line, args[0])?;
            if let Some(s) = Special::from_spelling(args[1]) {
                Instr::ReadSpecial { d, s }
            } else {
                let fl = parts.contains(&"f32");
                Instr::Mov {
                    d,
                    a: parse_operand(line, args[1], fl)?,
                }
            }
        }
        "setp" => {
            if parts.len() != 2 {
                return Err(AsmError::Parse {
                    line,
                    msg: "setp expects `setp.<cmp>.<type>`".into(),
                });
            }
            // A type a comparison is not declared at compares signed.
            let (cmp, ty) = (parts[0], parts[1]);
            let cmp = CmpOp::from_spelling(&format!("{cmp}.{ty}"))
                .or_else(|| CmpOp::from_spelling(&format!("{cmp}.s32")))
                .ok_or_else(|| AsmError::Parse {
                    line,
                    msg: format!("unknown comparison `setp.{cmp}.{ty}`"),
                })?;
            let fl = parts[1] == "f32";
            let args = split_args(rest);
            if args.len() != 3 {
                return Err(AsmError::Parse {
                    line,
                    msg: "setp expects `p, a, b`".into(),
                });
            }
            Instr::Setp {
                cmp,
                p: parse_pred(line, args[0])?,
                a: parse_operand(line, args[1], fl)?,
                b: parse_operand(line, args[2], fl)?,
            }
        }
        "selp" => {
            let fl = parts.contains(&"f32");
            let args = split_args(rest);
            if args.len() != 4 {
                return Err(AsmError::Parse {
                    line,
                    msg: "selp expects `d, a, b, p`".into(),
                });
            }
            Instr::Selp {
                d: parse_reg(line, args[0])?,
                a: parse_operand(line, args[1], fl)?,
                b: parse_operand(line, args[2], fl)?,
                p: parse_pred(line, args[3])?,
            }
        }
        "ld" | "st" => {
            if parts.is_empty() {
                return Err(AsmError::Parse {
                    line,
                    msg: format!("`{base}` needs an address space"),
                });
            }
            let space = Space::from_spelling(parts[0]).ok_or_else(|| AsmError::Parse {
                line,
                msg: format!("unknown address space `{}`", parts[0]),
            })?;
            let width = if parts.contains(&Width::V4.spelling()) {
                Width::V4
            } else {
                Width::W1
            };
            let args = split_args(rest);
            if args.len() != 2 {
                return Err(AsmError::Parse {
                    line,
                    msg: format!("`{base}` expects two operands"),
                });
            }
            if base == "ld" {
                let d = parse_reg(line, args[0])?;
                let (addr, offset) = parse_addr(line, args[1])?;
                Instr::Ld {
                    space,
                    d,
                    addr,
                    offset,
                    width,
                }
            } else {
                let (addr, offset) = parse_addr(line, args[0])?;
                let a = parse_reg(line, args[1])?;
                Instr::St {
                    space,
                    a,
                    addr,
                    offset,
                    width,
                }
            }
        }
        "cvt" => {
            // cvt.<dst>.<src>  (ignoring optional rounding mode parts)
            let tys: Vec<&str> = parts
                .iter()
                .copied()
                .filter(|p| CVT_TYPES.contains(p))
                .collect();
            let [dst, src] = tys[..] else {
                return Err(AsmError::Parse {
                    line,
                    msg: "cvt expects `cvt.<dst>.<src>`".into(),
                });
            };
            let op = pick_alu(base, &parts).ok_or_else(|| AsmError::Parse {
                line,
                msg: format!("unsupported conversion `{src}` -> `{dst}`"),
            })?;
            let args = split_args(rest);
            if args.len() != 2 {
                return Err(AsmError::Parse {
                    line,
                    msg: "cvt expects two operands".into(),
                });
            }
            Instr::Alu {
                op,
                d: parse_reg(line, args[0])?,
                a: parse_operand(line, args[1], false)?,
                b: Operand::Imm(0),
                c: Operand::Imm(0),
            }
        }
        _ => {
            let op = pick_alu(base, &parts).ok_or_else(|| AsmError::Parse {
                line,
                msg: format!("unknown instruction `{base}.{}`", parts.join(".")),
            })?;
            let fl = parts.contains(&"f32");
            let args = split_args(rest);
            let need = op.arity() + 1;
            if args.len() != need {
                return Err(AsmError::Parse {
                    line,
                    msg: format!("`{base}` expects {need} operands, found {}", args.len()),
                });
            }
            let d = parse_reg(line, args[0])?;
            let mut srcs = [Operand::Imm(0); 3];
            for (src, tok) in srcs.iter_mut().zip(&args[1..]) {
                *src = parse_operand(line, tok, fl)?;
            }
            let [a, b, c] = srcs;
            Instr::Alu { op, d, a, b, c }
        }
    };
    Ok(Instruction { guard, op })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::instr::{AluOp, Instr, Space, Special, Width};
    use crate::reg::{Operand, Pred, Reg};

    #[test]
    fn assembles_basic_program() {
        let p = assemble(
            r#"
            .kernel main
            .shared 60
            main:
                mov.u32 r1, %tid
                add.s32 r2, r1, 1
                exit
            "#,
        )
        .unwrap();
        assert_eq!(p.len(), 3);
        assert_eq!(p.entry("main").unwrap().pc, 0);
        assert_eq!(p.resource_usage().shared_bytes, 60);
        assert_eq!(p.resource_usage().registers, 3);
        assert_eq!(
            p.instrs()[0].op,
            Instr::ReadSpecial {
                d: Reg(1),
                s: Special::Tid
            }
        );
    }

    #[test]
    fn parses_guards() {
        let p = assemble(
            r#"
            loop:
            @p0 bra loop
            @!p1 add.s32 r1, r1, 1
                exit
            "#,
        )
        .unwrap();
        let g0 = p.instrs()[0].guard.unwrap();
        assert_eq!(g0.pred, Pred(0));
        assert!(!g0.negate);
        let g1 = p.instrs()[1].guard.unwrap();
        assert_eq!(g1.pred, Pred(1));
        assert!(g1.negate);
    }

    #[test]
    fn parses_memory_ops() {
        let p = assemble(
            r#"
                ld.global.u32 r1, [r2+8]
                ld.spawn.v4 r4, [r2+0]
                st.shared.u32 [r2-4], r1
                st.spawn.v4 [r2+16], r8
                exit
            "#,
        )
        .unwrap();
        assert_eq!(
            p.instrs()[0].op,
            Instr::Ld {
                space: Space::Global,
                d: Reg(1),
                addr: Reg(2),
                offset: 8,
                width: Width::W1
            }
        );
        assert_eq!(
            p.instrs()[1].op,
            Instr::Ld {
                space: Space::Spawn,
                d: Reg(4),
                addr: Reg(2),
                offset: 0,
                width: Width::V4
            }
        );
        assert_eq!(
            p.instrs()[2].op,
            Instr::St {
                space: Space::Shared,
                a: Reg(1),
                addr: Reg(2),
                offset: -4,
                width: Width::W1
            }
        );
    }

    #[test]
    fn parses_float_immediates_in_float_context() {
        let p = assemble("mov.f32 r1, 1.5\nadd.f32 r2, r1, -2.25\nexit").unwrap();
        assert_eq!(
            p.instrs()[0].op,
            Instr::Mov {
                d: Reg(1),
                a: Operand::imm_f32(1.5)
            }
        );
        match p.instrs()[1].op {
            Instr::Alu {
                op: AluOp::FAdd, b, ..
            } => assert_eq!(b, Operand::imm_f32(-2.25)),
            ref other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn parses_spawn_with_dollar_label() {
        let p = assemble(
            r#"
            .kernel main
            .kernel child
            main:
                spawn $child, r3
                exit
            child:
                exit
            "#,
        )
        .unwrap();
        assert_eq!(
            p.instrs()[0].op,
            Instr::Spawn {
                target: 2,
                ptr: Reg(3)
            }
        );
    }

    #[test]
    fn errors_on_unknown_label() {
        let err = assemble("bra nowhere\nexit").unwrap_err();
        assert!(matches!(err, AsmError::UnknownLabel { label, .. } if label == "nowhere"));
    }

    #[test]
    fn errors_on_duplicate_label() {
        let err = assemble("a:\nnop\na:\nexit").unwrap_err();
        assert!(matches!(err, AsmError::DuplicateLabel { label, .. } if label == "a"));
    }

    #[test]
    fn errors_on_bad_syntax() {
        assert!(matches!(
            assemble("frobnicate r1, r2\nexit"),
            Err(AsmError::Parse { .. })
        ));
        assert!(matches!(
            assemble("add.s32 r1\nexit"),
            Err(AsmError::Parse { .. })
        ));
        assert!(matches!(
            assemble("ld.bogus.u32 r1, [r2+0]\nexit"),
            Err(AsmError::Parse { .. })
        ));
    }

    #[test]
    fn spawn_to_non_kernel_label_is_invalid() {
        let err = assemble(
            r#"
            main:
                spawn $other, r1
                exit
            other:
                exit
            "#,
        )
        .unwrap_err();
        assert!(matches!(err, AsmError::Invalid(_)));
    }

    #[test]
    fn label_and_instruction_on_same_line() {
        let p = assemble("start: mov.u32 r1, 5\nexit").unwrap();
        assert_eq!(p.label("start"), Some(0));
        assert_eq!(p.len(), 2);
    }

    #[test]
    fn hex_and_negative_immediates() {
        let p = assemble("mov.u32 r1, 0xff\nmov.s32 r2, -7\nexit").unwrap();
        assert_eq!(
            p.instrs()[0].op,
            Instr::Mov {
                d: Reg(1),
                a: Operand::Imm(0xff)
            }
        );
        assert_eq!(
            p.instrs()[1].op,
            Instr::Mov {
                d: Reg(2),
                a: Operand::Imm((-7i32) as u32)
            }
        );
    }

    #[test]
    fn kernel_directive_without_label_binds_next_instruction() {
        let p = assemble(
            r#"
                nop
            .kernel uk
                add.s32 r1, r1, 1
                exit
            "#,
        )
        .unwrap();
        assert_eq!(p.entry("uk").unwrap().pc, 1);
    }

    /// A predicate past `p7` has no bit-plane: every place one is named
    /// (`setp` destination, `selp` selector, guard) is refused.
    #[test]
    fn predicates_past_p7_are_refused() {
        for (src, pc, p) in [
            ("setp.eq.s32 p8, r1, 0\nexit", 0, 8),
            ("selp.b32 r1, r2, r3, p9\nexit", 0, 9),
            ("nop\n@!p8 bra end\nend: exit", 1, 8),
        ] {
            let pred = Pred(p);
            assert_eq!(
                assemble(src).unwrap_err(),
                AsmError::Invalid(ValidateError::PredicateOutOfRange { pc, pred }),
                "{src}"
            );
        }
        assert!(assemble("setp.eq.s32 p7, r1, 0\n@p7 exit\nexit").is_ok());
    }

    #[test]
    fn comments_are_stripped() {
        let p = assemble("nop ; trailing\n# whole line\nnop // also\nexit").unwrap();
        assert_eq!(p.len(), 3);
    }
}
