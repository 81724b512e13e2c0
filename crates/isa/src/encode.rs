//! Binary instruction encoding.
//!
//! Every instruction encodes to exactly **three 32-bit words** (a
//! fixed-width 96-bit format; real GPU ISAs of the FX5800 era used 64/96
//! bit forms). The encoding is lossless — [`decode`] ∘ [`encode`] is the
//! identity — which the property tests verify over arbitrary
//! instructions. Useful for measuring static code size
//! ([`encoded_bytes`]) and for storing programs in device memory images.
//!
//! ## Format
//!
//! ```text
//! word 0: opcode[7:0] | dst[15:8] | aux[23:16] | guard[31:24]
//! word 1: op_a[7:0] | op_b[15:8] | op_c[23:16] | addr_reg[31:24]
//! word 2: immediate / branch target / byte offset
//! ```
//!
//! * `dst` is the destination register, predicate, or spawn pointer reg.
//! * `aux` holds the `selp` predicate, the special-register index, or the
//!   `space | width<<3` bits of memory instructions.
//! * `guard`: `0` = none, `0x80 | p` = `@p`, `0xC0 | p` = `@!p`.
//! * operand bytes: bit 7 set marks "the immediate in word 2"; otherwise
//!   the low 7 bits are a register index. At most one operand may be an
//!   immediate ([`EncodeError::TooManyImmediates`] otherwise — the
//!   assembler never produces such instructions).

use crate::instr::{AluOp, CmpOp, Guard, Instr, Instruction, Space, Special, Width};
use crate::reg::{Operand, Pred, Reg};
use std::fmt;

/// Encoded instruction: three words.
pub type EncodedInstr = [u32; 3];

/// Bytes per encoded instruction.
pub const ENCODED_INSTR_BYTES: u32 = 12;

/// Errors from [`encode`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EncodeError {
    /// The instruction carries more than one immediate operand (word 2 can
    /// hold only one).
    TooManyImmediates,
}

impl fmt::Display for EncodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EncodeError::TooManyImmediates => {
                write!(f, "at most one immediate operand is encodable")
            }
        }
    }
}

impl std::error::Error for EncodeError {}

/// Errors from [`decode`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DecodeError {
    /// Unknown opcode byte.
    BadOpcode(u8),
    /// Malformed field combination.
    BadFields,
}

impl fmt::Display for DecodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DecodeError::BadOpcode(op) => write!(f, "unknown opcode {op:#x}"),
            DecodeError::BadFields => write!(f, "malformed instruction fields"),
        }
    }
}

impl std::error::Error for DecodeError {}

const OP_ALU_BASE: u8 = 0x00; // + AluOp encoding
const OP_SETP_BASE: u8 = 0x40; // + CmpOp encoding
const OP_SELP: u8 = 0x60;
const OP_MOV: u8 = 0x61;
const OP_SPECIAL: u8 = 0x62;
const OP_LD: u8 = 0x63;
const OP_ST: u8 = 0x64;
const OP_BRA: u8 = 0x65;
const OP_EXIT: u8 = 0x66;
const OP_SPAWN: u8 = 0x67;
const OP_NOP: u8 = 0x68;

const IMM_MARK: u8 = 0x80;
/// Marker for a literal zero immediate (does not consume the imm word, so
/// the assembler's `Imm(0)` operand padding encodes freely).
const IMM_ZERO: u8 = 0x81;

fn guard_byte(g: Option<Guard>) -> u8 {
    match g {
        None => 0,
        Some(Guard {
            pred,
            negate: false,
        }) => 0x80 | pred.0,
        Some(Guard { pred, negate: true }) => 0xC0 | pred.0,
    }
}

fn guard_from(b: u8) -> Result<Option<Guard>, DecodeError> {
    match b & 0xC0 {
        0x00 if b == 0 => Ok(None),
        0x80 => Ok(Some(Guard {
            pred: Pred(b & 0x3F),
            negate: false,
        })),
        0xC0 => Ok(Some(Guard {
            pred: Pred(b & 0x3F),
            negate: true,
        })),
        _ => Err(DecodeError::BadFields),
    }
}

struct Packer {
    imm: Option<u32>,
}

impl Packer {
    fn new() -> Self {
        Packer { imm: None }
    }

    fn pack(&mut self, o: Operand) -> Result<u8, EncodeError> {
        match o {
            Operand::Reg(r) => Ok(r.0 & 0x7F),
            Operand::Imm(0) => Ok(IMM_ZERO),
            Operand::Imm(v) => {
                if self.imm.replace(v).is_some() {
                    return Err(EncodeError::TooManyImmediates);
                }
                Ok(IMM_MARK)
            }
        }
    }
}

fn unpack(b: u8, imm: u32) -> Operand {
    if b == IMM_ZERO {
        Operand::Imm(0)
    } else if b & IMM_MARK != 0 {
        Operand::Imm(imm)
    } else {
        Operand::Reg(Reg(b))
    }
}

fn words(opcode: u8, dst: u8, aux: u8, guard: u8, w1: u32, w2: u32) -> EncodedInstr {
    [
        u32::from(opcode) | u32::from(dst) << 8 | u32::from(aux) << 16 | u32::from(guard) << 24,
        w1,
        w2,
    ]
}

/// Encodes one instruction.
///
/// # Errors
///
/// Returns [`EncodeError::TooManyImmediates`] when more than one operand
/// is an immediate.
pub fn encode(i: &Instruction) -> Result<EncodedInstr, EncodeError> {
    let g = guard_byte(i.guard);
    Ok(match i.op {
        Instr::Alu { op, d, a, b, c } => {
            let mut p = Packer::new();
            let (pa, pb, pc) = (p.pack(a)?, p.pack(b)?, p.pack(c)?);
            words(
                OP_ALU_BASE + op as u8,
                d.0,
                0,
                g,
                u32::from(pa) | u32::from(pb) << 8 | u32::from(pc) << 16,
                p.imm.unwrap_or(0),
            )
        }
        Instr::Setp { cmp, p, a, b } => {
            let mut pk = Packer::new();
            let (pa, pb) = (pk.pack(a)?, pk.pack(b)?);
            words(
                OP_SETP_BASE + cmp as u8,
                p.0,
                0,
                g,
                u32::from(pa) | u32::from(pb) << 8,
                pk.imm.unwrap_or(0),
            )
        }
        Instr::Selp { d, a, b, p } => {
            let mut pk = Packer::new();
            let (pa, pb) = (pk.pack(a)?, pk.pack(b)?);
            words(
                OP_SELP,
                d.0,
                p.0,
                g,
                u32::from(pa) | u32::from(pb) << 8,
                pk.imm.unwrap_or(0),
            )
        }
        Instr::Mov { d, a } => {
            let mut pk = Packer::new();
            let pa = pk.pack(a)?;
            words(OP_MOV, d.0, 0, g, u32::from(pa), pk.imm.unwrap_or(0))
        }
        Instr::ReadSpecial { d, s } => words(OP_SPECIAL, d.0, s as u8, g, 0, 0),
        Instr::Ld {
            space,
            d,
            addr,
            offset,
            width,
        } => words(
            OP_LD,
            d.0,
            space as u8 | (width as u8) << 3,
            g,
            u32::from(addr.0) << 24,
            offset as u32,
        ),
        Instr::St {
            space,
            a,
            addr,
            offset,
            width,
        } => words(
            OP_ST,
            a.0,
            space as u8 | (width as u8) << 3,
            g,
            u32::from(addr.0) << 24,
            offset as u32,
        ),
        Instr::Bra { target } => words(OP_BRA, 0, 0, g, 0, target as u32),
        Instr::Exit => words(OP_EXIT, 0, 0, g, 0, 0),
        Instr::Spawn { target, ptr } => words(OP_SPAWN, ptr.0, 0, g, 0, target as u32),
        Instr::Nop => words(OP_NOP, 0, 0, g, 0, 0),
    })
}

/// Decodes three words back into an instruction.
///
/// # Errors
///
/// Returns [`DecodeError`] for unknown opcodes or malformed fields.
pub fn decode(w: EncodedInstr) -> Result<Instruction, DecodeError> {
    let opc = (w[0] & 0xFF) as u8;
    let dst = ((w[0] >> 8) & 0xFF) as u8;
    let aux = ((w[0] >> 16) & 0xFF) as u8;
    let guard = guard_from(((w[0] >> 24) & 0xFF) as u8)?;
    let (pa, pb, pc) = (
        (w[1] & 0xFF) as u8,
        ((w[1] >> 8) & 0xFF) as u8,
        ((w[1] >> 16) & 0xFF) as u8,
    );
    let addr_reg = Reg(((w[1] >> 24) & 0xFF) as u8);
    let imm = w[2];
    let make = |op: Instr| Instruction { guard, op };

    if let Some(&op) = AluOp::ALL.get(usize::from(opc.wrapping_sub(OP_ALU_BASE))) {
        return Ok(make(Instr::Alu {
            op,
            d: Reg(dst),
            a: unpack(pa, imm),
            b: unpack(pb, imm),
            c: unpack(pc, imm),
        }));
    }
    if let Some(&cmp) = CmpOp::ALL.get(usize::from(opc.wrapping_sub(OP_SETP_BASE))) {
        return Ok(make(Instr::Setp {
            cmp,
            p: Pred(dst),
            a: unpack(pa, imm),
            b: unpack(pb, imm),
        }));
    }
    match opc {
        OP_SELP => Ok(make(Instr::Selp {
            d: Reg(dst),
            a: unpack(pa, imm),
            b: unpack(pb, imm),
            p: Pred(aux),
        })),
        OP_MOV => Ok(make(Instr::Mov {
            d: Reg(dst),
            a: unpack(pa, imm),
        })),
        OP_SPECIAL => Ok(make(Instr::ReadSpecial {
            d: Reg(dst),
            s: *Special::ALL
                .get(usize::from(aux))
                .ok_or(DecodeError::BadFields)?,
        })),
        OP_LD | OP_ST => {
            let space = *Space::ALL
                .get(usize::from(aux & 0x7))
                .ok_or(DecodeError::BadFields)?;
            let width = *Width::ALL
                .get(usize::from(aux >> 3 & 1))
                .ok_or(DecodeError::BadFields)?;
            let op = if opc == OP_LD {
                Instr::Ld {
                    space,
                    d: Reg(dst),
                    addr: addr_reg,
                    offset: imm as i32,
                    width,
                }
            } else {
                Instr::St {
                    space,
                    a: Reg(dst),
                    addr: addr_reg,
                    offset: imm as i32,
                    width,
                }
            };
            Ok(make(op))
        }
        OP_BRA => Ok(make(Instr::Bra {
            target: imm as usize,
        })),
        OP_EXIT => Ok(make(Instr::Exit)),
        OP_SPAWN => Ok(make(Instr::Spawn {
            target: imm as usize,
            ptr: Reg(dst),
        })),
        OP_NOP => Ok(make(Instr::Nop)),
        _ => Err(DecodeError::BadOpcode(opc)),
    }
}

/// Encodes a whole program; returns the flat word image.
///
/// # Errors
///
/// Propagates the first [`EncodeError`].
pub fn encode_program(p: &crate::program::Program) -> Result<Vec<u32>, EncodeError> {
    let mut out = Vec::with_capacity(p.len() * 3);
    for i in p.instrs() {
        out.extend_from_slice(&encode(i)?);
    }
    Ok(out)
}

/// Static code size of a program in its binary encoding.
pub fn encoded_bytes(p: &crate::program::Program) -> u32 {
    p.len() as u32 * ENCODED_INSTR_BYTES
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn roundtrip(i: &Instruction) {
        let enc = encode(i).unwrap();
        let dec = decode(enc).unwrap();
        assert_eq!(*i, dec, "encoded as {enc:?}");
    }

    #[test]
    fn representative_instructions_roundtrip() {
        use crate::asm::assemble;
        let p = assemble(
            r#"
            .kernel main
            .kernel child
            main:
                mov.u32 r1, %tid
                mov.f32 r2, 1.5
            @p0 add.s32 r3, r1, 7
            @!p1 bra done
                setp.lt.f32 p0, r2, 3.25
                selp.b32 r4, r1, r3, p0
                fma.f32 r5, r2, r2, r2
                ld.global.v4 r8, [r4+16]
                st.spawn.u32 [r4-4], r1
                spawn $child, r4
            done:
                exit
            child:
                nop
                exit
            "#,
        )
        .unwrap();
        for i in p.instrs() {
            roundtrip(i);
        }
        assert_eq!(encoded_bytes(&p), p.len() as u32 * 12);
        assert_eq!(encode_program(&p).unwrap().len(), p.len() * 3);
    }

    #[test]
    fn two_immediates_are_rejected() {
        let i = Instruction::new(Instr::Alu {
            op: AluOp::FFma,
            d: Reg(0),
            a: Operand::Imm(1),
            b: Operand::Imm(2),
            c: Operand::Reg(Reg(1)),
        });
        assert_eq!(encode(&i), Err(EncodeError::TooManyImmediates));
    }

    #[test]
    fn bad_opcode_is_rejected() {
        assert_eq!(decode([0xFF, 0, 0]), Err(DecodeError::BadOpcode(0xFF)));
    }

    #[test]
    fn bad_special_index_is_rejected() {
        // OP_SPECIAL with aux out of range.
        let w0 = u32::from(OP_SPECIAL) | 99u32 << 16;
        assert_eq!(decode([w0, 0, 0]), Err(DecodeError::BadFields));
    }

    fn arb_operand() -> impl Strategy<Value = Operand> {
        prop_oneof![
            (0u8..64).prop_map(|r| Operand::Reg(Reg(r))),
            any::<u32>().prop_map(Operand::Imm),
        ]
    }

    fn arb_guard() -> impl Strategy<Value = Option<Guard>> {
        prop_oneof![
            Just(None),
            ((0u8..8), any::<bool>()).prop_map(|(p, n)| Some(Guard {
                pred: Pred(p),
                negate: n
            })),
        ]
    }

    fn arb_space() -> impl Strategy<Value = Space> {
        (0usize..Space::ALL.len()).prop_map(|s| Space::ALL[s])
    }

    fn arb_instr() -> impl Strategy<Value = Instr> {
        prop_oneof![
            (
                0usize..AluOp::ALL.len(),
                0u8..64,
                arb_operand(),
                arb_operand(),
                arb_operand()
            )
                .prop_map(|(op, d, a, b, c)| Instr::Alu {
                    op: AluOp::ALL[op],
                    d: Reg(d),
                    a,
                    b,
                    c
                }),
            (
                0usize..CmpOp::ALL.len(),
                0u8..8,
                arb_operand(),
                arb_operand()
            )
                .prop_map(|(c, p, a, b)| Instr::Setp {
                    cmp: CmpOp::ALL[c],
                    p: Pred(p),
                    a,
                    b
                }),
            (0u8..64, arb_operand(), arb_operand(), 0u8..8).prop_map(|(d, a, b, p)| {
                Instr::Selp {
                    d: Reg(d),
                    a,
                    b,
                    p: Pred(p),
                }
            }),
            (0u8..64, arb_operand()).prop_map(|(d, a)| Instr::Mov { d: Reg(d), a }),
            (0u8..64, 0usize..Special::ALL.len()).prop_map(|(d, s)| Instr::ReadSpecial {
                d: Reg(d),
                s: Special::ALL[s]
            }),
            (arb_space(), 0u8..64, 0u8..64, any::<i32>(), any::<bool>()).prop_map(
                |(space, d, addr, offset, v4)| Instr::Ld {
                    space,
                    d: Reg(d),
                    addr: Reg(addr),
                    offset,
                    width: if v4 { Width::V4 } else { Width::W1 }
                }
            ),
            (arb_space(), 0u8..64, 0u8..64, any::<i32>(), any::<bool>()).prop_map(
                |(space, a, addr, offset, v4)| Instr::St {
                    space,
                    a: Reg(a),
                    addr: Reg(addr),
                    offset,
                    width: if v4 { Width::V4 } else { Width::W1 }
                }
            ),
            (0usize..10_000).prop_map(|t| Instr::Bra { target: t }),
            Just(Instr::Exit),
            (0usize..10_000, 0u8..64).prop_map(|(t, p)| Instr::Spawn {
                target: t,
                ptr: Reg(p)
            }),
            Just(Instr::Nop),
        ]
    }

    proptest! {
        /// decode(encode(i)) == i for every encodable instruction.
        #[test]
        fn encode_decode_roundtrip(op in arb_instr(), guard in arb_guard()) {
            let i = Instruction { guard, op };
            match encode(&i) {
                Ok(enc) => {
                    let dec = decode(enc).unwrap();
                    prop_assert_eq!(i, dec);
                }
                Err(EncodeError::TooManyImmediates) => {
                    // Only possible with >= 2 *non-zero* immediates
                    // (zeros encode via the dedicated marker).
                    let nonzero = match i.op {
                        Instr::Alu { a, b, c, .. } => [a, b, c]
                            .iter()
                            .filter(|o| matches!(o, Operand::Imm(v) if *v != 0))
                            .count(),
                        Instr::Setp { a, b, .. } | Instr::Selp { a, b, .. } => [a, b]
                            .iter()
                            .filter(|o| matches!(o, Operand::Imm(v) if *v != 0))
                            .count(),
                        _ => 0,
                    };
                    prop_assert!(nonzero >= 2, "spurious rejection of {i:?}");
                }
            }
        }

        /// Decoding random words either fails cleanly or yields an
        /// instruction that re-encodes (no panics, no junk states).
        #[test]
        fn decode_never_panics(w0: u32, w1: u32, w2: u32) {
            if let Ok(i) = decode([w0, w1, w2]) {
                // Re-encoding may normalize, but must not error for
                // instructions that came out of the decoder.
                let _ = encode(&i);
            }
        }
    }
}
