//! Instruction definitions.

use crate::reg::{Operand, Pred, Reg};
use serde::{Deserialize, Serialize};

/// Arithmetic/logic operations evaluated per lane.
///
/// Unary operations ignore operand `b`; only [`AluOp::FFma`] and
/// [`AluOp::IMad`] use operand `c`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum AluOp {
    /// 32-bit integer add (wrapping).
    IAdd,
    /// 32-bit integer subtract (wrapping).
    ISub,
    /// 32-bit integer multiply, low 32 bits (wrapping).
    IMul,
    /// Integer multiply-add: `a * b + c` (wrapping).
    IMad,
    /// Signed integer minimum.
    IMin,
    /// Signed integer maximum.
    IMax,
    /// Signed division; division by zero yields `0` (simulator convention).
    IDiv,
    /// Signed remainder; remainder by zero yields `0`.
    IRem,
    /// Bitwise and.
    And,
    /// Bitwise or.
    Or,
    /// Bitwise xor.
    Xor,
    /// Bitwise not (unary).
    Not,
    /// Logical shift left (amounts ≥ 32 clamp to 0, like PTX `shl.b32`).
    Shl,
    /// Logical shift right (amounts ≥ 32 clamp to 0, like PTX `shr.u32`).
    ShrU,
    /// Arithmetic shift right (amounts ≥ 32 saturate to the sign fill).
    ShrS,
    /// IEEE-754 single add.
    FAdd,
    /// IEEE-754 single subtract.
    FSub,
    /// IEEE-754 single multiply.
    FMul,
    /// IEEE-754 single divide.
    FDiv,
    /// Floating minimum (NaN-propagating like PTX `min.f32`).
    FMin,
    /// Floating maximum.
    FMax,
    /// Fused multiply-add: `a * b + c`.
    FFma,
    /// Square root (unary).
    FSqrt,
    /// Reciprocal `1/a` (unary).
    FRcp,
    /// Absolute value (unary).
    FAbs,
    /// Negate (unary).
    FNeg,
    /// Floor (unary).
    FFloor,
    /// Convert signed int to float (unary).
    I2F,
    /// Convert float to signed int, truncating (unary).
    F2I,
    /// Convert unsigned int to float (unary).
    U2F,
    /// Convert float to unsigned int, truncating (unary).
    F2U,
}

impl AluOp {
    /// Returns `true` for single-operand operations (operand `b` unused).
    pub fn is_unary(self) -> bool {
        matches!(
            self,
            AluOp::Not
                | AluOp::FSqrt
                | AluOp::FRcp
                | AluOp::FAbs
                | AluOp::FNeg
                | AluOp::FFloor
                | AluOp::I2F
                | AluOp::F2I
                | AluOp::U2F
                | AluOp::F2U
        )
    }

    /// Returns `true` for three-operand operations (operand `c` used).
    pub fn is_ternary(self) -> bool {
        matches!(self, AluOp::FFma | AluOp::IMad)
    }
}

/// Comparison operators for [`Instr::Setp`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum CmpOp {
    /// Equal (signed int compare).
    EqS,
    /// Not equal (signed).
    NeS,
    /// Less-than (signed).
    LtS,
    /// Less-or-equal (signed).
    LeS,
    /// Greater-than (signed).
    GtS,
    /// Greater-or-equal (signed).
    GeS,
    /// Less-than (unsigned).
    LtU,
    /// Less-or-equal (unsigned).
    LeU,
    /// Greater-than (unsigned).
    GtU,
    /// Greater-or-equal (unsigned).
    GeU,
    /// Equal (float).
    EqF,
    /// Not equal (float).
    NeF,
    /// Less-than (float).
    LtF,
    /// Less-or-equal (float).
    LeF,
    /// Greater-than (float).
    GtF,
    /// Greater-or-equal (float).
    GeF,
}

crate::record! {
    /// Address spaces visible to device code (paper §IV-A).
    #[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
    pub enum Space: "address space" {
        /// Off-chip device memory, shared by all SMs (high latency, 8 modules).
        Global = 0,
        /// On-chip per-SM scratchpad, banked.
        Shared = 1,
        /// Per-thread off-chip memory (register spill, traversal stacks).
        Local = 2,
        /// Read-only off-chip memory (broadcast-friendly).
        Const = 3,
        /// The paper's new spawn-memory space: parent→child state records and
        /// the warp-formation metadata area (on-chip, banked).
        Spawn = 4,
    }
}

impl Space {
    /// All address spaces, in a stable order.
    pub const ALL: [Space; 5] = [
        Space::Global,
        Space::Shared,
        Space::Local,
        Space::Const,
        Space::Spawn,
    ];

    /// Whether this space lives on-chip (no off-chip bandwidth consumed).
    pub fn is_on_chip(self) -> bool {
        matches!(self, Space::Shared | Space::Spawn)
    }
}

/// Access width of a memory instruction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Width {
    /// One 32-bit word.
    W1,
    /// A `v4` vector access: four consecutive words / registers (16 bytes).
    V4,
}

impl Width {
    /// The number of bytes transferred per lane.
    pub fn bytes(self) -> u32 {
        match self {
            Width::W1 => 4,
            Width::V4 => 16,
        }
    }

    /// The number of consecutive registers read/written.
    pub fn regs(self) -> u8 {
        match self {
            Width::W1 => 1,
            Width::V4 => 4,
        }
    }
}

/// A guard predicate (`@p0` / `@!p0`): the instruction only commits for
/// lanes whose predicate matches.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Guard {
    /// The predicate register consulted.
    pub pred: Pred,
    /// If `true`, the guard passes when the predicate is **false** (`@!p`).
    pub negate: bool,
}

/// The operation performed by one instruction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Instr {
    /// Arithmetic/logic: `d = op(a, b, c)`.
    Alu {
        /// Operation selector.
        op: AluOp,
        /// Destination register.
        d: Reg,
        /// First source.
        a: Operand,
        /// Second source (ignored by unary ops).
        b: Operand,
        /// Third source (used by `fma`/`mad` only).
        c: Operand,
    },
    /// Compare and set predicate: `p = cmp(a, b)`.
    Setp {
        /// Comparison operator (carries the type interpretation).
        cmp: CmpOp,
        /// Destination predicate.
        p: Pred,
        /// Left operand.
        a: Operand,
        /// Right operand.
        b: Operand,
    },
    /// Select on predicate: `d = p ? a : b`.
    Selp {
        /// Destination register.
        d: Reg,
        /// Value when predicate is true.
        a: Operand,
        /// Value when predicate is false.
        b: Operand,
        /// Selector predicate.
        p: Pred,
    },
    /// Register move / load-immediate: `d = a`.
    Mov {
        /// Destination register.
        d: Reg,
        /// Source operand.
        a: Operand,
    },
    /// Read a special register: `d = special`.
    ReadSpecial {
        /// Destination register.
        d: Reg,
        /// The special register read.
        s: crate::reg::Special,
    },
    /// Memory load: `d[..w] = space[addr + offset]`.
    Ld {
        /// Address space accessed.
        space: Space,
        /// First destination register (`V4` writes `d..d+3`).
        d: Reg,
        /// Base-address register (byte address).
        addr: Reg,
        /// Constant byte offset added to the base.
        offset: i32,
        /// Access width.
        width: Width,
    },
    /// Memory store: `space[addr + offset] = a[..w]`.
    St {
        /// Address space accessed.
        space: Space,
        /// First source register (`V4` reads `a..a+3`).
        a: Reg,
        /// Base-address register (byte address).
        addr: Reg,
        /// Constant byte offset added to the base.
        offset: i32,
        /// Access width.
        width: Width,
    },
    /// Branch to an absolute instruction index. Divergence arises when the
    /// branch is guarded and lanes disagree.
    Bra {
        /// Target program counter (instruction index).
        target: usize,
    },
    /// Thread exit. The lane retires and frees its resources.
    Exit,
    /// The paper's dynamic thread-creation instruction (§IV-B).
    ///
    /// Creates one new thread per active lane, beginning execution at the
    /// μ-kernel whose first instruction is `target`, and hands the child the
    /// spawn-memory state pointer held in `ptr`.
    Spawn {
        /// Entry PC of the μ-kernel the child executes.
        target: usize,
        /// Register holding the spawn-memory pointer passed to the child.
        ptr: Reg,
    },
    /// No operation.
    Nop,
}

/// A fully-formed instruction: an optional guard plus the operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Instruction {
    /// Guard predicate, if any.
    pub guard: Option<Guard>,
    /// The operation.
    pub op: Instr,
}

impl Instruction {
    /// Creates an unguarded instruction.
    pub fn new(op: Instr) -> Self {
        Instruction { guard: None, op }
    }

    /// Creates a guarded instruction (`@p` or `@!p`).
    pub fn guarded(pred: Pred, negate: bool, op: Instr) -> Self {
        Instruction {
            guard: Some(Guard { pred, negate }),
            op,
        }
    }

    /// Whether this instruction may change control flow.
    pub fn is_control(&self) -> bool {
        matches!(self.op, Instr::Bra { .. } | Instr::Exit)
    }

    /// Whether this instruction accesses memory (and thus carries latency).
    pub fn is_memory(&self) -> bool {
        matches!(self.op, Instr::Ld { .. } | Instr::St { .. })
    }

    /// Whether this is the dynamic thread-creation instruction.
    pub fn is_spawn(&self) -> bool {
        matches!(self.op, Instr::Spawn { .. })
    }

    /// Number of immediate operands this instruction carries (relevant to
    /// the binary encoding, which holds at most one).
    pub fn op_immediate_count(&self) -> usize {
        let count = |ops: &[Operand]| ops.iter().filter(|o| matches!(o, Operand::Imm(_))).count();
        match &self.op {
            Instr::Alu { a, b, c, .. } => count(&[*a, *b, *c]),
            Instr::Setp { a, b, .. } | Instr::Selp { a, b, .. } => count(&[*a, *b]),
            Instr::Mov { a, .. } => count(&[*a]),
            _ => 0,
        }
    }

    /// Registers read by this instruction (upper bound; used by hazard
    /// checks and resource accounting).
    pub fn reads(&self) -> Vec<Reg> {
        let mut out = Vec::new();
        let mut push = |o: &Operand| {
            if let Operand::Reg(r) = o {
                out.push(*r);
            }
        };
        match &self.op {
            Instr::Alu { a, b, c, .. } => {
                push(a);
                push(b);
                push(c);
            }
            Instr::Setp { a, b, .. } => {
                push(a);
                push(b);
            }
            Instr::Selp { a, b, .. } => {
                push(a);
                push(b);
            }
            Instr::Mov { a, .. } => push(a),
            Instr::ReadSpecial { .. } => {}
            Instr::Ld { addr, .. } => out.push(*addr),
            Instr::St { a, addr, width, .. } => {
                out.push(*addr);
                for i in 0..width.regs() {
                    out.push(Reg(a.0.wrapping_add(i)));
                }
            }
            Instr::Spawn { ptr, .. } => out.push(*ptr),
            Instr::Bra { .. } | Instr::Exit | Instr::Nop => {}
        }
        out
    }

    /// Registers written by this instruction.
    pub fn writes(&self) -> Vec<Reg> {
        match &self.op {
            Instr::Alu { d, .. }
            | Instr::Selp { d, .. }
            | Instr::Mov { d, .. }
            | Instr::ReadSpecial { d, .. } => vec![*d],
            Instr::Ld { d, width, .. } => (0..width.regs())
                .map(|i| Reg(d.0.wrapping_add(i)))
                .collect(),
            _ => Vec::new(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reg::Special;

    #[test]
    fn unary_and_ternary_classification() {
        assert!(AluOp::FSqrt.is_unary());
        assert!(!AluOp::FAdd.is_unary());
        assert!(AluOp::FFma.is_ternary());
        assert!(AluOp::IMad.is_ternary());
        assert!(!AluOp::IAdd.is_ternary());
    }

    #[test]
    fn width_sizes() {
        assert_eq!(Width::W1.bytes(), 4);
        assert_eq!(Width::V4.bytes(), 16);
        assert_eq!(Width::V4.regs(), 4);
    }

    #[test]
    fn space_chip_location() {
        assert!(Space::Shared.is_on_chip());
        assert!(Space::Spawn.is_on_chip());
        assert!(!Space::Global.is_on_chip());
        assert!(!Space::Local.is_on_chip());
        assert!(!Space::Const.is_on_chip());
    }

    #[test]
    fn instruction_classification() {
        let bra = Instruction::new(Instr::Bra { target: 0 });
        assert!(bra.is_control());
        let ld = Instruction::new(Instr::Ld {
            space: Space::Global,
            d: Reg(1),
            addr: Reg(2),
            offset: 0,
            width: Width::W1,
        });
        assert!(ld.is_memory());
        let spawn = Instruction::new(Instr::Spawn {
            target: 0,
            ptr: Reg(1),
        });
        assert!(spawn.is_spawn());
    }

    #[test]
    fn read_write_sets() {
        let i = Instruction::new(Instr::Alu {
            op: AluOp::FFma,
            d: Reg(0),
            a: Reg(1).into(),
            b: Reg(2).into(),
            c: Reg(3).into(),
        });
        assert_eq!(i.reads(), vec![Reg(1), Reg(2), Reg(3)]);
        assert_eq!(i.writes(), vec![Reg(0)]);

        let v4 = Instruction::new(Instr::Ld {
            space: Space::Spawn,
            d: Reg(4),
            addr: Reg(1),
            offset: 0,
            width: Width::V4,
        });
        assert_eq!(v4.writes(), vec![Reg(4), Reg(5), Reg(6), Reg(7)]);

        let st = Instruction::new(Instr::St {
            space: Space::Spawn,
            a: Reg(8),
            addr: Reg(1),
            offset: 16,
            width: Width::V4,
        });
        assert_eq!(st.reads(), vec![Reg(1), Reg(8), Reg(9), Reg(10), Reg(11)]);

        let special = Instruction::new(Instr::ReadSpecial {
            d: Reg(2),
            s: Special::Tid,
        });
        assert!(special.reads().is_empty());
        assert_eq!(special.writes(), vec![Reg(2)]);
    }
}
