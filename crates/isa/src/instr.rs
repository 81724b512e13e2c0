//! Instruction definitions.

use crate::reg::{Operand, Pred, Reg};
use serde::{Deserialize, Serialize};

/// Declares one part of the instruction set's vocabulary once. Each
/// variant is one line, `Variant = index [spelling | alias…, column…]`,
/// under its doc:
///
/// - `index` is its encoding (`ALL[index]` is the variant; a const check
///   holds the lines in encoding order);
/// - `spelling` is how it is written in assembly, and the assembler also
///   reads it as any `alias`;
/// - each column named in the header, in order, is a `const fn` of that
///   name returning the line's value.
///
/// It also generates the [`Codec`](crate::codec::Codec): the index as one
/// byte, an unknown one a `BadTag` naming the `what` after the enum's name.
macro_rules! vocabulary {
    (
        $(#[$meta:meta])*
        pub enum $name:ident: $what:literal ($($columns:tt)*) {
            $(
                $(#[$vmeta:meta])*
                $variant:ident = $index:literal [$spelling:literal $(| $alias:literal)* $(, $value:expr)*]
            ),* $(,)?
        }
    ) => {
        $(#[$meta])*
        #[repr(u8)]
        pub enum $name {
            $($(#[$vmeta])* $variant = $index,)*
        }

        impl $name {
            /// Every variant, in encoding order.
            pub const ALL: [$name; [$($index),*].len()] = [$($name::$variant),*];

            /// How the variant is written in assembly.
            pub const fn spelling(self) -> &'static str {
                match self {
                    $($name::$variant => $spelling,)*
                }
            }

            /// The variant written `text` (its spelling or an alias).
            pub fn from_spelling(text: &str) -> Option<$name> {
                match text {
                    $($spelling $(| $alias)* => Some($name::$variant),)*
                    _ => None,
                }
            }
        }

        const _: () = {
            let mut i = 0;
            while i < $name::ALL.len() {
                assert!($name::ALL[i] as usize == i, concat!($what, "s out of encoding order"));
                i += 1;
            }
        };

        impl $crate::codec::Codec for $name {
            const MIN_BYTES: usize = 1;

            fn encode(&self, enc: &mut $crate::codec::Encoder) {
                enc.put_u8(*self as u8);
            }

            fn decode(
                dec: &mut $crate::codec::Decoder<'_>,
            ) -> Result<Self, $crate::codec::CodecError> {
                let tag = dec.take_u8()?;
                $name::ALL.get(usize::from(tag)).copied().ok_or(
                    $crate::codec::CodecError::BadTag { what: $what, tag: u64::from(tag) },
                )
            }
        }

        vocabulary!(@columns $name ($($columns)*) $($variant ($($value),*))*);
    };
    (@columns $name:ident () $($variant:ident ())*) => {};
    (
        @columns $name:ident
        ($(#[$cmeta:meta])* $vis:vis $column:ident: $ty:ty $(, $($columns:tt)*)?)
        $($variant:ident ($value:expr $(, $rest:expr)*))*
    ) => {
        impl $name {
            $(#[$cmeta])*
            $vis const fn $column(self) -> $ty {
                match self {
                    $($name::$variant => $value,)*
                }
            }
        }

        vocabulary!(@columns $name ($($($columns)*)?) $($variant ($($rest),*))*);
    };
}

/// The ALU operations, one line each: `Variant = encoding [spelling,
/// arity, pick, latency]` (see [`AluOp`]'s columns). Expands to
/// `$then! { header… { lines } }`, so the enum and the simulator's lane
/// dispatch are generated from these lines alone.
#[macro_export]
macro_rules! alu_ops {
    ($then:ident $($header:tt)*) => {
        $then! {
            $($header)* {
                /// 32-bit integer add (wrapping).
                IAdd = 0 ["add.s32", 2, Pick::Without("f32"), Latency::Short],
                /// 32-bit integer subtract (wrapping).
                ISub = 1 ["sub.s32", 2, Pick::Without("f32"), Latency::Short],
                /// 32-bit integer multiply, low 32 bits (wrapping).
                IMul = 2 ["mul.lo.s32", 2, Pick::Without("f32"), Latency::Short],
                /// Integer multiply-add: `a * b + c` (wrapping).
                IMad = 3 ["mad.lo.s32", 3, Pick::Without("f32"), Latency::Short],
                /// Signed integer minimum.
                IMin = 4 ["min.s32", 2, Pick::Without("f32"), Latency::Short],
                /// Signed integer maximum.
                IMax = 5 ["max.s32", 2, Pick::Without("f32"), Latency::Short],
                /// Signed division; division by zero yields `0` (simulator convention).
                IDiv = 6 ["div.s32", 2, Pick::Without("f32"), Latency::Long],
                /// Signed remainder; remainder by zero yields `0`.
                IRem = 7 ["rem.s32", 2, Pick::Without("f32"), Latency::Long],
                /// Bitwise and.
                And = 8 ["and.b32", 2, Pick::Any, Latency::Short],
                /// Bitwise or.
                Or = 9 ["or.b32", 2, Pick::Any, Latency::Short],
                /// Bitwise xor.
                Xor = 10 ["xor.b32", 2, Pick::Any, Latency::Short],
                /// Bitwise not (unary).
                Not = 11 ["not.b32", 1, Pick::Any, Latency::Short],
                /// Logical shift left (amounts ≥ 32 clamp to 0, like PTX `shl.b32`).
                Shl = 12 ["shl.b32", 2, Pick::Any, Latency::Short],
                /// Logical shift right (amounts ≥ 32 clamp to 0, like PTX `shr.u32`).
                ShrU = 13 ["shr.u32", 2, Pick::Without("s32"), Latency::Short],
                /// Arithmetic shift right (amounts ≥ 32 saturate to the sign fill).
                ShrS = 14 ["shr.s32", 2, Pick::With("s32"), Latency::Short],
                /// IEEE-754 single add.
                FAdd = 15 ["add.f32", 2, Pick::With("f32"), Latency::Short],
                /// IEEE-754 single subtract.
                FSub = 16 ["sub.f32", 2, Pick::With("f32"), Latency::Short],
                /// IEEE-754 single multiply.
                FMul = 17 ["mul.f32", 2, Pick::With("f32"), Latency::Short],
                /// IEEE-754 single divide.
                FDiv = 18 ["div.f32", 2, Pick::With("f32"), Latency::Long],
                /// Floating minimum (NaN-propagating like PTX `min.f32`).
                FMin = 19 ["min.f32", 2, Pick::With("f32"), Latency::Short],
                /// Floating maximum.
                FMax = 20 ["max.f32", 2, Pick::With("f32"), Latency::Short],
                /// Fused multiply-add: `a * b + c`.
                FFma = 21 ["fma.f32", 3, Pick::With("f32"), Latency::Short],
                /// Square root (unary).
                FSqrt = 22 ["sqrt.f32", 1, Pick::With("f32"), Latency::Long],
                /// Reciprocal `1/a` (unary).
                FRcp = 23 ["rcp.f32", 1, Pick::With("f32"), Latency::Long],
                /// Absolute value (unary).
                FAbs = 24 ["abs.f32", 1, Pick::With("f32"), Latency::Short],
                /// Negate (unary).
                FNeg = 25 ["neg.f32", 1, Pick::With("f32"), Latency::Short],
                /// Floor (unary).
                FFloor = 26 ["floor.f32", 1, Pick::With("f32"), Latency::Short],
                /// Convert signed int to float (unary).
                I2F = 27 ["cvt.f32.s32", 1, Pick::Convert, Latency::Short],
                /// Convert float to signed int, truncating (unary).
                F2I = 28 ["cvt.s32.f32", 1, Pick::Convert, Latency::Short],
                /// Convert unsigned int to float (unary).
                U2F = 29 ["cvt.f32.u32", 1, Pick::Convert, Latency::Short],
                /// Convert float to unsigned int, truncating (unary).
                F2U = 30 ["cvt.u32.f32", 1, Pick::Convert, Latency::Short],
            }
        }
    };
}

/// The comparisons of [`Instr::Setp`], one line each: `Variant = encoding
/// [spelling]`, printed after `setp.`. Expands like [`alu_ops!`].
#[macro_export]
macro_rules! cmp_ops {
    ($then:ident $($header:tt)*) => {
        $then! {
            $($header)* {
                /// Equal (signed int compare).
                EqS = 0 ["eq.s32"],
                /// Not equal (signed).
                NeS = 1 ["ne.s32"],
                /// Less-than (signed).
                LtS = 2 ["lt.s32"],
                /// Less-or-equal (signed).
                LeS = 3 ["le.s32"],
                /// Greater-than (signed).
                GtS = 4 ["gt.s32"],
                /// Greater-or-equal (signed).
                GeS = 5 ["ge.s32"],
                /// Less-than (unsigned).
                LtU = 6 ["lt.u32"],
                /// Less-or-equal (unsigned).
                LeU = 7 ["le.u32"],
                /// Greater-than (unsigned).
                GtU = 8 ["gt.u32"],
                /// Greater-or-equal (unsigned).
                GeU = 9 ["ge.u32"],
                /// Equal (float).
                EqF = 10 ["eq.f32"],
                /// Not equal (float).
                NeF = 11 ["ne.f32"],
                /// Less-than (float).
                LtF = 12 ["lt.f32"],
                /// Less-or-equal (float).
                LeF = 13 ["le.f32"],
                /// Greater-than (float).
                GtF = 14 ["gt.f32"],
                /// Greater-or-equal (float).
                GeF = 15 ["ge.f32"],
            }
        }
    };
}

/// How the assembler picks an ALU operation among those that share a base
/// word (`add` is [`AluOp::IAdd`] or [`AluOp::FAdd`]) from the dotted
/// parts that follow it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Pick {
    /// Whatever the parts are.
    Any,
    /// Only when this part is among them.
    With(&'static str),
    /// Only when this part is not among them.
    Without(&'static str),
    /// `cvt.<dst>.<src>`: the parts that are types, in order, are the
    /// spelling's last two.
    Convert,
}

/// How long an ALU operation keeps its warp from issuing again.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Latency {
    /// One cycle.
    Short,
    /// The machine's long-operation latency: divide, remainder, square
    /// root and reciprocal.
    Long,
}

alu_ops! {
    vocabulary
    /// Arithmetic/logic operations evaluated per lane.
    #[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
    pub enum AluOp: "ALU operation" (
        /// Source operands read: 1 (`b` and `c` unused), 2 (`c` unused)
        /// or 3.
        pub arity: usize,
        /// The assembler's type rule.
        pub(crate) pick: Pick,
        /// How long the operation keeps its warp.
        pub latency: Latency,
    )
}

cmp_ops! {
    vocabulary
    /// Comparison operators for [`Instr::Setp`].
    #[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
    pub enum CmpOp: "comparison" ()
}

vocabulary! {
    /// Special (read-only) registers exposed to device code.
    ///
    /// Mirrors the CUDA/PTX special registers used by the paper's kernels, plus
    /// the paper's new `%spawnmem` (`spawnMemAddr`, §IV-A1) register through
    /// which dynamically created threads locate their parent's state record.
    #[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
    pub enum Special: "special register" () {
        /// Global thread id (unique across the launch, including respawns).
        Tid = 0 ["%tid"],
        /// Lane index within the warp (`0 .. warp_size`).
        LaneId = 1 ["%laneid"],
        /// Warp id within the SM.
        WarpId = 2 ["%warpid"],
        /// SM (streaming multiprocessor) index.
        SmId = 3 ["%smid"],
        /// Total number of threads in the launch grid.
        NTid = 4 ["%ntid"],
        /// The spawn-memory address register (`spawnMemAddr` in the paper).
        ///
        /// For launch-time threads this is initialized by hardware to
        /// `SpawnMemoryBase + tid * state_size`; for dynamically created threads
        /// it points into the warp-formation half of spawn memory, where the
        /// parent-provided state pointer was stored (paper Fig. 6).
        SpawnMem = 5 ["%spawnmem"],
    }
}

vocabulary! {
    /// Address spaces visible to device code (paper §IV-A).
    #[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
    pub enum Space: "address space" () {
        /// Off-chip device memory, shared by all SMs (high latency, 8 modules).
        Global = 0 ["global"],
        /// On-chip per-SM scratchpad, banked.
        Shared = 1 ["shared"],
        /// Per-thread off-chip memory (register spill, traversal stacks).
        Local = 2 ["local"],
        /// Read-only off-chip memory (broadcast-friendly).
        Const = 3 ["const"],
        /// The paper's new spawn-memory space: parent→child state records and
        /// the warp-formation metadata area (on-chip, banked).
        Spawn = 4 ["spawn" | "spawnmem"],
    }
}

impl Space {
    /// Whether this space lives on-chip (no off-chip bandwidth consumed).
    pub fn is_on_chip(self) -> bool {
        matches!(self, Space::Shared | Space::Spawn)
    }
}

vocabulary! {
    /// Access width of a memory instruction.
    #[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
    pub enum Width: "access width" (
        /// The number of consecutive registers read/written.
        pub regs: u8,
    ) {
        /// One 32-bit word.
        W1 = 0 ["u32", 1],
        /// A `v4` vector access: four consecutive words / registers (16 bytes).
        V4 = 1 ["v4", 4],
    }
}

impl Width {
    /// The number of bytes transferred per lane.
    pub fn bytes(self) -> u32 {
        u32::from(self.regs()) * crate::WORD_BYTES
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
        s: Special,
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

    /// Whether this is the dynamic thread-creation instruction.
    pub fn is_spawn(&self) -> bool {
        matches!(self.op, Instr::Spawn { .. })
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

    #[test]
    fn arity_classification() {
        assert_eq!(AluOp::FSqrt.arity(), 1);
        assert_eq!(AluOp::FAdd.arity(), 2);
        assert_eq!(AluOp::FFma.arity(), 3);
        assert_eq!(AluOp::IMad.arity(), 3);
        assert_eq!(AluOp::IAdd.arity(), 2);
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
    fn spawn_classification() {
        let spawn = Instruction::new(Instr::Spawn {
            target: 0,
            ptr: Reg(1),
        });
        assert!(spawn.is_spawn());
        assert!(!Instruction::new(Instr::Exit).is_spawn());
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
