//! Register, predicate-register and operand types.

use serde::{Deserialize, Serialize};
use std::fmt;

/// A 32-bit general-purpose register index.
///
/// The architecture exposes a flat file of 32-bit registers per thread
/// (`r0` .. `r63`). Integer and floating-point values share the same file;
/// the interpretation is determined by the operating instruction, exactly
/// as raw PTX `.b32` registers behave.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct Reg(pub u8);

/// Maximum number of addressable general-purpose registers per thread.
pub const MAX_REGS: usize = 64;

/// A 1-bit predicate register index (`p0` .. `p7`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct Pred(pub u8);

/// Maximum number of predicate registers per thread.
pub const MAX_PREDS: usize = 8;

/// A source operand: either a register or a 32-bit immediate.
///
/// Floating-point immediates are stored as their IEEE-754 bit pattern so
/// that `Operand` stays `Eq + Hash` and round-trips exactly through the
/// assembler.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Operand {
    /// Read the value of a general-purpose register.
    Reg(Reg),
    /// A 32-bit immediate (integer value or `f32` bit pattern).
    Imm(u32),
}

impl Operand {
    /// Builds a floating-point immediate from an `f32` value.
    pub fn imm_f32(v: f32) -> Self {
        Operand::Imm(v.to_bits())
    }

    /// Builds an integer immediate from an `i32` value (two's complement).
    pub fn imm_i32(v: i32) -> Self {
        Operand::Imm(v as u32)
    }

    /// Returns the register if this operand reads one.
    pub fn as_reg(&self) -> Option<Reg> {
        match self {
            Operand::Reg(r) => Some(*r),
            Operand::Imm(_) => None,
        }
    }
}

impl From<Reg> for Operand {
    fn from(r: Reg) -> Self {
        Operand::Reg(r)
    }
}

impl From<u32> for Operand {
    fn from(v: u32) -> Self {
        Operand::Imm(v)
    }
}

impl fmt::Display for Reg {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "r{}", self.0)
    }
}

impl fmt::Display for Pred {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "p{}", self.0)
    }
}

impl fmt::Display for Operand {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Operand::Reg(r) => write!(f, "{r}"),
            Operand::Imm(v) => write!(f, "0x{v:x}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::instr::Special;

    #[test]
    fn operand_float_roundtrip() {
        let op = Operand::imm_f32(1.5);
        assert_eq!(op, Operand::Imm(1.5f32.to_bits()));
    }

    #[test]
    fn operand_from_reg() {
        let op: Operand = Reg(3).into();
        assert_eq!(op.as_reg(), Some(Reg(3)));
        assert_eq!(Operand::Imm(7).as_reg(), None);
    }

    #[test]
    fn display_forms() {
        assert_eq!(Reg(5).to_string(), "r5");
        assert_eq!(Pred(1).to_string(), "p1");
        assert_eq!(Special::SpawnMem.to_string(), "%spawnmem");
    }

    #[test]
    fn negative_immediate_roundtrip() {
        let op = Operand::imm_i32(-2);
        assert_eq!(op, Operand::Imm(0xffff_fffe));
    }
}
