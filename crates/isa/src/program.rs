//! Assembled program representation and static resource accounting.

use crate::instr::{Instr, Instruction};
use crate::reg::{Pred, Reg, MAX_PREDS, MAX_REGS};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::fmt;

crate::record! {
    /// A named entry point: either the launch kernel or a μ-kernel that
    /// [`Instr::Spawn`] may target.
    #[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
    pub struct EntryPoint {
        /// The `.kernel` name.
        pub name: String,
        /// Instruction index of the first instruction.
        pub pc: usize,
    }
}

crate::record! {
    /// Static per-thread resource requirements of a program (paper Table II).
    #[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
    pub struct ResourceUsage {
        /// General-purpose registers required per thread.
        pub registers: u32,
        /// Shared-memory bytes per thread.
        pub shared_bytes: u32,
        /// Global-memory bytes per thread (e.g. traversal stacks).
        pub global_bytes: u32,
        /// Constant-memory bytes (per launch, reported per thread as the paper does).
        pub const_bytes: u32,
        /// Local-memory bytes per thread.
        pub local_bytes: u32,
        /// Spawn-memory state-record bytes per thread (0 for traditional kernels).
        pub spawn_state_bytes: u32,
    }
}

/// An assembled program: instructions plus metadata.
///
/// Programs are immutable after assembly; the simulator indexes
/// instructions by PC (instruction index, not byte address).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Program {
    name: String,
    instrs: Vec<Instruction>,
    labels: BTreeMap<String, usize>,
    entry_points: Vec<EntryPoint>,
    resources: ResourceUsage,
}

/// Errors produced by program validation (run by [`Program::new`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ValidateError {
    /// A branch or spawn targets a PC beyond the program.
    TargetOutOfRange {
        /// PC of the offending instruction.
        pc: usize,
        /// The out-of-range target.
        target: usize,
    },
    /// A spawn targets a PC that is not a declared entry point.
    SpawnTargetNotEntry {
        /// PC of the spawn instruction.
        pc: usize,
        /// The target that is not an entry point.
        target: usize,
    },
    /// An instruction references a register above the architectural limit.
    RegisterOutOfRange {
        /// PC of the offending instruction.
        pc: usize,
        /// The offending register.
        reg: Reg,
    },
    /// An instruction's guard, `setp` destination or `selp` selector
    /// names a predicate above the architectural limit.
    PredicateOutOfRange {
        /// PC of the offending instruction.
        pc: usize,
        /// The offending predicate.
        pred: Pred,
    },
    /// The program has no instructions.
    Empty,
    /// Control can fall off the end of the program (last instruction is not
    /// an unconditional `bra`/`exit`).
    FallsOffEnd,
}

impl fmt::Display for ValidateError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ValidateError::TargetOutOfRange { pc, target } => {
                write!(f, "instruction {pc}: branch target {target} out of range")
            }
            ValidateError::SpawnTargetNotEntry { pc, target } => {
                write!(
                    f,
                    "instruction {pc}: spawn target {target} is not a .kernel entry point"
                )
            }
            ValidateError::RegisterOutOfRange { pc, reg } => {
                write!(
                    f,
                    "instruction {pc}: register {reg} exceeds the architectural limit"
                )
            }
            ValidateError::PredicateOutOfRange { pc, pred } => {
                write!(
                    f,
                    "instruction {pc}: predicate {pred} exceeds the architectural limit"
                )
            }
            ValidateError::Empty => write!(f, "program contains no instructions"),
            ValidateError::FallsOffEnd => {
                write!(f, "control flow can fall off the end of the program")
            }
        }
    }
}

impl std::error::Error for ValidateError {}

impl Program {
    /// Builds a program from parts, validating it.
    ///
    /// # Errors
    ///
    /// Returns a [`ValidateError`] when branch/spawn targets are out of
    /// range, a spawn targets a non-entry PC, a register or predicate
    /// exceeds the architectural file size, the program is empty, or
    /// control can fall off the end.
    pub fn new(
        name: impl Into<String>,
        instrs: Vec<Instruction>,
        labels: BTreeMap<String, usize>,
        entry_points: Vec<EntryPoint>,
        mut resources: ResourceUsage,
    ) -> Result<Self, ValidateError> {
        resources.registers = Self::count_registers(&instrs);
        let p = Program {
            name: name.into(),
            instrs,
            labels,
            entry_points,
            resources,
        };
        p.validate()?;
        Ok(p)
    }

    fn count_registers(instrs: &[Instruction]) -> u32 {
        let mut max = 0u32;
        for i in instrs {
            for r in i.reads().into_iter().chain(i.writes()) {
                max = max.max(r.0 as u32 + 1);
            }
        }
        max
    }

    fn validate(&self) -> Result<(), ValidateError> {
        if self.instrs.is_empty() {
            return Err(ValidateError::Empty);
        }
        let entry_pcs: Vec<usize> = self.entry_points.iter().map(|e| e.pc).collect();
        for (pc, i) in self.instrs.iter().enumerate() {
            match i.op {
                Instr::Bra { target } if target >= self.instrs.len() => {
                    return Err(ValidateError::TargetOutOfRange { pc, target });
                }
                Instr::Spawn { target, .. } => {
                    if target >= self.instrs.len() {
                        return Err(ValidateError::TargetOutOfRange { pc, target });
                    }
                    if !entry_pcs.contains(&target) {
                        return Err(ValidateError::SpawnTargetNotEntry { pc, target });
                    }
                }
                _ => {}
            }
            for r in i.reads().into_iter().chain(i.writes()) {
                if (r.0 as usize) >= MAX_REGS {
                    return Err(ValidateError::RegisterOutOfRange { pc, reg: r });
                }
            }
            let named = match i.op {
                Instr::Setp { p, .. } | Instr::Selp { p, .. } => Some(p),
                _ => None,
            };
            for pred in i.guard.map(|g| g.pred).into_iter().chain(named) {
                if (pred.0 as usize) >= MAX_PREDS {
                    return Err(ValidateError::PredicateOutOfRange { pc, pred });
                }
            }
        }
        let last = self.instrs.last().expect("non-empty");
        let terminal = match last.op {
            Instr::Exit => last.guard.is_none(),
            Instr::Bra { .. } => last.guard.is_none(),
            _ => false,
        };
        if !terminal {
            return Err(ValidateError::FallsOffEnd);
        }
        Ok(())
    }

    /// The program's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The instruction stream.
    pub fn instrs(&self) -> &[Instruction] {
        &self.instrs
    }

    /// Number of instructions.
    pub fn len(&self) -> usize {
        self.instrs.len()
    }

    /// Whether the program has no instructions (never true post-validation).
    pub fn is_empty(&self) -> bool {
        self.instrs.is_empty()
    }

    /// Fetches the instruction at `pc`.
    ///
    /// # Panics
    ///
    /// Panics if `pc` is out of range; the simulator treats this as a
    /// machine check.
    pub fn fetch(&self, pc: usize) -> &Instruction {
        &self.instrs[pc]
    }

    /// Fetches the instruction at `pc`, or `None` when `pc` is outside the
    /// program. The simulator uses this on its issue path so a wild PC
    /// becomes a typed fault instead of a process abort.
    pub fn get(&self, pc: usize) -> Option<&Instruction> {
        self.instrs.get(pc)
    }

    /// Label table (name → pc).
    pub fn labels(&self) -> &BTreeMap<String, usize> {
        &self.labels
    }

    /// Resolves a label to its PC.
    pub fn label(&self, name: &str) -> Option<usize> {
        self.labels.get(name).copied()
    }

    /// Declared entry points (`.kernel` directives), in source order. The
    /// first one is the launch kernel.
    pub fn entry_points(&self) -> &[EntryPoint] {
        &self.entry_points
    }

    /// Looks up an entry point by name.
    pub fn entry(&self, name: &str) -> Option<&EntryPoint> {
        self.entry_points.iter().find(|e| e.name == name)
    }

    /// Static per-thread resource requirements (regenerates paper Table II
    /// rows when applied to the benchmark kernels).
    pub fn resource_usage(&self) -> ResourceUsage {
        self.resources
    }

    /// PCs of all `spawn` instructions, i.e. the *spawn locations* that size
    /// the warp-formation area of spawn memory (paper §IV-A2).
    pub fn spawn_sites(&self) -> Vec<usize> {
        self.instrs
            .iter()
            .enumerate()
            .filter(|(_, i)| i.is_spawn())
            .map(|(pc, _)| pc)
            .collect()
    }

    /// Distinct μ-kernel targets reachable via `spawn`.
    pub fn spawn_targets(&self) -> Vec<usize> {
        let mut t: Vec<usize> = self
            .instrs
            .iter()
            .filter_map(|i| match i.op {
                Instr::Spawn { target, .. } => Some(target),
                _ => None,
            })
            .collect();
        t.sort_unstable();
        t.dedup();
        t
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::instr::{AluOp, Instr};
    use crate::reg::Operand;

    fn exit() -> Instruction {
        Instruction::new(Instr::Exit)
    }

    #[test]
    fn register_counting() {
        let instrs = vec![
            Instruction::new(Instr::Alu {
                op: AluOp::IAdd,
                d: Reg(7),
                a: Operand::Reg(Reg(1)),
                b: Operand::Imm(2),
                c: Operand::Imm(0),
            }),
            exit(),
        ];
        let p = Program::new(
            "t",
            instrs,
            BTreeMap::new(),
            vec![],
            ResourceUsage::default(),
        )
        .unwrap();
        assert_eq!(p.resource_usage().registers, 8);
    }

    #[test]
    fn rejects_empty() {
        let err = Program::new(
            "t",
            vec![],
            BTreeMap::new(),
            vec![],
            ResourceUsage::default(),
        )
        .unwrap_err();
        assert_eq!(err, ValidateError::Empty);
    }

    #[test]
    fn rejects_fall_off_end() {
        let instrs = vec![Instruction::new(Instr::Nop)];
        let err = Program::new(
            "t",
            instrs,
            BTreeMap::new(),
            vec![],
            ResourceUsage::default(),
        )
        .unwrap_err();
        assert_eq!(err, ValidateError::FallsOffEnd);
    }

    #[test]
    fn guarded_exit_is_not_terminal() {
        let instrs = vec![Instruction::guarded(
            crate::reg::Pred(0),
            false,
            Instr::Exit,
        )];
        let err = Program::new(
            "t",
            instrs,
            BTreeMap::new(),
            vec![],
            ResourceUsage::default(),
        )
        .unwrap_err();
        assert_eq!(err, ValidateError::FallsOffEnd);
    }

    #[test]
    fn rejects_out_of_range_branch() {
        let instrs = vec![Instruction::new(Instr::Bra { target: 9 }), exit()];
        let err = Program::new(
            "t",
            instrs,
            BTreeMap::new(),
            vec![],
            ResourceUsage::default(),
        )
        .unwrap_err();
        assert_eq!(err, ValidateError::TargetOutOfRange { pc: 0, target: 9 });
    }

    #[test]
    fn rejects_spawn_to_non_entry() {
        let instrs = vec![
            Instruction::new(Instr::Spawn {
                target: 1,
                ptr: Reg(0),
            }),
            exit(),
        ];
        let err = Program::new(
            "t",
            instrs,
            BTreeMap::new(),
            vec![],
            ResourceUsage::default(),
        )
        .unwrap_err();
        assert_eq!(err, ValidateError::SpawnTargetNotEntry { pc: 0, target: 1 });
    }

    #[test]
    fn accepts_spawn_to_entry() {
        let instrs = vec![
            Instruction::new(Instr::Spawn {
                target: 1,
                ptr: Reg(0),
            }),
            exit(),
        ];
        let entries = vec![
            EntryPoint {
                name: "main".into(),
                pc: 0,
            },
            EntryPoint {
                name: "uk".into(),
                pc: 1,
            },
        ];
        let p = Program::new(
            "t",
            instrs,
            BTreeMap::new(),
            entries,
            ResourceUsage::default(),
        )
        .unwrap();
        assert_eq!(p.spawn_sites(), vec![0]);
        assert_eq!(p.spawn_targets(), vec![1]);
        assert_eq!(p.entry("uk").unwrap().pc, 1);
    }
}
