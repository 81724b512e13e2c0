//! # simt-isa — a PTX-like instruction set for SIMT simulation
//!
//! This crate defines the instruction set executed by the `simt-sim`
//! cycle-level simulator, together with a two-pass textual assembler, a
//! disassembler, a pure (side-effect free) ALU evaluator, and the
//! control-flow analyses (CFG construction and immediate post-dominator
//! computation) required by PDOM-style branch reconvergence.
//!
//! The ISA is deliberately close to NVIDIA PTX 1.x, the abstraction level at
//! which Steffen & Zambreno (MICRO 2010) instrumented their benchmark
//! kernels, and adds their proposed [`Instr::Spawn`] instruction plus the
//! `spawn` address space and the `%spawnmem` special register.
//!
//! ## Example
//!
//! ```
//! use simt_isa::assemble;
//!
//! let program = assemble(
//!     r#"
//!     .kernel main
//!     .local 16
//!     main:
//!         mov.u32   r1, %tid
//!         mul.lo.s32 r2, r1, 4
//!         ld.global.u32 r3, [r2+0]
//!         add.s32   r3, r3, 1
//!         st.global.u32 [r2+0], r3
//!         exit
//!     "#,
//! )?;
//! assert_eq!(program.len(), 6);
//! assert_eq!(program.resource_usage().registers, 4);
//! # Ok::<(), simt_isa::AsmError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod asm;
mod cfg;
pub mod codec;
mod dataflow;
mod disasm;
mod encode;
mod eval;
pub mod gen;
mod instr;
mod program;
mod reg;

pub use asm::{assemble, assemble_named, AsmError};
pub use cfg::{BasicBlock, Cfg, ReconvergenceTable, RECONVERGE_AT_EXIT};
pub use dataflow::{LiveSet, Liveness};
pub use encode::{
    decode, encode, encode_program, encoded_bytes, DecodeError, EncodeError, EncodedInstr,
    ENCODED_INSTR_BYTES,
};
pub use eval::{eval_alu, eval_cmp};
pub use gen::{generate, GenConfig, GenProgram};
pub use instr::{AluOp, CmpOp, Guard, Instr, Instruction, Latency, Space, Special, Width};
pub use program::{EntryPoint, Program, ResourceUsage, ValidateError};
pub use reg::{Operand, Pred, Reg, MAX_PREDS, MAX_REGS};

/// Number of bytes in one machine word (all registers are 32-bit).
pub const WORD_BYTES: u32 = 4;
