//! Backward register/predicate liveness analysis.
//!
//! Computes, for every instruction, the set of general-purpose registers
//! and predicate registers that are *live-in* (may be read before being
//! overwritten on some path from that point). Used by the μ-kernel
//! extraction pass in `dmk-core` to decide which registers a spawned
//! continuation must carry through spawn memory — the paper's §IX
//! "compiler to ease implementation" direction.
//!
//! The analysis is a classic backward may-dataflow over the CFG:
//!
//! ```text
//! live_out(i) = ∪ live_in(s)  for each successor s of i
//! live_in(i)  = reads(i) ∪ (live_out(i) \ writes(i))
//! ```
//!
//! Guarded instructions may not commit, so their writes do **not** kill
//! (the old value may survive); their reads and guard predicates are
//! always live. `spawn` is not a successor edge (the child starts a fresh
//! register file), but its pointer register is read.

use crate::instr::Instr;
use crate::program::Program;

/// Liveness sets for one program point.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct LiveSet {
    /// Bitmask of live general-purpose registers (bit `i` = `r<i>`).
    pub regs: u64,
    /// Bitmask of live predicate registers (bit `i` = `p<i>`).
    pub preds: u8,
}

impl LiveSet {
    /// Registers in this set, ascending.
    pub fn reg_list(&self) -> Vec<u8> {
        (0..64).filter(|r| self.regs & (1 << r) != 0).collect()
    }

    /// Whether register `r` is live.
    pub fn has_reg(&self, r: u8) -> bool {
        self.regs & (1 << r) != 0
    }
}

/// Per-instruction live-in sets for a whole program.
#[derive(Debug, Clone)]
pub struct Liveness {
    live_in: Vec<LiveSet>,
}

impl Liveness {
    /// Runs the analysis.
    pub fn compute(program: &Program) -> Self {
        let n = program.len();
        let mut live_in = vec![LiveSet::default(); n];
        // Successor lists per instruction.
        let mut succs: Vec<Vec<usize>> = Vec::with_capacity(n);
        for (pc, i) in program.instrs().iter().enumerate() {
            let mut s = Vec::new();
            match i.op {
                Instr::Bra { target } => {
                    s.push(target);
                    if i.guard.is_some() && pc + 1 < n {
                        s.push(pc + 1);
                    }
                }
                Instr::Exit => {
                    if i.guard.is_some() && pc + 1 < n {
                        s.push(pc + 1);
                    }
                }
                _ => {
                    if pc + 1 < n {
                        s.push(pc + 1);
                    }
                }
            }
            succs.push(s);
        }
        // Iterate to a fixed point (backward).
        let mut changed = true;
        while changed {
            changed = false;
            for pc in (0..n).rev() {
                let i = program.fetch(pc);
                let mut out = LiveSet::default();
                for &s in &succs[pc] {
                    out.regs |= live_in[s].regs;
                    out.preds |= live_in[s].preds;
                }
                let mut inn = out;
                // Writes kill only when unguarded (a guarded write may not
                // commit, leaving the old value observable).
                if i.guard.is_none() {
                    for w in i.writes() {
                        inn.regs &= !(1 << w.0);
                    }
                    if let Instr::Setp { p, .. } = i.op {
                        inn.preds &= !(1 << p.0);
                    }
                }
                // Reads gen.
                for r in i.reads() {
                    inn.regs |= 1 << r.0;
                }
                if let Some(g) = i.guard {
                    inn.preds |= 1 << g.pred.0;
                }
                match i.op {
                    Instr::Selp { p, .. } => inn.preds |= 1 << p.0,
                    Instr::Setp { .. } => {}
                    _ => {}
                }
                if inn != live_in[pc] {
                    live_in[pc] = inn;
                    changed = true;
                }
            }
        }
        Liveness { live_in }
    }

    /// Live-in set at instruction `pc`.
    ///
    /// # Panics
    ///
    /// Panics if `pc` is out of range.
    pub fn live_in(&self, pc: usize) -> LiveSet {
        self.live_in[pc]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::asm::assemble;

    #[test]
    fn straight_line_liveness() {
        let p = assemble(
            r#"
            mov.u32 r1, 5
            add.s32 r2, r1, 1
            mul.lo.s32 r3, r2, r2
            st.global.u32 [r3+0], r2
            exit
            "#,
        )
        .unwrap();
        let l = Liveness::compute(&p);
        // Before the store, r2 and r3 are live.
        assert!(l.live_in(3).has_reg(2));
        assert!(l.live_in(3).has_reg(3));
        // Before the add, r1 is live but r2 is not yet.
        assert!(l.live_in(1).has_reg(1));
        assert!(!l.live_in(1).has_reg(2));
        // Nothing is live at entry (r1 is defined first).
        assert_eq!(l.live_in(0).regs, 0);
    }

    #[test]
    fn loop_carried_values_stay_live() {
        let p = assemble(
            r#"
            mov.u32 r1, %tid
            mov.u32 r2, 0
            loop:
            add.s32 r2, r2, r1       ; r1 and r2 both loop-carried
            sub.s32 r1, r1, 1
            setp.gt.s32 p0, r1, 0
            @p0 bra loop
            st.global.u32 [r2+0], r2
            exit
            "#,
        )
        .unwrap();
        let l = Liveness::compute(&p);
        let header = p.label("loop").unwrap();
        assert!(l.live_in(header).has_reg(1), "loop counter live at header");
        assert!(l.live_in(header).has_reg(2), "accumulator live at header");
        assert_eq!(l.live_in(header).reg_list(), vec![1, 2]);
    }

    #[test]
    fn guarded_writes_do_not_kill() {
        let p = assemble(
            r#"
            setp.eq.s32 p0, r1, 0
            @p0 mov.u32 r2, 7        ; may not commit: old r2 can survive
            st.global.u32 [r3+0], r2
            exit
            "#,
        )
        .unwrap();
        let l = Liveness::compute(&p);
        assert!(
            l.live_in(1).has_reg(2),
            "r2 must stay live across a guarded redefinition"
        );
    }

    #[test]
    fn predicate_liveness_tracked() {
        let p = assemble(
            r#"
            setp.eq.s32 p1, r1, 0
            nop
            @p1 bra skip
            nop
            skip:
            exit
            "#,
        )
        .unwrap();
        let l = Liveness::compute(&p);
        assert_eq!(l.live_in(1).preds & 0b10, 0b10, "p1 live before its use");
        assert_eq!(l.live_in(0).preds & 0b10, 0, "p1 dead before its def");
    }

    #[test]
    fn branch_joins_merge_liveness() {
        let p = assemble(
            r#"
            @p0 bra other
            mov.u32 r5, 1
            bra join
            other:
            mov.u32 r6, 2
            join:
            add.s32 r7, r5, r6
            st.global.u32 [r7+0], r7
            exit
            "#,
        )
        .unwrap();
        let l = Liveness::compute(&p);
        // At the diverging branch both r5 and r6 are live (each side
        // defines only one of them).
        assert!(l.live_in(0).has_reg(5));
        assert!(l.live_in(0).has_reg(6));
    }

    #[test]
    fn spawn_pointer_is_read_but_child_regs_are_not() {
        let p = assemble(
            r#"
            .kernel main
            .kernel child
            main:
                spawn $child, r3
                exit
            child:
                add.s32 r9, r9, 1
                exit
            "#,
        )
        .unwrap();
        let l = Liveness::compute(&p);
        assert!(l.live_in(0).has_reg(3), "spawn pointer read");
        assert!(
            !l.live_in(0).has_reg(9),
            "child's registers are a fresh file, not successors"
        );
    }
}
