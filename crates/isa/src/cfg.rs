//! Control-flow graph construction and immediate post-dominator analysis.
//!
//! PDOM branch reconvergence (Fung et al., MICRO 2007; used as the baseline
//! in the paper) needs, for every potentially-divergent branch, the PC at
//! which the diverged paths are guaranteed to rejoin — the branch's
//! *immediate post-dominator*. We compute it once per program with the
//! Cooper–Harvey–Kennedy iterative dominator algorithm on the reverse CFG.
//!
//! `spawn` is deliberately **not** a CFG edge: the child thread starts a new
//! control-flow context, which is precisely why μ-kernels sidestep
//! divergence.

use crate::instr::Instr;
use crate::program::Program;

/// A maximal straight-line sequence of instructions.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BasicBlock {
    /// PC of the first instruction.
    pub start: usize,
    /// PC one past the last instruction.
    pub end: usize,
}

impl BasicBlock {
    /// PC of the final instruction in the block.
    pub fn last_pc(&self) -> usize {
        self.end - 1
    }
}

/// Sentinel "reconverge at thread exit" PC (no common rejoin point exists
/// before the thread retires).
pub const RECONVERGE_AT_EXIT: usize = usize::MAX;

/// The control-flow graph of a [`Program`] plus post-dominator results.
#[derive(Debug, Clone)]
pub struct Cfg {
    blocks: Vec<BasicBlock>,
    /// Map from PC to owning block index.
    block_of_pc: Vec<usize>,
    succs: Vec<Vec<usize>>,
    /// Immediate post-dominator per block; `None` means the virtual exit.
    ipdom: Vec<Option<usize>>,
}

/// Virtual-exit marker used internally during analysis.
const VEXIT: usize = usize::MAX;

impl Cfg {
    /// Builds the CFG and runs post-dominator analysis.
    pub fn build(program: &Program) -> Self {
        let n = program.len();
        // --- leaders ---
        let mut leader = vec![false; n];
        if n > 0 {
            leader[0] = true;
        }
        for e in program.entry_points() {
            if e.pc < n {
                leader[e.pc] = true;
            }
        }
        for (pc, i) in program.instrs().iter().enumerate() {
            match i.op {
                Instr::Bra { target } => {
                    leader[target] = true;
                    if pc + 1 < n {
                        leader[pc + 1] = true;
                    }
                }
                Instr::Exit if pc + 1 < n => {
                    leader[pc + 1] = true;
                }
                _ => {}
            }
        }
        // --- blocks ---
        let mut blocks = Vec::new();
        let mut block_of_pc = vec![0usize; n];
        let mut start = 0usize;
        for (pc, &lead) in leader.iter().enumerate() {
            if pc > start && lead {
                blocks.push(BasicBlock { start, end: pc });
                start = pc;
            }
        }
        if n > 0 {
            blocks.push(BasicBlock { start, end: n });
        }
        for (bi, b) in blocks.iter().enumerate() {
            for slot in &mut block_of_pc[b.start..b.end] {
                *slot = bi;
            }
        }
        // --- edges ---
        let nb = blocks.len();
        let mut succs: Vec<Vec<usize>> = vec![Vec::new(); nb];
        for (bi, b) in blocks.iter().enumerate() {
            let last = program.fetch(b.last_pc());
            let push = |s: &mut Vec<usize>, t: usize| {
                if !s.contains(&t) {
                    s.push(t);
                }
            };
            match last.op {
                Instr::Bra { target } => {
                    push(&mut succs[bi], block_of_pc[target]);
                    if last.guard.is_some() && b.end < n {
                        push(&mut succs[bi], block_of_pc[b.end]);
                    }
                }
                Instr::Exit => {
                    push(&mut succs[bi], VEXIT);
                    if last.guard.is_some() && b.end < n {
                        push(&mut succs[bi], block_of_pc[b.end]);
                    }
                }
                _ => {
                    if b.end < n {
                        push(&mut succs[bi], block_of_pc[b.end]);
                    } else {
                        push(&mut succs[bi], VEXIT);
                    }
                }
            }
        }
        let ipdom = postdominators(nb, &succs);
        Cfg {
            blocks,
            block_of_pc,
            succs,
            ipdom,
        }
    }

    /// The basic blocks, in program order.
    pub fn blocks(&self) -> &[BasicBlock] {
        &self.blocks
    }

    /// Successor block indices of block `b` ([`RECONVERGE_AT_EXIT`] marks
    /// the virtual exit).
    pub fn successors(&self, b: usize) -> &[usize] {
        &self.succs[b]
    }

    /// Computes the PDOM reconvergence PC for the branch at `pc`: the first
    /// instruction of the branch block's immediate post-dominator, or
    /// [`RECONVERGE_AT_EXIT`] when paths only rejoin at thread exit.
    pub fn reconvergence_pc(&self, pc: usize) -> usize {
        match self.ipdom[self.block_of_pc[pc]] {
            Some(b) => self.blocks[b].start,
            None => RECONVERGE_AT_EXIT,
        }
    }
}

/// Per-branch reconvergence PCs, precomputed for the whole program.
///
/// Indexed by branch PC; non-branch PCs carry `None`.
#[derive(Debug, Clone)]
pub struct ReconvergenceTable {
    rpc: Vec<Option<usize>>,
}

impl ReconvergenceTable {
    /// Builds the table for `program`.
    pub fn build(program: &Program) -> Self {
        let cfg = Cfg::build(program);
        let mut rpc = vec![None; program.len()];
        for (pc, i) in program.instrs().iter().enumerate() {
            if matches!(i.op, Instr::Bra { .. }) {
                rpc[pc] = Some(cfg.reconvergence_pc(pc));
            }
        }
        ReconvergenceTable { rpc }
    }

    /// Reconvergence PC of the branch at `pc`.
    ///
    /// # Panics
    ///
    /// Panics if `pc` is not a branch instruction (the simulator only
    /// queries branches).
    pub fn reconvergence_pc(&self, pc: usize) -> usize {
        self.rpc[pc].expect("reconvergence queried for a non-branch pc")
    }
}

/// Iterative immediate post-dominator computation (Cooper–Harvey–Kennedy on
/// the reverse graph, rooted at the virtual exit).
///
/// Returns, per block, `Some(block)` or `None` when the immediate
/// post-dominator is the virtual exit itself. Blocks that cannot reach the
/// exit (infinite loops) also get `None`.
fn postdominators(nb: usize, succs: &[Vec<usize>]) -> Vec<Option<usize>> {
    if nb == 0 {
        return Vec::new();
    }
    // Reverse CFG: nodes 0..nb plus virtual exit `nb`.
    let vexit = nb;
    let total = nb + 1;
    let mut preds_rev: Vec<Vec<usize>> = vec![Vec::new(); total]; // preds in reverse graph = succs in forward
    let mut succs_rev: Vec<Vec<usize>> = vec![Vec::new(); total]; // succs in reverse graph = preds in forward
    for (b, ss) in succs.iter().enumerate() {
        for &s in ss {
            let t = if s == VEXIT { vexit } else { s };
            preds_rev[b].push(t);
            succs_rev[t].push(b);
        }
    }
    // Postorder DFS on the reverse graph from the virtual exit.
    let mut postorder = Vec::with_capacity(total);
    let mut visited = vec![false; total];
    let mut stack: Vec<(usize, usize)> = vec![(vexit, 0)];
    visited[vexit] = true;
    while let Some((node, idx)) = stack.pop() {
        if idx < succs_rev[node].len() {
            stack.push((node, idx + 1));
            let next = succs_rev[node][idx];
            if !visited[next] {
                visited[next] = true;
                stack.push((next, 0));
            }
        } else {
            postorder.push(node);
        }
    }
    let mut order_index = vec![usize::MAX; total];
    for (i, &n) in postorder.iter().enumerate() {
        order_index[n] = i;
    }
    let mut idom = vec![usize::MAX; total];
    idom[vexit] = vexit;
    let mut changed = true;
    while changed {
        changed = false;
        // Reverse postorder over the reverse graph (exit first).
        for &b in postorder.iter().rev() {
            if b == vexit {
                continue;
            }
            let mut new_idom = usize::MAX;
            for &p in &preds_rev[b] {
                if idom[p] == usize::MAX {
                    continue;
                }
                new_idom = if new_idom == usize::MAX {
                    p
                } else {
                    intersect(&idom, &order_index, p, new_idom)
                };
            }
            if new_idom != usize::MAX && idom[b] != new_idom {
                idom[b] = new_idom;
                changed = true;
            }
        }
    }
    (0..nb)
        .map(|b| match idom[b] {
            x if x == usize::MAX || x == vexit => None,
            x => Some(x),
        })
        .collect()
}

fn intersect(idom: &[usize], order: &[usize], mut a: usize, mut b: usize) -> usize {
    while a != b {
        while order[a] < order[b] {
            a = idom[a];
        }
        while order[b] < order[a] {
            b = idom[b];
        }
    }
    a
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::asm::assemble;

    #[test]
    fn straight_line_single_block() {
        let p = assemble("nop\nnop\nexit").unwrap();
        let cfg = Cfg::build(&p);
        assert_eq!(cfg.blocks().len(), 1);
        assert_eq!(cfg.blocks()[0], BasicBlock { start: 0, end: 3 });
    }

    #[test]
    fn if_then_reconverges_after_join() {
        // 0: setp
        // 1: @p0 bra skip      <- diverges; rejoin at 3
        // 2: nop               (then-side work)
        // 3: skip: nop
        // 4: exit
        let p = assemble(
            r#"
            setp.eq.s32 p0, r1, 0
            @p0 bra skip
            nop
            skip:
            nop
            exit
            "#,
        )
        .unwrap();
        let cfg = Cfg::build(&p);
        assert_eq!(cfg.reconvergence_pc(1), 3);
    }

    #[test]
    fn if_else_reconverges_at_merge() {
        // 0: @p0 bra else_
        // 1: nop
        // 2: bra merge
        // 3: else_: nop
        // 4: merge: exit
        let p = assemble(
            r#"
            @p0 bra else_
            nop
            bra merge
            else_:
            nop
            merge:
            exit
            "#,
        )
        .unwrap();
        let cfg = Cfg::build(&p);
        assert_eq!(cfg.reconvergence_pc(0), 4);
        // The unconditional bra also has a reconvergence PC (its target).
        assert_eq!(cfg.reconvergence_pc(2), 4);
    }

    #[test]
    fn loop_back_edge_reconverges_at_loop_exit() {
        // Figure 2 of the paper: A; do { B } while(p); C
        // 0: nop              (A)
        // 1: body: nop        (B)
        // 2: setp
        // 3: @p0 bra body     <- back edge; reconverges at 4 (C)
        // 4: nop              (C)
        // 5: exit
        let p = assemble(
            r#"
            nop
            body:
            nop
            setp.ne.s32 p0, r1, 0
            @p0 bra body
            nop
            exit
            "#,
        )
        .unwrap();
        let cfg = Cfg::build(&p);
        assert_eq!(cfg.reconvergence_pc(3), 4);
    }

    #[test]
    fn guarded_exit_then_code_reconverges_at_exit_sentinel_free() {
        // Diverging branch whose paths only meet at thread exit.
        // 0: @p0 bra b
        // 1: exit
        // 2: b: exit
        let p = assemble("@p0 bra b\nexit\nb:\nexit").unwrap();
        let cfg = Cfg::build(&p);
        assert_eq!(cfg.reconvergence_pc(0), RECONVERGE_AT_EXIT);
    }

    #[test]
    fn nested_loops_reconverge_correctly() {
        // outer: { inner: { ... @p0 bra inner } @p1 bra outer }
        let p = assemble(
            r#"
            outer:
            nop
            inner:
            nop
            @p0 bra inner
            nop
            @p1 bra outer
            exit
            "#,
        )
        .unwrap();
        let cfg = Cfg::build(&p);
        // inner branch at pc 2 reconverges at pc 3 (after inner loop)
        assert_eq!(cfg.reconvergence_pc(2), 3);
        // outer branch at pc 4 reconverges at pc 5 (the exit instruction)
        assert_eq!(cfg.reconvergence_pc(4), 5);
    }

    #[test]
    fn reconvergence_table_covers_all_branches() {
        let p = assemble(
            r#"
            setp.eq.s32 p0, r1, 0
            @p0 bra skip
            nop
            skip:
            exit
            "#,
        )
        .unwrap();
        let t = ReconvergenceTable::build(&p);
        assert_eq!(t.reconvergence_pc(1), 3);
    }

    #[test]
    #[should_panic(expected = "non-branch")]
    fn reconvergence_table_panics_for_non_branch() {
        let p = assemble("nop\nexit").unwrap();
        let t = ReconvergenceTable::build(&p);
        let _ = t.reconvergence_pc(0);
    }

    #[test]
    fn ukernel_entries_form_separate_roots() {
        // main spawns child; child is CFG-unreachable from main but must
        // still be a block leader with valid analysis.
        let p = assemble(
            r#"
            .kernel main
            .kernel child
            main:
                spawn $child, r1
                exit
            child:
                setp.eq.s32 p0, r1, 0
                @p0 bra done
                nop
            done:
                exit
            "#,
        )
        .unwrap();
        let cfg = Cfg::build(&p);
        // The branch inside the spawned μ-kernel reconverges at `done`.
        assert_eq!(cfg.reconvergence_pc(3), 5);
        // Blocks: [0..2), [2..4), [4..5), [5..6)
        assert!(cfg.blocks().len() >= 4);
    }

    #[test]
    fn infinite_loop_gets_exit_sentinel() {
        let p = assemble(
            r#"
            spin:
            @p0 bra spin
            bra spin
            "#,
        )
        .unwrap();
        let cfg = Cfg::build(&p);
        assert_eq!(cfg.reconvergence_pc(0), RECONVERGE_AT_EXIT);
    }
}
