//! The functional reference machine.
//!
//! [`RefMachine`] runs a program's threads one after another to completion
//! against the functional memory image, with no timing and no lockstep. It
//! is the one independent executor every cross-check in the tree reads:
//! the lockstep differential oracle ([`crate::oracle`], `fuzz_diff`)
//! compares the cycle-level [`crate::Gpu`] against it, the random-program
//! equivalence suite and `rt-kernels`' Wald-test cases run on it, and the
//! MIMD-theoretical model of paper Fig. 10 ([`crate::mimd_theoretical`])
//! takes its per-thread dynamic instruction counts from it.
//!
//! It keeps its own per-thread state representation (`ThreadCtx`, one
//! register vector per thread) on purpose: the machine holds lanes
//! struct-of-arrays in [`crate::LaneState`], and an oracle that shared
//! that code would share its bugs.

use simt_isa::{eval_alu, eval_cmp, Instr, Operand, Pred, Program, Reg, Space, Special};
use simt_mem::MemoryFabric;
use std::fmt;

/// Architectural state of one reference thread: registers, predicates and
/// the special registers the paper's programming model exposes.
#[derive(Debug, Clone)]
struct ThreadCtx {
    /// Global thread id (unique across the launch, including dynamically
    /// created threads).
    tid: u32,
    /// General-purpose register file (sized to the program's requirement).
    regs: Vec<u32>,
    /// Predicate registers, one bit each.
    preds: u8,
    /// The `%spawnmem` special register (paper §IV-A1).
    spawn_mem_addr: u32,
    /// Whether this thread has spawned a child (its lineage continues).
    spawned_child: bool,
}

impl ThreadCtx {
    /// Creates a fresh thread with `num_regs` zeroed registers.
    fn new(tid: u32, num_regs: u32) -> Self {
        ThreadCtx {
            tid,
            regs: vec![0; num_regs as usize],
            preds: 0,
            spawn_mem_addr: 0,
            spawned_child: false,
        }
    }

    /// Reads register `r` (unwritten registers read 0 even beyond the
    /// allocated file, for robustness).
    fn reg(&self, r: Reg) -> u32 {
        self.regs.get(r.0 as usize).copied().unwrap_or(0)
    }

    /// Writes register `r`, growing the file if the program under-declared.
    fn set_reg(&mut self, r: Reg, v: u32) {
        let i = r.0 as usize;
        if self.regs.len() <= i {
            self.regs.resize(i + 1, 0);
        }
        self.regs[i] = v;
    }

    fn pred(&self, p: Pred) -> bool {
        (self.preds >> p.0) & 1 == 1
    }

    fn set_pred(&mut self, p: Pred, v: bool) {
        if v {
            self.preds |= 1 << p.0;
        } else {
            self.preds &= !(1 << p.0);
        }
    }

    fn operand(&self, o: Operand) -> u32 {
        match o {
            Operand::Reg(r) => self.reg(r),
            Operand::Imm(v) => v,
        }
    }

    /// Evaluates a special register. Lane/warp/SM coordinates are a
    /// machine artefact; the reference reports 0 (comparable programs do
    /// not read them).
    fn special(&self, s: Special, ntid: u32) -> u32 {
        match s {
            Special::Tid => self.tid,
            Special::LaneId | Special::WarpId | Special::SmId => 0,
            Special::NTid => ntid,
            Special::SpawnMem => self.spawn_mem_addr,
        }
    }
}

/// Why interpretation failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum InterpError {
    /// The program contains a `spawn` where the caller needs a spawn-free
    /// one (the paper's MIMD bound is taken on the traditional kernel).
    SpawnUnsupported {
        /// PC of the spawn instruction.
        pc: usize,
    },
    /// The instruction budget was exhausted (runaway loop guard).
    Runaway {
        /// The budget that was exceeded.
        budget: u64,
    },
    /// An illegal memory access (the functional analogue of a warp trap).
    Memory {
        /// PC of the faulting instruction.
        pc: usize,
        /// The underlying memory fault.
        fault: simt_mem::MemFault,
    },
}

impl fmt::Display for InterpError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            InterpError::SpawnUnsupported { pc } => {
                write!(
                    f,
                    "spawn at pc {pc} is not supported by the functional interpreter"
                )
            }
            InterpError::Runaway { budget } => {
                write!(f, "thread exceeded the {budget}-instruction budget")
            }
            InterpError::Memory { pc, fault } => {
                write!(f, "memory fault at pc {pc}: {fault}")
            }
        }
    }
}

impl std::error::Error for InterpError {}

/// A spawned child thread awaiting depth-first execution.
#[derive(Debug, Clone, Copy)]
struct PendingChild {
    entry_pc: usize,
    spawn_mem_addr: u32,
}

/// A full-ISA functional reference machine.
///
/// `RefMachine` models the *machine-level* state a program's threads
/// share — a flat shared-memory store, a flat spawn-memory store with
/// launch-time state records and bump-allocated formation slots, and a
/// work-list of spawned children executed depth-first after their parent
/// retires — while staying completely timing-free.
///
/// Reference spawn semantics, mirroring the hardware's dataflow:
///
/// * each launch thread `tid` owns the state record at
///   `tid * state_bytes` and sees that address in `%spawnmem`;
/// * a passing `spawn $k, rptr` allocates a fresh 4-byte formation slot
///   (bump allocator above the launch records, never recycled), writes
///   `rptr`'s value into it, marks the parent's lineage as continued, and
///   queues the child;
/// * the child sees the *slot* address in `%spawnmem` and loads the state
///   pointer from it, exactly like a hardware-formed dynamic warp;
/// * children run depth-first (LIFO) with machine-assigned thread ids
///   counting up from `ntid` — which is why comparable programs must pass
///   identity through the state record, not `%tid`.
///
/// The absolute spawn-memory *addresses* differ from the hardware's (per-SM
/// slot recycling vs. a flat bump allocator); programs that treat them as
/// opaque tokens — store, pass, load — behave identically on both.
#[derive(Debug)]
pub struct RefMachine<'a> {
    program: &'a Program,
    ntid: u32,
    regs_per_thread: u32,
    shared: Vec<u32>,
    spawn_mem: Vec<u32>,
    next_slot: u32,
    next_tid: u32,
    state_bytes: u32,
    /// Per-thread instruction budget (runaway guard).
    pub budget: u64,
    /// Launch threads executed.
    pub threads_launched: u64,
    /// Children created by passing `spawn` instructions.
    pub threads_spawned: u64,
    /// Threads (launch + dynamic) that retired.
    pub threads_retired: u64,
    /// Threads that retired without spawning (completed lineages).
    pub lineages_completed: u64,
    /// Total dynamic instructions across all threads.
    pub instructions: u64,
    /// Dynamic instructions of the longest single thread (the critical
    /// path of the MIMD-theoretical bound).
    pub longest_thread: u64,
}

impl<'a> RefMachine<'a> {
    /// Creates a reference machine for `program` with `ntid` launch
    /// threads, `shared_bytes` of shared scratchpad and `state_bytes` per
    /// spawn-state record (the paper's 48).
    pub fn new(program: &'a Program, ntid: u32, shared_bytes: u32, state_bytes: u32) -> Self {
        RefMachine {
            program,
            ntid,
            regs_per_thread: program.resource_usage().registers.max(1),
            shared: vec![0; (shared_bytes as usize / 4).max(1)],
            spawn_mem: vec![0; 1 << 16],
            next_slot: ntid * state_bytes,
            next_tid: ntid,
            state_bytes,
            budget: 2_000_000,
            threads_launched: 0,
            threads_spawned: 0,
            threads_retired: 0,
            lineages_completed: 0,
            instructions: 0,
            longest_thread: 0,
        }
    }

    /// Runs every launch thread (and, depth-first, every thread it
    /// transitively spawns) from `entry_pc` to completion.
    ///
    /// # Errors
    ///
    /// Returns [`InterpError::Runaway`] when a thread exceeds the budget
    /// or spawning fails to converge, and [`InterpError::Memory`] on an
    /// illegal access (the functional analogue of a warp trap).
    pub fn run(&mut self, mem: &mut MemoryFabric, entry_pc: usize) -> Result<(), InterpError> {
        for tid in 0..self.ntid {
            self.threads_launched += 1;
            let mut pending = Vec::new();
            self.exec_thread(mem, tid, entry_pc, tid * self.state_bytes, &mut pending)?;
            while let Some(c) = pending.pop() {
                if self.threads_spawned > 1_000_000 {
                    return Err(InterpError::Runaway {
                        budget: self.budget,
                    });
                }
                let ctid = self.next_tid;
                self.next_tid += 1;
                self.exec_thread(mem, ctid, c.entry_pc, c.spawn_mem_addr, &mut pending)?;
            }
        }
        Ok(())
    }

    fn onchip_index(
        store_len: usize,
        space: Space,
        addr: u32,
        pc: usize,
        wraps: bool,
    ) -> Result<usize, InterpError> {
        if !addr.is_multiple_of(4) {
            return Err(InterpError::Memory {
                pc,
                fault: simt_mem::MemFault::Misaligned { space, addr },
            });
        }
        let idx = addr as usize / 4;
        if wraps {
            // Shared scratchpads wrap modulo capacity, like the hardware's
            // `OnChipMemory` whose decoder ignores high bits.
            Ok(idx % store_len)
        } else if idx < store_len {
            Ok(idx)
        } else {
            Err(InterpError::Memory {
                pc,
                fault: simt_mem::MemFault::Unmapped { space },
            })
        }
    }

    /// Runs one thread to retirement, pushing spawned children onto
    /// `children`.
    fn exec_thread(
        &mut self,
        mem: &mut MemoryFabric,
        tid: u32,
        entry_pc: usize,
        spawn_mem_addr: u32,
        children: &mut Vec<PendingChild>,
    ) -> Result<(), InterpError> {
        let mut t = ThreadCtx::new(tid, self.regs_per_thread);
        t.spawn_mem_addr = spawn_mem_addr;
        let mut pc = entry_pc;
        let mut executed: u64 = 0;
        loop {
            if executed >= self.budget {
                return Err(InterpError::Runaway {
                    budget: self.budget,
                });
            }
            let instr = self.program.fetch(pc);
            executed += 1;
            self.instructions += 1;
            let pass = match instr.guard {
                None => true,
                Some(g) => t.pred(g.pred) != g.negate,
            };
            match instr.op {
                Instr::Alu { op, d, a, b, c } => {
                    if pass {
                        let v = eval_alu(op, t.operand(a), t.operand(b), t.operand(c));
                        t.set_reg(d, v);
                    }
                    pc += 1;
                }
                Instr::Setp { cmp, p, a, b } => {
                    if pass {
                        let v = eval_cmp(cmp, t.operand(a), t.operand(b));
                        t.set_pred(p, v);
                    }
                    pc += 1;
                }
                Instr::Selp { d, a, b, p } => {
                    if pass {
                        let v = if t.pred(p) {
                            t.operand(a)
                        } else {
                            t.operand(b)
                        };
                        t.set_reg(d, v);
                    }
                    pc += 1;
                }
                Instr::Mov { d, a } => {
                    if pass {
                        let v = t.operand(a);
                        t.set_reg(d, v);
                    }
                    pc += 1;
                }
                Instr::ReadSpecial { d, s } => {
                    if pass {
                        let v = t.special(s, self.ntid);
                        t.set_reg(d, v);
                    }
                    pc += 1;
                }
                Instr::Ld {
                    space,
                    d,
                    addr,
                    offset,
                    width,
                } => {
                    if pass {
                        let base = t.reg(addr).wrapping_add(offset as u32);
                        for i in 0..width.regs() as u32 {
                            let a = base.wrapping_add(4 * i);
                            let trap = |fault| InterpError::Memory { pc, fault };
                            let v = match space {
                                Space::Global | Space::Const => {
                                    mem.try_read_u32(space, a).map_err(trap)?
                                }
                                Space::Local => mem.try_read_local(tid, a).map_err(trap)?,
                                Space::Shared => {
                                    let i =
                                        Self::onchip_index(self.shared.len(), space, a, pc, true)?;
                                    self.shared[i]
                                }
                                Space::Spawn => {
                                    let i = Self::onchip_index(
                                        self.spawn_mem.len(),
                                        space,
                                        a,
                                        pc,
                                        false,
                                    )?;
                                    self.spawn_mem[i]
                                }
                            };
                            t.set_reg(Reg(d.0.wrapping_add(i as u8)), v);
                        }
                    }
                    pc += 1;
                }
                Instr::St {
                    space,
                    a,
                    addr,
                    offset,
                    width,
                } => {
                    if pass {
                        let base = t.reg(addr).wrapping_add(offset as u32);
                        for i in 0..width.regs() as u32 {
                            let ad = base.wrapping_add(4 * i);
                            let v = t.reg(Reg(a.0.wrapping_add(i as u8)));
                            let trap = |fault| InterpError::Memory { pc, fault };
                            match space {
                                Space::Global | Space::Const => {
                                    mem.try_write_u32(space, ad, v).map_err(trap)?
                                }
                                Space::Local => mem.try_write_local(tid, ad, v).map_err(trap)?,
                                Space::Shared => {
                                    let i =
                                        Self::onchip_index(self.shared.len(), space, ad, pc, true)?;
                                    self.shared[i] = v;
                                }
                                Space::Spawn => {
                                    let i = Self::onchip_index(
                                        self.spawn_mem.len(),
                                        space,
                                        ad,
                                        pc,
                                        false,
                                    )?;
                                    self.spawn_mem[i] = v;
                                }
                            }
                        }
                    }
                    pc += 1;
                }
                Instr::Bra { target } => {
                    pc = if pass { target } else { pc + 1 };
                }
                Instr::Exit => {
                    if pass {
                        self.threads_retired += 1;
                        if !t.spawned_child {
                            self.lineages_completed += 1;
                        }
                        self.longest_thread = self.longest_thread.max(executed);
                        return Ok(());
                    }
                    pc += 1;
                }
                Instr::Spawn { target, ptr } => {
                    if pass {
                        let slot = self.next_slot;
                        self.next_slot += 4;
                        let i = Self::onchip_index(
                            self.spawn_mem.len(),
                            Space::Spawn,
                            slot,
                            pc,
                            false,
                        )?;
                        self.spawn_mem[i] = t.reg(ptr);
                        t.spawned_child = true;
                        self.threads_spawned += 1;
                        children.push(PendingChild {
                            entry_pc: target,
                            spawn_mem_addr: slot,
                        });
                    }
                    pc += 1;
                }
                Instr::Nop => pc += 1,
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simt_isa::assemble;
    use simt_mem::MemConfig;

    #[test]
    fn registers_default_to_zero_and_grow() {
        let mut t = ThreadCtx::new(7, 4);
        assert_eq!(t.reg(Reg(2)), 0);
        assert_eq!(t.reg(Reg(60)), 0, "beyond file also reads zero");
        t.set_reg(Reg(1), 5);
        assert_eq!(t.reg(Reg(1)), 5);
        t.set_reg(Reg(10), 9);
        assert_eq!(t.reg(Reg(10)), 9);
        assert_eq!(t.operand(Operand::Reg(Reg(10))), 9);
        assert_eq!(t.operand(Operand::Imm(5)), 5);
    }

    #[test]
    fn predicates_are_independent_bits() {
        let mut t = ThreadCtx::new(0, 1);
        t.set_pred(Pred(0), true);
        t.set_pred(Pred(3), true);
        assert!(t.pred(Pred(0)));
        assert!(!t.pred(Pred(1)));
        assert!(t.pred(Pred(3)));
        t.set_pred(Pred(0), false);
        assert!(!t.pred(Pred(0)));
        assert!(t.pred(Pred(3)));
    }

    #[test]
    fn specials_resolve_with_zero_machine_coordinates() {
        let mut t = ThreadCtx::new(42, 1);
        t.spawn_mem_addr = 0x100;
        assert_eq!(t.special(Special::Tid, 960), 42);
        assert_eq!(t.special(Special::LaneId, 960), 0);
        assert_eq!(t.special(Special::WarpId, 960), 0);
        assert_eq!(t.special(Special::SmId, 960), 0);
        assert_eq!(t.special(Special::NTid, 960), 960);
        assert_eq!(t.special(Special::SpawnMem, 960), 0x100);
    }

    #[test]
    fn loop_trip_count_matches() {
        let p = assemble(
            r#"
            mov.u32 r1, %tid
            and.b32 r2, r1, 7
            add.s32 r2, r2, 1
            mov.u32 r3, 0
            loop:
            add.s32 r3, r3, 1
            sub.s32 r2, r2, 1
            setp.gt.s32 p0, r2, 0
            @p0 bra loop
            mul.lo.s32 r4, r1, 4
            st.global.u32 [r4+0], r3
            exit
            "#,
        )
        .unwrap();
        let mut mem = MemoryFabric::new(MemConfig::fx5800());
        mem.alloc_global(64, "out");
        let mut m = RefMachine::new(&p, 16, 1024, 0);
        m.run(&mut mem, 0).unwrap();
        for tid in 0..16 {
            assert_eq!(mem.read_u32(Space::Global, tid * 4), tid % 8 + 1);
        }
        // 4 prologue + 4 per trip + 3 epilogue, trips = tid % 8 + 1.
        assert_eq!(m.instructions, 16 * 7 + 4 * 2 * 36);
        assert_eq!(m.longest_thread, 7 + 4 * 8);
    }

    #[test]
    fn instruction_counts_depend_on_data() {
        let p = assemble(
            r#"
            mov.u32 r1, %tid
            add.s32 r2, r1, 1
            loop:
            sub.s32 r2, r2, 1
            setp.gt.s32 p0, r2, 0
            @p0 bra loop
            exit
            "#,
        )
        .unwrap();
        let mut mem = MemoryFabric::new(MemConfig::fx5800());
        let mut count = |ntid| {
            let mut m = RefMachine::new(&p, ntid, 1024, 0);
            m.run(&mut mem, 0).unwrap();
            (m.instructions, m.longest_thread)
        };
        // Thread `tid` loops `tid + 1` times: 3 + 3 * (tid + 1).
        assert_eq!(count(1), (6, 6));
        assert_eq!(count(8), (8 * 3 + 3 * 36, 27));
    }

    /// Parent writes a state record, spawns; child loads the record via
    /// `%spawnmem` indirection and stores the derived value to global.
    #[test]
    fn ref_machine_runs_spawn_chains() {
        let p = assemble(
            r#"
            .spawnstate 48
            .kernel main
            .kernel child
            main:
                mov.u32 r1, %tid
                mov.u32 r2, %spawnmem
                mul.lo.s32 r3, r1, 10
                st.spawn [r2+0], r1
                st.spawn [r2+4], r3
                spawn $child, r2
                exit
            child:
                mov.u32 r4, %spawnmem
                ld.spawn r5, [r4+0]
                ld.spawn r1, [r5+0]
                ld.spawn r3, [r5+4]
                add.s32 r3, r3, 1
                mul.lo.s32 r6, r1, 4
                st.global.u32 [r6+0], r3
                exit
            "#,
        )
        .unwrap();
        let mut mem = MemoryFabric::new(MemConfig::fx5800());
        mem.alloc_global(16, "out");
        let mut m = RefMachine::new(&p, 4, 1024, 48);
        m.run(&mut mem, 0).unwrap();
        for tid in 0..4 {
            assert_eq!(mem.read_u32(Space::Global, tid * 4), tid * 10 + 1);
        }
        assert_eq!(m.threads_launched, 4);
        assert_eq!(m.threads_spawned, 4);
        assert_eq!(m.threads_retired, 8);
        // Parents continued their lineage; only children complete it.
        assert_eq!(m.lineages_completed, 4);
    }

    #[test]
    fn ref_machine_spawn_is_depth_first() {
        // Each launch thread spawns a child that increments a global
        // counter; with depth-first draining the counter is exact, and a
        // guarded second-level spawn terminates the recursion.
        let p = assemble(
            r#"
            .spawnstate 48
            .kernel main
            .kernel down
            main:
                mov.u32 r2, %spawnmem
                mov.u32 r1, 2
                st.spawn [r2+0], r1
                spawn $down, r2
                exit
            down:
                mov.u32 r4, %spawnmem
                ld.spawn r5, [r4+0]
                ld.spawn r1, [r5+0]
                mov.u32 r7, 0
                ld.global.u32 r6, [r7+0]
                add.s32 r6, r6, 1
                st.global.u32 [r7+0], r6
                sub.s32 r1, r1, 1
                st.spawn [r5+0], r1
                setp.gt.s32 p0, r1, 0
                @p0 spawn $down, r5
                exit
            "#,
        )
        .unwrap();
        let mut mem = MemoryFabric::new(MemConfig::fx5800());
        mem.alloc_global(4, "ctr");
        let mut m = RefMachine::new(&p, 2, 1024, 48);
        m.run(&mut mem, 0).unwrap();
        // Two lineages, each running the child twice (r1 = 2 -> 1 -> 0).
        assert_eq!(mem.read_u32(Space::Global, 0), 4);
        assert_eq!(m.threads_spawned, 4);
        assert_eq!(m.threads_retired, 6);
        assert_eq!(m.lineages_completed, 2);
    }

    #[test]
    fn ref_machine_shared_is_machine_visible_and_wraps() {
        // Thread 0 stores to shared; thread 1 (run after it) reads the
        // value back through a wrapped alias of the same word.
        let p = assemble(
            r#"
            mov.u32 r1, %tid
            mov.u32 r3, 8
            mov.u32 r4, 77
            setp.eq.s32 p0, r1, 0
            @p0 st.shared.u32 [r3+0], r4
            setp.eq.s32 p1, r1, 1
            @!p1 exit
            ld.shared.u32 r2, [r3+1024]
            mov.u32 r5, 0
            st.global.u32 [r5+0], r2
            exit
            "#,
        )
        .unwrap();
        let mut mem = MemoryFabric::new(MemConfig::fx5800());
        mem.alloc_global(4, "out");
        // 1024-byte shared store: address 1032 wraps onto address 8.
        let mut m = RefMachine::new(&p, 2, 1024, 48);
        m.run(&mut mem, 0).unwrap();
        assert_eq!(mem.read_u32(Space::Global, 0), 77);
    }

    #[test]
    fn ref_machine_faults_on_misaligned_shared() {
        let p = assemble("mov.u32 r1, 2\nst.shared.u32 [r1+0], r1\nexit").unwrap();
        let mut mem = MemoryFabric::new(MemConfig::fx5800());
        let mut m = RefMachine::new(&p, 1, 1024, 48);
        let err = m.run(&mut mem, 0).unwrap_err();
        assert_eq!(
            err,
            InterpError::Memory {
                pc: 1,
                fault: simt_mem::MemFault::Misaligned {
                    space: Space::Shared,
                    addr: 2
                }
            }
        );
    }

    #[test]
    fn ref_machine_runaway_guard_fires() {
        let p = assemble("spin:\nbra spin").unwrap();
        let mut mem = MemoryFabric::new(MemConfig::fx5800());
        let mut m = RefMachine::new(&p, 1, 1024, 48);
        m.budget = 500;
        let err = m.run(&mut mem, 0).unwrap_err();
        assert_eq!(err, InterpError::Runaway { budget: 500 });
    }
}
