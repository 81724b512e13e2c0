//! The μ-kernel datapath of an SM (paper §IV-A/C/D): spawn memory, which
//! holds the launch threads' state records and the formation blocks the
//! spawn LUT fills, the warp-formation unit, and everything the SM does
//! with them — `spawn` and its elision, state records handed out and taken
//! back, dynamic-warp admission, and the one place a formation block goes
//! back to the free pool.

use super::{ExecCtx, Sm};
use crate::config::SpawnPolicy;
use crate::fault::{Fault, FaultKind, InjectedFault, Injector};
use crate::thread::LaneState;
use crate::warp::Warp;
use dmk_core::{DmkConfig, SpawnError, SpawnMemoryLayout, WarpFormation};
use simt_isa::{Reg, Space};
use simt_mem::OnChipMemory;

/// The parts of an SM that exist only with μ-kernel hardware.
#[derive(Debug)]
pub(super) struct SpawnUnit {
    /// Spawn memory: the state records, then the formation area.
    pub(super) mem: OnChipMemory,
    /// LUT, formation-block free pool and new-warp FIFO.
    pub(super) formation: WarpFormation,
    /// Free launch state records, handed out from the back.
    pub(super) free_state_slots: Vec<u32>,
}

impl SpawnUnit {
    /// The unit `d` sizes.
    pub(super) fn new(d: &DmkConfig) -> Self {
        let layout = SpawnMemoryLayout::new(d);
        SpawnUnit {
            mem: OnChipMemory::new(layout.total_bytes()),
            formation: WarpFormation::new(d),
            free_state_slots: (0..d.threads_per_sm)
                .rev()
                .map(|i| layout.launch_state_addr(i))
                .collect(),
        }
    }
}

impl Sm {
    /// Whether no spawned work, queued or partial, is left here.
    pub(crate) fn spawn_drained(&self) -> bool {
        self.spawn.as_ref().is_none_or(|u| u.formation.is_idle())
    }

    /// Gives each of a launch warp's `count` lanes a state record, which it
    /// addresses directly (paper §IV-A1).
    pub(super) fn hand_out_state_records(&mut self, lanes: &mut LaneState, count: u32) {
        if let Some(unit) = self.spawn.as_mut() {
            let free = &mut unit.free_state_slots;
            let from = free.len().saturating_sub(count as usize);
            for (lane, slot) in free.drain(from..).rev().enumerate() {
                lanes.set_spawn_mem_addr(lane, slot);
                lanes.set_state_slot(lane, slot);
            }
        }
    }

    /// Ends the lineages of warp `widx`'s lanes in `mask` that have not
    /// handed their state record to a child: each gives its record back.
    /// Returns how many lineages ended.
    pub(super) fn end_lineages(&mut self, widx: usize, mask: u64) -> u64 {
        let lanes = &mut self.warps[widx].lanes;
        let mut ended = 0;
        let mut bits = mask;
        while bits != 0 {
            let lane = bits.trailing_zeros() as usize;
            bits &= bits - 1;
            if !lanes.spawned_child(lane) {
                ended += 1;
                if let (Some(slot), Some(unit)) = (lanes.take_state_slot(lane), &mut self.spawn) {
                    unit.free_state_slots.push(slot);
                }
            }
        }
        ended
    }

    /// Hands warp `widx`'s formation block back to the free pool — on its
    /// first spawn-space load, which consumed the block's metadata — and,
    /// when the warp `retires`, its elision block too. Every block goes
    /// back through here.
    pub(super) fn release_blocks(&mut self, widx: usize, retires: bool) {
        let w = &mut self.warps[widx];
        let elision = w.elision_block.take_if(|_| retires);
        for block in [w.formation_block.take(), elision].into_iter().flatten() {
            if let Some(unit) = self.spawn.as_mut() {
                unit.formation.release_block(block);
                self.dispatch_dirty = true;
            }
        }
    }

    /// Admits dynamic warps while they fit (paper §IV-D), with priority
    /// over launch work: the new-warp FIFO's, oldest first, and then, with
    /// `force_out` (this SM can never receive more work), the partial
    /// warps in the formation pool, lowest μ-kernel PC first. Each lane
    /// reads its state pointer from its formation slot (hardware: the LUT
    /// address minus the lane id) and sees the slot in `%spawnmem`
    /// (Fig. 6). Returns whether any warp was admitted.
    pub(crate) fn admit_dynamic(
        &mut self,
        force_out: bool,
        next_tid: &mut u32,
        now: u64,
        ctx: &ExecCtx<'_>,
    ) -> bool {
        let mut admitted = false;
        while let Some(unit) = &self.spawn {
            let f = &unit.formation;
            let next = f.peek_ready().map(|cw| cw.count);
            let Some(count) = next.or_else(|| force_out.then(|| f.next_partial_count())?) else {
                break;
            };
            if !self.fits_warp(count, ctx.regs_per_thread, false) {
                break;
            }
            let Some(unit) = self.spawn.as_mut() else {
                break;
            };
            let f = &mut unit.formation;
            let Some(cw) = f.pop_ready().or_else(|| f.force_out_partial()) else {
                break;
            };
            let count = cw.count;
            let mut lanes = LaneState::admit(self.warp_size, ctx.regs_per_thread, *next_tid, count);
            *next_tid += count;
            for lane in 0..count {
                let slot_addr = cw.base_addr + 4 * lane;
                lanes.set_spawn_mem_addr(lane as usize, slot_addr);
                lanes.set_state_slot(lane as usize, unit.mem.read(slot_addr));
            }
            // Optionally charge the state-pointer read-back as a spawn-space
            // load of one word a lane. Its own knob, never the cache
            // configuration, gates it, so cache ablations compare caches.
            if self.frontend.config().spawn_admission_reads {
                let slots: Vec<u32> = (0..count).map(|l| cw.base_addr + 4 * l).collect();
                self.frontend
                    .access_onchip(now, Space::Spawn, false, 4, &slots);
                unit.formation.note_admission_reads(count);
            }
            let wid = self.next_warp_id;
            let mut w = Warp::from_lanes(wid, cw.pc, lanes);
            self.next_warp_id += 1;
            w.is_dynamic = true;
            w.formation_block = Some(cw.base_addr);
            self.threads_used += count;
            self.regs_used += count * ctx.regs_per_thread;
            self.telemetry.on_warp_birth(now, wid, true, count);
            self.dispatch_dirty = true;
            self.ready.push(w.ready_at);
            self.warps.push(w);
            admitted = true;
        }
        admitted
    }

    /// Executes warp `widx`'s `spawn $target, ptr` for the lanes in
    /// `pass`: an elision, a spawn, a back-pressure stall (which consumes
    /// the issue slot without committing) or a LUT-full trap.
    #[allow(clippy::too_many_arguments)]
    pub(super) fn exec_spawn(
        &mut self,
        widx: usize,
        pc: usize,
        mask: u64,
        pass: u64,
        target: usize,
        ptr: Reg,
        now: u64,
        injector: Option<&Injector>,
    ) -> Result<(), Fault> {
        // Only a spawn that completes a warp into the FIFO changes what
        // dispatch sees: force-out waits for every live warp to exit, and
        // exits mark dispatch dirty themselves.
        // §IX optimization: when every live lane of the warp executes this
        // same spawn, branch the warp to the μ-kernel in place instead of
        // creating threads. Each lane's state pointer is still published
        // through a (resident) spawn-memory scratch block so the
        // μ-kernel's restore sequence works unchanged.
        if self.spawn_policy == SpawnPolicy::OnDivergence
            && pass != 0
            && pass == self.warps[widx].lanes.live_mask()
        {
            let (w, unit) = (&mut self.warps[widx], &mut self.spawn);
            w.elision_block =
                (w.elision_block).or_else(|| unit.as_mut()?.formation.try_alloc_block());
            if let Some(block) = w.elision_block {
                let mut slots = std::mem::take(&mut self.addr_scratch);
                slots.clear();
                slots.extend((0..pass.count_ones()).map(|i| block + 4 * i));
                self.publish(widx, pass, ptr, &slots, true, now);
                self.addr_scratch = slots;
                self.stats.spawn_elisions += 1;
                let wid = self.warps[widx].id;
                self.telemetry.on_spawn_elided(now, wid);
                self.commit(widx, pc, mask, now, now + 1);
                self.warps[widx].set_pc(target);
                return Ok(());
            }
            // No scratch block available: fall through to a real spawn,
            // which applies its own back-pressure.
        }
        let n_active = pass.count_ones();
        // Injected back-pressure: the FIFO or formation area reports full
        // even though it is not, exercising the stall-and-retry recovery
        // path.
        let injected_stall = injector.is_some_and(|i| {
            i.fires(InjectedFault::SpawnFifoFull, now) || i.fires(InjectedFault::FormationFull, now)
        });
        let outcome = match self.spawn.as_mut() {
            _ if injected_stall => {
                self.stats.injected_events += 1;
                Err(SpawnError::FifoFull)
            }
            Some(u) => u.formation.spawn(target, n_active),
            None => return Err(self.fault(FaultKind::SpawnUnsupported, widx, pc, now)),
        };
        match outcome {
            Ok(out) => {
                self.dispatch_dirty |= out.warps_completed > 0;
                // Each spawning lane's state pointer goes to its formation
                // slot (the §IV-C memory transaction).
                self.publish(widx, pass, ptr, &out.thread_slots, false, now);
                self.stats.threads_spawned += u64::from(n_active);
                self.progress += u64::from(n_active);
                let wid = self.warps[widx].id;
                self.telemetry.on_spawn(now, wid, target, n_active);
                self.commit(widx, pc, mask, now, now + 1);
                self.warps[widx].set_pc(pc + 1);
            }
            Err(SpawnError::LutFull) => {
                // Permanent: no LUT line will ever free up for this target
                // while the program keeps all lines occupied.
                let capacity = self.formation().map_or(0, |f| f.lut().capacity());
                let kind = FaultKind::LutExhausted {
                    target_pc: target,
                    capacity,
                };
                return Err(self.fault(kind, widx, pc, now));
            }
            Err(SpawnError::FormationFull) | Err(SpawnError::FifoFull) => {
                // Transient back-pressure: retry shortly, no commit.
                self.stats.spawn_stall_cycles += 1;
                let wid = self.warps[widx].id;
                self.telemetry.on_spawn_stall(now, wid);
                self.warps[widx].ready_at = now + 4;
                self.ready.set(widx, now + 4);
            }
        }
        Ok(())
    }

    /// Writes the state pointer (register `ptr`) of each lane in `pass`,
    /// in lane order, to that lane's slot in `slots`, and times the stores
    /// on the spawn port: charged, not waited on. The lanes of an `elided`
    /// spawn then address their slot through `%spawnmem`; those of a real
    /// one have handed their lineage to a child.
    fn publish(&mut self, widx: usize, pass: u64, ptr: Reg, slots: &[u32], elided: bool, now: u64) {
        if let Some(unit) = self.spawn.as_mut() {
            let lanes = &mut self.warps[widx].lanes;
            let mut bits = pass;
            for &slot in slots {
                let lane = bits.trailing_zeros() as usize;
                bits &= bits - 1;
                unit.mem.write(slot, lanes.reg(lane, ptr));
                if elided {
                    lanes.set_spawn_mem_addr(lane, slot);
                } else {
                    lanes.set_spawned_child(lane);
                }
            }
        }
        let (_, degree) = self
            .frontend
            .access_onchip(now, Space::Spawn, true, 4, slots);
        self.block_issue_for_replays(now, degree);
    }
}
