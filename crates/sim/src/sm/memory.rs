//! The memory-instruction path of an SM: the lane transfers of on- and
//! off-chip accesses, and the one call that hands an off-chip access to
//! the SM's memory frontend, which decides its route.

use super::{Sm, TimedAccess};
use crate::stats::Stall;
use simt_isa::{Space, Width};
use simt_mem::{BatchRequest, MemFault, MemoryFabric};

/// The operands of one warp memory instruction, as decoded: everything
/// about the access except its width, which selects the instantiation of
/// the lane loops that take this.
pub(super) struct MemAccess {
    /// The issuing warp's slot.
    pub(super) widx: usize,
    /// Lanes that passed the guard.
    pub(super) pass: u64,
    pub(super) space: Space,
    /// First data register (destination of a load, source of a store).
    pub(super) reg: simt_isa::Reg,
    pub(super) addr_reg: simt_isa::Reg,
    /// The instruction's signed byte offset, as the wrapping addend.
    pub(super) offset: u32,
    pub(super) is_store: bool,
}

impl Sm {
    /// Executes one warp memory instruction: every access completes at
    /// issue. On-chip accesses (shared/spawn) transfer against the SM's
    /// own scratchpads; off-chip ones against `mem`, with their fabric
    /// requests queued on the cycle's timing `batch`. Returns the
    /// data-ready cycle, a floor that the batch may raise, and what a
    /// loading warp waits on until then.
    ///
    /// On a fault, the words already validated keep their effects
    /// (imprecise trap) and nothing is timed.
    pub(super) fn exec_memory(
        &mut self,
        a: &MemAccess,
        width: Width,
        now: u64,
        mem: &mut MemoryFabric,
        batch: &mut Vec<BatchRequest>,
    ) -> Result<(u64, Stall), MemFault> {
        let mut addresses = std::mem::take(&mut self.addr_scratch);
        addresses.clear();
        addresses.reserve(a.pass.count_ones() as usize);
        let ready = if a.space.is_on_chip() {
            self.exec_onchip(a, width, now, &mut addresses)
                .map(|ready| (ready, Stall::Latency))
        } else {
            self.exec_offchip(a, width, now, mem, batch, &mut addresses)
        };
        // On every exit, a trap included: the next access reuses it.
        self.addr_scratch = addresses;
        ready
    }

    /// The lane transfers of an on-chip access at the instruction's width,
    /// collecting each active lane's byte address.
    ///
    /// On-chip spaces wrap modulo capacity like the banked hardware, but
    /// misalignment is still a trap, and a spawn-space access without
    /// μ-kernel hardware has no backing at all. Both checks sit outside
    /// the word transfer: every word of a stride-4 run shares the base's
    /// alignment (so word 0 is always the first misaligned word), and the
    /// backing store cannot change mid-instruction — so once a lane's
    /// checks pass, no word of that lane can fault, exactly like the
    /// per-word order.
    fn onchip_lanes<const N: usize>(
        &mut self,
        a: &MemAccess,
        addresses: &mut Vec<u32>,
    ) -> Result<(), MemFault> {
        let space = a.space;
        let mut backing = match space {
            Space::Shared => Some(&mut self.shared),
            _ => self.spawn.as_mut().map(|u| &mut u.mem),
        };
        let lanes = &mut self.warps[a.widx].lanes;
        let mut bits = a.pass;
        while bits != 0 {
            let lane = bits.trailing_zeros() as usize;
            bits &= bits - 1;
            let base = lanes.reg(lane, a.addr_reg).wrapping_add(a.offset);
            if !base.is_multiple_of(4) {
                return Err(MemFault::Misaligned { space, addr: base });
            }
            let Some(mem) = backing.as_deref_mut() else {
                return Err(MemFault::Unmapped { space });
            };
            // Stores stay lane-major: where lanes overlap, the last
            // writer wins.
            if a.is_store {
                mem.write_n(base, lanes.reg_n::<N>(lane, a.reg));
            } else {
                lanes.set_reg_n(lane, a.reg, mem.read_n::<N>(base));
            }
            addresses.push(base);
        }
        Ok(())
    }

    /// An on-chip (shared/spawn) access: transfers now, then times the
    /// access against this SM's load-store port.
    fn exec_onchip(
        &mut self,
        a: &MemAccess,
        width: Width,
        now: u64,
        addresses: &mut Vec<u32>,
    ) -> Result<u64, MemFault> {
        match width {
            Width::W1 => self.onchip_lanes::<1>(a, addresses),
            Width::V4 => self.onchip_lanes::<4>(a, addresses),
        }?;
        // A dynamic warp's first spawn-space load consumes its
        // formation metadata; the block can be recycled afterwards.
        if a.space == Space::Spawn && !a.is_store {
            self.release_blocks(a.widx, false);
        }
        let (ready, degree) =
            self.frontend
                .access_onchip(now, a.space, a.is_store, width.bytes(), addresses);
        self.block_issue_for_replays(now, degree);
        Ok(ready)
    }

    /// The lane transfers of an off-chip access at the instruction's
    /// width, in lane order, collecting each lane's timing address. Every
    /// word is validated exactly as the fabric's checked accessors do and
    /// then transferred: a store word is written when it validates, and a
    /// loading lane reads the words it validated into its registers. On a
    /// trap the lanes before the faulting one have moved all their words,
    /// that one the words before the fault, and the rest nothing.
    fn offchip_lanes<const N: usize>(
        &mut self,
        a: &MemAccess,
        mem: &mut MemoryFabric,
        addresses: &mut Vec<u32>,
    ) -> Result<(), MemFault> {
        let space = a.space;
        let lanes = &mut self.warps[a.widx].lanes;
        let mut bits = a.pass;
        while bits != 0 {
            let lane = bits.trailing_zeros() as usize;
            bits &= bits - 1;
            let tid = lanes.tid(lane);
            let base = lanes.reg(lane, a.addr_reg).wrapping_add(a.offset);
            if a.is_store {
                // A store's bound is per word (the end of the heap, the
                // local stride): word by word.
                let values = lanes.reg_n::<N>(lane, a.reg);
                for (i, value) in values.into_iter().enumerate() {
                    let addr = base.wrapping_add(4 * i as u32);
                    match space {
                        Space::Local => mem.try_write_local(tid, addr, value),
                        _ => mem.try_write_u32(space, addr, value),
                    }?;
                }
            } else {
                // Word by word too: a local load's bound is per word, and
                // a lane that runs past it keeps the words before. (A
                // global or constant load is checked for alignment alone,
                // which its base decides for all its words; one check a
                // lane for those measured no faster than this loop.)
                let (mut words, mut checked) = (0, Ok(()));
                while words < N && checked.is_ok() {
                    checked = mem.check_load(space, base.wrapping_add(4 * words as u32));
                    words += usize::from(checked.is_ok());
                }
                if words == N {
                    lanes.set_reg_n(lane, a.reg, mem.read_n::<N>(space, tid, base));
                } else {
                    // The words a `v4` lane validated before it trapped.
                    for w in 0..words as u8 {
                        let addr = base.wrapping_add(4 * u32::from(w));
                        let reg = simt_isa::Reg(a.reg.0.wrapping_add(w));
                        lanes.set_reg_n(lane, reg, mem.read_n::<1>(space, tid, addr));
                    }
                }
                checked?;
            }
            // Timing address: local uses the per-thread physical mapping.
            addresses.push(if space == Space::Local {
                mem.local_physical(tid, base)
            } else {
                base
            });
        }
        Ok(())
    }

    /// An off-chip access: global and local loads and stores, constant
    /// loads (served by the constant cache, which queues no request), and
    /// a constant store, which only ever traps. The words move at issue;
    /// the frontend routes the access, its fabric requests join the
    /// cycle's timing `batch`, and a load that queued one leaves its
    /// warp's wake-up for the batch to raise.
    fn exec_offchip(
        &mut self,
        a: &MemAccess,
        width: Width,
        now: u64,
        mem: &mut MemoryFabric,
        batch: &mut Vec<BatchRequest>,
        addresses: &mut Vec<u32>,
    ) -> Result<(u64, Stall), MemFault> {
        match width {
            Width::W1 => self.offchip_lanes::<1>(a, mem, addresses),
            Width::V4 => self.offchip_lanes::<4>(a, mem, addresses),
        }?;
        let route =
            self.frontend
                .route_offchip(now, mem, a.space, a.is_store, width.bytes(), addresses);
        let warp_id = self.warps[a.widx].id;
        if self.telemetry.is_on() {
            if let Some(probe) = &route.l1 {
                self.telemetry.on_l1(now, warp_id, probe);
            }
            if let Some((lanes, miss_lines)) = route.tex {
                self.telemetry.on_tex(now, warp_id, lanes, miss_lines);
            }
        }
        let (queued, sm) = (batch.len(), self.id);
        for request in route.requests.into_iter().flatten() {
            batch.push(BatchRequest {
                sm,
                access: 0,
                request,
            });
        }
        // What a load waits on: a full MSHR table, anything from beyond
        // the SM, or else its own hit latency.
        let l1 = route.l1.unwrap_or_default();
        let requests = &batch[queued..];
        let wait = if l1.mshr_stalls > 0 {
            Stall::MshrFull
        } else if !requests.is_empty() || l1.merges > 0 {
            Stall::Offchip
        } else {
            Stall::Latency
        };
        if requests.is_empty() {
            return Ok((route.ready, wait));
        }
        if self.telemetry.is_on() {
            let segments = requests
                .iter()
                .map(|b| b.request.segments.len() as u32)
                .sum();
            self.telemetry
                .on_offchip(now, warp_id, addresses.len() as u32, segments);
        }
        if !a.is_store {
            self.timed = Some(TimedAccess {
                slot: a.widx,
                warp_id,
                fill_lines: route.fill_lines,
            });
        }
        Ok((route.ready, wait))
    }
}
