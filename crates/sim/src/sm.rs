//! One streaming multiprocessor: warp pool, issue logic, PDOM branching,
//! and per-SM resource accounting. The memory-instruction path is
//! `sm/memory.rs`, the μ-kernel datapath `sm/spawn.rs`.

use crate::config::{GpuConfig, SpawnPolicy};
use crate::fault::{Fault, FaultKind, InjectedFault, Injector, SmSnapshot, WarpSnapshot};
use crate::ready::ReadySet;
use crate::stats::SimStats;
use crate::telemetry::{SmTelemetry, TelemetrySpec};
use crate::thread::LaneState;
use crate::warp::Warp;
use dmk_core::WarpFormation;
use simt_isa::codec::{Codec, CodecError, Decoder, Encoder};
use simt_isa::{Instr, Latency, Program, ReconvergenceTable};
use simt_mem::{BatchRequest, MemoryFabric, OnChipMemory, SmMemFrontend, TrafficStats};
use std::collections::{BTreeMap, HashMap};

mod memory;
mod spawn;

use memory::MemAccess;
use spawn::SpawnUnit;

/// Execution context shared by all SMs for the current launch.
#[derive(Debug)]
pub(crate) struct ExecCtx<'a> {
    pub program: &'a Program,
    pub rtab: &'a ReconvergenceTable,
    /// Registers per thread charged against the SM register file. Per the
    /// paper (§IV-D) dynamic warps are charged the *maximum* across
    /// μ-kernels, which for a single combined program is its register count.
    pub regs_per_thread: u32,
    /// Total launch threads (`%ntid`).
    pub ntid: u32,
    /// Whether an SM with nothing to issue may sleep until its next wake
    /// cycle (off under `force_tick` or an installed injector, which need
    /// every SM stepped every cycle).
    pub sleep: bool,
}

/// The off-chip load an SM left waiting on the cycle's timing batch: an
/// SM issues at most one instruction a cycle, so it holds at most one.
#[derive(Debug)]
struct TimedAccess {
    /// The issuing warp's slot. No reap can shift it before the batch is
    /// serviced: a warp finishes only by `exit`, which has no memory
    /// access, or by a kill, whose trapped access queued no request.
    slot: usize,
    /// The issuing warp's id, which debug builds check the slot against.
    warp_id: usize,
    /// L1 lines whose MSHR fills this access's requests complete.
    fill_lines: Vec<u32>,
}

/// One streaming multiprocessor.
#[derive(Debug)]
pub struct Sm {
    id: usize,
    warp_size: u32,
    max_threads: u32,
    max_blocks: u32,
    max_regs: u32,
    long_op_latency: u32,
    warps: Vec<Warp>,
    next_warp_id: usize,
    rr: usize,
    shared: OnChipMemory,
    /// The μ-kernel datapath, present exactly with μ-kernel hardware.
    spawn: Option<SpawnUnit>,
    threads_used: u32,
    regs_used: u32,
    /// Live warps per resident block (block scheduling).
    blocks: HashMap<usize, u32>,
    /// Per-SM memory frontend: coalescer, read-only (texture) cache,
    /// on-chip load-store port, and this SM's traffic shard.
    frontend: SmMemFrontend,
    spawn_policy: SpawnPolicy,
    /// Cycle until which the issue port is blocked by bank-conflict
    /// instruction replays (GT200-style: a conflicting access re-issues
    /// once per extra pass, stealing issue slots from every warp).
    issue_blocked_until: u64,
    /// This SM's statistics shard: counters accumulate here and are merged
    /// by the GPU at run end.
    stats: SimStats,
    /// The load this cycle's timing batch must wake a warp for. Always
    /// `None` between cycles.
    timed: Option<TimedAccess>,
    /// This SM's telemetry shard, written like `stats` and merged by the
    /// GPU in SM-id order (see [`crate::telemetry`]).
    telemetry: SmTelemetry,
    /// Wake cycle of every warp slot, which the issue stage scans from the
    /// round-robin cursor (see [`crate::ready`]).
    ready: ReadySet,
    /// A warp may have finished since the last reap. Warps only finish
    /// through [`Sm::retire_lanes`] / [`Sm::kill_warp`] (the PDOM stack
    /// empties solely by lane-exit mask clears), so when this is clear the
    /// per-cycle reap scan is skipped outright. Derived state: not
    /// serialized, set after restore to force one scan.
    reap_dirty: bool,
    /// SM-side state that dispatch admission reads (formation FIFO and
    /// partials, warp-pool resources, live-warp census) may have changed
    /// since the last `dispatch_for_sm` call. While clear — and the
    /// launch-block queue is also unchanged — a dispatch call would be a
    /// provable no-op returning `false`, so the cycle loop skips it.
    /// Over-marking is harmless (one wasted call); set conservatively on
    /// every admission, exit, kill, reap, spawn, and formation-block
    /// release. Derived state: not serialized, set after restore.
    dispatch_dirty: bool,
    /// Scratch address buffer for [`Sm::exec_memory`] (reused per access).
    addr_scratch: Vec<u32>,
    /// Sleep state (DESIGN.md §13). `0` while awake. Otherwise the SM
    /// found nothing issuable at cycle `idle_from` and nothing on it can
    /// change before cycle `wake_at` — the earliest live `ready_at`,
    /// floored by `issue_blocked_until`; `u64::MAX` with no live warps —
    /// unless dispatch admits a warp first, so every phase of the cycle
    /// loop passes over it. Derived state: not serialized, and every
    /// [`crate::Gpu::run`] returns with all SMs awake.
    wake_at: u64,
    /// First cycle of the idle span a sleeping SM has not yet recorded;
    /// [`Sm::wake`] credits it in one [`Sm::record_idle_span`].
    idle_from: u64,
    /// SM-steps sleeping avoided. Diagnostic counter, not part of
    /// [`SimStats`] and not serialized.
    slept_cycles: u64,
    /// Threads retired, spawned or killed here that the cycle loop has
    /// not counted yet — the watchdog's progress signal, collected each
    /// cycle from the SMs that were awake ([`Sm::take_progress`]).
    progress: u64,
}

impl Sm {
    /// Creates an SM for the given machine configuration.
    pub fn new(id: usize, cfg: &GpuConfig) -> Self {
        Sm {
            id,
            warp_size: cfg.warp_size,
            max_threads: cfg.max_threads_per_sm,
            max_blocks: cfg.max_blocks_per_sm,
            max_regs: cfg.registers_per_sm,
            long_op_latency: cfg.long_op_latency,
            warps: Vec::new(),
            next_warp_id: 0,
            rr: 0,
            shared: OnChipMemory::new(cfg.shared_mem_per_sm),
            spawn: cfg.dmk.map(|d| SpawnUnit::new(&d)),
            threads_used: 0,
            regs_used: 0,
            blocks: HashMap::new(),
            frontend: SmMemFrontend::new(cfg.mem.clone()),
            spawn_policy: cfg.spawn_policy,
            issue_blocked_until: 0,
            stats: SimStats::new(cfg.divergence_window, cfg.warp_size),
            timed: None,
            telemetry: SmTelemetry::new(id, &TelemetrySpec::off(), cfg.divergence_window),
            ready: ReadySet::default(),
            reap_dirty: false,
            dispatch_dirty: true,
            addr_scratch: Vec::new(),
            wake_at: 0,
            idle_from: 0,
            slept_cycles: 0,
            progress: 0,
        }
    }

    /// Replaces this SM's telemetry shard with a fresh one configured by
    /// `spec` (recordings restart from zero).
    pub(crate) fn set_telemetry(&mut self, spec: &TelemetrySpec, divergence_window: u64) {
        self.telemetry = SmTelemetry::new(self.id, spec, divergence_window);
    }

    /// This SM's telemetry shard.
    pub(crate) fn telemetry(&self) -> &SmTelemetry {
        &self.telemetry
    }

    /// Texture-cache (hits, misses) so far, if a cache is configured.
    pub fn tex_stats(&self) -> Option<(u64, u64)> {
        self.frontend.tex_stats()
    }

    /// L1 data-cache `(hits, misses, mshr_merges, mshr_stalls)` so far,
    /// if an L1 is configured (see [`simt_mem::SmMemFrontend::l1_stats`]).
    pub fn l1_stats(&self) -> Option<(u64, u64, u64, u64)> {
        self.frontend.l1_stats()
    }

    /// This SM's statistics shard (counters since the last merge).
    pub fn stats(&self) -> &SimStats {
        &self.stats
    }

    /// Takes this SM's statistics shard, leaving `fresh` (a zeroed shard
    /// with the right divergence geometry) in its place.
    pub(crate) fn take_stats(&mut self, fresh: SimStats) -> SimStats {
        std::mem::replace(&mut self.stats, fresh)
    }

    /// This SM's traffic shard (cumulative across runs).
    pub fn traffic(&self) -> &TrafficStats {
        self.frontend.traffic()
    }

    /// SM index.
    pub fn id(&self) -> usize {
        self.id
    }

    /// Resident threads.
    pub fn threads_used(&self) -> u32 {
        self.threads_used
    }

    /// The warp-formation unit, if dynamic μ-kernels are enabled.
    pub fn formation(&self) -> Option<&WarpFormation> {
        self.spawn.as_ref().map(|u| &u.formation)
    }

    /// Whether a warp of `threads` lanes fits the SM right now.
    pub fn fits_warp(&self, threads: u32, regs_per_thread: u32, needs_state_slots: bool) -> bool {
        if self.threads_used + threads > self.max_threads {
            return false;
        }
        if self.regs_used + threads * regs_per_thread > self.max_regs {
            return false;
        }
        let records = self.spawn.as_ref().map(|u| u.free_state_slots.len() as u32);
        !needs_state_slots || records.is_none_or(|free| free >= threads)
    }

    /// Whether a whole block of `block_threads` fits (block scheduling): a
    /// free block slot, and room for its threads as for one warp of them.
    pub fn fits_block(&self, block_threads: u32, regs_per_thread: u32) -> bool {
        (self.blocks.len() as u32) < self.max_blocks
            && self.fits_warp(block_threads, regs_per_thread, true)
    }

    /// Admits a launch-time warp of `count` threads with consecutive ids
    /// from `first_tid`, starting at `entry_pc`.
    ///
    /// # Panics
    ///
    /// Panics if resources were not checked first.
    pub(crate) fn admit_launch_warp(
        &mut self,
        first_tid: u32,
        count: u32,
        entry_pc: usize,
        block_id: Option<usize>,
        now: u64,
        ctx: &ExecCtx<'_>,
    ) {
        assert!(self.fits_warp(count, ctx.regs_per_thread, true));
        let mut lanes = LaneState::admit(self.warp_size, ctx.regs_per_thread, first_tid, count);
        self.hand_out_state_records(&mut lanes, count);
        let wid = self.next_warp_id;
        let mut w = Warp::from_lanes(wid, entry_pc, lanes);
        self.next_warp_id += 1;
        w.block_id = block_id;
        if let Some(b) = block_id {
            *self.blocks.entry(b).or_insert(0) += 1;
        }
        self.threads_used += count;
        self.regs_used += count * ctx.regs_per_thread;
        self.stats.threads_launched += u64::from(count);
        self.telemetry.on_warp_birth(now, wid, false, count);
        self.dispatch_dirty = true;
        self.ready.push(w.ready_at);
        self.warps.push(w);
    }

    /// Pops finished warps, releasing their resources. Returns the number
    /// of warps retired. Called at the end of every step, where it is
    /// nearly always a no-op: the guard inlines, the scan does not.
    #[inline]
    pub(crate) fn reap_finished(&mut self, now: u64, ctx: &ExecCtx<'_>) -> usize {
        if self.reap_dirty {
            self.reap(now, ctx)
        } else {
            0
        }
    }

    /// The body of [`Sm::reap_finished`].
    // Block bookkeeping is kept in lockstep with warp admission.
    #[allow(clippy::expect_used)]
    #[inline(never)]
    fn reap(&mut self, now: u64, ctx: &ExecCtx<'_>) -> usize {
        self.reap_dirty = false;
        let mut reaped = 0;
        // Single order-preserving compaction pass: side effects fire in
        // ascending slot order, exactly like the old remove-in-place loop
        // but without an O(n) shift per reaped warp. Finished warps are
        // swapped past the keep cursor (never revisited) and truncated off.
        let mut keep = 0;
        for i in 0..self.warps.len() {
            if self.warps[i].is_finished() {
                self.telemetry.on_warp_retire(now, self.warps[i].id);
                let n = self.warps[i].population();
                self.threads_used -= n;
                self.regs_used -= n * ctx.regs_per_thread;
                if let Some(b) = self.warps[i].block_id {
                    let left = self.blocks.get_mut(&b).expect("block tracked");
                    *left -= 1;
                    if *left == 0 {
                        self.blocks.remove(&b);
                    }
                }
                self.release_blocks(i, true);
                reaped += 1;
            } else {
                if keep != i {
                    self.warps.swap(keep, i);
                }
                keep += 1;
            }
        }
        self.warps.truncate(keep);
        if self.rr >= self.warps.len() {
            self.rr = 0;
        }
        if reaped > 0 {
            self.dispatch_dirty = true;
            // Slot indices shifted: rebuild the wake array from the
            // surviving warps.
            self.ready.rebuild(self.warps.iter().map(|w| w.ready_at));
        }
        reaped
    }

    /// Whether any resident warp still has lanes to run.
    pub(crate) fn has_live_warps(&mut self) -> bool {
        self.warps.iter_mut().any(|w| !w.is_finished())
    }

    /// Whether dispatch-visible SM state may have changed since the last
    /// [`Sm::clear_dispatch_dirty`] (see the field doc).
    pub(crate) fn dispatch_dirty(&self) -> bool {
        self.dispatch_dirty
    }

    /// Acknowledges a completed dispatch call: until the next mutation
    /// (or a launch-queue change) dispatch is a provable no-op here.
    pub(crate) fn clear_dispatch_dirty(&mut self) {
        self.dispatch_dirty = false;
    }

    /// Issues at most one warp-instruction. A memory instruction completes
    /// here: its words move between the registers and `mem`, and its
    /// fabric requests go into the cycle's timing `batch`. Returns
    /// `Ok(true)` if something issued (or productively stalled),
    /// `Ok(false)` on an idle cycle, and `Err` when the issuing warp
    /// trapped (the caller applies the configured [`crate::FaultPolicy`]).
    /// With nothing to issue the SM goes to sleep (see [`Sm::idle`]): the
    /// cycle loop then does not call this again while [`Sm::asleep`], and
    /// the first step after a sleep records the idle span slept through.
    ///
    /// The cycle loop steps the SMs one after another in SM-id order, so
    /// this step sees the stores of the SMs before this one in the same
    /// cycle and none of the SMs after it — the machine's memory order.
    pub(crate) fn step(
        &mut self,
        now: u64,
        ctx: &ExecCtx<'_>,
        mem: &mut MemoryFabric,
        batch: &mut Vec<BatchRequest>,
        injector: Option<&Injector>,
    ) -> Result<bool, Fault> {
        debug_assert!(!self.asleep(now), "the cycle loop passes over sleepers");
        self.wake(now);
        if now < self.issue_blocked_until {
            // Issue port consumed by bank-conflict replays.
            self.idle(now, ctx);
            return Ok(false);
        }
        let n = self.warps.len();
        if n == 0 {
            self.idle(now, ctx);
            return Ok(false);
        }
        // The first slot in rotation order whose wake cycle has arrived —
        // the candidate a linear `(rr + k) % n` scan over the warps'
        // `ready_at` would pick.
        loop {
            let Some(idx) = self.ready.first_from(self.rr, now) else {
                self.idle(now, ctx);
                return Ok(false);
            };
            debug_assert!(self.warps[idx].ready_at <= now, "wake array out of date");
            let Some(entry) = self.warps[idx].current() else {
                // Finished warp not yet reaped: it can never issue again,
                // park it for good and keep scanning.
                self.ready.retire(idx);
                continue;
            };
            self.rr = if idx + 1 == n { 0 } else { idx + 1 };
            if let Some(inj) = injector {
                if inj.fires(InjectedFault::Trap, now) {
                    self.stats.injected_events += 1;
                    return Err(self.fault(FaultKind::Injected, idx, entry.pc, now));
                }
            }
            self.exec_warp_instruction(idx, entry.pc, entry.mask, now, ctx, mem, batch, injector)?;
            return Ok(true);
        }
    }

    /// Cycle `now` found nothing to issue. Ticking, that is one idle
    /// SM-cycle recorded now. Sleeping, the SM instead notes where the
    /// idle span starts and when it can next issue, and records the whole
    /// span when it wakes.
    // Out of line: three call sites in `step`, whose issue path stays
    // compact without three copies of the wake-cycle scan.
    #[inline(never)]
    fn idle(&mut self, now: u64, ctx: &ExecCtx<'_>) {
        if ctx.sleep {
            self.idle_from = now;
            self.wake_at = self.next_issue_at().unwrap_or(u64::MAX);
            debug_assert!(self.wake_at > now, "an issuable warp was passed over");
        } else {
            self.stats.idle_sm_cycles += 1;
            self.stats.divergence.record_idle(now);
        }
    }

    /// Whether the cycle loop can pass over this SM at cycle `now`.
    #[inline]
    pub(crate) fn asleep(&self, now: u64) -> bool {
        now < self.wake_at
    }

    /// The cycle a sleeping SM must step again (`0` while awake).
    pub(crate) fn wake_at(&self) -> u64 {
        self.wake_at
    }

    /// Ends a sleep at cycle `now` — its wake cycle arrived, dispatch
    /// admitted a warp, or the run is returning — recording the idle
    /// cycles `idle_from..now` exactly as ticking through them would
    /// have. No-op on an SM that is awake.
    #[inline]
    pub(crate) fn wake(&mut self, now: u64) {
        if self.wake_at != 0 {
            self.end_sleep(now);
        }
    }

    /// The body of [`Sm::wake`], out of line so the every-step guard
    /// above inlines to one compare.
    #[inline(never)]
    fn end_sleep(&mut self, now: u64) {
        debug_assert!(now > self.idle_from, "slept through no cycle");
        let idle = now - self.idle_from;
        self.record_idle_span(self.idle_from, idle);
        // The span's first cycle was a real step: the one that found
        // nothing to issue.
        self.slept_cycles += idle - 1;
        self.wake_at = 0;
    }

    /// SM-steps this SM slept through (diagnostic; cumulative).
    pub fn slept_cycles(&self) -> u64 {
        self.slept_cycles
    }

    /// Threads retired, spawned or killed here since the last call.
    pub(crate) fn take_progress(&mut self) -> u64 {
        std::mem::take(&mut self.progress)
    }

    /// Records `count` idle SM-cycles starting at `from` in one bulk
    /// update — byte-identical to recording them one cycle at a time.
    fn record_idle_span(&mut self, from: u64, count: u64) {
        self.stats.idle_sm_cycles += count;
        self.stats.divergence.record_idle_span(from, count);
    }

    /// The earliest future cycle at which this SM could issue a
    /// warp-instruction, or `None` if no resident warp will ever become
    /// ready (the SM is idle until new work is dispatched to it).
    fn next_issue_at(&mut self) -> Option<u64> {
        let mut min: Option<u64> = None;
        for i in 0..self.warps.len() {
            if self.warps[i].is_finished() {
                continue;
            }
            let at = self.warps[i].ready_at;
            min = Some(min.map_or(at, |m| m.min(at)));
        }
        min.map(|m| m.max(self.issue_blocked_until))
    }

    /// This SM's share of the cycle's timing batch, once it is serviced:
    /// `ready` is the latest ready time of the requests it queued this
    /// cycle. Stamps the MSHR fills those requests complete and raises the
    /// waiting warp's wake-up (and its wake-array entry) to it. A store's
    /// requests leave nothing to settle.
    pub(crate) fn settle_access(&mut self, ready: u64) {
        let Some(t) = self.timed.take() else {
            return;
        };
        self.frontend.mshr_set_fill(&t.fill_lines, ready);
        debug_assert_eq!(
            self.warps[t.slot].id, t.warp_id,
            "a reap moved the slot of a timed access"
        );
        let w = &mut self.warps[t.slot];
        w.ready_at = w.ready_at.max(ready);
        self.ready.set(t.slot, w.ready_at);
    }

    /// Whether this SM is as every cycle must leave it: no access waiting
    /// on a timing batch and no MSHR entry without its fill time.
    pub(crate) fn between_cycles(&self) -> bool {
        self.timed.is_none() && self.frontend.mshr_all_resolved()
    }

    /// Fabric requests this SM's frontend has emitted (see
    /// [`SmMemFrontend::requests_emitted`]).
    pub(crate) fn requests_emitted(&self) -> u64 {
        self.frontend.requests_emitted()
    }

    /// Builds a trap record for warp slot `widx`.
    fn fault(&self, kind: FaultKind, widx: usize, pc: usize, now: u64) -> Fault {
        Fault {
            kind,
            sm: self.id,
            warp: self.warps[widx].id,
            pc,
            cycle: now,
        }
    }

    /// Kills warp `warp_id` after a trap under
    /// [`crate::FaultPolicy::KillWarp`]: its live lanes are discarded
    /// (counted as killed, not retired) and their spawn-memory state
    /// records recycled. The emptied warp is released by the next
    /// [`Sm::reap_finished`] like any finished warp.
    pub(crate) fn kill_warp(&mut self, warp_id: usize) {
        // Cold path (traps only): a linear scan beats maintaining an
        // id→slot map on the hot admission/reap paths.
        let Some(widx) = self.warps.iter().position(|w| w.id == warp_id) else {
            return;
        };
        let mask = self.warps[widx].lanes.live_mask();
        self.end_lineages(widx, mask);
        self.stats.warps_killed += 1;
        self.stats.threads_killed += u64::from(mask.count_ones());
        self.progress += u64::from(mask.count_ones());
        self.warps[widx].exit_lanes(mask);
        self.reap_dirty = true;
        self.dispatch_dirty = true;
    }

    /// Snapshot of this SM's warp state for deadlock diagnostics.
    pub(crate) fn snapshot(&mut self) -> SmSnapshot {
        let sm = self.id;
        let (free_state_slots, fifo_depth) = self.spawn.as_ref().map_or((0, 0), |u| {
            (u.free_state_slots.len(), u.formation.fifo_len())
        });
        let warps = self
            .warps
            .iter_mut()
            .map(|w| WarpSnapshot {
                warp: w.id,
                pc: w.current().map(|e| e.pc),
                live_lanes: w.active_lanes(),
                ready_at: w.ready_at,
                is_dynamic: w.is_dynamic,
            })
            .collect();
        SmSnapshot {
            sm,
            warps,
            free_state_slots,
            fifo_depth,
        }
    }

    #[allow(clippy::too_many_arguments)]
    // Lane expects are backed by the entry mask: only populated lanes are active.
    #[allow(clippy::expect_used)]
    fn exec_warp_instruction(
        &mut self,
        widx: usize,
        pc: usize,
        mask: u64,
        now: u64,
        ctx: &ExecCtx<'_>,
        mem: &mut MemoryFabric,
        batch: &mut Vec<BatchRequest>,
        injector: Option<&Injector>,
    ) -> Result<(), Fault> {
        // A wild PC (corrupted stack, bad branch surviving KillWarp) traps
        // instead of aborting the host process.
        let Some(&instr) = ctx.program.get(pc) else {
            return Err(self.fault(
                FaultKind::FetchOutOfRange {
                    len: ctx.program.len(),
                },
                widx,
                pc,
                now,
            ));
        };
        // Guard-pass mask over the PDOM-active lanes.
        let lanes = &self.warps[widx].lanes;
        let active = mask & lanes.populated_mask();
        let pass = match instr.guard {
            None => active,
            Some(g) => active & lanes.guard_mask(g.pred, g.negate),
        };

        match instr.op {
            Instr::Alu { op, d, a, b, c } => {
                let latency = match op.latency() {
                    Latency::Short => 1,
                    Latency::Long => self.long_op_latency,
                };
                self.warps[widx].lanes.alu_warp(pass, op, d, a, b, c);
                self.commit(widx, pc, mask, now, now + u64::from(latency));
                self.warps[widx].set_pc(pc + 1);
            }
            Instr::Setp { cmp, p, a, b } => {
                self.warps[widx].lanes.setp_warp(pass, cmp, p, a, b);
                self.commit(widx, pc, mask, now, now + 1);
                self.warps[widx].set_pc(pc + 1);
            }
            Instr::Selp { d, a, b, p } => {
                self.warps[widx].lanes.selp_warp(pass, d, a, b, p);
                self.commit(widx, pc, mask, now, now + 1);
                self.warps[widx].set_pc(pc + 1);
            }
            Instr::Mov { d, a } => {
                self.warps[widx].lanes.mov_warp(pass, d, a);
                self.commit(widx, pc, mask, now, now + 1);
                self.warps[widx].set_pc(pc + 1);
            }
            Instr::ReadSpecial { d, s } => {
                let (sm_id, ntid) = (self.id as u32, ctx.ntid);
                let wid = self.warps[widx].id as u32;
                self.warps[widx]
                    .lanes
                    .special_warp(pass, d, s, wid, sm_id, ntid);
                self.commit(widx, pc, mask, now, now + 1);
                self.warps[widx].set_pc(pc + 1);
            }
            Instr::Nop => {
                self.commit(widx, pc, mask, now, now + 1);
                self.warps[widx].set_pc(pc + 1);
            }
            Instr::Ld {
                space,
                d,
                addr,
                offset,
                width,
            } => {
                let access = MemAccess {
                    widx,
                    pass,
                    space,
                    reg: d,
                    addr_reg: addr,
                    offset: offset as u32,
                    is_store: false,
                };
                let ready = self
                    .exec_memory(&access, width, now, mem, batch)
                    .map_err(|m| self.fault(FaultKind::Memory(m), widx, pc, now))?;
                self.commit(widx, pc, mask, now, ready);
                self.warps[widx].set_pc(pc + 1);
            }
            Instr::St {
                space,
                a,
                addr,
                offset,
                width,
            } => {
                // Stores are fire-and-forget: bandwidth/queueing is charged
                // by the timing model, but the warp does not wait for the
                // write to land.
                let access = MemAccess {
                    widx,
                    pass,
                    space,
                    reg: a,
                    addr_reg: addr,
                    offset: offset as u32,
                    is_store: true,
                };
                self.exec_memory(&access, width, now, mem, batch)
                    .map_err(|m| self.fault(FaultKind::Memory(m), widx, pc, now))?;
                self.commit(widx, pc, mask, now, now + 1);
                self.warps[widx].set_pc(pc + 1);
            }
            Instr::Bra { target } => {
                let taken = pass;
                let not_taken = mask & !pass;
                self.commit(widx, pc, mask, now, now + 1);
                let w = &mut self.warps[widx];
                if not_taken == 0 {
                    w.set_pc(target);
                } else if taken == 0 {
                    w.set_pc(pc + 1);
                } else {
                    let rpc = ctx.rtab.reconvergence_pc(pc);
                    w.diverge(taken, not_taken, target, pc + 1, rpc);
                }
            }
            Instr::Exit => {
                self.commit(widx, pc, mask, now, now + 1);
                // Advance the entry first so non-exiting lanes continue.
                self.warps[widx].set_pc(pc + 1);
                self.retire_lanes(widx, pass);
            }
            Instr::Spawn { target, ptr } => {
                return self.exec_spawn(widx, pc, mask, pass, target, ptr, now, injector);
            }
        }
        Ok(())
    }

    /// Marks lanes retired, updating lineage accounting and recycling
    /// spawn-memory state slots.
    fn retire_lanes(&mut self, widx: usize, lanes: u64) {
        self.reap_dirty = true;
        // Exits change the live-warp census the end-of-application
        // force-out condition reads.
        self.dispatch_dirty = true;
        let retired = lanes & self.warps[widx].lanes.populated_mask();
        self.stats.threads_retired += u64::from(retired.count_ones());
        self.progress += u64::from(retired.count_ones());
        self.stats.lineages_completed += self.end_lineages(widx, retired);
        self.warps[widx].exit_lanes(lanes);
    }

    /// Bank-conflict replays steal issue slots: a degree-`d` access
    /// re-issues `d - 1` times, blocking the SM's issue port meanwhile.
    fn block_issue_for_replays(&mut self, now: u64, degree: u32) {
        if degree > 1 {
            let start = now.max(self.issue_blocked_until);
            self.issue_blocked_until = start + u64::from(degree - 1);
        }
    }

    /// Records statistics for one committed warp-instruction.
    fn commit(&mut self, widx: usize, pc: usize, mask: u64, now: u64, ready: u64) {
        let active = mask.count_ones();
        self.stats.warp_issues += 1;
        self.stats.thread_instructions += u64::from(active);
        self.stats.divergence.record_issue(now, active);
        if self.telemetry.is_on() {
            let wid = self.warps[widx].id;
            let depth = self.warps[widx].stack_depth() as u32;
            self.telemetry.on_issue(now, wid, pc, active, depth);
        }
        let until = ready.max(now + 1);
        self.warps[widx].ready_at = until;
        self.ready.set(widx, until);
    }

    /// Serializes this SM's complete mutable state for a simulator
    /// checkpoint. Must only be called at the inter-cycle barrier, where
    /// no access waits on a timing batch (the audit's law).
    pub(crate) fn encode_state(&self, enc: &mut Encoder) {
        enc.put_usize(self.warps.len());
        for w in &self.warps {
            w.encode_state(enc);
        }
        enc.put_usize(self.next_warp_id);
        enc.put_usize(self.rr);
        self.shared.encode_state(enc);
        // Spawn memory and the formation unit are written apart, each
        // behind its own presence flag, with the state records later.
        enc.put_bool(self.spawn.is_some());
        if let Some(u) = &self.spawn {
            u.mem.encode_state(enc);
        }
        enc.put_bool(self.spawn.is_some());
        if let Some(u) = &self.spawn {
            u.formation.encode_state(enc);
        }
        enc.put_u32(self.threads_used);
        enc.put_u32(self.regs_used);
        let blocks: BTreeMap<usize, u32> = self.blocks.iter().map(|(&b, &n)| (b, n)).collect();
        blocks.encode(enc);
        let none = Vec::new();
        (self.spawn.as_ref().map_or(&none, |u| &u.free_state_slots)).encode(enc);
        self.frontend.encode_state(enc);
        enc.put_u64(self.issue_blocked_until);
        self.stats.encode_state(enc);
        self.telemetry.encode_state(enc);
    }

    /// This SM's laws in [`crate::Gpu::audit`], under a launch of
    /// `regs_per_thread`: awake, between cycles, every formation block
    /// owned once by an owner naming its base (see
    /// [`WarpFormation::check_ownership`]; without μ-kernel hardware,
    /// none), and the threads, registers and blocks it counts those its
    /// warps hold. `Ok` carries the threads it holds, live or queued.
    pub(crate) fn audit(&self, regs_per_thread: u32) -> Result<u64, String> {
        let id = self.id;
        if self.wake_at != 0 || !self.between_cycles() {
            return Err(format!("SM {id} is not awake and between cycles"));
        }
        let blocks = |w: &Warp| [w.formation_block, w.elision_block];
        let mut held = self.warps.iter().flat_map(blocks).flatten();
        match &self.spawn {
            Some(u) => u.formation.check_ownership(held).map_err(|e| e.to_string()),
            None if held.next().is_some() => Err("held without spawn memory".into()),
            None => Ok(()),
        }
        .map_err(|e| format!("SM {id}: formation blocks: {e}"))?;
        let mut blocks = HashMap::new();
        for b in self.warps.iter().filter_map(|w| w.block_id) {
            *blocks.entry(b).or_insert(0) += 1;
        }
        let threads: u64 = self.warps.iter().map(|w| u64::from(w.population())).sum();
        let counted = (u64::from(self.threads_used), u64::from(self.regs_used));
        if counted != (threads, threads * u64::from(regs_per_thread)) || blocks != self.blocks {
            return Err(format!(
                "SM {id}: threads, registers or blocks not its warps'"
            ));
        }
        let live = self.warps.iter().map(|w| w.lanes.live_mask().count_ones());
        let queued = self.formation().map_or(0, WarpFormation::queued_threads);
        Ok(live.chain([queued]).map(u64::from).sum())
    }

    /// Restores state written by [`Sm::encode_state`] into an SM freshly
    /// built with [`Sm::new`] from the same configuration.
    pub(crate) fn restore_state(&mut self, dec: &mut Decoder<'_>) -> Result<(), CodecError> {
        let n = dec.take_len(30)?;
        self.warps = (0..n)
            .map(|_| Warp::restore_state(dec, self.warp_size))
            .collect::<Result<_, CodecError>>()?;
        self.next_warp_id = dec.take_usize()?;
        self.rr = dec.take_usize()?;
        self.shared.restore_state(dec)?;
        let bad = |what, tag| Err(CodecError::BadTag { what, tag });
        let absent = self.spawn.is_none();
        if dec.take_bool()? == absent {
            return bad("spawn memory presence", u64::from(absent));
        }
        if let Some(u) = self.spawn.as_mut() {
            u.mem.restore_state(dec)?;
        }
        if dec.take_bool()? == absent {
            return bad("formation unit presence", u64::from(absent));
        }
        if let Some(u) = self.spawn.as_mut() {
            u.formation.restore_state(dec)?;
        }
        self.threads_used = dec.take_u32()?;
        self.regs_used = dec.take_u32()?;
        self.blocks = BTreeMap::<usize, u32>::decode(dec)?.into_iter().collect();
        let free_state_slots = Vec::decode(dec)?;
        match (self.spawn.as_mut(), free_state_slots.len()) {
            (Some(u), _) => u.free_state_slots = free_state_slots,
            (None, 0) => {}
            (None, n) => return bad("state records without spawn memory", n as u64),
        }
        self.frontend.restore_state(dec)?;
        self.issue_blocked_until = dec.take_u64()?;
        self.stats.restore_state(dec)?;
        self.telemetry.restore_state(dec, self.next_warp_id)?;
        // Derived issue-stage structures are rebuilt, not stored.
        self.ready.rebuild(self.warps.iter().map(|w| w.ready_at));
        // Conservative: force one reap scan after restore rather than
        // prove no restored warp is already finished.
        self.reap_dirty = true;
        self.dispatch_dirty = true;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SchedulingModel;
    use dmk_core::{DmkConfig, SpawnMemoryLayout};
    use simt_isa::{assemble_named, Reg, Space};
    use simt_mem::MemFault;

    /// One SM of the `tiny` machine holding one 4-lane warp of `src`,
    /// stepped by hand: the step through [`Sm::step`], the cycle's timing
    /// batch through [`Rig::end_cycle`] — so a test can look between the
    /// two.
    struct Rig {
        sm: Sm,
        fabric: MemoryFabric,
        batch: Vec<BatchRequest>,
        program: Program,
        rtab: ReconvergenceTable,
        now: u64,
    }

    fn ctx<'a>(program: &'a Program, rtab: &'a ReconvergenceTable) -> ExecCtx<'a> {
        ExecCtx {
            program,
            rtab,
            regs_per_thread: program.resource_usage().registers.max(1),
            ntid: 4,
            sleep: false,
        }
    }

    fn one_warp(src: &str, setup: impl FnOnce(&mut MemoryFabric)) -> Rig {
        let cfg = GpuConfig::tiny();
        let program = assemble_named("t", src).expect("assembles");
        let rtab = ReconvergenceTable::build(&program);
        let mut fabric = MemoryFabric::new(cfg.mem.clone());
        setup(&mut fabric);
        let mut rig = Rig {
            sm: Sm::new(0, &cfg),
            fabric,
            batch: Vec::new(),
            program,
            rtab,
            now: 0,
        };
        let entry = rig.program.entry("main").expect("has a main").pc;
        let ctx = ctx(&rig.program, &rig.rtab);
        rig.sm.admit_launch_warp(0, 4, entry, None, 0, &ctx);
        rig
    }

    impl Rig {
        /// Runs whole cycles until the warp is about to issue its first
        /// memory instruction, then runs that cycle's step only. Returns
        /// the cycle and what the step returned.
        fn issue_first_memory_instruction(&mut self) -> (u64, Result<bool, Fault>) {
            loop {
                let now = self.now;
                let w = &mut self.sm.warps[0];
                let pc = w.current().expect("the warp is still running").pc;
                let at_memory = matches!(
                    self.program.get(pc).expect("pc in range").op,
                    Instr::Ld { .. } | Instr::St { .. }
                );
                let issues = w.ready_at <= now;
                let stepped = self.step();
                if at_memory && issues {
                    return (now, stepped);
                }
                stepped.expect("only the memory instruction may trap");
                self.end_cycle();
            }
        }

        fn step(&mut self) -> Result<bool, Fault> {
            let ctx = ctx(&self.program, &self.rtab);
            self.sm
                .step(self.now, &ctx, &mut self.fabric, &mut self.batch, None)
        }

        /// The cycle's timing batch for this one SM, as `Gpu::settle`
        /// runs it.
        fn end_cycle(&mut self) {
            let ready = self.fabric.service_batch(self.now, &self.batch);
            if let Some(&latest) = ready.iter().max() {
                self.sm.settle_access(latest);
            }
            self.batch.clear();
            assert!(self.sm.between_cycles());
            self.now += 1;
        }

        fn regs(&self, r: u8) -> [u32; 4] {
            std::array::from_fn(|lane| self.sm.warps[0].lanes.reg(lane, Reg(r)))
        }
    }

    /// Sixteen words of constant memory, 100, 101, ….
    fn sixteen_const_words(fabric: &mut MemoryFabric) {
        let base = fabric.alloc_const(64, "params");
        assert_eq!(base, 0);
        for i in 0..16 {
            fabric.host_write_const(4 * i, 100 + i);
        }
    }

    /// A constant load queues no request: the registers hold the words
    /// when the step returns, the warp wakes at the constant cache's hit
    /// latency, and the traffic shard reads what the load recorded.
    #[test]
    fn a_constant_load_is_served_at_issue() {
        for (load, bytes, want) in [
            ("ld.const.u32 r4, [r2+0]", 4, [[100, 101, 102, 103], [0; 4]]),
            (
                "ld.const.v4 r4, [r3+0]",
                16,
                [[100, 104, 108, 112], [101, 105, 109, 113]],
            ),
        ] {
            let src = format!(
                ".kernel main\nmain:\n mov.u32 r1, %tid\n mul.lo.s32 r2, r1, 4\n \
                 mul.lo.s32 r3, r1, 16\n {load}\n exit\n"
            );
            let mut rig = one_warp(&src, sixteen_const_words);
            let (now, issued) = rig.issue_first_memory_instruction();
            assert_eq!(issued, Ok(true), "{load}");
            assert_eq!([rig.regs(4), rig.regs(5)], want, "{load}");
            assert!(rig.batch.is_empty() && rig.sm.timed.is_none(), "{load}");
            let hit = u64::from(GpuConfig::tiny().mem.tex_hit_latency);
            assert_eq!(rig.sm.warps[0].ready_at, now + hit, "{load}");
            let traffic = *rig.sm.traffic().space(Space::Const);
            assert_eq!(
                (traffic.accesses, traffic.bytes_read, traffic.transactions),
                (1, 4 * bytes, 0),
                "{load}"
            );
            // The batch finds nothing of it, and the wake cycle stands.
            rig.end_cycle();
            assert_eq!(rig.sm.warps[0].ready_at, now + hit, "{load}");
        }
    }

    /// A global load's words are in the registers when the step returns;
    /// what it leaves is its request on the batch and its warp's wake-up,
    /// which the serviced batch raises to the DRAM round trip.
    #[test]
    fn a_global_load_completes_at_issue_and_waits_on_the_batch() {
        let src = ".kernel main\nmain:\n mov.u32 r1, %tid\n mul.lo.s32 r2, r1, 4\n \
                   ld.global.u32 r4, [r2+0]\n exit\n";
        let mut rig = one_warp(src, |f: &mut MemoryFabric| {
            let base = f.alloc_global(16, "buf");
            f.host_write_global(base, &[7, 8, 9, 10]);
        });
        let (now, issued) = rig.issue_first_memory_instruction();
        assert_eq!(issued, Ok(true));
        assert_eq!(rig.regs(4), [7, 8, 9, 10]);
        assert_eq!(rig.batch.len(), 1, "one segment's request");
        let mem = GpuConfig::tiny().mem;
        let serviced =
            now + mem.segment_service_cycles().ceil() as u64 + u64::from(mem.dram_latency);
        assert!(
            rig.sm.warps[0].ready_at < serviced,
            "only the at-issue floor"
        );
        rig.end_cycle();
        assert_eq!(rig.sm.warps[0].ready_at, serviced);
    }

    /// Lane 2 of a constant load is misaligned: the trap is lane 2's, the
    /// lanes before it keep what they loaded (an imprecise trap), the
    /// lanes from it on load nothing, and nothing is timed.
    #[test]
    fn a_misaligned_constant_lane_keeps_the_lanes_before_it() {
        let src = ".kernel main\nmain:\n mov.u32 r1, %tid\n mul.lo.s32 r2, r1, 4\n \
                   setp.eq.s32 p0, r1, 2\n @p0 add.s32 r2, r2, 2\n \
                   ld.const.u32 r4, [r2+0]\n exit\n";
        let mut rig = one_warp(src, sixteen_const_words);
        let (now, issued) = rig.issue_first_memory_instruction();
        let fault = issued.expect_err("lane 2 traps");
        assert_eq!(
            fault.kind,
            FaultKind::Memory(MemFault::Misaligned {
                space: Space::Const,
                addr: 10
            })
        );
        assert_eq!(fault.cycle, now);
        assert_eq!(rig.regs(4), [100, 101, 0, 0]);
        assert!(rig.batch.is_empty() && rig.sm.timed.is_none());
        assert_eq!(rig.sm.traffic().space(Space::Const).accesses, 0);
    }

    /// What an imprecise trap leaves in the faulting warp, which an
    /// aborting run keeps: lane 0's `v4` fits its 32-byte local stride and
    /// loads four words, lane 1's (from offset 24) runs past it in its
    /// third word and loads two, and lanes 2 and 3 are never looked at.
    /// Nothing is timed and no traffic is recorded.
    #[test]
    fn a_partially_validated_vector_load_fills_exactly_its_validated_words() {
        let src = ".kernel main\nmain:\n mov.u32 r1, %tid\n mul.lo.s32 r2, r1, 24\n \
                   ld.local.v4 r8, [r2+0]\n exit\n";
        let mut rig = one_warp(src, |f: &mut MemoryFabric| {
            f.configure_local(32);
            for tid in 0..4 {
                for w in 0..8 {
                    f.write_local(tid, 4 * w, 100 * tid + w + 1);
                }
            }
        });
        let (_, issued) = rig.issue_first_memory_instruction();
        let fault = issued.expect_err("lane 1 runs past its stride");
        assert_eq!(
            fault.kind,
            FaultKind::Memory(MemFault::LocalOob {
                addr: 32,
                stride: 32
            })
        );
        let regs: Vec<[u32; 4]> = (8..12).map(|r| rig.regs(r)).collect();
        assert_eq!(
            regs,
            [[1, 107, 0, 0], [2, 108, 0, 0], [3, 0, 0, 0], [4, 0, 0, 0]]
        );
        assert!(rig.batch.is_empty() && rig.sm.timed.is_none());
        assert_eq!(rig.sm.traffic().space(Space::Local).accesses, 0);
    }

    /// Every exit of `exec_memory` hands the address scratch back, a trap
    /// included — under `KillWarp` the next access does not allocate it.
    #[test]
    fn a_trapped_access_hands_its_buffers_back() {
        // On-chip: every lane misaligned.
        let src = ".kernel main\nmain:\n mov.u32 r2, 2\n ld.shared.u32 r4, [r2+0]\n exit\n";
        let mut rig = one_warp(src, |_| {});
        let (_, issued) = rig.issue_first_memory_instruction();
        assert!(issued.is_err());
        assert!(rig.sm.addr_scratch.capacity() >= 4, "on-chip trap");

        // Off-chip: a clean load, then every lane of the next misaligned.
        let src = ".kernel main\nmain:\n mov.u32 r2, 0\n ld.global.u32 r4, [r2+0]\n \
                   ld.global.u32 r5, [r2+2]\n exit\n";
        let mut rig = one_warp(src, |f: &mut MemoryFabric| {
            f.alloc_global(64, "buf");
        });
        let (_, issued) = rig.issue_first_memory_instruction();
        assert_eq!(issued, Ok(true));
        rig.end_cycle();
        let (_, issued) = rig.issue_first_memory_instruction();
        assert!(issued.is_err());
        assert!(
            rig.batch.is_empty() && rig.sm.timed.is_none(),
            "lane 0 trapped: nothing validated"
        );
        assert!(rig.sm.addr_scratch.capacity() >= 4, "off-chip trap");
    }

    /// A 4-lane SM with μ-kernel hardware holding one launch warp, its
    /// configuration, and its spawn-memory layout.
    fn dmk_sm_with_a_warp() -> (Sm, GpuConfig, SpawnMemoryLayout) {
        let dmk = DmkConfig {
            warp_size: 4,
            threads_per_sm: 32,
            state_bytes: 48,
            num_ukernels: 4,
            fifo_capacity: 64,
        };
        let cfg = GpuConfig {
            dmk: Some(dmk),
            ..GpuConfig::tiny()
        };
        let program = assemble_named("t", ".kernel main\nmain:\n exit\n").expect("assembles");
        let rtab = ReconvergenceTable::build(&program);
        let mut sm = Sm::new(0, &cfg);
        sm.admit_launch_warp(0, 4, 0, None, 0, &ctx(&program, &rtab));
        (sm, cfg, SpawnMemoryLayout::new(&dmk))
    }

    /// `sm`'s state, encoded and restored into a fresh SM of `cfg`, then
    /// held to the SM's laws under a launch of one register a thread, as
    /// `Gpu::restore` holds it.
    fn restore_into_fresh(sm: &Sm, cfg: &GpuConfig) -> Result<(), String> {
        let mut enc = Encoder::new();
        sm.encode_state(&mut enc);
        let bytes = enc.into_bytes();
        let mut fresh = Sm::new(0, cfg);
        let restored = fresh.restore_state(&mut Decoder::new(&bytes));
        restored.map_err(|e| e.to_string())?;
        fresh.audit(1).map(|_| ())
    }

    /// Whether `restored` is a refusal naming `tag` (a block address).
    fn refused_at(restored: Result<(), String>, tag: u32) -> bool {
        matches!(restored, Err(e) if e.contains(&format!("invalid tag {tag} for")))
    }

    /// A warp holding an elision block outside the formation area (a
    /// state record's address) is refused on restore, not handed to the
    /// free pool at its reap, where finding its block panics.
    #[test]
    fn a_warp_block_outside_the_formation_area_is_refused() {
        let (mut sm, cfg, _) = dmk_sm_with_a_warp();
        assert_eq!(restore_into_fresh(&sm, &cfg), Ok(()), "as admitted");
        sm.warps[0].elision_block = Some(0);
        assert!(refused_at(restore_into_fresh(&sm, &cfg), 0));
    }

    /// A warp holding one block as both its formation and its elision
    /// block (which the free pool holds too) is refused, not released
    /// twice at its reap.
    #[test]
    fn a_block_held_twice_is_refused() {
        let (mut sm, cfg, layout) = dmk_sm_with_a_warp();
        let block = layout.block_addr(0);
        sm.warps[0].formation_block = Some(block);
        sm.warps[0].elision_block = Some(block);
        assert!(refused_at(restore_into_fresh(&sm, &cfg), block));
    }

    /// A formation block 4 bytes past its base is refused: the warp would
    /// read its lanes' state pointers one slot off, and nothing else
    /// notices.
    #[test]
    fn a_warp_block_off_its_base_is_refused() {
        let (mut sm, cfg, layout) = dmk_sm_with_a_warp();
        let block = layout.block_addr(1) + 4;
        sm.warps[0].formation_block = Some(block);
        assert!(refused_at(restore_into_fresh(&sm, &cfg), block));
    }

    /// A block taken from the free pool restores while a warp holds it,
    /// and is refused once nothing does.
    #[test]
    fn a_block_held_by_none_is_refused() {
        let (mut sm, cfg, _) = dmk_sm_with_a_warp();
        let block = sm
            .spawn
            .as_mut()
            .and_then(|u| u.formation.try_alloc_block())
            .expect("a free block");
        sm.warps[0].elision_block = Some(block);
        assert_eq!(restore_into_fresh(&sm, &cfg), Ok(()));
        sm.warps[0].elision_block = None;
        assert!(refused_at(restore_into_fresh(&sm, &cfg), block));
    }

    /// A telemetry state no run leaves — a zero metrics window, or a depth
    /// entry for a warp id the SM has not handed out — is refused on
    /// restore, not restored into a later divide by zero or a depth table
    /// sized from a corrupt id.
    #[test]
    fn an_sm_state_with_impossible_telemetry_is_refused() {
        let cfg = GpuConfig::tiny();
        let metrics = TelemetrySpec {
            metrics: true,
            ..TelemetrySpec::off()
        };
        let mut sm = Sm::new(0, &cfg);
        sm.set_telemetry(&metrics, cfg.divergence_window);
        sm.next_warp_id = 2;
        sm.telemetry.on_warp_birth(0, 1, false, 4);
        let restored = restore_into_fresh(&sm, &cfg);
        assert_eq!(restored, Ok(()), "warp 1 of 2 has a depth");
        sm.telemetry.on_warp_birth(0, 2, false, 4);
        assert!(refused_at(restore_into_fresh(&sm, &cfg), 2));
        // No table has a zero window, so forge one into the bytes.
        let marker = 0x5eed_0000_5eed_u64;
        sm.set_telemetry(&metrics.with_window(marker), cfg.divergence_window);
        let mut enc = Encoder::new();
        sm.encode_state(&mut enc);
        let mut bytes = enc.into_bytes();
        let at = bytes.windows(8).position(|w| w == marker.to_le_bytes());
        let at = at.expect("the window is in the state");
        bytes[at..at + 8].fill(0);
        let restored = Sm::new(0, &cfg).restore_state(&mut Decoder::new(&bytes));
        assert!(refused_at(restored.map_err(|e| e.to_string()), 0));
    }

    /// SMs whose metrics windows differ — which no spec builds — are
    /// refused on restore, not merged into a report whose window table
    /// cannot add their rows.
    #[test]
    fn sms_with_two_metrics_windows_are_refused_on_restore() {
        let cfg = GpuConfig::tiny();
        let metrics = TelemetrySpec::metrics();
        let gpu = crate::Gpu::builder(cfg.clone())
            .telemetry(metrics.clone())
            .build();
        let payload = gpu.checkpoint().expect("encodes").payload().to_vec();
        let encoded = |sm: &Sm| {
            let mut enc = Encoder::new();
            sm.encode_state(&mut enc);
            enc.into_bytes()
        };
        let good = encoded(&gpu.sms()[0]);
        let at = payload.windows(good.len()).position(|w| w == good);
        let at = at.expect("SM 0's state is in the payload");
        let mut sm = Sm::new(0, &cfg);
        sm.set_telemetry(&metrics.with_window(7), cfg.divergence_window);
        let mut forged = payload;
        forged.splice(at..at + good.len(), encoded(&sm));
        match crate::Gpu::restore(&crate::Snapshot::from_payload(forged)) {
            Err(crate::RestoreError::Invalid(law)) => {
                assert!(law.contains("metrics window"), "{law}")
            }
            other => panic!("restored: {:?}", other.map(|_| ())),
        }
    }

    /// The counters an SM keeps of what its warps hold — threads and
    /// registers in use, live warps per block — are refused on restore
    /// when the warps say otherwise, not restored into an underflow or a
    /// missing block at the first reap. Each forgery is a good snapshot
    /// with SM 0's bytes swapped for a forged copy: checkpointing a forged
    /// machine would trip the audit's assert.
    #[test]
    fn resource_counters_its_warps_contradict_are_refused_on_restore() {
        let cfg = GpuConfig {
            scheduling: SchedulingModel::Block,
            ..GpuConfig::tiny()
        };
        let src = ".kernel main\nmain:\n mov.u32 r1, %tid\n add.s32 r1, r1, 1\n exit\n";
        let mut gpu = crate::Gpu::builder(cfg.clone()).build();
        let launch = crate::Launch {
            program: assemble_named("t", src).expect("assembles"),
            entry: "main".into(),
            num_threads: 128,
            threads_per_block: 8,
        };
        gpu.launch(launch).expect("launches");
        gpu.run(3).expect("runs");
        let payload = gpu.checkpoint().expect("encodes").payload().to_vec();
        let encoded = |sm: &Sm| {
            let mut enc = Encoder::new();
            sm.encode_state(&mut enc);
            enc.into_bytes()
        };
        let good = encoded(&gpu.sms()[0]);
        let at = payload.windows(good.len()).position(|w| w == good);
        let at = at.expect("SM 0's state is in the payload");
        let forgeries: [fn(&mut Sm); 3] = [
            |sm| sm.threads_used = 0,
            |sm| sm.regs_used = 0,
            |sm| sm.blocks.clear(),
        ];
        for (i, forge) in forgeries.into_iter().enumerate() {
            let mut sm = Sm::new(0, &cfg);
            sm.restore_state(&mut Decoder::new(&good))
                .expect("restores");
            forge(&mut sm);
            let mut forged = payload.clone();
            forged.splice(at..at + good.len(), encoded(&sm));
            match crate::Gpu::restore(&crate::Snapshot::from_payload(forged)) {
                Err(crate::RestoreError::Invalid(law)) => assert!(law.contains("SM 0"), "{law}"),
                Err(e) => panic!("forgery {i}: {e}"),
                Ok(mut restored) => {
                    let ran = restored.run(100);
                    panic!("forgery {i} restored and ran: {:?}", ran.map(|s| s.outcome));
                }
            }
        }
    }

    /// Threads 0..n each run a spawn chain of depth `tid % 4` through their
    /// spawn-memory state record, then store the depth to `global[tid]`.
    const CHAIN_SRC: &str = r#"
        .kernel main
        .kernel step
        .spawnstate 48
        main:
            mov.u32 r1, %tid
            and.b32 r2, r1, 3
            mov.u32 r3, 0
            mov.u32 r7, %spawnmem
            st.spawn.v4.u32 [r7+0], r1
            spawn $step, r7
            exit
        step:
            mov.u32 r7, %spawnmem
            ld.spawn.u32 r7, [r7+0]
            ld.spawn.v4.u32 r1, [r7+0]
            setp.le.s32 p0, r2, 0
            @p0 bra done
            sub.s32 r2, r2, 1
            add.s32 r3, r3, 1
            st.spawn.v4.u32 [r7+0], r1
            spawn $step, r7
            exit
        done:
            mul.lo.s32 r4, r1, 4
            st.global.u32 [r4+0], r3
            exit
    "#;

    /// On-chip memory costs the pages written. A μ-kernel window on the
    /// paper's 30 SMs writes spawn memory and leaves every SM's 64 KiB of
    /// shared memory unmade; a checkpoint restores into no page more than
    /// the machine held; one `st.shared` then makes exactly one page.
    #[test]
    fn on_chip_memory_costs_only_the_pages_written() {
        let pages = |gpu: &crate::Gpu| -> Vec<[usize; 2]> {
            let spawn = |sm: &Sm| sm.spawn.as_ref().map_or(0, |u| u.mem.resident_pages());
            gpu.sms()
                .iter()
                .map(|sm| [sm.shared.resident_pages(), spawn(sm)])
                .collect()
        };
        let launch = |gpu: &mut crate::Gpu, src: &str, num_threads: u32| {
            let program = assemble_named("t", src).expect("assembles");
            let entry = "main".into();
            let launch = crate::Launch {
                program,
                entry,
                num_threads,
                threads_per_block: 256,
            };
            gpu.launch(launch).expect("launch accepted");
        };
        let n = 30 * 1024;
        let mut gpu = crate::Gpu::builder(GpuConfig::fx5800_dmk(DmkConfig::paper())).build();
        gpu.mem_mut().alloc_global(n * 4, "out");
        launch(&mut gpu, CHAIN_SRC, n);
        let ran = gpu.run(600).expect("fault-free window");
        assert_eq!(ran.outcome, crate::RunOutcome::CycleLimit);
        let window = pages(&gpu);
        assert!(
            window
                .iter()
                .all(|&[shared, spawn]| shared == 0 && spawn > 0),
            "{window:?}"
        );
        let snapshot = gpu.checkpoint().expect("encodable");
        let restored = pages(&crate::Gpu::restore(&snapshot).expect("restores"));
        for (sm, (was, now)) in window.iter().zip(&restored).enumerate() {
            assert!(
                now[0] <= was[0] && now[1] <= was[1],
                "SM {sm}: {was:?} -> {now:?}"
            );
        }
        let summary = gpu.run(10_000_000).expect("fault-free frame");
        assert_eq!(summary.outcome, crate::RunOutcome::Completed);
        for tid in (0..n).step_by(997) {
            assert_eq!(gpu.mem().read_u32(Space::Global, tid * 4), tid & 3);
        }
        let store = ".kernel main\nmain:\n mov.u32 r1, 4096\n st.shared.u32 [r1+0], r1\n exit\n";
        launch(&mut gpu, store, 1);
        gpu.run(10_000).expect("fault-free store");
        let shared: usize = pages(&gpu).iter().map(|&[shared, _]| shared).sum();
        assert_eq!(shared, 1);
    }
}
