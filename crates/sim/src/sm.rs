//! One streaming multiprocessor: warp pool, issue logic, PDOM branching,
//! the spawn datapath, and per-SM resource accounting.

use crate::config::{GpuConfig, SpawnPolicy};
use crate::fault::{Fault, FaultKind, InjectedFault, Injector, SmSnapshot, WarpSnapshot};
use crate::ready::ReadySet;
use crate::stats::SimStats;
use crate::telemetry::{SmTelemetry, TelemetrySpec};
use crate::thread::LaneState;
use crate::warp::Warp;
use dmk_core::{CompletedWarp, SpawnError, SpawnMemoryLayout, WarpFormation};
use simt_isa::codec::{Codec, CodecError, Decoder, Encoder};
use simt_isa::{Instr, Program, ReconvergenceTable, Space, Width};
use simt_mem::{
    BatchRequest, FabricRequest, MemFault, MemoryFabric, OnChipMemory, SmMemFrontend, TrafficStats,
};
use std::collections::{BTreeMap, HashMap};

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

/// The operands of one warp memory instruction, as decoded: everything
/// about the access except its width, which selects the instantiation of
/// the lane loops that take this.
struct MemAccess {
    /// The issuing warp's slot.
    widx: usize,
    /// Lanes that passed the guard.
    pass: u64,
    space: Space,
    /// First data register (destination of a load, source of a store).
    reg: simt_isa::Reg,
    addr_reg: simt_isa::Reg,
    /// The instruction's signed byte offset, as the wrapping addend.
    offset: u32,
    is_store: bool,
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
    spawn_mem: Option<OnChipMemory>,
    formation: Option<WarpFormation>,
    threads_used: u32,
    regs_used: u32,
    /// Live warps per resident block (block scheduling).
    blocks: HashMap<usize, u32>,
    /// Free spawn-memory state records (dmk only).
    free_state_slots: Vec<u32>,
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
    /// Scratch partitions of a texture access (cached / uncached lanes).
    tex_cached: Vec<u32>,
    tex_uncached: Vec<u32>,
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
        let (spawn_mem, formation, free_state_slots) = match &cfg.dmk {
            Some(d) => {
                let layout = SpawnMemoryLayout::new(d);
                let mem = OnChipMemory::new(layout.total_bytes(), cfg.mem.shared_banks);
                let slots = (0..d.threads_per_sm)
                    .rev()
                    .map(|i| layout.launch_state_addr(i))
                    .collect();
                (Some(mem), Some(WarpFormation::new(d)), slots)
            }
            None => (None, None, Vec::new()),
        };
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
            shared: OnChipMemory::new(cfg.shared_mem_per_sm, cfg.mem.shared_banks),
            spawn_mem,
            formation,
            threads_used: 0,
            regs_used: 0,
            blocks: HashMap::new(),
            free_state_slots,
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
            tex_cached: Vec::new(),
            tex_uncached: Vec::new(),
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
        self.formation.as_ref()
    }

    /// Whether a warp of `threads` lanes fits the SM right now.
    pub fn fits_warp(&self, threads: u32, regs_per_thread: u32, needs_state_slots: bool) -> bool {
        if self.threads_used + threads > self.max_threads {
            return false;
        }
        if self.regs_used + threads * regs_per_thread > self.max_regs {
            return false;
        }
        if needs_state_slots
            && self.formation.is_some()
            && (self.free_state_slots.len() as u32) < threads
        {
            return false;
        }
        true
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
    // Expects are backed by the fits_warp assertion at function entry.
    #[allow(clippy::expect_used)]
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
        if self.formation.is_some() {
            for lane in 0..count as usize {
                let slot = self
                    .free_state_slots
                    .pop()
                    .expect("state slots checked in fits_warp");
                // Launch threads address their state record directly
                // (paper §IV-A1).
                lanes.set_spawn_mem_addr(lane, slot);
                lanes.set_state_slot(lane, slot);
            }
        }
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

    /// Admits a dynamically created warp popped from the new-warp FIFO.
    ///
    /// Reads each lane's state pointer from the formation block (hardware:
    /// computed from the LUT address minus the lane id, §IV-D) and sets
    /// `%spawnmem` to the lane's formation-slot address (Fig. 6).
    ///
    /// # Panics
    ///
    /// Panics if resources were not checked first or DMK is disabled.
    // Expects are backed by the fits_warp assertion and the DMK-only call sites.
    #[allow(clippy::expect_used)]
    pub(crate) fn admit_dynamic_warp(
        &mut self,
        cw: CompletedWarp,
        next_tid: &mut u32,
        now: u64,
        ctx: &ExecCtx<'_>,
    ) {
        assert!(self.fits_warp(cw.count, ctx.regs_per_thread, false));
        let spawn_mem = self.spawn_mem.as_ref().expect("dmk enabled");
        let mut lanes = LaneState::admit(self.warp_size, ctx.regs_per_thread, *next_tid, cw.count);
        *next_tid += cw.count;
        for lane in 0..cw.count {
            let slot_addr = cw.base_addr + 4 * lane;
            lanes.set_spawn_mem_addr(lane as usize, slot_addr);
            lanes.set_state_slot(lane as usize, spawn_mem.read(slot_addr));
        }
        // Optionally charge the admission stage's state-pointer read-back
        // like any other spawn-space access (one word per admitted lane,
        // occupying the load-store port). Gated on its own knob — never on
        // the cache configuration — so cache ablations compare caches only
        // and the default machines keep the legacy free admission.
        if self.frontend.config().spawn_admission_reads {
            let slots: Vec<u32> = (0..cw.count).map(|l| cw.base_addr + 4 * l).collect();
            self.frontend
                .access_onchip(now, Space::Spawn, false, 4, &slots);
            if let Some(f) = self.formation.as_mut() {
                f.note_admission_reads(cw.count);
            }
        }
        let n = cw.count;
        let wid = self.next_warp_id;
        let mut w = Warp::from_lanes(wid, cw.pc, lanes);
        self.next_warp_id += 1;
        w.is_dynamic = true;
        w.formation_block = Some(cw.base_addr);
        self.threads_used += n;
        self.regs_used += n * ctx.regs_per_thread;
        self.telemetry.on_warp_birth(now, wid, true, n);
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
                if let Some(base) = self.warps[i].formation_block.take() {
                    if let Some(f) = self.formation.as_mut() {
                        f.release_block(base);
                    }
                }
                if let Some(base) = self.warps[i].elision_block.take() {
                    if let Some(f) = self.formation.as_mut() {
                        f.release_block(base);
                    }
                }
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

    /// Drains ready dynamic warps from the FIFO into the warp pool, with
    /// priority over launch work (paper §IV-D). Returns warps admitted.
    pub(crate) fn drain_dynamic(
        &mut self,
        next_tid: &mut u32,
        now: u64,
        ctx: &ExecCtx<'_>,
    ) -> usize {
        let mut admitted = 0;
        while let Some(cw) = self
            .formation
            .as_ref()
            .and_then(|f| f.peek_ready().copied())
        {
            if !self.fits_warp(cw.count, ctx.regs_per_thread, false) {
                break;
            }
            if let Some(f) = self.formation.as_mut() {
                f.pop_ready();
            }
            self.admit_dynamic_warp(cw, next_tid, now, ctx);
            admitted += 1;
        }
        admitted
    }

    /// Forces partial warps out of the formation pool when nothing else is
    /// schedulable (paper §IV-D). Returns warps admitted.
    pub(crate) fn force_out_partials(
        &mut self,
        next_tid: &mut u32,
        now: u64,
        ctx: &ExecCtx<'_>,
    ) -> usize {
        let mut admitted = 0;
        loop {
            // Peek the candidate size via the LUT before committing.
            let count = self.formation.as_ref().map_or(0, |f| {
                if f.partial_threads() == 0 {
                    0
                } else {
                    f.lut().partial_lines().first().map_or(0, |l| l.count)
                }
            });
            if count == 0 || !self.fits_warp(count, ctx.regs_per_thread, false) {
                break;
            }
            let Some(cw) = self
                .formation
                .as_mut()
                .and_then(WarpFormation::force_out_partial)
            else {
                break;
            };
            self.admit_dynamic_warp(cw, next_tid, now, ctx);
            admitted += 1;
        }
        admitted
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
        let mut bits = mask;
        while bits != 0 {
            let lane = bits.trailing_zeros() as usize;
            bits &= bits - 1;
            // A lane that already spawned a child has handed its state
            // record to that lineage; only childless lanes give the
            // slot back here.
            if !self.warps[widx].lanes.spawned_child(lane) {
                if let Some(s) = self.warps[widx].lanes.take_state_slot(lane) {
                    self.free_state_slots.push(s);
                }
            }
        }
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
        let free_state_slots = self.free_state_slots.len();
        let fifo_depth = self.formation.as_ref().map_or(0, |f| f.fifo_len());
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

        // A stalled spawn consumes the issue slot without committing.
        if let Instr::Spawn { target, ptr } = instr.op {
            // Dispatch-dirty marking: a spawn changes what dispatch sees
            // only when it *completes* a warp into the formation FIFO
            // (marked below on `warps_completed > 0`). Partial-line growth
            // matters to dispatch only via force-out, which requires every
            // live warp to have exited first — and lane exits mark dirty
            // themselves. Elision and stall outcomes touch no
            // dispatch-visible state at all.
            // §IX optimization: when every live lane of the warp executes
            // this same spawn, branch the warp to the μ-kernel in place
            // instead of creating threads. Each lane's state pointer is
            // still published through a (resident) spawn-memory scratch
            // block so the μ-kernel's restore sequence works unchanged.
            if self.spawn_policy == SpawnPolicy::OnDivergence {
                let live: u64 = self.warps[widx].lanes.live_mask();
                if pass == live && pass != 0 {
                    if self.warps[widx].elision_block.is_none() {
                        self.warps[widx].elision_block =
                            self.formation.as_mut().and_then(|f| f.try_alloc_block());
                    }
                    if let Some(block) = self.warps[widx].elision_block {
                        let spawn_mem = self.spawn_mem.as_mut().expect("dmk enabled");
                        let mut slots = std::mem::take(&mut self.addr_scratch);
                        slots.clear();
                        let mut idx = 0u32;
                        let mut bits = pass;
                        while bits != 0 {
                            let lane = bits.trailing_zeros() as usize;
                            bits &= bits - 1;
                            let slot = block + 4 * idx;
                            idx += 1;
                            let w = &mut self.warps[widx];
                            spawn_mem.write(slot, w.lanes.reg(lane, ptr));
                            w.lanes.set_spawn_mem_addr(lane, slot);
                            slots.push(slot);
                        }
                        let (_, degree) =
                            self.frontend
                                .access_onchip(now, Space::Spawn, true, 4, &slots);
                        self.addr_scratch = slots;
                        self.block_issue_for_replays(now, degree);
                        self.stats.spawn_elisions += 1;
                        let wid = self.warps[widx].id;
                        self.telemetry.on_spawn_elided(now, wid);
                        self.commit(widx, pc, mask, now, now + 1);
                        self.warps[widx].set_pc(target);
                        return Ok(());
                    }
                    // No scratch block available: fall through to a real
                    // spawn, which applies its own back-pressure.
                }
            }
            let n_active = pass.count_ones();
            // Injected back-pressure: the FIFO or formation area reports
            // full even though it is not, exercising the stall-and-retry
            // recovery path.
            let injected_stall = injector.is_some_and(|i| {
                i.fires(InjectedFault::SpawnFifoFull, now)
                    || i.fires(InjectedFault::FormationFull, now)
            });
            let outcome = if injected_stall {
                self.stats.injected_events += 1;
                Err(SpawnError::FifoFull)
            } else {
                match self.formation.as_mut() {
                    Some(f) => f.spawn(target, n_active),
                    None => return Err(self.fault(FaultKind::SpawnUnsupported, widx, pc, now)),
                }
            };
            match outcome {
                Ok(out) => {
                    if out.warps_completed > 0 {
                        // New FIFO entries: dispatch must get a chance to
                        // admit them (with priority over launch work).
                        self.dispatch_dirty = true;
                    }
                    // Store each spawning lane's state pointer into its
                    // formation slot (the §IV-C memory transaction).
                    let spawn_mem = self.spawn_mem.as_mut().expect("dmk enabled");
                    let mut slot_iter = out.thread_slots.iter();
                    let mut bits = pass;
                    while bits != 0 {
                        let lane = bits.trailing_zeros() as usize;
                        bits &= bits - 1;
                        let slot = *slot_iter.next().expect("one slot per spawning lane");
                        let w = &mut self.warps[widx];
                        spawn_mem.write(slot, w.lanes.reg(lane, ptr));
                        w.lanes.set_spawned_child(lane);
                    }
                    self.stats.threads_spawned += u64::from(n_active);
                    self.progress += u64::from(n_active);
                    let wid = self.warps[widx].id;
                    self.telemetry.on_spawn(now, wid, target, n_active);
                    // The metadata write is a store: charged, not waited on.
                    let (_, degree) =
                        self.frontend
                            .access_onchip(now, Space::Spawn, true, 4, &out.thread_slots);
                    self.block_issue_for_replays(now, degree);
                    self.commit(widx, pc, mask, now, now + 1);
                    self.warps[widx].set_pc(pc + 1);
                }
                Err(SpawnError::LutFull) => {
                    // Permanent: no LUT line will ever free up for this
                    // target while the program keeps all lines occupied.
                    let capacity = self.formation.as_ref().map_or(0, |f| f.lut().capacity());
                    return Err(self.fault(
                        FaultKind::LutExhausted {
                            target_pc: target,
                            capacity,
                        },
                        widx,
                        pc,
                        now,
                    ));
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
            return Ok(());
        }

        match instr.op {
            Instr::Alu { op, d, a, b, c } => {
                let mut latency = 1;
                if matches!(
                    op,
                    simt_isa::AluOp::FDiv
                        | simt_isa::AluOp::FSqrt
                        | simt_isa::AluOp::FRcp
                        | simt_isa::AluOp::IDiv
                        | simt_isa::AluOp::IRem
                ) {
                    latency = self.long_op_latency;
                }
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
            Instr::Spawn { .. } => unreachable!("handled above"),
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
        let mut bits = lanes & self.warps[widx].lanes.populated_mask();
        while bits != 0 {
            let lane = bits.trailing_zeros() as usize;
            bits &= bits - 1;
            self.stats.threads_retired += 1;
            self.progress += 1;
            let w = &mut self.warps[widx];
            if !w.lanes.spawned_child(lane) {
                self.stats.lineages_completed += 1;
                if let Some(slot) = w.lanes.take_state_slot(lane) {
                    self.free_state_slots.push(slot);
                }
            }
        }
        self.warps[widx].exit_lanes(lanes);
    }

    /// Executes one warp memory instruction: every access completes at
    /// issue. On-chip accesses (shared/spawn) transfer against the SM's
    /// own scratchpads; off-chip ones against `mem`, with their fabric
    /// requests queued on the cycle's timing `batch`. The returned
    /// data-ready cycle is a floor that the batch may raise.
    ///
    /// On a fault, the words already validated keep their effects
    /// (imprecise trap) and nothing is timed.
    fn exec_memory(
        &mut self,
        a: &MemAccess,
        width: Width,
        now: u64,
        mem: &mut MemoryFabric,
        batch: &mut Vec<BatchRequest>,
    ) -> Result<u64, MemFault> {
        let mut addresses = std::mem::take(&mut self.addr_scratch);
        addresses.clear();
        addresses.reserve(a.pass.count_ones() as usize);
        let ready = if a.space.is_on_chip() {
            self.exec_onchip(a, width, now, &mut addresses)
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
            _ => self.spawn_mem.as_mut(),
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
            if let Some(base) = self.warps[a.widx].formation_block.take() {
                if let Some(f) = self.formation.as_mut() {
                    f.release_block(base);
                    self.dispatch_dirty = true;
                }
            }
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
    /// the fabric requests join the cycle's timing `batch`, and a load
    /// that queued one leaves its warp's wake-up for the batch to raise.
    fn exec_offchip(
        &mut self,
        a: &MemAccess,
        width: Width,
        now: u64,
        mem: &mut MemoryFabric,
        batch: &mut Vec<BatchRequest>,
        addresses: &mut Vec<u32>,
    ) -> Result<u64, MemFault> {
        let (widx, space, is_store) = (a.widx, a.space, a.is_store);
        match width {
            Width::W1 => self.offchip_lanes::<1>(a, mem, addresses),
            Width::V4 => self.offchip_lanes::<4>(a, mem, addresses),
        }?;
        let warp_id = self.warps[widx].id;
        let queued = batch.len();
        let global_load = !is_store && space == Space::Global;
        let (ready, fill_lines) = if global_load && !mem.config().ideal && self.frontend.has_tex() {
            // Texture-bound global loads go through the per-SM read-only
            // cache; the rest of the warp's lanes take the plain
            // global-load route below. Find the first lane's region and
            // range-check the others against it, and split lane by lane
            // only when that fails. Counted: 97 % of the fig-7 and fig-3
            // kernels' `ld.global` warps (80 % of the BVH tracer's) read
            // one binding and take the first arm, the rest read none, and
            // no warp mixes the two; timed alone against the lane-by-lane
            // split it is 1.0-1.9 % of those workloads' wall-clock
            // (DESIGN §16).
            let mut cached = std::mem::take(&mut self.tex_cached);
            let mut uncached = std::mem::take(&mut self.tex_uncached);
            cached.clear();
            uncached.clear();
            let one_region = addresses
                .first()
                .and_then(|&first| mem.read_only_region(first))
                .is_some_and(|(base, end)| addresses.iter().all(|&a| a >= base && a < end));
            let (cached_addrs, uncached_addrs): (&[u32], &[u32]) = if one_region {
                (addresses, &[])
            } else {
                for &a in addresses.iter() {
                    if mem.is_read_only(a) {
                        cached.push(a);
                    } else {
                        uncached.push(a);
                    }
                }
                (&cached, &uncached)
            };
            let miss_lines = self.frontend.tex_probe(cached_addrs, width.bytes());
            let mut ready = now + u64::from(mem.config().tex_hit_latency);
            if !miss_lines.is_empty() {
                // Texture fills skip the L1 (separate tag array on the
                // real chip); they still cross the fabric.
                let line = mem.config().tex_line_bytes;
                let (floor, req) =
                    self.frontend
                        .request_offchip(now, Space::Global, false, line, &miss_lines);
                ready = ready.max(floor);
                self.queue(batch, req);
            }
            let fill_lines = if uncached_addrs.is_empty() {
                Vec::new()
            } else {
                let (floor, fills) =
                    self.global_load_request(now, warp_id, width.bytes(), uncached_addrs, batch);
                ready = ready.max(floor);
                fills
            };
            if self.telemetry.is_on() && !cached_addrs.is_empty() {
                self.telemetry.on_tex(
                    now,
                    warp_id,
                    cached_addrs.len() as u32,
                    miss_lines.len() as u32,
                );
            }
            self.tex_cached = cached;
            self.tex_uncached = uncached;
            (ready, fill_lines)
        } else if global_load {
            self.global_load_request(now, warp_id, width.bytes(), addresses, batch)
        } else {
            // Stores write through without allocating, and local
            // bypasses the L1 (one tag array cannot alias local-physical
            // and global addresses).
            let (ready, req) =
                self.frontend
                    .request_offchip(now, space, is_store, width.bytes(), addresses);
            self.queue(batch, req);
            (ready, Vec::new())
        };
        let requests = &batch[queued..];
        if requests.is_empty() {
            // Ideal memory: nothing to service, so the lines the L1
            // allocated are filled by the next cycle.
            if !fill_lines.is_empty() {
                self.frontend.mshr_set_fill(&fill_lines, now + 1);
            }
            return Ok(ready);
        }
        if self.telemetry.is_on() {
            let segments = requests
                .iter()
                .map(|b| b.request.segments.len() as u32)
                .sum();
            self.telemetry
                .on_offchip(now, warp_id, addresses.len() as u32, segments);
        }
        if !is_store {
            self.timed = Some(TimedAccess {
                slot: widx,
                warp_id,
                fill_lines,
            });
        }
        Ok(ready)
    }

    /// Queues `req`, if the access produced one, on the cycle's batch.
    fn queue(&self, batch: &mut Vec<BatchRequest>, req: Option<FabricRequest>) {
        batch.extend(req.map(|request| BatchRequest {
            sm: self.id,
            access: 0,
            request,
        }));
    }

    /// Routes the addresses of a global load that the read-only cache does
    /// not serve: through the L1 when one is modelled, else straight to
    /// the coalescer. Queues the fabric request (if any) on `batch` and
    /// returns the at-issue completion floor — raised to the fill times of
    /// the in-flight lines it merged into, all stamped in earlier cycles —
    /// with the access's MSHR fill lines (empty without an L1).
    fn global_load_request(
        &mut self,
        now: u64,
        warp_id: usize,
        width_bytes: u32,
        addresses: &[u32],
        batch: &mut Vec<BatchRequest>,
    ) -> (u64, Vec<u32>) {
        if !self.frontend.has_l1() {
            let (ready, req) =
                self.frontend
                    .request_offchip(now, Space::Global, false, width_bytes, addresses);
            self.queue(batch, req);
            return (ready, Vec::new());
        }
        let (ready, req, fills, merges, probe) =
            self.frontend.l1_request(now, width_bytes, addresses);
        self.queue(batch, req);
        if self.telemetry.is_on() {
            self.telemetry.on_l1(now, warp_id, &probe);
        }
        (ready.max(self.frontend.mshr_wait_floor(&merges)), fills)
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
    /// no access waits on a timing batch (none does, every cycle).
    pub(crate) fn encode_state(&self, enc: &mut Encoder) {
        debug_assert!(self.timed.is_none(), "checkpoint only at the cycle barrier");
        enc.put_usize(self.warps.len());
        for w in &self.warps {
            w.encode_state(enc);
        }
        enc.put_usize(self.next_warp_id);
        enc.put_usize(self.rr);
        self.shared.encode_state(enc);
        enc.put_bool(self.spawn_mem.is_some());
        if let Some(m) = &self.spawn_mem {
            m.encode_state(enc);
        }
        enc.put_bool(self.formation.is_some());
        if let Some(f) = &self.formation {
            f.encode_state(enc);
        }
        enc.put_u32(self.threads_used);
        enc.put_u32(self.regs_used);
        let blocks: BTreeMap<usize, u32> = self.blocks.iter().map(|(&b, &n)| (b, n)).collect();
        blocks.encode(enc);
        self.free_state_slots.encode(enc);
        self.frontend.encode_state(enc);
        enc.put_u64(self.issue_blocked_until);
        self.stats.encode_state(enc);
        self.telemetry.encode_state(enc);
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
        let has_spawn_mem = dec.take_bool()?;
        if has_spawn_mem != self.spawn_mem.is_some() {
            return Err(CodecError::BadTag {
                what: "spawn memory presence",
                tag: has_spawn_mem as u64,
            });
        }
        if let Some(m) = self.spawn_mem.as_mut() {
            m.restore_state(dec)?;
        }
        let has_formation = dec.take_bool()?;
        if has_formation != self.formation.is_some() {
            return Err(CodecError::BadTag {
                what: "formation unit presence",
                tag: has_formation as u64,
            });
        }
        if let Some(f) = self.formation.as_mut() {
            f.restore_state(dec)?;
        }
        self.threads_used = dec.take_u32()?;
        self.regs_used = dec.take_u32()?;
        self.blocks = BTreeMap::<usize, u32>::decode(dec)?.into_iter().collect();
        self.free_state_slots = Vec::decode(dec)?;
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

    /// Test/diagnostic access to spawn memory contents.
    pub fn spawn_mem(&self) -> Option<&OnChipMemory> {
        self.spawn_mem.as_ref()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simt_isa::{assemble_named, Reg};

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
        let restore = |sm: &Sm| {
            let mut enc = Encoder::new();
            sm.encode_state(&mut enc);
            let bytes = enc.into_bytes();
            Sm::new(0, &cfg).restore_state(&mut Decoder::new(&bytes))
        };
        let mut sm = Sm::new(0, &cfg);
        sm.set_telemetry(&metrics, cfg.divergence_window);
        sm.next_warp_id = 2;
        sm.telemetry.on_warp_birth(0, 1, false, 4);
        assert!(restore(&sm).is_ok(), "warp 1 of 2 has a depth");
        sm.telemetry.on_warp_birth(0, 2, false, 4);
        assert!(matches!(
            restore(&sm),
            Err(CodecError::BadTag { tag: 2, .. })
        ));
        sm.set_telemetry(&metrics, 0);
        assert!(matches!(
            restore(&sm),
            Err(CodecError::BadTag { tag: 0, .. })
        ));
    }
}
