//! The whole chip: SM array, launch dispatcher, and the cycle loop.
//!
//! Each simulated cycle walks the awake SMs once, in SM-id order, then
//! times what they sent off chip:
//!
//! * **The step.** Each SM issues at most one warp-instruction, and a
//!   memory instruction completes as it issues: its words move between
//!   the registers and the shared [`MemoryFabric`], and its coalesced
//!   requests join the cycle's timing batch. Because the SMs step one
//!   after another, SM *i* sees the same-cycle stores of every SM before
//!   it and of none after it — the machine's memory order. The step ends
//!   with the SM's own bookkeeping: finished warps reaped, progress
//!   counted, dispatch told whether its state changed.
//! * **The timing batch** ([`MemoryFabric::service_batch`]). Once every SM
//!   has issued, the fabric services the cycle's requests in one ordered
//!   batch — the interconnect's per-bank round robin needs the whole
//!   cycle — and each SM that queued one stamps its MSHR fills and raises
//!   its waiting warp's wake-up (see DESIGN.md §8).
//!
//! An aborting trap still completes its cycle for every SM; `run` then
//! returns the first fault in SM order.
//!
//! The loop is **event-driven**, one SM at a time: an SM that finds
//! nothing to issue sleeps until its earliest warp wake-up, leaving the
//! set of awake SMs that the cycle walks until that cycle arrives or
//! dispatch admits a warp into it; the idle cycles it slept through are
//! recorded in bulk when it wakes — byte-identical to ticking through
//! them (see DESIGN.md §13). With no SM awake, `now` jumps straight to
//! `min(earliest wake, cycle limit, watchdog deadline)`.
//! [`GpuBuilder::force_tick`] disables sleeping for differential testing.

use crate::awake::{Awake, SmSet};
use crate::checkpoint::{self, RestoreError, Snapshot};
use crate::config::{GpuConfig, SchedulingModel};
use crate::fault::{
    DeadlockDiagnostics, Fault, FaultPolicy, InjectedFault, Injector, LaunchError, SimError,
};
use crate::sm::{ExecCtx, Sm};
use crate::stats::SimStats;
use crate::telemetry::{TelemetryReport, TelemetrySpec};
use crate::windowed::Windowed;
use dmk_core::DmkStats;
use simt_isa::codec::{Codec, Decoder, Encoder};
use simt_isa::{EncodeError, Program, ReconvergenceTable};
use simt_mem::{BatchRequest, MemoryFabric, TrafficStats};
use std::collections::VecDeque;

/// A kernel launch request.
#[derive(Debug, Clone)]
pub struct Launch {
    /// The program to run (contains the launch kernel and any μ-kernels).
    pub program: Program,
    /// Name of the launch entry point (a `.kernel`).
    pub entry: String,
    /// Number of launch-time threads.
    pub num_threads: u32,
    /// Threads per block (must be a multiple of the warp size).
    pub threads_per_block: u32,
}

/// Why a run stopped.
///
/// Marked `#[non_exhaustive]`: future hardware models may stop for new
/// reasons, so downstream matches need a wildcard arm.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum RunOutcome {
    /// Every thread retired and no spawned work remains.
    Completed,
    /// The cycle budget was exhausted first (the paper simulates only the
    /// first 300k cycles).
    CycleLimit,
    /// The watchdog fired: work remained but nothing made forward progress
    /// for [`GpuConfig::watchdog_cycles`] consecutive cycles.
    Deadlock {
        /// Per-SM warp states at the moment the watchdog fired.
        diagnostics: DeadlockDiagnostics,
    },
}

/// Result of a run.
#[derive(Debug, Clone)]
pub struct RunSummary {
    /// Why the run stopped.
    pub outcome: RunOutcome,
    /// Aggregate simulation statistics.
    pub stats: SimStats,
    /// Memory traffic by address space.
    pub traffic: TrafficStats,
    /// Aggregated dynamic μ-kernel statistics (zeroed when disabled).
    pub dmk: DmkStats,
    /// Every warp trap recorded so far (cumulative across sequential
    /// launches; empty on a fault-free run).
    pub faults: Vec<Fault>,
}

simt_isa::record! {
    /// A launch block no SM has taken yet: the threads `next_tid..end_tid`.
    #[derive(Debug)]
    pub(crate) struct PendingBlock {
        id: usize,
        next_tid: u32,
        end_tid: u32,
    }
}

#[derive(Debug)]
struct ActiveLaunch {
    program: Program,
    rtab: ReconvergenceTable,
    entry_pc: usize,
    regs_per_thread: u32,
    ntid: u32,
    blocks: VecDeque<PendingBlock>,
    /// Next id handed to a dynamically created thread.
    next_dynamic_tid: u32,
}

/// The simulated GPU.
#[derive(Debug)]
pub struct Gpu {
    cfg: GpuConfig,
    mem: MemoryFabric,
    sms: Vec<Sm>,
    launch: Option<ActiveLaunch>,
    stats: SimStats,
    now: u64,
    rr_sm: usize,
    injector: Option<Injector>,
    faults: Vec<Fault>,
    /// Debug knob: step every SM every cycle even when it could sleep.
    force_tick: bool,
    /// Cycles the loop jumped over because no SM was awake (diagnostic;
    /// not part of [`SimStats`], not serialized).
    skipped_cycles: u64,
    /// Number of such jumps taken (diagnostic).
    skip_events: u64,
    /// The cycle's timing batch: the SMs queue their fabric requests here
    /// as they issue (always empty between cycles; not serialized).
    batch_buf: Vec<BatchRequest>,
    /// Requests the timing batch has serviced since this machine was
    /// built or restored, which debug builds hold equal to the requests
    /// the SMs' frontends emitted (not serialized).
    requests_serviced: u64,
    /// The SMs each cycle steps, and when the others wake
    /// (loop state, rebuilt every run; not serialized).
    awake: Awake,
    /// The SMs dispatch visits this cycle: dispatch-visible state changed
    /// since their last call, or the block queue moved since (loop state,
    /// refilled every run; not serialized).
    to_dispatch: SmSet,
}

/// Fluent constructor for [`Gpu`]: configuration, fault policy, fault
/// injection, and telemetry in one facade, so every caller —
/// experiments, benches, examples, tests — builds the machine the same
/// way.
///
/// ```
/// use simt_sim::{Gpu, GpuConfig, TelemetrySpec};
///
/// let gpu = Gpu::builder(GpuConfig::tiny())
///     .telemetry(TelemetrySpec::metrics())
///     .build();
/// assert!(gpu.telemetry_enabled());
/// ```
#[derive(Debug)]
pub struct GpuBuilder {
    cfg: GpuConfig,
    injector: Option<Injector>,
    telemetry: TelemetrySpec,
    force_tick: bool,
}

impl GpuBuilder {
    /// Accepted and ignored: SMs are stepped on the calling thread, one
    /// after another. The method remains only because the benchmark under
    /// `ledger/` calls it, and leaves with that call.
    ///
    /// ```
    /// use simt_sim::{Gpu, GpuConfig};
    ///
    /// let through = Gpu::builder(GpuConfig::tiny()).parallelism(4).build();
    /// let without = Gpu::builder(GpuConfig::tiny()).build();
    /// assert_eq!(through.checkpoint().unwrap(), without.checkpoint().unwrap());
    /// ```
    pub fn parallelism(self, _n: usize) -> Self {
        self
    }

    /// Installs a deterministic fault injector (testing hook).
    pub fn injector(mut self, injector: Injector) -> Self {
        self.injector = Some(injector);
        self
    }

    /// Telemetry configuration (off by default; see
    /// [`TelemetrySpec`]).
    pub fn telemetry(mut self, spec: TelemetrySpec) -> Self {
        self.telemetry = spec;
        self
    }

    /// Debug knob: force the cycle loop to step every SM every cycle
    /// instead of letting idle SMs sleep (and jumping over cycles in which
    /// none is awake). Results are byte-identical either way (that
    /// equivalence is what the differential tests assert); forcing ticks
    /// only costs wall-clock time.
    pub fn force_tick(mut self, on: bool) -> Self {
        self.force_tick = on;
        self
    }

    /// Builds the machine.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is inconsistent (see
    /// [`GpuConfig::validate`]).
    pub fn build(self) -> Gpu {
        let mut gpu = Gpu::from_config(self.cfg);
        gpu.injector = self.injector;
        gpu.force_tick = self.force_tick;
        if self.telemetry.metrics {
            for sm in &mut gpu.sms {
                sm.set_telemetry(&self.telemetry, gpu.cfg.divergence_window);
            }
        }
        gpu
    }
}

impl Gpu {
    /// Starts building a GPU for `cfg` — the one construction path. See
    /// [`GpuBuilder`].
    pub fn builder(cfg: GpuConfig) -> GpuBuilder {
        GpuBuilder {
            cfg,
            injector: None,
            telemetry: TelemetrySpec::off(),
            force_tick: false,
        }
    }

    fn from_config(cfg: GpuConfig) -> Self {
        if let Err(why) = cfg.validate() {
            panic!("{why}");
        }
        let sms = (0..cfg.num_sms).map(|i| Sm::new(i, &cfg)).collect();
        let stats = SimStats::new(cfg.divergence_window, cfg.warp_size);
        let mem = MemoryFabric::new(cfg.mem.clone());
        Gpu {
            cfg,
            mem,
            sms,
            launch: None,
            stats,
            now: 0,
            rr_sm: 0,
            injector: None,
            faults: Vec::new(),
            force_tick: false,
            skipped_cycles: 0,
            skip_events: 0,
            batch_buf: Vec::new(),
            requests_serviced: 0,
            awake: Awake::default(),
            to_dispatch: SmSet::default(),
        }
    }

    /// Installs a deterministic fault injector (testing hook). Replaces
    /// any previously installed injector.
    pub fn set_injector(&mut self, injector: Injector) {
        self.injector = Some(injector);
    }

    /// Whether telemetry is recording.
    pub fn telemetry_enabled(&self) -> bool {
        self.sms.first().is_some_and(|sm| sm.telemetry().is_on())
    }

    /// Merges every SM's telemetry shard — in SM-id order, like the
    /// statistics shards — into one [`TelemetryReport`], and attaches the
    /// machine's divergence timeline (statistics shards are merged
    /// whenever [`Gpu::run`] returns, so it is complete) and the fabric's
    /// per-DRAM-module busy time. Unlike stats, telemetry stays resident:
    /// the report is cumulative over the machine's lifetime and taking it
    /// does not reset anything.
    pub fn telemetry_report(&self) -> TelemetryReport {
        let width = (self.sms.first()).map_or(self.cfg.divergence_window, |sm| {
            sm.telemetry().windows().width()
        });
        let mut report = TelemetryReport {
            divergence: self.stats.divergence.clone(),
            windows: Windowed::new(width),
            events: Vec::new(),
            dropped: 0,
            module_busy: self.mem.module_busy().to_vec(),
            l2: self.mem.l2_stats(),
            icnt_busy: self.mem.icnt_busy().to_vec(),
            icnt_conflicts: self.mem.icnt_conflicts(),
        };
        for sm in &self.sms {
            sm.telemetry().merge_into(&mut report);
        }
        report
    }

    /// Aggregate L1 `(hits, misses, mshr_merges, mshr_stalls)` summed
    /// over the SMs, if the machine models an L1.
    pub fn l1_stats(&self) -> Option<(u64, u64, u64, u64)> {
        self.sms
            .iter()
            .filter_map(Sm::l1_stats)
            .reduce(|(h, m, mg, st), (h2, m2, mg2, st2)| (h + h2, m + m2, mg + mg2, st + st2))
    }

    /// Every warp trap recorded so far.
    pub fn faults(&self) -> &[Fault] {
        &self.faults
    }

    /// The machine configuration.
    pub fn config(&self) -> &GpuConfig {
        &self.cfg
    }

    /// Host access to device memory (scene upload, result readback).
    pub fn mem_mut(&mut self) -> &mut MemoryFabric {
        &mut self.mem
    }

    /// Read-only access to device memory.
    pub fn mem(&self) -> &MemoryFabric {
        &self.mem
    }

    /// The SM array (diagnostics).
    pub fn sms(&self) -> &[Sm] {
        &self.sms
    }

    /// Statistics accumulated so far.
    pub fn stats(&self) -> &SimStats {
        &self.stats
    }

    /// Current simulated cycle.
    pub fn now(&self) -> u64 {
        self.now
    }

    /// Cycles the event-driven loop jumped over because no SM was awake
    /// (cumulative; zero with [`GpuBuilder::force_tick`] or an installed
    /// injector). Diagnostic only — not part of [`SimStats`].
    pub fn skipped_cycles(&self) -> u64 {
        self.skipped_cycles
    }

    /// Number of such jumps the event-driven loop took (diagnostic).
    pub fn skip_events(&self) -> u64 {
        self.skip_events
    }

    /// SM-steps the loop never ran because the SM was asleep, summed over
    /// SMs — jumped-over cycles included (cumulative; zero with
    /// [`GpuBuilder::force_tick`] or an installed injector). Diagnostic
    /// only — not part of [`SimStats`], not serialized.
    pub fn slept_sm_cycles(&self) -> u64 {
        self.sms.iter().map(Sm::slept_cycles).sum()
    }

    /// Captures the complete architectural state of the machine as a
    /// [`Snapshot`]: configuration, device memory (backing stores and DRAM
    /// module timing), every SM (warps, thread contexts, formation unit,
    /// memory frontend, statistics shard), the active launch (program,
    /// pending blocks, dynamic-tid counter), the fault log, and the fault
    /// injector.
    ///
    /// Checkpoints are only possible between [`Gpu::run`] calls — the
    /// inter-cycle barrier where no access waits on a timing batch and no
    /// fabric request is in flight — so a machine restored from the
    /// snapshot and run onward is bit-identical to one that was never
    /// interrupted.
    ///
    /// Telemetry *metrics* (windowed counters, per-warp PDOM depths) are
    /// machine state and are captured; trace rings are not, so traces
    /// restart empty after a resume.
    ///
    /// # Errors
    ///
    /// Returns an [`EncodeError`] if the loaded program contains an
    /// instruction the 96-bit ISA codec cannot represent (more than one
    /// distinct non-zero immediate operand — assembler output never does).
    pub fn checkpoint(&self) -> Result<Snapshot, EncodeError> {
        debug_assert_eq!(self.audit(), Ok(()), "checkpoint of a lawless machine");
        let mut enc = Encoder::new();
        self.cfg.encode(&mut enc);
        self.mem.encode_state(&mut enc);
        for sm in &self.sms {
            sm.encode_state(&mut enc);
        }
        enc.put_bool(self.launch.is_some());
        if let Some(l) = &self.launch {
            checkpoint::put_program(&mut enc, &l.program)?;
            enc.put_usize(l.entry_pc);
            enc.put_u32(l.regs_per_thread);
            enc.put_u32(l.ntid);
            l.blocks.encode(&mut enc);
            enc.put_u32(l.next_dynamic_tid);
        }
        self.stats.encode_state(&mut enc);
        enc.put_u64(self.now);
        enc.put_usize(self.rr_sm);
        self.injector.encode(&mut enc);
        self.faults.encode(&mut enc);
        Ok(Snapshot::from_payload(enc.into_bytes()))
    }

    /// Rebuilds a machine from a [`Snapshot`] taken by
    /// [`Gpu::checkpoint`]. The restored machine continues bit-identically
    /// to the one that was checkpointed. Derived state (reconvergence
    /// table, memory geometry) is recomputed, not stored.
    ///
    /// # Errors
    ///
    /// Returns a [`RestoreError`] when the payload is truncated, carries a
    /// tag or length inconsistent with the captured configuration,
    /// describes a program that fails revalidation, or describes a machine
    /// that breaks a law of [`Gpu::audit`]. File-level corruption is caught
    /// earlier, by [`Snapshot::from_bytes`]'s checksum.
    pub fn restore(snapshot: &Snapshot) -> Result<Gpu, RestoreError> {
        let mut dec = Decoder::new(snapshot.payload());
        let cfg = GpuConfig::decode(&mut dec)?;
        cfg.validate()
            .map_err(|why| RestoreError::Invalid(format!("configuration: {why}")))?;
        let mut gpu = Gpu::from_config(cfg);
        gpu.mem.restore_state(&mut dec)?;
        for sm in &mut gpu.sms {
            sm.restore_state(&mut dec)?;
        }
        if dec.take_bool()? {
            let program = checkpoint::take_program(&mut dec)?;
            let rtab = ReconvergenceTable::build(&program);
            let entry_pc = dec.take_usize()?;
            let regs_per_thread = dec.take_u32()?;
            let ntid = dec.take_u32()?;
            let blocks = VecDeque::decode(&mut dec)?;
            let next_dynamic_tid = dec.take_u32()?;
            gpu.launch = Some(ActiveLaunch {
                program,
                rtab,
                entry_pc,
                regs_per_thread,
                ntid,
                blocks,
                next_dynamic_tid,
            });
        }
        gpu.stats.restore_state(&mut dec)?;
        gpu.now = dec.take_u64()?;
        gpu.rr_sm = dec.take_usize()?;
        gpu.injector = Option::decode(&mut dec)?;
        gpu.faults = Vec::decode(&mut dec)?;
        if !dec.is_finished() {
            return Err(RestoreError::Invalid(format!(
                "{} trailing payload bytes",
                dec.remaining()
            )));
        }
        gpu.audit().map(|()| gpu).map_err(RestoreError::Invalid)
    }

    /// Checks the laws the machine keeps between cycles — the one place
    /// they are written — and names the first one broken. Counters are
    /// merged over the SMs' shards and summed in `u128`, which no forged
    /// value overflows. [`Gpu::restore`] ends with it; [`Gpu::checkpoint`]
    /// and every return of [`Gpu::run`] assert it in debug builds.
    ///
    /// # Errors
    ///
    /// The broken law.
    pub fn audit(&self) -> Result<(), String> {
        let mut s = self.stats.clone();
        for sm in &self.sms {
            s.merge(sm.stats());
        }
        let u = u128::from;
        let windows = s.divergence.windows().iter();
        let windows: Vec<u128> = windows.map(|c| c.iter().copied().map(u).sum()).collect();
        let recorded: u128 = windows.iter().sum();
        let fullest = windows.iter().copied().max().unwrap_or(0);
        let (now, w) = (u(self.now), u(s.divergence.window()));
        let sms = u(self.sms.len() as u64);
        let (issued, idle) = (u(s.warp_issues), u(s.idle_sm_cycles));
        let spent = issued + idle + u(s.spawn_stall_cycles) + u(s.faults);
        // An aborting trap leaves the clock on its cycle, which every SM ran.
        let aborted = self.faults.last().is_some_and(|f| f.cycle == self.now);
        let ran = sms * (now + u128::from(aborted));
        let last_window = w * (windows.len().max(1) as u128 - 1);
        let regs = (self.launch.as_ref()).map(|l| l.regs_per_thread);
        let derived = (self.launch.as_ref()).map(|l| l.program.resource_usage().registers.max(1));
        let rpt = regs.unwrap_or(0);
        let held = self.sms.iter().map(|sm| sm.audit(rpt));
        let held: u64 = held.sum::<Result<_, _>>()?;
        let created = u(s.threads_launched) + u(s.threads_spawned);
        let ended = u(s.threads_retired) + u(s.threads_killed) + u(held);
        let mut widths = self.sms.iter().map(|sm| sm.telemetry().windows().width());
        let one_width = widths.next().is_none_or(|w| widths.all(|v| v == w));
        let laws = [
            (u(s.cycles) == now, "stats.cycles == now"),
            (recorded == issued + idle, "timeline == issued + idle"),
            (spent == ran, "SM-cycles == num_sms × cycles"),
            (last_window <= now, "no window starts past the clock"),
            (fullest <= sms * w, "window ≤ num_sms × w"),
            (regs == derived, "registers per thread == the program's"),
            (
                created == ended,
                "threads launched + spawned == retired + killed + live + queued",
            ),
            (one_width, "every SM's metrics window == SM 0's"),
        ];
        match laws.iter().find(|(holds, _)| !holds) {
            Some((_, law)) => Err(format!("{law} at cycle {now}")),
            None => Ok(()),
        }
    }

    /// Registers a kernel launch. Threads are dispatched to SMs over the
    /// following cycles as resources allow.
    ///
    /// Sequential launches are supported (e.g. a primary-ray pass followed
    /// by a shadow-ray pass): a new launch may be registered once the
    /// previous one has fully drained.
    ///
    /// # Errors
    ///
    /// Rejects the launch — without touching machine state — when the
    /// previous launch has not drained, the launch has zero threads, the
    /// block size is not a positive multiple of the warp size, the entry
    /// point does not exist, the program spawns without μ-kernel hardware,
    /// or it spawns more distinct μ-kernels than the LUT has lines.
    pub fn launch(&mut self, launch: Launch) -> Result<(), LaunchError> {
        if self.launch.is_some() {
            if !self.is_done() {
                return Err(LaunchError::LaunchActive);
            }
            self.launch = None;
        }
        if launch.num_threads == 0 {
            return Err(LaunchError::NoThreads);
        }
        if launch.threads_per_block == 0
            || !launch.threads_per_block.is_multiple_of(self.cfg.warp_size)
        {
            return Err(LaunchError::BadBlockSize {
                threads_per_block: launch.threads_per_block,
                warp_size: self.cfg.warp_size,
            });
        }
        let entry_pc = launch
            .program
            .entry(&launch.entry)
            .ok_or_else(|| LaunchError::UnknownEntry {
                entry: launch.entry.clone(),
            })?
            .pc;
        if !launch.program.spawn_sites().is_empty() {
            let Some(dmk) = &self.cfg.dmk else {
                return Err(LaunchError::SpawnHardwareMissing);
            };
            let targets = launch.program.spawn_targets().len();
            let capacity = dmk.num_ukernels as usize;
            if targets > capacity {
                return Err(LaunchError::LutCapacityExceeded { targets, capacity });
            }
        }
        let rtab = ReconvergenceTable::build(&launch.program);
        let res = launch.program.resource_usage();
        self.mem.configure_local(res.local_bytes);
        let mut blocks = VecDeque::new();
        let mut tid = 0u32;
        let mut id = 0usize;
        while tid < launch.num_threads {
            let end = (tid + launch.threads_per_block).min(launch.num_threads);
            blocks.push_back(PendingBlock {
                id,
                next_tid: tid,
                end_tid: end,
            });
            tid = end;
            id += 1;
        }
        self.launch = Some(ActiveLaunch {
            rtab,
            entry_pc,
            regs_per_thread: res.registers.max(1),
            ntid: launch.num_threads,
            blocks,
            next_dynamic_tid: launch.num_threads,
            program: launch.program,
        });
        Ok(())
    }

    /// Returns whether any dispatch-side activity happened (warps
    /// admitted, partials forced out, or an injected event fired) — the
    /// event-driven loop must not skip over a cycle that changed state.
    #[allow(clippy::too_many_arguments)]
    fn dispatch_for_sm(
        sm: &mut Sm,
        launch: &mut ActiveLaunch,
        cfg: &GpuConfig,
        stats: &mut SimStats,
        injector: Option<&Injector>,
        now: u64,
        ctx: &ExecCtx<'_>,
    ) -> bool {
        // 1. Dynamic warps have scheduling priority (§IV-D).
        let mut active = sm.admit_dynamic(false, &mut launch.next_dynamic_tid, now, ctx);

        // Injected state-slot exhaustion: pretend the spawn-memory state
        // records are all taken, starving launch admission this cycle
        // (first-class back-pressure: blocks simply wait).
        if injector.is_some_and(|i| i.fires(InjectedFault::StateSlotsExhausted, now)) {
            stats.injected_events += 1;
            return true;
        }

        // 2. Launch-time work.
        match cfg.scheduling {
            SchedulingModel::Block => {
                while let Some(front) = launch.blocks.front() {
                    let block_threads = front.end_tid - front.next_tid;
                    if !sm.fits_block(block_threads, launch.regs_per_thread) {
                        break;
                    }
                    let Some(mut block) = launch.blocks.pop_front() else {
                        break;
                    };
                    while block.next_tid < block.end_tid {
                        let n = cfg.warp_size.min(block.end_tid - block.next_tid);
                        sm.admit_launch_warp(
                            block.next_tid,
                            n,
                            launch.entry_pc,
                            Some(block.id),
                            now,
                            ctx,
                        );
                        block.next_tid += n;
                        active = true;
                    }
                }
            }
            SchedulingModel::Warp => {
                while let Some(front) = launch.blocks.front_mut() {
                    let n = cfg.warp_size.min(front.end_tid - front.next_tid);
                    if n == 0 {
                        launch.blocks.pop_front();
                        continue;
                    }
                    if !sm.fits_warp(n, launch.regs_per_thread, true) {
                        break;
                    }
                    sm.admit_launch_warp(front.next_tid, n, launch.entry_pc, None, now, ctx);
                    front.next_tid += n;
                    active = true;
                    if front.next_tid == front.end_tid {
                        launch.blocks.pop_front();
                    }
                }
            }
        }

        // 3. End-of-application: force partial warps out when this SM can
        //    never receive more work (§IV-D).
        if launch.blocks.is_empty() && !sm.has_live_warps() {
            active |= sm.admit_dynamic(true, &mut launch.next_dynamic_tid, now, ctx);
        }
        active
    }

    /// Whether all work has drained.
    fn is_done(&mut self) -> bool {
        let Some(launch) = &self.launch else {
            return true;
        };
        if !launch.blocks.is_empty() {
            return false;
        }
        self.sms
            .iter_mut()
            .all(|sm| !sm.has_live_warps() && sm.spawn_drained())
    }

    /// Merges every SM's statistics shard into the base stats and
    /// consolidates the cycle count — the single place `stats.cycles` is
    /// written.
    fn finish_run(&mut self) {
        for sm in &mut self.sms {
            let shard = sm.take_stats(SimStats::new(
                self.cfg.divergence_window,
                self.cfg.warp_size,
            ));
            self.stats.merge(&shard);
        }
        self.stats.cycles = self.now;
    }

    /// Snapshot of every SM for the watchdog's deadlock report.
    fn deadlock_diagnostics(&mut self) -> DeadlockDiagnostics {
        DeadlockDiagnostics {
            cycle: self.now,
            watchdog_cycles: self.cfg.watchdog_cycles,
            pending_blocks: self.launch.as_ref().map_or(0, |l| l.blocks.len()),
            sms: self.sms.iter_mut().map(Sm::snapshot).collect(),
        }
    }

    /// Runs until completion or for at most `max_cycles` cycles.
    ///
    /// A warp trap is handled per [`GpuConfig::fault_policy`]: under
    /// [`FaultPolicy::KillWarp`] the faulting warp is discarded (recorded
    /// in [`SimStats`] and [`RunSummary::faults`]) and the run continues.
    /// If no forward progress is made for [`GpuConfig::watchdog_cycles`]
    /// consecutive cycles while work remains, the run stops with
    /// [`RunOutcome::Deadlock`] carrying per-SM diagnostics.
    ///
    /// # Errors
    ///
    /// Under [`FaultPolicy::Abort`], a warp trap stops the simulation with
    /// [`SimError::Fault`] once the faulting cycle has completed for every
    /// SM; it carries the cycle's first trap in SM order, and every trap
    /// of the cycle is in [`Gpu::faults`]. The clock is left on the
    /// faulting cycle for inspection, and a later `run` refuses to step
    /// it again: it changes nothing and returns the same error.
    pub fn run(&mut self, max_cycles: u64) -> Result<RunSummary, SimError> {
        // Only an abort leaves a recorded trap on the clock: every other
        // cycle that traps is followed by a clock tick.
        if let Some(last) = self.faults.last().filter(|f| f.cycle == self.now) {
            // The aborted run returned the cycle's first trap in SM order.
            let on_clock = self.faults.iter().rev().take_while(|f| f.cycle == self.now);
            let first = on_clock.last().unwrap_or(last);
            return Err(SimError::Fault(first.clone()));
        }
        // Clone the immutable per-launch context out of `self` so `ExecCtx`
        // can borrow it while the cycle loop mutates the rest of the
        // machine (dispatch pops blocks off `self.launch`). A `Program` is
        // a few kilobytes; this happens once per run, not per cycle.
        let per_launch = self
            .launch
            .as_ref()
            .map(|l| (l.program.clone(), l.rtab.clone(), l.regs_per_thread, l.ntid));
        let result = match &per_launch {
            None => Ok(RunOutcome::Completed),
            Some((program, rtab, regs_per_thread, ntid)) => {
                let ctx = ExecCtx {
                    program,
                    rtab,
                    regs_per_thread: *regs_per_thread,
                    ntid: *ntid,
                    // An injector keys events off absolute cycle numbers,
                    // so every SM must step every cycle for
                    // `fires(_, now)` to be observed.
                    sleep: !self.force_tick && self.injector.is_none(),
                };
                let injector = self.injector.clone();
                self.run_cycles(max_cycles, &ctx, injector.as_ref())
            }
        };
        self.finish_run();
        debug_assert_eq!(self.audit(), Ok(()), "a run broke a law");
        let outcome = result?;
        let mut dmk = DmkStats::default();
        let mut traffic = TrafficStats::new();
        for sm in &self.sms {
            if let Some(f) = sm.formation() {
                dmk.merge(f.stats());
            }
            traffic.merge(sm.traffic());
        }
        Ok(RunSummary {
            outcome,
            stats: self.stats.clone(),
            traffic,
            dmk,
            faults: self.faults.clone(),
        })
    }

    /// The cycle's timing batch, the same for every memory configuration:
    /// the fabric services every request the SMs queued as they issued,
    /// and each SM that queued one settles its access with the latest
    /// ready time among its requests — nothing else is visited. The batch
    /// is in SM-id order, so an SM's requests are adjacent.
    fn settle(&mut self, now: u64) {
        let batch = &self.batch_buf;
        let ready = self.mem.service_batch(now, batch);
        debug_assert_eq!(
            ready.len(),
            batch.len(),
            "every queued request gets exactly one ready time"
        );
        let mut k = 0;
        while k < batch.len() {
            let sm = batch[k].sm;
            let mut latest = ready[k];
            k += 1;
            while k < batch.len() && batch[k].sm == sm {
                latest = latest.max(ready[k]);
                k += 1;
            }
            self.sms[sm].settle_access(latest);
        }
        if cfg!(debug_assertions) {
            self.requests_serviced += batch.len() as u64;
            let emitted: u64 = self.sms.iter().map(Sm::requests_emitted).sum();
            debug_assert_eq!(
                self.requests_serviced, emitted,
                "the batch serviced other requests than the frontends emitted"
            );
            debug_assert!(
                self.sms.iter().all(Sm::between_cycles),
                "an SM left the cycle with an access unsettled"
            );
        }
        self.batch_buf.clear();
    }

    /// Runs the cycle loop, then wakes every sleeping SM so the idle spans
    /// they were holding are recorded before anything can read statistics,
    /// telemetry or a checkpoint: sleep state never outlives a `run`.
    fn run_cycles(
        &mut self,
        max_cycles: u64,
        ctx: &ExecCtx<'_>,
        injector: Option<&Injector>,
    ) -> Result<RunOutcome, SimError> {
        let result = self.cycle_loop(max_cycles, ctx, injector);
        // Sleepers idled through every cycle that ran: all of them below
        // `now`, plus — on an abort, which leaves `now` on the faulting
        // cycle — that cycle itself.
        let idled_to = self.now + u64::from(result.is_err());
        for sm in &mut self.sms {
            sm.wake(idled_to);
        }
        result
    }

    /// The cycle loop: dispatch, one walk stepping the awake SMs, fault
    /// recording, the timing batch, watchdog — each touching only the SMs
    /// that need it (see [`crate::awake`]) — and, when none is awake, a
    /// jump straight to the next cycle where anything can happen.
    #[allow(clippy::expect_used)]
    fn cycle_loop(
        &mut self,
        max_cycles: u64,
        ctx: &ExecCtx<'_>,
        injector: Option<&Injector>,
    ) -> Result<RunOutcome, SimError> {
        let start = self.now;
        // The watchdog counts from here; progress made before this run is
        // not this run's.
        let mut last_progress = self.now;
        for sm in &mut self.sms {
            sm.take_progress();
        }
        let n = self.sms.len();
        self.awake.reset(self.sms.iter().map(Sm::wake_at), self.now);
        // The first cycle of every `run_cycles` call dispatches every SM.
        self.to_dispatch.fill(n);
        // All work can only drain in a cycle that dispatched (emptying the
        // block queue or the formation unit) or reaped a warp, so
        // `is_done` is re-evaluated only after such a cycle.
        let mut check_done = true;
        loop {
            let done = check_done && self.is_done();
            if done || self.now - start >= max_cycles {
                return Ok(if done {
                    RunOutcome::Completed
                } else {
                    RunOutcome::CycleLimit
                });
            }
            self.awake.admit_due(self.now);
            self.awake.check(&self.sms, self.now);
            // Dispatch is serial, rotated so SM 0 is not structurally
            // favored for launch work.
            let mut dispatched = false;
            {
                let launch = self.launch.as_mut().expect("is_done saw a launch");
                // `dispatch_for_sm` runs to a fixpoint per call and reads
                // only the block queue's front, the SM's own state, and
                // the injector. With no injector, an SM whose own state is
                // clean (`!dispatch_dirty`, collected as it stepped) and which
                // was called since the queue last moved would get a no-op
                // call returning `false` — so only the SMs in
                // `to_dispatch` are called, and a queue move puts every SM
                // back in it. A sleeping SM is clean by construction, so it
                // is called only when the queue moved; a call that admits
                // a warp wakes it.
                if injector.is_some() {
                    self.to_dispatch.fill(n);
                }
                if cfg!(debug_assertions) {
                    for (i, sm) in self.sms.iter().enumerate() {
                        debug_assert!(
                            !sm.dispatch_dirty() || self.to_dispatch.contains(i),
                            "SM {i} changed unseen by dispatch"
                        );
                    }
                }
                // Rotation order: `rr_sm..n`, then `0..rr_sm`.
                let first = self.rr_sm;
                for (lo, hi) in [(first, n), (0, first)] {
                    let mut at = lo;
                    while let Some(i) = self.to_dispatch.next(at).filter(|&i| i < hi) {
                        let before = (
                            launch.blocks.len(),
                            launch.blocks.front().map(|b| b.next_tid),
                        );
                        let admitted = Self::dispatch_for_sm(
                            &mut self.sms[i],
                            launch,
                            &self.cfg,
                            &mut self.stats,
                            injector,
                            self.now,
                            ctx,
                        );
                        if admitted {
                            dispatched = true;
                            self.sms[i].wake(self.now);
                            self.awake.note(i, 0, self.now);
                        }
                        let after = (
                            launch.blocks.len(),
                            launch.blocks.front().map(|b| b.next_tid),
                        );
                        if after != before {
                            self.to_dispatch.fill(n);
                        }
                        self.sms[i].clear_dispatch_dirty();
                        self.to_dispatch.remove(i);
                        at = i + 1;
                    }
                }
            }
            self.awake.check(&self.sms, self.now);
            // Every awake SM steps, in SM-id order, and ends its step with
            // its own bookkeeping: a warp it killed, or one that exited,
            // is reaped here — never one with an access still to settle.
            // Traps collect in SM-id order.
            let mut faults = Vec::new();
            let (mut issued, mut reaped, mut progress) = (0u64, 0, 0);
            let kill = self.cfg.fault_policy == FaultPolicy::KillWarp;
            let (now, sms, awake) = (self.now, &mut self.sms[..], &mut self.awake);
            let (mem, batch, to_dispatch) =
                (&mut self.mem, &mut self.batch_buf, &mut self.to_dispatch);
            for w in 0..awake.set().words() {
                // An SM that goes to sleep leaves the set behind the walk.
                for i in awake.set().members(w) {
                    let sm = &mut sms[i];
                    match sm.step(now, ctx, mem, batch, injector) {
                        Ok(true) => issued += 1,
                        Ok(false) => {}
                        Err(f) => {
                            if kill {
                                sm.kill_warp(f.warp);
                            }
                            faults.push(f);
                        }
                    }
                    reaped += sm.reap_finished(now, ctx);
                    progress += sm.take_progress();
                    if sm.dispatch_dirty() {
                        to_dispatch.insert(i);
                    }
                    awake.note(i, sm.wake_at(), now);
                }
            }
            self.awake.check(&self.sms, self.now);
            self.settle(self.now);
            let had_faults = !faults.is_empty();
            let abort = faults.first().cloned().filter(|_| !kill);
            for fault in faults {
                self.stats.faults += 1;
                self.faults.push(fault);
            }
            if let Some(fault) = abort {
                return Err(SimError::Fault(fault));
            }
            check_done = dispatched || reaped > 0;
            self.rr_sm = (self.rr_sm + 1) % n.max(1);
            self.now += 1;

            if progress > 0 {
                last_progress = self.now;
            }
            if self.now - last_progress >= self.cfg.watchdog_cycles {
                self.stats.watchdog_deadlocks += 1;
                return Ok(RunOutcome::Deadlock {
                    diagnostics: self.deadlock_diagnostics(),
                });
            }

            // No SM awake. Nothing was dispatched, issued, or faulted, so
            // every SM went (or stayed) to sleep, and until the earliest
            // of them wakes the machine is frozen: dispatch preconditions
            // can only change when a warp retires, and the timing batch is
            // serviced the cycle it fills (the fabric retires requests at
            // service time, so it holds no in-flight state). Jump `now`
            // to the earliest of that wake cycle, the cycle limit, and the
            // watchdog deadline; the sleepers record the span when they
            // wake.
            if ctx.sleep && !dispatched && issued == 0 && !had_faults {
                let target = self
                    .awake
                    .earliest()
                    .min(start + max_cycles)
                    .min(last_progress + self.cfg.watchdog_cycles);
                if target > self.now {
                    let k = target - self.now;
                    self.rr_sm = ((self.rr_sm as u64 + k) % n.max(1) as u64) as usize;
                    self.now = target;
                    self.skipped_cycles += k;
                    self.skip_events += 1;
                    if self.now - last_progress >= self.cfg.watchdog_cycles {
                        self.stats.watchdog_deadlocks += 1;
                        return Ok(RunOutcome::Deadlock {
                            diagnostics: self.deadlock_diagnostics(),
                        });
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dmk_core::DmkConfig;
    use simt_isa::assemble_named;
    use simt_mem::MemConfig;

    fn tiny_dmk() -> DmkConfig {
        DmkConfig {
            warp_size: 4,
            threads_per_sm: 32,
            state_bytes: 16,
            num_ukernels: 4,
            fifo_capacity: 32,
        }
    }

    /// tid*2 written to global[tid*4].
    const DOUBLE_SRC: &str = r#"
        .kernel main
        main:
            mov.u32 r1, %tid
            mul.lo.s32 r2, r1, 2
            mul.lo.s32 r3, r1, 4
            st.global.u32 [r3+0], r2
            exit
    "#;

    fn run_simple(cfg: GpuConfig, threads: u32) -> (Gpu, RunSummary) {
        let program = assemble_named("double", DOUBLE_SRC).unwrap();
        let mut gpu = Gpu::builder(cfg).build();
        gpu.mem_mut().alloc_global(threads * 4, "out");
        gpu.launch(Launch {
            program,
            entry: "main".into(),
            num_threads: threads,
            threads_per_block: 8,
        })
        .expect("launch accepted");
        let summary = gpu.run(1_000_000).expect("fault-free");
        (gpu, summary)
    }

    #[test]
    fn straight_line_kernel_computes_correctly() {
        let (gpu, summary) = run_simple(GpuConfig::tiny(), 64);
        assert_eq!(summary.outcome, RunOutcome::Completed);
        assert_eq!(summary.stats.threads_launched, 64);
        assert_eq!(summary.stats.threads_retired, 64);
        assert_eq!(summary.stats.lineages_completed, 64);
        for tid in 0..64u32 {
            assert_eq!(
                gpu.mem().read_u32(simt_isa::Space::Global, tid * 4),
                tid * 2
            );
        }
    }

    #[test]
    fn block_scheduling_also_completes() {
        let mut cfg = GpuConfig::tiny();
        cfg.scheduling = SchedulingModel::Block;
        let (_, summary) = run_simple(cfg, 64);
        assert_eq!(summary.outcome, RunOutcome::Completed);
        assert_eq!(summary.stats.threads_retired, 64);
    }

    #[test]
    fn divergent_loop_executes_correct_trip_counts() {
        // Each thread loops tid%4+1 times, accumulating into global memory.
        let src = r#"
            .kernel main
            main:
                mov.u32 r1, %tid
                and.b32 r2, r1, 3
                add.s32 r2, r2, 1     ; trips = tid%4 + 1
                mov.u32 r3, 0         ; acc
            loop:
                add.s32 r3, r3, 1
                sub.s32 r2, r2, 1
                setp.gt.s32 p0, r2, 0
                @p0 bra loop
                mul.lo.s32 r4, r1, 4
                st.global.u32 [r4+0], r3
                exit
        "#;
        let program = assemble_named("loopy", src).unwrap();
        let mut gpu = Gpu::builder(GpuConfig::tiny()).build();
        gpu.mem_mut().alloc_global(32 * 4, "out");
        gpu.launch(Launch {
            program,
            entry: "main".into(),
            num_threads: 32,
            threads_per_block: 8,
        })
        .expect("launch accepted");
        let summary = gpu.run(1_000_000).expect("fault-free");
        assert_eq!(summary.outcome, RunOutcome::Completed);
        for tid in 0..32u32 {
            assert_eq!(
                gpu.mem().read_u32(simt_isa::Space::Global, tid * 4),
                tid % 4 + 1,
                "thread {tid}"
            );
        }
        // The loop diverges, so some issues must have had < 4 active lanes.
        let w: u64 = summary
            .stats
            .divergence
            .windows()
            .iter()
            .map(|b| b[1..4].iter().sum::<u64>())
            .sum();
        assert!(w > 0, "expected divergent issues");
    }

    /// Launch threads save tid to their state record and spawn `child`;
    /// child loads the state and writes tid*3 to global memory.
    const SPAWN_CHAIN_SRC: &str = r#"
        .kernel main
        .kernel child
        .spawnstate 16
        main:
            mov.u32 r1, %tid
            mov.u32 r2, %spawnmem     ; launch: state address directly
            st.spawn.u32 [r2+0], r1
            spawn $child, r2
            exit
        child:
            mov.u32 r2, %spawnmem     ; dynamic: formation slot
            ld.spawn.u32 r2, [r2+0]   ; -> state pointer
            ld.spawn.u32 r1, [r2+0]   ; restore tid
            mul.lo.s32 r3, r1, 3
            mul.lo.s32 r4, r1, 4
            st.global.u32 [r4+0], r3
            exit
    "#;

    /// Runs [`SPAWN_CHAIN_SRC`] over 64 threads on `cfg` with μ-kernel
    /// hardware fitted.
    fn run_spawn_chain(mut cfg: GpuConfig) -> (Gpu, RunSummary) {
        let program = assemble_named("spawny", SPAWN_CHAIN_SRC).unwrap();
        cfg.dmk = Some(tiny_dmk());
        let mut gpu = Gpu::builder(cfg).build();
        gpu.mem_mut().alloc_global(64 * 4, "out");
        gpu.launch(Launch {
            program,
            entry: "main".into(),
            num_threads: 64,
            threads_per_block: 8,
        })
        .expect("launch accepted");
        let summary = gpu.run(2_000_000).expect("fault-free");
        assert_eq!(summary.outcome, RunOutcome::Completed);
        (gpu, summary)
    }

    #[test]
    fn spawn_chain_continues_lineage() {
        let (gpu, summary) = run_spawn_chain(GpuConfig::tiny());
        for tid in 0..64u32 {
            assert_eq!(
                gpu.mem().read_u32(simt_isa::Space::Global, tid * 4),
                tid * 3,
                "thread {tid}"
            );
        }
        // Every launch thread spawned exactly one child.
        assert_eq!(summary.stats.threads_spawned, 64);
        assert_eq!(summary.stats.threads_retired, 128);
        // A lineage completes only at the child.
        assert_eq!(summary.stats.lineages_completed, 64);
        assert_eq!(summary.dmk.threads_spawned, 64);
        assert!(summary.dmk.warps_completed + summary.dmk.partial_warps_forced > 0);
    }

    #[test]
    fn the_run_summary_carries_every_sms_admission_reads() {
        let mut cfg = GpuConfig::tiny();
        cfg.mem = cfg.mem.with_spawn_admission_reads(true);
        let (gpu, summary) = run_spawn_chain(cfg);
        let per_sm: u64 = gpu
            .sms()
            .iter()
            .filter_map(Sm::formation)
            .map(|f| f.stats().admission_reads)
            .sum();
        assert!(per_sm > 0, "admission reads are charged with the knob on");
        assert_eq!(summary.dmk.admission_reads, per_sm);
    }

    #[test]
    fn spawn_without_dmk_hardware_is_rejected() {
        let src = r#"
            .kernel main
            .kernel child
            main:
                spawn $child, r1
                exit
            child:
                exit
        "#;
        let program = assemble_named("bad", src).unwrap();
        let mut gpu = Gpu::builder(GpuConfig::tiny()).build();
        let result = gpu.launch(Launch {
            program,
            entry: "main".into(),
            num_threads: 4,
            threads_per_block: 4,
        });
        assert_eq!(result, Err(crate::fault::LaunchError::SpawnHardwareMissing));
    }

    #[test]
    fn cycle_limit_stops_early() {
        let (_, summary) = {
            let program = assemble_named("double", DOUBLE_SRC).unwrap();
            let mut gpu = Gpu::builder(GpuConfig::tiny()).build();
            gpu.mem_mut().alloc_global(1024 * 4, "out");
            gpu.launch(Launch {
                program,
                entry: "main".into(),
                num_threads: 1024,
                threads_per_block: 8,
            })
            .expect("launch accepted");
            let s = gpu.run(10).expect("fault-free");
            (gpu, s)
        };
        assert_eq!(summary.outcome, RunOutcome::CycleLimit);
        assert_eq!(summary.stats.cycles, 10);
    }

    #[test]
    fn ideal_memory_is_faster() {
        // A load-dependent chain so memory latency is actually on the
        // critical path (stores alone are fire-and-forget).
        let src = r#"
            .kernel main
            main:
                mov.u32 r1, %tid
                mul.lo.s32 r2, r1, 4
                ld.global.u32 r3, [r2+0]
                add.s32 r3, r3, 1
                st.global.u32 [r2+0], r3
                ld.global.u32 r4, [r2+0]
                add.s32 r4, r4, 1
                st.global.u32 [r2+0], r4
                exit
        "#;
        let run = |ideal: bool| {
            let mut cfg = GpuConfig::tiny();
            cfg.mem = MemConfig::fx5800().with_ideal(ideal);
            let program = assemble_named("chain", src).unwrap();
            let mut gpu = Gpu::builder(cfg).build();
            gpu.mem_mut().alloc_global(256 * 4, "buf");
            gpu.launch(Launch {
                program,
                entry: "main".into(),
                num_threads: 256,
                threads_per_block: 8,
            })
            .expect("launch accepted");
            gpu.run(10_000_000).expect("fault-free")
        };
        let slow = run(false);
        let fast = run(true);
        assert!(
            fast.stats.cycles < slow.stats.cycles,
            "ideal {} !< real {}",
            fast.stats.cycles,
            slow.stats.cycles
        );
    }

    #[test]
    fn ipc_counts_thread_instructions() {
        let (_, summary) = run_simple(GpuConfig::tiny(), 64);
        // 5 instructions per thread.
        assert_eq!(summary.stats.thread_instructions, 64 * 5);
        assert!(summary.stats.ipc() > 0.0);
    }

    /// Interrupting a run at an arbitrary cycle, checkpointing, restoring,
    /// and continuing must be bit-identical to the uninterrupted run —
    /// stats, traffic, fault log, and memory contents.
    #[test]
    fn checkpoint_resume_is_bit_identical() {
        let src = r#"
            .kernel main
            main:
                mov.u32 r1, %tid
                mul.lo.s32 r2, r1, 4
                ld.global.u32 r3, [r2+0]
                and.b32 r4, r1, 3
                setp.gt.s32 p0, r4, 1
                @p0 add.s32 r3, r3, 100
                add.s32 r3, r3, 1
                st.global.u32 [r2+0], r3
                exit
        "#;
        let fresh = || {
            let program = assemble_named("mix", src).unwrap();
            let mut gpu = Gpu::builder(GpuConfig::tiny()).build();
            gpu.mem_mut().alloc_global(128 * 4, "buf");
            gpu.launch(Launch {
                program,
                entry: "main".into(),
                num_threads: 128,
                threads_per_block: 8,
            })
            .expect("launch accepted");
            gpu
        };
        let words = |gpu: &Gpu| -> Vec<u32> {
            (0..128u32)
                .map(|t| gpu.mem().read_u32(simt_isa::Space::Global, t * 4))
                .collect()
        };
        let mut reference = fresh();
        let ref_summary = reference.run(1_000_000).expect("fault-free");
        assert_eq!(ref_summary.outcome, RunOutcome::Completed);

        for interrupt_at in [1u64, 7, 40] {
            let mut gpu = fresh();
            gpu.run(interrupt_at).expect("fault-free prefix");
            let bytes = gpu.checkpoint().expect("encodable").to_bytes();
            let snapshot = Snapshot::from_bytes(&bytes).expect("frame intact");
            let mut resumed = Gpu::restore(&snapshot).expect("restores");
            assert_eq!(resumed.now(), gpu.now());
            let summary = resumed.run(1_000_000).expect("fault-free tail");
            assert_eq!(
                summary.stats, ref_summary.stats,
                "stats diverged after resume at cycle {interrupt_at}"
            );
            assert_eq!(
                summary.traffic, ref_summary.traffic,
                "traffic diverged after resume at cycle {interrupt_at}"
            );
            assert_eq!(summary.outcome, ref_summary.outcome);
            assert_eq!(
                words(&resumed),
                words(&reference),
                "memory diverged after resume at cycle {interrupt_at}"
            );
        }
    }

    /// Checkpoint/resume also commutes with dynamic μ-kernel state: the
    /// formation unit, spawn memory, state slots, and dynamic-tid counter
    /// all survive the round trip.
    #[test]
    fn checkpoint_resume_preserves_spawn_state() {
        let src = r#"
            .kernel main
            .kernel child
            .spawnstate 16
            main:
                mov.u32 r1, %tid
                mov.u32 r2, %spawnmem
                st.spawn.u32 [r2+0], r1
                spawn $child, r2
                exit
            child:
                mov.u32 r2, %spawnmem
                ld.spawn.u32 r2, [r2+0]
                ld.spawn.u32 r1, [r2+0]
                mul.lo.s32 r3, r1, 3
                mul.lo.s32 r4, r1, 4
                st.global.u32 [r4+0], r3
                exit
        "#;
        let fresh = || {
            let program = assemble_named("spawny", src).unwrap();
            let mut cfg = GpuConfig::tiny();
            cfg.dmk = Some(tiny_dmk());
            let mut gpu = Gpu::builder(cfg).build();
            gpu.mem_mut().alloc_global(64 * 4, "out");
            gpu.launch(Launch {
                program,
                entry: "main".into(),
                num_threads: 64,
                threads_per_block: 8,
            })
            .expect("launch accepted");
            gpu
        };
        let mut reference = fresh();
        let ref_summary = reference.run(2_000_000).expect("fault-free");
        assert_eq!(ref_summary.outcome, RunOutcome::Completed);

        // Interrupt mid-spawn-traffic, then every 10 cycles after.
        for interrupt_at in [5u64, 15, 25, 60] {
            let mut gpu = fresh();
            gpu.run(interrupt_at).expect("fault-free prefix");
            let snapshot = gpu.checkpoint().expect("encodable");
            let mut resumed = Gpu::restore(&snapshot).expect("restores");
            let summary = resumed.run(2_000_000).expect("fault-free tail");
            assert_eq!(
                summary.stats, ref_summary.stats,
                "stats diverged after resume at cycle {interrupt_at}"
            );
            assert_eq!(summary.dmk, ref_summary.dmk);
            for tid in 0..64u32 {
                assert_eq!(
                    resumed.mem().read_u32(simt_isa::Space::Global, tid * 4),
                    tid * 3,
                    "thread {tid} after resume at cycle {interrupt_at}"
                );
            }
        }
    }

    /// The injector and fault log survive a checkpoint: a restored machine
    /// replays injected events and keeps the cumulative fault history.
    #[test]
    fn checkpoint_preserves_injector_and_fault_log() {
        let program = assemble_named("double", DOUBLE_SRC).unwrap();
        let mut cfg = GpuConfig::tiny();
        cfg.fault_policy = FaultPolicy::KillWarp;
        let mut gpu = Gpu::builder(cfg)
            .injector(Injector::new(3).force(InjectedFault::Trap, 4..6))
            .build();
        gpu.mem_mut().alloc_global(64 * 4, "out");
        gpu.launch(Launch {
            program,
            entry: "main".into(),
            num_threads: 64,
            threads_per_block: 8,
        })
        .expect("launch accepted");
        gpu.run(5).expect("KillWarp absorbs the trap");
        let snapshot = gpu.checkpoint().expect("encodable");
        let resumed = Gpu::restore(&snapshot).expect("restores");
        assert_eq!(resumed.faults(), gpu.faults());
        assert!(!resumed.faults().is_empty(), "trap at cycle 4 recorded");
        assert_eq!(resumed.stats(), gpu.stats());
    }

    /// A snapshot whose configuration block no machine can be built from
    /// is refused with the reason, before anything is allocated for it.
    #[test]
    fn a_snapshot_with_an_invalid_configuration_is_refused_not_a_panic() {
        let payload = Gpu::builder(GpuConfig::tiny())
            .build()
            .checkpoint()
            .expect("encodable")
            .payload()
            .to_vec();
        let mut dec = Decoder::new(&payload);
        let cfg = GpuConfig::decode(&mut dec).expect("decodes");
        let rest = &payload[payload.len() - dec.remaining()..];
        type Mutation = fn(&mut GpuConfig);
        let cases: [(Mutation, &str); 3] = [
            (|c| c.warp_size = 0, "warp size must be 1..=32"),
            (|c| c.warp_size = 33, "warp size must be 1..=32"),
            (
                |c| c.divergence_window = 0,
                "divergence window must be positive",
            ),
        ];
        for (mutate, reason) in cases {
            let mut bad = cfg.clone();
            mutate(&mut bad);
            let mut enc = Encoder::new();
            bad.encode(&mut enc);
            let mut bytes = enc.into_bytes();
            bytes.extend_from_slice(rest);
            match Gpu::restore(&Snapshot::from_payload(bytes)) {
                Err(RestoreError::Invalid(why)) => assert!(why.contains(reason), "{why}"),
                other => panic!("{reason}: {other:?}"),
            }
        }
    }

    /// Everything a run leaves behind that a caller can observe, rendered
    /// for comparison: the run result (outcome or error, statistics with
    /// the divergence timeline, traffic, μ-kernel counters, fault log),
    /// the resident statistics, the telemetry CSV (windowed counters plus
    /// the divergence mirror), the clock, device memory, and the
    /// checkpoint bytes.
    #[derive(Debug, PartialEq)]
    struct Observed {
        result: String,
        stats: String,
        metrics_csv: String,
        now: u64,
        words: Vec<u32>,
        snapshot: Vec<u8>,
    }

    fn observe(gpu: &Gpu, result: &Result<RunSummary, SimError>, words: u32) -> Observed {
        Observed {
            result: format!("{result:?}"),
            stats: format!("{:?}", gpu.stats()),
            metrics_csv: gpu.telemetry_report().metrics_csv(),
            now: gpu.now(),
            words: (0..words)
                .map(|t| gpu.mem().read_u32(simt_isa::Space::Global, t * 4))
                .collect(),
            snapshot: gpu.checkpoint().expect("encodable").to_bytes(),
        }
    }

    /// One sleep-vs-tick differential case.
    struct SleepCase {
        name: &'static str,
        src: &'static str,
        cfg: GpuConfig,
        threads: u32,
        /// Cycle budget of the first leg: the run stops here, mid-flight,
        /// and is checkpointed before it continues to the end.
        first_leg: u64,
        /// What the finished run's result must show, so the case keeps
        /// exercising what it is named for.
        expect: &'static str,
        /// Whether every SM is asleep at once at some point, so the loop
        /// jumps — false only where one SM issues every cycle.
        jumps: bool,
        /// How many distinct SMs a warp trapped on, at least.
        fault_sms: usize,
    }

    /// Runs `case` in two legs — to `first_leg` cycles, then to the end —
    /// observing the machine after each, and once more from a restore of
    /// the first leg's checkpoint.
    fn run_case(case: &SleepCase, force_tick: bool) -> (Observed, Observed, Observed, Gpu) {
        let program = assemble_named(case.name, case.src).unwrap();
        let mut gpu = Gpu::builder(case.cfg.clone())
            .force_tick(force_tick)
            .telemetry(TelemetrySpec::metrics().with_window(64))
            .build();
        gpu.mem_mut().alloc_global(case.threads * 4, "buf");
        gpu.launch(Launch {
            program,
            entry: "main".into(),
            num_threads: case.threads,
            threads_per_block: 8,
        })
        .expect("launch accepted");
        let r = gpu.run(case.first_leg);
        let mid = observe(&gpu, &r, case.threads);
        let snapshot = Snapshot::from_bytes(&mid.snapshot).expect("frame intact");
        let mut resumed = Gpu::restore(&snapshot).expect("restores");
        let r = resumed.run(1_000_000);
        let resumed = observe(&resumed, &r, case.threads);
        let r = gpu.run(1_000_000);
        let end = observe(&gpu, &r, case.threads);
        (mid, end, resumed, gpu)
    }

    /// Sleeping must be invisible. Each case runs with sleeping SMs (the
    /// default) and with forced per-cycle ticking, and everything
    /// observable — results, statistics, both divergence timelines, the
    /// metrics CSV, memory, and the checkpoint bytes taken at a cycle
    /// limit that lands while SMs are asleep — must be byte-identical,
    /// mid-run, at the end, and after resuming from the mid-run snapshot.
    ///
    /// The dense case parks every warp on loads, so the whole machine
    /// idles and the loop jumps. The others run fewer warps than a 4-SM
    /// machine holds, with trip counts skewed by thread id, so some SMs
    /// sleep (for good, or between memory stalls) while others issue: on
    /// the flat fabric and the cache hierarchy, with a trap that kills a
    /// warp, with a trap that aborts the run while other SMs sleep, with
    /// a livelocked warp that trips the watchdog, and with partial dynamic
    /// warps that dispatch forces out of a sleeping SM's formation unit.
    /// Two more run on 70 SMs — past one word of the loop's awake set —
    /// with traps on several SMs, killed or aborting.
    #[test]
    fn skip_to_next_event_is_bit_identical_to_forced_tick() {
        const CHAIN: &str = r#"
            .kernel main
            main:
                mov.u32 r1, %tid
                mul.lo.s32 r2, r1, 4
                ld.global.u32 r3, [r2+0]
                add.s32 r3, r3, 1
                st.global.u32 [r2+0], r3
                ld.global.u32 r4, [r2+0]
                add.s32 r4, r4, 1
                st.global.u32 [r2+0], r4
                exit
        "#;
        // tid/4 + 1 load-add-store round trips: warp 0 finishes first.
        const SKEWED: &str = r#"
            .kernel main
            main:
                mov.u32 r1, %tid
                mul.lo.s32 r2, r1, 4
                shr.u32 r5, r1, 2
                add.s32 r5, r5, 1
            loop:
                ld.global.u32 r3, [r2+0]
                add.s32 r3, r3, 1
                st.global.u32 [r2+0], r3
                sub.s32 r5, r5, 1
                setp.gt.s32 p0, r5, 0
                @p0 bra loop
                exit
        "#;
        // As SKEWED, then thread 9 — alone after its warp's loop, long
        // after warps 0 and 1 retired — loads from a misaligned address.
        const TRAPPING: &str = r#"
            .kernel main
            main:
                mov.u32 r1, %tid
                mul.lo.s32 r2, r1, 4
                shr.u32 r5, r1, 2
                add.s32 r5, r5, 1
            loop:
                ld.global.u32 r3, [r2+0]
                add.s32 r3, r3, 1
                st.global.u32 [r2+0], r3
                sub.s32 r5, r5, 1
                setp.gt.s32 p0, r5, 0
                @p0 bra loop
                setp.eq.s32 p1, r1, 9
                @p1 ld.global.u32 r3, [r2+2]
                exit
        "#;
        // Warp 0 spins forever; the rest store and exit.
        const LIVELOCK: &str = r#"
            .kernel main
            main:
                mov.u32 r1, %tid
                mul.lo.s32 r2, r1, 4
                st.global.u32 [r2+0], r1
                setp.lt.s32 p0, r1, 4
            spin:
                @p0 bra spin
                exit
        "#;
        // Every thread spawns a child; 13 threads leave partial warps in
        // the formation units for dispatch to force out.
        const SPAWNING: &str = r#"
            .kernel main
            .kernel child
            .spawnstate 16
            main:
                mov.u32 r1, %tid
                mov.u32 r2, %spawnmem
                st.spawn.u32 [r2+0], r1
                spawn $child, r2
                exit
            child:
                mov.u32 r2, %spawnmem
                ld.spawn.u32 r2, [r2+0]
                ld.spawn.u32 r1, [r2+0]
                mul.lo.s32 r3, r1, 3
                mul.lo.s32 r4, r1, 4
                ld.global.u32 r5, [r4+0]
                add.s32 r3, r3, r5
                st.global.u32 [r4+0], r3
                exit
        "#;
        // Threads 0..8 fill SM 0, spawn children to three μ-kernels in
        // groups of 3, 3 and 2 — partial warps only, holding all eight
        // state records — and exit: SM 0 sleeps with nothing resident,
        // unable to take launch work. The other 32 threads loop over loads
        // on SMs 1..3; when the last of them is dispatched the block queue
        // empties, and dispatch forces SM 0's partial warps out, waking it.
        const STRANDED: &str = r#"
            .kernel main
            .kernel c0
            .kernel c1
            .kernel c2
            .spawnstate 16
            main:
                mov.u32 r1, %tid
                mul.lo.s32 r2, r1, 4
                setp.lt.s32 p3, r1, 8
                @p3 bra spawner
                mov.u32 r5, 2
            loop:
                ld.global.u32 r3, [r2+0]
                add.s32 r3, r3, 1
                st.global.u32 [r2+0], r3
                sub.s32 r5, r5, 1
                setp.gt.s32 p0, r5, 0
                @p0 bra loop
                exit
            spawner:
                mov.u32 r6, %spawnmem
                st.spawn.u32 [r6+0], r1
                rem.s32 r3, r1, 3
                setp.eq.s32 p0, r3, 0
                setp.eq.s32 p1, r3, 1
                setp.eq.s32 p2, r3, 2
                @p0 spawn $c0, r6
                @p1 spawn $c1, r6
                @p2 spawn $c2, r6
                exit
            c0:
                mov.u32 r7, 100
                bra child
            c1:
                mov.u32 r7, 200
                bra child
            c2:
                mov.u32 r7, 300
            child:
                mov.u32 r6, %spawnmem
                ld.spawn.u32 r6, [r6+0]
                ld.spawn.u32 r1, [r6+0]
                mul.lo.s32 r4, r1, 4
                add.s32 r7, r7, r1
                st.global.u32 [r4+0], r7
                exit
        "#;
        // One to seven load-add-store round trips by thread id, then every
        // thread whose id is 9 mod 64 loads from a misaligned address.
        const TRAPPING_SPREAD: &str = r#"
            .kernel main
            main:
                mov.u32 r1, %tid
                mul.lo.s32 r2, r1, 4
                rem.s32 r5, r1, 7
                add.s32 r5, r5, 1
            loop:
                ld.global.u32 r3, [r2+0]
                add.s32 r3, r3, 1
                st.global.u32 [r2+0], r3
                sub.s32 r5, r5, 1
                setp.gt.s32 p0, r5, 0
                @p0 bra loop
                rem.s32 r6, r1, 64
                setp.eq.s32 p1, r6, 9
                @p1 ld.global.u32 r3, [r2+2]
                exit
        "#;
        // More SMs than one word of the awake set holds, and more threads
        // than they fit at once: the block queue refills SMs 64..69 too.
        let seventy_sms = |fault_policy| GpuConfig {
            num_sms: 70,
            max_threads_per_sm: 8,
            fault_policy,
            ..GpuConfig::tiny()
        };
        // Two warps per SM: 12 threads occupy SM 0 and half of SM 1.
        let four_sms = || GpuConfig {
            num_sms: 4,
            max_threads_per_sm: 8,
            ..GpuConfig::tiny()
        };
        let cases = [
            SleepCase {
                name: "dense",
                src: CHAIN,
                cfg: GpuConfig::tiny(),
                threads: 64,
                first_leg: 37,
                expect: "outcome: Completed",
                jumps: true,
                fault_sms: 0,
            },
            SleepCase {
                name: "low-occupancy flat",
                src: SKEWED,
                cfg: four_sms(),
                threads: 12,
                first_leg: 300,
                expect: "outcome: Completed",
                jumps: true,
                fault_sms: 0,
            },
            SleepCase {
                name: "low-occupancy cached",
                src: SKEWED,
                cfg: GpuConfig {
                    mem: MemConfig::fx5800_cached(),
                    ..four_sms()
                },
                threads: 12,
                first_leg: 120,
                expect: "outcome: Completed",
                jumps: true,
                fault_sms: 0,
            },
            SleepCase {
                name: "kill-warp",
                src: TRAPPING,
                cfg: GpuConfig {
                    fault_policy: FaultPolicy::KillWarp,
                    ..four_sms()
                },
                threads: 12,
                first_leg: 300,
                expect: "warps_killed: 1",
                jumps: true,
                fault_sms: 1,
            },
            SleepCase {
                name: "abort while others sleep",
                src: TRAPPING,
                cfg: four_sms(),
                threads: 12,
                first_leg: 300,
                expect: "Err(Fault(",
                jumps: true,
                fault_sms: 1,
            },
            SleepCase {
                name: "watchdog deadlock",
                src: LIVELOCK,
                cfg: GpuConfig {
                    watchdog_cycles: 400,
                    ..four_sms()
                },
                threads: 12,
                first_leg: 150,
                expect: "outcome: Deadlock",
                jumps: false,
                fault_sms: 0,
            },
            SleepCase {
                name: "forced-out partial warps",
                src: SPAWNING,
                cfg: GpuConfig {
                    dmk: Some(DmkConfig {
                        threads_per_sm: 8,
                        ..tiny_dmk()
                    }),
                    ..four_sms()
                },
                threads: 13,
                first_leg: 20,
                expect: "partial_warps_forced: 1",
                jumps: true,
                fault_sms: 0,
            },
            SleepCase {
                name: "dispatch wakes a sleeper",
                src: STRANDED,
                cfg: GpuConfig {
                    dmk: Some(DmkConfig {
                        threads_per_sm: 8,
                        ..tiny_dmk()
                    }),
                    ..four_sms()
                },
                threads: 40,
                first_leg: 100,
                expect: "partial_warps_forced: 3",
                jumps: true,
                fault_sms: 0,
            },
            SleepCase {
                name: "kill-warp on 70 SMs",
                src: TRAPPING_SPREAD,
                cfg: seventy_sms(FaultPolicy::KillWarp),
                threads: 600,
                first_leg: 150,
                expect: "warps_killed: 10",
                jumps: true,
                fault_sms: 2,
            },
            SleepCase {
                name: "abort on 70 SMs",
                src: TRAPPING_SPREAD,
                cfg: seventy_sms(FaultPolicy::Abort),
                threads: 600,
                first_leg: 150,
                expect: "Err(Fault(",
                jumps: true,
                fault_sms: 1,
            },
        ];
        for case in &cases {
            let what = case.name;
            let (tick_mid, tick_end, tick_resumed, ticked) = run_case(case, true);
            let (mid, end, resumed, slept) = run_case(case, false);
            assert_eq!(mid.now, case.first_leg, "the limit lands mid-run ({what})");
            assert!(
                end.result.contains(case.expect),
                "expected `{}` ({what}): {}",
                case.expect,
                end.result
            );
            assert_eq!(tick_mid, mid, "diverged at the cycle limit ({what})");
            assert_eq!(tick_end, end, "diverged at the end ({what})");
            assert_eq!(tick_resumed, resumed, "diverged after restore ({what})");
            assert_eq!(end, resumed, "resume is not the uninterrupted run ({what})");
            assert_eq!(ticked.skipped_cycles(), 0, "force_tick must never skip");
            assert_eq!(ticked.slept_sm_cycles(), 0, "force_tick must never sleep");
            assert!(slept.slept_sm_cycles() > 0, "SMs actually slept ({what})");
            assert_eq!(
                slept.skipped_cycles() > 0,
                case.jumps,
                "whole-machine jumps ({what})"
            );
            let fault_sms: std::collections::BTreeSet<usize> =
                slept.faults().iter().map(|f| f.sm).collect();
            assert!(
                fault_sms.len() >= case.fault_sms,
                "traps on SMs {fault_sms:?} ({what})"
            );
        }
    }

    /// With no warp ever becoming ready (a block that can never fit on
    /// any SM), the skip has no wake-up to jump to and must land exactly
    /// on the watchdog deadline — same deadlock cycle and diagnostics as
    /// ticking through the whole idle wait.
    #[test]
    fn skip_reaches_watchdog_deadlock_identically() {
        let run = |force_tick: bool| {
            let program = assemble_named("double", DOUBLE_SRC).unwrap();
            let mut cfg = GpuConfig::tiny();
            cfg.scheduling = SchedulingModel::Block;
            cfg.watchdog_cycles = 5_000;
            let mut gpu = Gpu::builder(cfg).force_tick(force_tick).build();
            gpu.mem_mut().alloc_global(64 * 4, "out");
            gpu.launch(Launch {
                program,
                entry: "main".into(),
                num_threads: 64,
                threads_per_block: 64, // > max_threads_per_sm: never dispatchable
            })
            .expect("launch accepted");
            let summary = gpu.run(1_000_000).expect("no fault");
            (summary, gpu.skipped_cycles(), gpu.skip_events())
        };
        let (tick, ticked_skips, _) = run(true);
        let (skip, skipped, jumps) = run(false);
        assert_eq!(ticked_skips, 0);
        assert!(skipped > 0 && jumps > 0, "the deadlock wait was skipped");
        assert!(
            matches!(skip.outcome, RunOutcome::Deadlock { .. }),
            "expected deadlock, got {:?}",
            skip.outcome
        );
        assert_eq!(tick.outcome, skip.outcome, "diagnostics diverged");
        assert_eq!(tick.stats, skip.stats);
    }

    /// A load whose lane 1 traps after lane 0 loaded kills its warp under
    /// `KillWarp`, and the run completes without it: lane 0's word went
    /// into a register at issue, so nothing is left in flight.
    #[test]
    fn a_load_trapping_after_its_first_lane_kills_the_warp_and_completes() {
        let src = r#"
            .kernel main
            main:
                mov.u32 r1, %tid
                mul.lo.s32 r2, r1, 2
                ld.global.u32 r3, [r2+0]
                exit
        "#;
        let program = assemble_named("oob", src).unwrap();
        let mut cfg = GpuConfig::tiny();
        cfg.fault_policy = FaultPolicy::KillWarp;
        let mut gpu = Gpu::builder(cfg).build();
        // Lane 0 (tid 0 → address 0) loads cleanly; lane 1 (address 2) is
        // misaligned and traps the warp after lane 0's load was queued.
        gpu.mem_mut().alloc_global(16, "out");
        gpu.launch(Launch {
            program,
            entry: "main".into(),
            num_threads: 4,
            threads_per_block: 4,
        })
        .expect("launch accepted");
        let summary = gpu.run(1_000_000).expect("KillWarp absorbs the trap");
        assert_eq!(summary.outcome, RunOutcome::Completed);
        assert_eq!(summary.stats.faults, 1);
        assert_eq!(summary.stats.threads_killed, 4);
        assert_eq!(summary.stats.threads_retired, 0);
    }

    /// The same trap on a constant load.
    #[test]
    fn a_constant_load_trapping_after_its_first_lane_kills_the_warp() {
        let src = r#"
            .kernel main
            main:
                mov.u32 r1, %tid
                mul.lo.s32 r2, r1, 2
                ld.const.u32 r3, [r2+0]
                exit
        "#;
        let mut cfg = GpuConfig::tiny();
        cfg.fault_policy = FaultPolicy::KillWarp;
        let mut gpu = Gpu::builder(cfg).build();
        gpu.mem_mut().alloc_const(16, "params");
        gpu.launch(Launch {
            program: assemble_named("oob", src).unwrap(),
            entry: "main".into(),
            num_threads: 4,
            threads_per_block: 4,
        })
        .expect("launch accepted");
        let summary = gpu.run(1_000_000).expect("KillWarp absorbs the trap");
        assert_eq!(summary.outcome, RunOutcome::Completed);
        assert_eq!(summary.stats.faults, 1);
        assert!(matches!(
            summary.faults[0].kind,
            crate::FaultKind::Memory(simt_mem::MemFault::Misaligned {
                space: simt_isa::Space::Const,
                addr: 2
            })
        ));
        assert_eq!(summary.stats.threads_killed, 4);
    }

    /// Constant memory is fixed for a run, not for a machine: what the
    /// host writes between two runs is what the second run's loads see.
    #[test]
    fn a_host_write_to_constant_memory_between_runs_is_seen_by_the_next() {
        let src = r#"
            .kernel main
            main:
                mov.u32 r1, %tid
                mul.lo.s32 r2, r1, 4
                mov.u32 r3, 0
                ld.const.u32 r4, [r3+4]
                st.global.u32 [r2+0], r4
                exit
        "#;
        let mut gpu = Gpu::builder(GpuConfig::tiny()).build();
        gpu.mem_mut().alloc_global(32, "out");
        gpu.mem_mut().alloc_const(8, "params");
        for value in [7, 9] {
            gpu.mem_mut().host_write_const(4, value);
            gpu.launch(Launch {
                program: assemble_named("param", src).unwrap(),
                entry: "main".into(),
                num_threads: 8,
                threads_per_block: 4,
            })
            .expect("launch accepted");
            let summary = gpu.run(1_000_000).expect("fault-free");
            assert_eq!(summary.outcome, RunOutcome::Completed);
            assert_eq!(gpu.mem().host_read_global(0, 8), vec![value; 8]);
        }
    }

    /// One `ld.global` whose lanes read a texture binding *and* plain
    /// global memory still splits lane by lane — whichever kind the first
    /// lane is: the bound lanes probe the read-only cache (two lanes, one
    /// 32-byte line: a miss and a hit), the others go to the coalescer.
    #[test]
    fn a_warp_reading_bound_and_unbound_addresses_splits_lane_by_lane() {
        for bound_first in [true, false] {
            // Two lanes read words 0 and 1 (bound), two read from 1024 on.
            let src = format!(
                r#"
                .kernel main
                main:
                    mov.u32 r1, %tid
                    mul.lo.s32 r2, r1, 4
                    setp.{cmp}.s32 p0, r1, 2
                    @p0 add.s32 r2, r2, 1024
                    @!p0 and.b32 r2, r2, 4
                    ld.global.u32 r3, [r2+0]
                    exit
                "#,
                cmp = if bound_first { "ge" } else { "lt" }
            );
            let mut gpu = Gpu::builder(GpuConfig::tiny()).build();
            gpu.mem_mut().alloc_global(2048, "buf");
            gpu.mem_mut().mark_read_only(0, 64);
            gpu.launch(Launch {
                program: assemble_named("mixed", &src).unwrap(),
                entry: "main".into(),
                num_threads: 4,
                threads_per_block: 4,
            })
            .expect("launch accepted");
            let summary = gpu.run(1_000_000).expect("fault-free");
            assert_eq!(summary.outcome, RunOutcome::Completed);
            assert_eq!(gpu.sms()[0].tex_stats(), Some((1, 1)), "{bound_first}");
            let global = *gpu.sms()[0].traffic().space(simt_isa::Space::Global);
            // The line fill and the two unbound lanes' one segment.
            assert_eq!(
                (global.accesses, global.transactions),
                (2, 2),
                "{bound_first}"
            );
        }
    }

    /// What an imprecise trap leaves behind is counted in words: lane 0's
    /// `v4` fits its 32-byte local stride, lane 1's (from offset 24) runs
    /// past it in its third word, so four words plus two were validated
    /// before the trap and lanes 2 and 3 were never looked at. Either way
    /// the warp is killed and the run completes; the store's six words —
    /// and no others — are in local memory. (The load's six words in the
    /// faulting warp's registers are `sm.rs`'
    /// `a_partially_validated_vector_load_fills_exactly_its_validated_words`.)
    #[test]
    fn a_partially_validated_vector_access_keeps_exactly_its_validated_words() {
        let run = |access: &str| {
            let src = format!(
                r#"
                .kernel main
                .local 32
                main:
                    mov.u32 r1, %tid
                    mul.lo.s32 r2, r1, 24
                    mad.lo.s32 r4, r1, 16, 1
                    add.s32 r5, r4, 1
                    add.s32 r6, r4, 2
                    add.s32 r7, r4, 3
                    {access}
                    exit
                "#
            );
            let mut cfg = GpuConfig::tiny();
            cfg.fault_policy = FaultPolicy::KillWarp;
            let mut gpu = Gpu::builder(cfg).build();
            gpu.launch(Launch {
                program: assemble_named("partial", &src).unwrap(),
                entry: "main".into(),
                num_threads: 4,
                threads_per_block: 4,
            })
            .expect("launch accepted");
            let summary = gpu.run(1_000_000).expect("KillWarp absorbs the trap");
            assert_eq!(summary.outcome, RunOutcome::Completed);
            assert_eq!(summary.stats.faults, 1);
            assert!(matches!(
                summary.faults[0].kind,
                crate::FaultKind::Memory(simt_mem::MemFault::LocalOob { addr: 32, .. })
            ));
            assert_eq!(summary.stats.threads_killed, 4);
            gpu
        };

        run("ld.local.v4 r8, [r2+0]");

        let gpu = run("st.local.v4 [r2+0], r4");
        let local: Vec<Vec<u32>> = (0..4)
            .map(|tid| (0..8).map(|w| gpu.mem().read_local(tid, 4 * w)).collect())
            .collect();
        assert_eq!(local[0], [1, 2, 3, 4, 0, 0, 0, 0]);
        assert_eq!(local[1], [0, 0, 0, 0, 0, 0, 17, 18]);
        assert_eq!(local[2], [0; 8]);
        assert_eq!(local[3], [0; 8]);
    }

    /// Running the same launch twice is reproducible: nothing in the
    /// machine reads a clock, an address or a hash-map order.
    #[test]
    fn repeated_runs_are_reproducible() {
        let run_once = || {
            let program = assemble_named("double", DOUBLE_SRC).unwrap();
            let mut gpu = Gpu::builder(GpuConfig::tiny()).build();
            gpu.mem_mut().alloc_global(64 * 4, "out");
            gpu.launch(Launch {
                program,
                entry: "main".into(),
                num_threads: 64,
                threads_per_block: 8,
            })
            .expect("launch accepted");
            gpu.run(1_000_000).expect("fault-free")
        };
        let a = run_once();
        let b = run_once();
        assert_eq!(a.stats, b.stats);
        assert_eq!(a.traffic, b.traffic);
    }
}
