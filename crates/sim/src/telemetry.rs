//! Cycle-level telemetry: deterministic tracing and windowed metrics.
//!
//! The simulator's figures are built from aggregate [`crate::SimStats`],
//! but the paper's argument is about *behaviour over time* — divergence
//! timelines, warp lifecycles, spawn→formation pressure, DRAM module
//! load. This module threads light-weight probes through the machine (SM
//! issue/commit, PDOM push/pop, spawn/formation events, warp birth and
//! retirement, coalescer splits, read-only-cache hits, per-DRAM-module
//! busy time) and exposes the recordings through pluggable
//! [`TraceSink`]s.
//!
//! # Determinism
//!
//! Every probe writes into the *per-SM* telemetry shard owned by the SM
//! that observed the event, as it steps — the same discipline
//! as the [`crate::SimStats`] shards. [`crate::Gpu::telemetry_report`]
//! merges the shards in SM-id order, so the merged event stream, the
//! windowed counters, and the rendered sink output are the same bytes on
//! every run. Events within one SM are recorded in program order; across SMs the merged stream is ordered by SM id (sort
//! by `cycle` downstream if a global timeline is wanted — Perfetto does).
//!
//! # Cost
//!
//! With telemetry disabled at runtime — the default for
//! [`crate::Gpu::builder`] — each probe is a single boolean test.
//! Metrics mode allocates one windowed-counter vector per SM; trace mode
//! additionally fills a fixed-capacity ring buffer per SM (oldest events
//! drop first, counted in [`TelemetryReport::dropped`]).
//!
//! The divergence breakdown is not a probe: [`crate::SimStats`] records it
//! on every run, and [`TelemetryReport::divergence`] is that timeline.

use crate::stats::DivergenceTimeline;
use simt_isa::codec::{CodecError, Decoder, Encoder};
use std::collections::VecDeque;
use std::fmt;
use std::fmt::Write as _;

/// Default per-SM trace ring capacity (events kept per SM).
pub const DEFAULT_TRACE_CAPACITY: usize = 8192;

/// Runtime telemetry configuration, passed to
/// [`crate::gpu::GpuBuilder::telemetry`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TelemetrySpec {
    /// Record windowed metrics.
    pub metrics: bool,
    /// Additionally record per-event traces into the per-SM rings
    /// (implies nothing about `metrics`; sinks want both on).
    pub trace: bool,
    /// Metrics window width in cycles. `0` means "use the machine's
    /// `divergence_window`".
    pub metrics_window: u64,
    /// Per-SM trace ring capacity in events.
    pub trace_capacity: usize,
}

impl Default for TelemetrySpec {
    fn default() -> Self {
        TelemetrySpec::off()
    }
}

impl TelemetrySpec {
    /// Telemetry fully disabled (the default): probes cost one branch.
    pub fn off() -> Self {
        TelemetrySpec {
            metrics: false,
            trace: false,
            metrics_window: 0,
            trace_capacity: DEFAULT_TRACE_CAPACITY,
        }
    }

    /// Windowed metrics only — counters, no per-event ring.
    pub fn metrics() -> Self {
        TelemetrySpec {
            metrics: true,
            ..TelemetrySpec::off()
        }
    }

    /// Full tracing: metrics plus per-event rings.
    pub fn trace() -> Self {
        TelemetrySpec {
            metrics: true,
            trace: true,
            ..TelemetrySpec::off()
        }
    }

    /// Sets the metrics window width (`0` = machine divergence window).
    pub fn with_window(mut self, cycles: u64) -> Self {
        self.metrics_window = cycles;
        self
    }

    /// Sets the per-SM trace ring capacity.
    pub fn with_trace_capacity(mut self, events: usize) -> Self {
        self.trace_capacity = events.max(1);
        self
    }
}

/// What happened, attached to a [`TraceEvent`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum TraceEventKind {
    /// A warp-instruction committed with `active` live lanes.
    Issue {
        /// Warp id within the SM.
        warp: usize,
        /// Program counter of the committed instruction.
        pc: usize,
        /// Active lanes at commit.
        active: u32,
    },
    /// The warp's PDOM reconvergence stack grew to `depth`.
    PdomPush {
        /// Warp id within the SM.
        warp: usize,
        /// Stack depth after the push.
        depth: u32,
    },
    /// The warp's PDOM reconvergence stack shrank to `depth`.
    PdomPop {
        /// Warp id within the SM.
        warp: usize,
        /// Stack depth after the pop.
        depth: u32,
    },
    /// A warp entered the SM (launch admission or formation output).
    WarpBirth {
        /// Warp id within the SM.
        warp: usize,
        /// True for formation-unit (dynamic μ-kernel) warps.
        dynamic: bool,
        /// Threads populating the new warp.
        population: u32,
    },
    /// A warp retired and released its resources.
    WarpRetire {
        /// Warp id within the SM.
        warp: usize,
    },
    /// A `spawn` instruction deposited `threads` into the formation unit.
    Spawn {
        /// Warp id within the SM.
        warp: usize,
        /// μ-kernel entry PC spawned to.
        target_pc: usize,
        /// Active lanes that spawned.
        threads: u32,
    },
    /// A `spawn` retried because the formation unit pushed back
    /// (partial-warp pool or new-warp FIFO full).
    SpawnStall {
        /// Warp id within the SM.
        warp: usize,
    },
    /// A `spawn` was elided into an in-place branch
    /// (`SpawnPolicy::OnDivergence`, fully converged warp).
    SpawnElided {
        /// Warp id within the SM.
        warp: usize,
    },
    /// An off-chip warp access was split by the coalescer into
    /// `segments` DRAM segment requests.
    CoalescerSplit {
        /// Warp id within the SM.
        warp: usize,
        /// Lanes participating in the access.
        lanes: u32,
        /// Coalesced segment requests issued.
        segments: u32,
    },
    /// A read-only (texture/kd-tree cache) access: `lanes` lanes probed,
    /// `miss_lines` cache lines missed and went to DRAM.
    TexAccess {
        /// Warp id within the SM.
        warp: usize,
        /// Lanes participating in the access.
        lanes: u32,
        /// Cache lines that missed.
        miss_lines: u32,
    },
    /// An L1 data-cache access: `lines` lines probed, `misses` missed
    /// (of which `merges` rode an outstanding MSHR fill).
    L1Access {
        /// Warp id within the SM.
        warp: usize,
        /// L1 lines probed.
        lines: u32,
        /// Lines that missed.
        misses: u32,
        /// Misses merged into an outstanding MSHR entry.
        merges: u32,
    },
}

/// One timestamped telemetry event, recorded by the SM that observed it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceEvent {
    /// Simulated cycle of the event.
    pub cycle: u64,
    /// SM that recorded the event.
    pub sm: usize,
    /// What happened.
    pub kind: TraceEventKind,
}

impl TraceEventKind {
    /// Short stable name for exporters.
    pub fn name(&self) -> &'static str {
        match self {
            TraceEventKind::Issue { .. } => "issue",
            TraceEventKind::PdomPush { .. } => "pdom_push",
            TraceEventKind::PdomPop { .. } => "pdom_pop",
            TraceEventKind::WarpBirth { .. } => "warp_birth",
            TraceEventKind::WarpRetire { .. } => "warp_retire",
            TraceEventKind::Spawn { .. } => "spawn",
            TraceEventKind::SpawnStall { .. } => "spawn_stall",
            TraceEventKind::SpawnElided { .. } => "spawn_elided",
            TraceEventKind::CoalescerSplit { .. } => "coalescer_split",
            TraceEventKind::TexAccess { .. } => "tex_access",
            TraceEventKind::L1Access { .. } => "l1_access",
        }
    }
}

simt_isa::counters! {
    /// Per-window metric counters (one row of the metrics CSV, whose
    /// columns are [`WindowCounters::NAMES`]).
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub struct WindowCounters {
        /// Warp-instructions committed.
        pub issues: u64 = sum,
        /// Thread-instructions committed.
        pub thread_instructions: u64 = sum,
        /// Warps admitted (launch + formation).
        pub warps_born: u64 = sum,
        /// Warps retired.
        pub warps_retired: u64 = sum,
        /// `spawn` instructions that deposited threads.
        pub spawn_instructions: u64 = sum,
        /// Threads deposited into the formation unit.
        pub threads_spawned: u64 = sum,
        /// `spawn` retries under formation back-pressure.
        pub spawn_stalls: u64 = sum,
        /// Spawns elided into in-place branches.
        pub spawn_elisions: u64 = sum,
        /// PDOM reconvergence-stack pushes observed at commit.
        pub pdom_pushes: u64 = sum,
        /// PDOM reconvergence-stack pops observed at commit.
        pub pdom_pops: u64 = sum,
        /// Off-chip warp accesses issued to the fabric.
        pub offchip_requests: u64 = sum,
        /// Coalesced DRAM segment requests those accesses split into.
        pub offchip_segments: u64 = sum,
        /// Read-only-cache (texture) warp accesses.
        pub tex_accesses: u64 = sum,
        /// Read-only-cache lines missed.
        pub tex_miss_lines: u64 = sum,
        /// L1 data-cache warp accesses (zero on the flat machine).
        pub l1_accesses: u64 = sum,
        /// L1 line-probes that hit.
        pub l1_hits: u64 = sum,
        /// L1 line-probes that missed (merges included).
        pub l1_misses: u64 = sum,
        /// L1 misses merged into an outstanding MSHR fill.
        pub l1_mshr_merges: u64 = sum,
    }
}

/// Per-SM telemetry shard. Lives inside each [`crate::Sm`] next to its
/// statistics shard and is written only by that SM as it steps, so
/// recording is race-free and deterministic.
#[derive(Debug, Clone)]
pub(crate) struct SmTelemetry {
    sm: usize,
    metrics: bool,
    trace: bool,
    window: u64,
    trace_capacity: usize,
    windows: Vec<WindowCounters>,
    events: VecDeque<TraceEvent>,
    dropped: u64,
    /// Last PDOM stack depth seen per warp id, to turn depth deltas into
    /// push/pop events at commit time. Indexed by the SM's monotonic,
    /// never-reused warp id; 0 means "no entry" (a live warp's stack is
    /// never empty at commit, and a warp that drains its stack on its
    /// final commit never issues again), which keeps the per-commit hot
    /// path a flat array access instead of a map lookup.
    depths: Vec<u32>,
    /// Cached `(index, first cycle)` of the window most recently written —
    /// pure cache, not serialized (see [`DivergenceTimeline`]'s twin).
    cur_idx: usize,
    cur_start: u64,
}

impl SmTelemetry {
    pub(crate) fn new(sm: usize, spec: &TelemetrySpec, divergence_window: u64) -> Self {
        SmTelemetry {
            sm,
            metrics: spec.metrics,
            trace: spec.metrics && spec.trace,
            window: if spec.metrics_window == 0 {
                divergence_window
            } else {
                spec.metrics_window
            },
            trace_capacity: spec.trace_capacity.max(1),
            windows: Vec::new(),
            events: VecDeque::new(),
            dropped: 0,
            depths: Vec::new(),
            cur_idx: 0,
            cur_start: 0,
        }
    }

    /// Whether any probe records anything.
    #[inline]
    pub(crate) fn is_on(&self) -> bool {
        self.metrics
    }

    #[inline]
    fn slot_idx(&mut self, cycle: u64) -> usize {
        if cycle.wrapping_sub(self.cur_start) < self.window && self.cur_idx < self.windows.len() {
            return self.cur_idx;
        }
        let idx = (cycle / self.window) as usize;
        if self.windows.len() <= idx {
            self.windows.resize(idx + 1, WindowCounters::default());
        }
        self.cur_idx = idx;
        self.cur_start = idx as u64 * self.window;
        idx
    }

    fn slot(&mut self, cycle: u64) -> &mut WindowCounters {
        let idx = self.slot_idx(cycle);
        &mut self.windows[idx]
    }

    /// Reads and replaces the last-seen stack depth for `warp`,
    /// growing the flat table on first sight of an id.
    #[inline]
    fn swap_depth(&mut self, warp: usize, depth: u32) -> u32 {
        if self.depths.len() <= warp {
            self.depths.resize(warp + 1, 0);
        }
        std::mem::replace(&mut self.depths[warp], depth)
    }

    fn push_event(&mut self, cycle: u64, kind: TraceEventKind) {
        if !self.trace {
            return;
        }
        if self.events.len() >= self.trace_capacity {
            self.events.pop_front();
            self.dropped += 1;
        }
        self.events.push_back(TraceEvent {
            cycle,
            sm: self.sm,
            kind,
        });
    }

    /// A warp-instruction committed. Also derives PDOM push/pop events
    /// from the warp's reconvergence-stack depth delta since its last
    /// commit.
    pub(crate) fn on_issue(&mut self, now: u64, warp: usize, pc: usize, active: u32, depth: u32) {
        if !self.is_on() {
            return;
        }
        let idx = self.slot_idx(now);
        let w = &mut self.windows[idx];
        w.issues += 1;
        w.thread_instructions += u64::from(active);
        let prev = match self.swap_depth(warp, depth) {
            0 => depth,
            d => d,
        };
        if depth > prev {
            self.windows[idx].pdom_pushes += u64::from(depth - prev);
            self.push_event(now, TraceEventKind::PdomPush { warp, depth });
        } else if depth < prev {
            self.windows[idx].pdom_pops += u64::from(prev - depth);
            self.push_event(now, TraceEventKind::PdomPop { warp, depth });
        }
        self.push_event(now, TraceEventKind::Issue { warp, pc, active });
    }

    /// A warp was admitted (launch or formation output).
    pub(crate) fn on_warp_birth(&mut self, now: u64, warp: usize, dynamic: bool, population: u32) {
        if !self.is_on() {
            return;
        }
        self.slot(now).warps_born += 1;
        self.swap_depth(warp, 1);
        self.push_event(
            now,
            TraceEventKind::WarpBirth {
                warp,
                dynamic,
                population,
            },
        );
    }

    /// A warp retired.
    pub(crate) fn on_warp_retire(&mut self, now: u64, warp: usize) {
        if !self.is_on() {
            return;
        }
        self.slot(now).warps_retired += 1;
        if let Some(d) = self.depths.get_mut(warp) {
            *d = 0;
        }
        self.push_event(now, TraceEventKind::WarpRetire { warp });
    }

    /// A `spawn` deposited `threads` into the formation unit.
    pub(crate) fn on_spawn(&mut self, now: u64, warp: usize, target_pc: usize, threads: u32) {
        if !self.is_on() {
            return;
        }
        let w = self.slot(now);
        w.spawn_instructions += 1;
        w.threads_spawned += u64::from(threads);
        self.push_event(
            now,
            TraceEventKind::Spawn {
                warp,
                target_pc,
                threads,
            },
        );
    }

    /// A `spawn` retried under formation back-pressure.
    pub(crate) fn on_spawn_stall(&mut self, now: u64, warp: usize) {
        if !self.is_on() {
            return;
        }
        self.slot(now).spawn_stalls += 1;
        self.push_event(now, TraceEventKind::SpawnStall { warp });
    }

    /// A `spawn` was elided into an in-place branch.
    pub(crate) fn on_spawn_elided(&mut self, now: u64, warp: usize) {
        if !self.is_on() {
            return;
        }
        self.slot(now).spawn_elisions += 1;
        self.push_event(now, TraceEventKind::SpawnElided { warp });
    }

    /// An off-chip warp access issued `segments` coalesced requests.
    pub(crate) fn on_offchip(&mut self, now: u64, warp: usize, lanes: u32, segments: u32) {
        if !self.is_on() {
            return;
        }
        let w = self.slot(now);
        w.offchip_requests += 1;
        w.offchip_segments += u64::from(segments);
        if segments > 1 {
            self.push_event(
                now,
                TraceEventKind::CoalescerSplit {
                    warp,
                    lanes,
                    segments,
                },
            );
        }
    }

    /// A read-only-cache access probed `lanes` lanes, missing
    /// `miss_lines` lines.
    pub(crate) fn on_tex(&mut self, now: u64, warp: usize, lanes: u32, miss_lines: u32) {
        if !self.is_on() {
            return;
        }
        let w = self.slot(now);
        w.tex_accesses += 1;
        w.tex_miss_lines += u64::from(miss_lines);
        self.push_event(
            now,
            TraceEventKind::TexAccess {
                warp,
                lanes,
                miss_lines,
            },
        );
    }

    /// An L1 data-cache probe (see [`simt_mem::L1Probe`]).
    pub(crate) fn on_l1(&mut self, now: u64, warp: usize, probe: &simt_mem::L1Probe) {
        if !self.is_on() {
            return;
        }
        let w = self.slot(now);
        w.l1_accesses += 1;
        w.l1_hits += u64::from(probe.hits);
        w.l1_misses += u64::from(probe.misses);
        w.l1_mshr_merges += u64::from(probe.merges);
        self.push_event(
            now,
            TraceEventKind::L1Access {
                warp,
                lines: probe.lines,
                misses: probe.misses,
                merges: probe.merges,
            },
        );
    }

    pub(crate) fn metrics_window(&self) -> u64 {
        self.window
    }

    /// Merges this shard into an accumulating report (SM-id order is the
    /// caller's responsibility).
    pub(crate) fn merge_into(&self, report: &mut TelemetryReport) {
        if report.windows.len() < self.windows.len() {
            report
                .windows
                .resize(self.windows.len(), WindowCounters::default());
        }
        for (dst, src) in report.windows.iter_mut().zip(&self.windows) {
            dst.merge(src);
        }
        report.events.extend(self.events.iter().copied());
        report.dropped += self.dropped;
    }

    /// Serializes enablement, windowed counters and the per-warp depth
    /// map for a machine checkpoint. The trace ring is deliberately *not*
    /// captured: metrics survive a checkpoint/resume bit-identically,
    /// traces restart empty.
    pub(crate) fn encode_state(&self, enc: &mut Encoder) {
        enc.put_bool(self.metrics);
        enc.put_bool(self.trace);
        enc.put_u64(self.window);
        enc.put_usize(self.trace_capacity);
        enc.put_usize(self.windows.len());
        for w in &self.windows {
            w.encode_state(enc);
        }
        // Live entries only, in warp-id order: the same bytes the old
        // ordered-map representation produced.
        enc.put_usize(self.depths.iter().filter(|&&d| d != 0).count());
        for (warp, &depth) in self.depths.iter().enumerate() {
            if depth != 0 {
                enc.put_usize(warp);
                enc.put_u32(depth);
            }
        }
    }

    /// Restores state written by [`SmTelemetry::encode_state`].
    pub(crate) fn restore_state(&mut self, dec: &mut Decoder<'_>) -> Result<(), CodecError> {
        self.metrics = dec.take_bool()?;
        self.trace = dec.take_bool()?;
        self.window = dec.take_u64()?;
        self.trace_capacity = dec.take_usize()?.max(1);
        let n = dec.take_len(WindowCounters::ENCODED_BYTES)?;
        self.windows = (0..n)
            .map(|_| {
                let mut w = WindowCounters::default();
                w.restore_state(dec).map(|()| w)
            })
            .collect::<Result<_, _>>()?;
        let n = dec.take_len(9)?;
        self.depths.clear();
        for _ in 0..n {
            let warp = dec.take_usize()?;
            let depth = dec.take_u32()?;
            if self.depths.len() <= warp {
                self.depths.resize(warp + 1, 0);
            }
            self.depths[warp] = depth;
        }
        self.events.clear();
        self.dropped = 0;
        Ok(())
    }
}

/// Merged whole-machine telemetry, produced by
/// [`crate::Gpu::telemetry_report`]. Shards merge in SM-id order.
#[derive(Debug, Clone)]
pub struct TelemetryReport {
    /// Machine warp size (for labelling).
    pub warp_size: u32,
    /// Metrics window width in cycles.
    pub metrics_window: u64,
    /// The machine's divergence timeline: [`crate::SimStats::divergence`]
    /// at the time of the report, whether or not telemetry is on.
    pub divergence: DivergenceTimeline,
    /// Windowed counters indexed by `cycle / metrics_window`.
    pub windows: Vec<WindowCounters>,
    /// Merged event stream: SM-id-major, per-SM program order.
    pub events: Vec<TraceEvent>,
    /// Events dropped by full per-SM rings.
    pub dropped: u64,
    /// Per-DRAM-module busy time in (fractional) DRAM-clock cycles.
    pub module_busy: Vec<f64>,
    /// Aggregate `(hits, misses)` of the shared L2 slices; `None` on the
    /// flat (uncached) machine.
    pub l2: Option<(u64, u64)>,
    /// Per-partition interconnect-bank busy cycles (empty on the flat
    /// machine).
    pub icnt_busy: Vec<u64>,
    /// Interconnect grants that queued behind another SM's flit.
    pub icnt_conflicts: u64,
}

/// Renders a [`TelemetryReport`] into one output document.
pub trait TraceSink {
    /// Renders the report (the caller decides where the bytes go).
    fn render(&self, report: &TelemetryReport) -> String;
}

/// Chrome trace-event JSON (the `chrome://tracing` / Perfetto format):
/// instant events per trace ring entry (`pid` = SM, `tid` = warp) and
/// counter events per metrics window.
pub struct ChromeTraceSink;

impl ChromeTraceSink {
    fn event_args(kind: &TraceEventKind, out: &mut String) {
        match kind {
            TraceEventKind::Issue { pc, active, .. } => {
                let _ = write!(out, "{{\"pc\":{pc},\"active\":{active}}}");
            }
            TraceEventKind::PdomPush { depth, .. } | TraceEventKind::PdomPop { depth, .. } => {
                let _ = write!(out, "{{\"depth\":{depth}}}");
            }
            TraceEventKind::WarpBirth {
                dynamic,
                population,
                ..
            } => {
                let _ = write!(out, "{{\"dynamic\":{dynamic},\"population\":{population}}}");
            }
            TraceEventKind::WarpRetire { .. }
            | TraceEventKind::SpawnStall { .. }
            | TraceEventKind::SpawnElided { .. } => out.push_str("{}"),
            TraceEventKind::Spawn {
                target_pc, threads, ..
            } => {
                let _ = write!(out, "{{\"target_pc\":{target_pc},\"threads\":{threads}}}");
            }
            TraceEventKind::CoalescerSplit {
                lanes, segments, ..
            } => {
                let _ = write!(out, "{{\"lanes\":{lanes},\"segments\":{segments}}}");
            }
            TraceEventKind::TexAccess {
                lanes, miss_lines, ..
            } => {
                let _ = write!(out, "{{\"lanes\":{lanes},\"miss_lines\":{miss_lines}}}");
            }
            TraceEventKind::L1Access {
                lines,
                misses,
                merges,
                ..
            } => {
                let _ = write!(
                    out,
                    "{{\"lines\":{lines},\"misses\":{misses},\"merges\":{merges}}}"
                );
            }
        }
    }

    fn warp_of(kind: &TraceEventKind) -> usize {
        match kind {
            TraceEventKind::Issue { warp, .. }
            | TraceEventKind::PdomPush { warp, .. }
            | TraceEventKind::PdomPop { warp, .. }
            | TraceEventKind::WarpBirth { warp, .. }
            | TraceEventKind::WarpRetire { warp }
            | TraceEventKind::Spawn { warp, .. }
            | TraceEventKind::SpawnStall { warp }
            | TraceEventKind::SpawnElided { warp }
            | TraceEventKind::CoalescerSplit { warp, .. }
            | TraceEventKind::TexAccess { warp, .. }
            | TraceEventKind::L1Access { warp, .. } => *warp,
        }
    }
}

impl TraceSink for ChromeTraceSink {
    fn render(&self, report: &TelemetryReport) -> String {
        let mut out = String::from("{\"traceEvents\":[");
        let mut first = true;
        for e in &report.events {
            if !first {
                out.push(',');
            }
            first = false;
            let _ = write!(
                out,
                "{{\"name\":\"{}\",\"ph\":\"i\",\"s\":\"t\",\"ts\":{},\"pid\":{},\"tid\":{},\"args\":",
                e.kind.name(),
                e.cycle,
                e.sm,
                Self::warp_of(&e.kind)
            );
            Self::event_args(&e.kind, &mut out);
            out.push('}');
        }
        for (i, w) in report.windows.iter().enumerate() {
            if !first {
                out.push(',');
            }
            first = false;
            let ts = (i as u64 + 1) * report.metrics_window;
            let _ = write!(
                out,
                "{{\"name\":\"metrics\",\"ph\":\"C\",\"ts\":{ts},\"pid\":0,\"tid\":0,\"args\":\
                 {{\"issues\":{},\"thread_instructions\":{},\"warps_born\":{},\"warps_retired\":{},\
                 \"threads_spawned\":{},\"spawn_stalls\":{},\"offchip_segments\":{}}}}}",
                w.issues,
                w.thread_instructions,
                w.warps_born,
                w.warps_retired,
                w.threads_spawned,
                w.spawn_stalls,
                w.offchip_segments
            );
        }
        let _ = write!(
            out,
            "],\"displayTimeUnit\":\"ns\",\"otherData\":{{\"dropped_events\":{}",
            report.dropped
        );
        if let Some((hits, misses)) = report.l2 {
            let _ = write!(
                out,
                ",\"l2_hits\":{hits},\"l2_misses\":{misses},\"icnt_conflicts\":{}",
                report.icnt_conflicts
            );
        }
        out.push_str("}}");
        out
    }
}

/// Windowed-metrics CSV: a counters section, the divergence timeline
/// (`SimStats::divergence.to_csv()`), and per-module DRAM busy time.
/// Sections are separated by `# `-prefixed headers.
pub struct CsvMetricsSink;

impl TraceSink for CsvMetricsSink {
    fn render(&self, report: &TelemetryReport) -> String {
        let mut out = format!(
            "# windowed counters (window = {} cycles)\ncycle_end,{}\n",
            report.metrics_window,
            WindowCounters::NAMES.join(",")
        );
        for (i, w) in report.windows.iter().enumerate() {
            let _ = write!(out, "{}", (i as u64 + 1) * report.metrics_window);
            for v in w.values() {
                let _ = write!(out, ",{v}");
            }
            out.push('\n');
        }
        out.push_str("# divergence timeline\n");
        out.push_str(&report.divergence.to_csv());
        out.push_str("# dram module busy (fractional dram cycles)\nmodule,busy\n");
        for (m, busy) in report.module_busy.iter().enumerate() {
            let _ = writeln!(out, "{m},{busy:.3}");
        }
        // Hierarchy sections only exist on a cached machine, so flat-run
        // CSVs stay byte-identical to the pre-hierarchy format.
        if let Some((hits, misses)) = report.l2 {
            out.push_str("# l2\nl2_hits,l2_misses,icnt_conflicts\n");
            let _ = writeln!(out, "{hits},{misses},{}", report.icnt_conflicts);
            out.push_str("# interconnect bank busy (cycles)\nbank,busy\n");
            for (b, busy) in report.icnt_busy.iter().enumerate() {
                let _ = writeln!(out, "{b},{busy}");
            }
        }
        out
    }
}

/// A point-in-time machine-vitals snapshot of a running simulation: the
/// cycle counter plus the report's aggregates. The supervisor
/// publishes one at every healthy slice boundary; campaign workers relay
/// the latest pulse in their heartbeat files so the coordinator — and
/// the `repro serve` status endpoint above it — can report live per-job
/// progress without touching the simulation.
#[derive(Debug, Clone, PartialEq)]
pub struct ProgressPulse {
    /// Simulated cycle the pulse was taken at.
    pub cycle: u64,
    /// Total instructions issued so far.
    pub issues: u64,
    /// Mean active lanes per issue (SIMT efficiency proxy).
    pub mean_active_lanes: f64,
    /// Warps born across all windows.
    pub warps_born: u64,
    /// Warps retired across all windows.
    pub warps_retired: u64,
    /// μ-kernel threads spawned.
    pub threads_spawned: u64,
    /// Spawn-unit stall events.
    pub spawn_stalls: u64,
    /// Telemetry events dropped under backpressure.
    pub dropped_events: u64,
    /// False when the run had telemetry off and only the cycle counter
    /// is meaningful.
    pub telemetry: bool,
}

impl ProgressPulse {
    /// Builds a pulse from a full telemetry report at `cycle`.
    pub fn collect(cycle: u64, report: &TelemetryReport) -> Self {
        let mut total = WindowCounters::default();
        for w in &report.windows {
            total.merge(w);
        }
        ProgressPulse {
            cycle,
            issues: total.issues,
            mean_active_lanes: report.divergence.mean_active_lanes(),
            warps_born: total.warps_born,
            warps_retired: total.warps_retired,
            threads_spawned: total.threads_spawned,
            spawn_stalls: total.spawn_stalls,
            dropped_events: report.dropped,
            telemetry: true,
        }
    }

    /// A cycle-only pulse for runs with telemetry disabled.
    pub fn at_cycle(cycle: u64) -> Self {
        ProgressPulse {
            cycle,
            issues: 0,
            mean_active_lanes: 0.0,
            warps_born: 0,
            warps_retired: 0,
            threads_spawned: 0,
            spawn_stalls: 0,
            dropped_events: 0,
            telemetry: false,
        }
    }

    /// The vitals tail, one line (downstream log parsers depend on this
    /// format).
    pub fn vitals(&self) -> String {
        format!(
            "issues {}, mean active lanes {:.1}, warps born {} / retired {}, \
             threads spawned {}, spawn stalls {}, dropped events {}",
            self.issues,
            self.mean_active_lanes,
            self.warps_born,
            self.warps_retired,
            self.threads_spawned,
            self.spawn_stalls,
            self.dropped_events
        )
    }
}

impl fmt::Display for ProgressPulse {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.telemetry {
            write!(f, "cycle {}: {}", self.cycle, self.vitals())
        } else {
            write!(f, "cycle {}", self.cycle)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn shard() -> SmTelemetry {
        SmTelemetry::new(0, &TelemetrySpec::trace(), 10)
    }

    fn report_of(shards: &[SmTelemetry]) -> TelemetryReport {
        let mut report = TelemetryReport {
            warp_size: 32,
            metrics_window: shards[0].metrics_window(),
            divergence: DivergenceTimeline::new(10, 32),
            windows: Vec::new(),
            events: Vec::new(),
            dropped: 0,
            module_busy: Vec::new(),
            l2: None,
            icnt_busy: Vec::new(),
            icnt_conflicts: 0,
        };
        for s in shards {
            s.merge_into(&mut report);
        }
        report
    }

    #[test]
    fn disabled_probes_record_nothing() {
        let mut t = SmTelemetry::new(0, &TelemetrySpec::off(), 10);
        t.on_issue(5, 1, 0, 32, 1);
        t.on_warp_birth(7, 1, false, 32);
        assert!(t.windows.is_empty());
        assert!(t.events.is_empty());
    }

    #[test]
    fn metrics_mode_keeps_counters_but_no_events() {
        let mut t = SmTelemetry::new(0, &TelemetrySpec::metrics(), 10);
        t.on_issue(5, 1, 0, 32, 1);
        assert_eq!(t.windows[0].issues, 1);
        assert_eq!(t.windows[0].thread_instructions, 32);
        assert!(t.events.is_empty());
    }

    #[test]
    fn depth_deltas_become_pushes_and_pops() {
        let mut t = shard();
        t.on_issue(0, 1, 10, 32, 1);
        t.on_issue(1, 1, 11, 16, 2); // push
        t.on_issue(2, 1, 12, 16, 2); // steady
        t.on_issue(3, 1, 13, 32, 1); // pop
        assert_eq!(t.windows[0].pdom_pushes, 1);
        assert_eq!(t.windows[0].pdom_pops, 1);
        let kinds: Vec<&'static str> = t.events.iter().map(|e| e.kind.name()).collect();
        assert!(kinds.contains(&"pdom_push"));
        assert!(kinds.contains(&"pdom_pop"));
    }

    #[test]
    fn ring_drops_oldest_and_counts() {
        let spec = TelemetrySpec::trace().with_trace_capacity(4);
        let mut t = SmTelemetry::new(0, &spec, 10);
        for c in 0..10 {
            t.on_issue(c, 1, c as usize, 32, 1);
        }
        assert_eq!(t.events.len(), 4);
        assert_eq!(t.dropped, 6);
        assert_eq!(t.events.front().map(|e| e.cycle), Some(6));
        // Metrics are unaffected by ring pressure.
        assert_eq!(t.windows[0].issues, 10);
    }

    #[test]
    fn merge_is_sm_order_deterministic() {
        let mut a = shard();
        let mut b = SmTelemetry::new(1, &TelemetrySpec::trace(), 10);
        a.on_issue(0, 0, 0, 32, 1);
        b.on_issue(0, 0, 0, 8, 1);
        let r1 = report_of(&[a.clone(), b.clone()]);
        let r2 = report_of(&[a, b]);
        assert_eq!(r1.events, r2.events);
        assert_eq!(r1.windows, r2.windows);
        assert_eq!(ChromeTraceSink.render(&r1), ChromeTraceSink.render(&r2));
    }

    #[test]
    fn chrome_trace_is_balanced_json() {
        let mut t = shard();
        t.on_issue(0, 1, 0, 32, 1);
        t.on_warp_birth(0, 2, true, 16);
        t.on_spawn(1, 1, 99, 12);
        t.on_offchip(2, 1, 32, 5);
        t.on_tex(3, 1, 32, 2);
        let json = ChromeTraceSink.render(&report_of(&[t]));
        assert!(json.starts_with("{\"traceEvents\":["));
        assert!(json.contains("\"ph\":\"C\""));
        let depth_check = json.chars().fold((0i64, 0i64), |(c, s), ch| match ch {
            '{' => (c + 1, s),
            '}' => (c - 1, s),
            '[' => (c, s + 1),
            ']' => (c, s - 1),
            _ => (c, s),
        });
        assert_eq!(depth_check, (0, 0), "unbalanced JSON: {json}");
    }

    #[test]
    fn csv_divergence_section_is_verbatim_timeline() {
        let mut t = shard();
        t.on_issue(0, 1, 0, 32, 1);
        let mut report = report_of(&[t]);
        report.divergence.record_issue(0, 32);
        report.divergence.record_idle(12);
        let csv = CsvMetricsSink.render(&report);
        let section = "# divergence timeline\n".to_string() + &report.divergence.to_csv();
        assert!(csv.contains(&section), "{csv}");
    }

    #[test]
    fn the_csv_columns_are_the_declared_counters_in_order() {
        let mut t = shard();
        t.on_issue(0, 1, 0, 32, 1);
        t.on_spawn(1, 1, 99, 12);
        let csv = CsvMetricsSink.render(&report_of(&[t]));
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(
            lines[1],
            "cycle_end,issues,thread_instructions,warps_born,warps_retired,spawn_instructions,\
             threads_spawned,spawn_stalls,spawn_elisions,pdom_pushes,pdom_pops,\
             offchip_requests,offchip_segments,tex_accesses,tex_miss_lines,\
             l1_accesses,l1_hits,l1_misses,l1_mshr_merges"
        );
        assert_eq!(lines[2], "10,1,32,0,0,1,12,0,0,0,0,0,0,0,0,0,0,0,0");
    }

    fn window_from(bytes: &[u8]) -> Result<WindowCounters, CodecError> {
        let mut w = WindowCounters::default();
        w.restore_state(&mut Decoder::new(bytes)).map(|()| w)
    }

    fn window_bytes(w: &WindowCounters) -> Vec<u8> {
        let mut enc = Encoder::new();
        w.encode_state(&mut enc);
        enc.into_bytes()
    }

    proptest::proptest! {
        /// The declared codec and merge: restore of encode is the identity
        /// (bytes with every high bit clear, so two of them never overflow
        /// a sum), a merge sums field by field, and a truncated payload is
        /// a typed error.
        #[test]
        fn window_counters_roundtrip_and_merge_field_by_field(
            a in proptest::collection::vec(0u8..0x80, WindowCounters::ENCODED_BYTES..WindowCounters::ENCODED_BYTES + 1),
            b in proptest::collection::vec(0u8..0x80, WindowCounters::ENCODED_BYTES..WindowCounters::ENCODED_BYTES + 1),
        ) {
            let (x, y) = (window_from(&a).unwrap(), window_from(&b).unwrap());
            proptest::prop_assert_eq!(window_bytes(&x), a.clone());
            let mut m = x;
            m.merge(&y);
            for ((s, p), q) in m.values().into_iter().zip(x.values()).zip(y.values()) {
                proptest::prop_assert_eq!(s, p + q);
            }
            proptest::prop_assert_eq!(window_from(&window_bytes(&m)).unwrap(), m);
            proptest::prop_assert!(matches!(
                window_from(&a[..a.len() - 1]),
                Err(CodecError::UnexpectedEof { .. })
            ));
        }
    }

    #[test]
    fn vitals_line_is_single_line() {
        let mut t = shard();
        t.on_issue(0, 1, 0, 32, 1);
        let mut report = report_of(&[t]);
        report.divergence.record_issue(0, 32);
        assert_eq!(
            ProgressPulse::collect(0, &report).vitals(),
            "issues 1, mean active lanes 30.5, warps born 0 / retired 0, \
             threads spawned 0, spawn stalls 0, dropped events 0"
        );
    }

    #[test]
    fn encode_restore_roundtrips_metrics_and_depths() {
        let mut t = shard();
        t.on_issue(0, 1, 0, 32, 1);
        t.on_issue(1, 1, 1, 16, 3);
        t.on_warp_birth(2, 4, true, 8);
        let mut enc = Encoder::new();
        t.encode_state(&mut enc);
        let bytes = enc.into_bytes();
        let mut back = SmTelemetry::new(0, &TelemetrySpec::off(), 10);
        let mut dec = Decoder::new(&bytes);
        back.restore_state(&mut dec).expect("restores");
        assert!(dec.is_finished());
        assert_eq!(back.windows, t.windows);
        assert_eq!(back.depths, t.depths);
        assert!(back.metrics && back.trace);
        // The ring does not survive: traces restart after resume.
        assert!(back.events.is_empty());
    }

    #[test]
    fn a_window_count_the_frame_cannot_hold_is_refused_by_its_length() {
        let mut enc = Encoder::new();
        enc.put_bool(true);
        enc.put_bool(false);
        enc.put_u64(10);
        enc.put_usize(DEFAULT_TRACE_CAPACITY);
        // One window claimed, 130 bytes behind the claim: room for a row
        // of 14 counters (112 bytes), not for one of 18 (144).
        enc.put_usize(1);
        let mut bytes = enc.into_bytes();
        bytes.extend([0u8; 130]);
        let mut back = SmTelemetry::new(0, &TelemetrySpec::off(), 10);
        assert_eq!(
            back.restore_state(&mut Decoder::new(&bytes)),
            Err(CodecError::BadLength {
                len: 1,
                remaining: 130
            })
        );
    }
}
