//! Cycle-level telemetry: deterministic tracing and windowed metrics.
//!
//! The simulator's figures are built from aggregate [`crate::SimStats`],
//! but the paper's argument is about *behaviour over time* — divergence
//! timelines, warp lifecycles, spawn→formation pressure, DRAM module
//! load. This module threads light-weight probes through the machine (SM
//! issue/commit, PDOM push/pop, spawn/formation events, warp birth and
//! retirement, coalescer splits, read-only-cache hits, per-DRAM-module
//! busy time) and exports the recordings through
//! [`TelemetryReport::chrome_trace`] and [`TelemetryReport::metrics_csv`].
//!
//! # Determinism
//!
//! Every probe writes into the *per-SM* telemetry shard owned by the SM
//! that observed the event, as it steps — the same discipline
//! as the [`crate::SimStats`] shards. [`crate::Gpu::telemetry_report`]
//! merges the shards in SM-id order, so the merged event stream, the
//! windowed counters, and the rendered exports are the same bytes on
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
//! The divergence breakdown and the SM-cycle ledger are not probes:
//! [`crate::SimStats`] records both on every run, and
//! [`TelemetryReport::divergence`] and [`TelemetryReport::stalls`] are
//! those tables.

use crate::stats::{DivergenceTimeline, StallRows};
use crate::windowed::Windowed;
use simt_isa::codec::{CodecError, Decoder, Encoder};
use std::collections::VecDeque;
use std::fmt::{self, Write as _};

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

/// Declares the trace-event kinds once: each variant with its docs, the
/// stable name exporters print, and its fields. From that one declaration
/// it generates the enum (attributes and docs as written), `name()`, and
/// the Chrome-trace `args` object, the fields in declaration order. Adding
/// a kind is one entry here.
macro_rules! trace_events {
    (
        $(#[$meta:meta])*
        $vis:vis enum $enum:ident {
            $(
                $(#[$vmeta:meta])*
                $variant:ident = $name:literal {
                    $($(#[$fmeta:meta])* $field:ident: $fty:ty),* $(,)?
                }
            ),* $(,)?
        }
    ) => {
        $(#[$meta])*
        $vis enum $enum {
            $($(#[$vmeta])* $variant { $($(#[$fmeta])* $field: $fty),* },)*
        }

        impl $enum {
            /// Short stable name for exporters.
            pub fn name(&self) -> &'static str {
                match self {
                    $($enum::$variant { .. } => $name,)*
                }
            }

            /// Appends the Chrome-trace `args` object: every field, in
            /// declaration order.
            fn write_args(&self, out: &mut String) {
                match self {
                    $($enum::$variant { $($field),* } => write_object(
                        out,
                        [$((stringify!($field), $field as &dyn fmt::Display)),*],
                    ),)*
                }
            }
        }
    };
}

/// Appends the JSON object `{"name":value,…}` of `fields`, in order.
fn write_object<'a>(
    out: &mut String,
    fields: impl IntoIterator<Item = (&'a str, &'a dyn fmt::Display)>,
) {
    out.push('{');
    for (i, (name, value)) in fields.into_iter().enumerate() {
        let sep = if i == 0 { "" } else { "," };
        let _ = write!(out, "{sep}\"{name}\":{value}");
    }
    out.push('}');
}

trace_events! {
    /// What happened, attached to a [`TraceEvent`].
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    #[non_exhaustive]
    pub enum TraceEventKind {
        /// A warp-instruction committed with `active` live lanes.
        Issue = "issue" {
            /// Program counter of the committed instruction.
            pc: usize,
            /// Active lanes at commit.
            active: u32,
        },
        /// The warp's PDOM reconvergence stack grew to `depth`.
        PdomPush = "pdom_push" {
            /// Stack depth after the push.
            depth: u32,
        },
        /// The warp's PDOM reconvergence stack shrank to `depth`.
        PdomPop = "pdom_pop" {
            /// Stack depth after the pop.
            depth: u32,
        },
        /// A warp entered the SM (launch admission or formation output).
        WarpBirth = "warp_birth" {
            /// True for formation-unit (dynamic μ-kernel) warps.
            dynamic: bool,
            /// Threads populating the new warp.
            population: u32,
        },
        /// A warp retired and released its resources.
        WarpRetire = "warp_retire" {},
        /// A `spawn` instruction deposited `threads` into the formation unit.
        Spawn = "spawn" {
            /// μ-kernel entry PC spawned to.
            target_pc: usize,
            /// Active lanes that spawned.
            threads: u32,
        },
        /// A `spawn` retried because the formation unit pushed back
        /// (partial-warp pool or new-warp FIFO full).
        SpawnStall = "spawn_stall" {},
        /// A `spawn` was elided into an in-place branch
        /// (`SpawnPolicy::OnDivergence`, fully converged warp).
        SpawnElided = "spawn_elided" {},
        /// An off-chip warp access was split by the coalescer into
        /// `segments` DRAM segment requests.
        CoalescerSplit = "coalescer_split" {
            /// Lanes participating in the access.
            lanes: u32,
            /// Coalesced segment requests issued.
            segments: u32,
        },
        /// A read-only (texture/kd-tree cache) access: `lanes` lanes probed,
        /// `miss_lines` cache lines missed and went to DRAM.
        TexAccess = "tex_access" {
            /// Lanes participating in the access.
            lanes: u32,
            /// Cache lines that missed.
            miss_lines: u32,
        },
        /// An L1 data-cache access: `lines` lines probed, `misses` missed
        /// (of which `merges` rode an outstanding MSHR fill).
        L1Access = "l1_access" {
            /// L1 lines probed.
            lines: u32,
            /// Lines that missed.
            misses: u32,
            /// Misses merged into an outstanding MSHR entry.
            merges: u32,
        },
    }
}

/// One timestamped telemetry event, recorded by the SM that observed it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceEvent {
    /// Simulated cycle of the event.
    pub cycle: u64,
    /// SM that recorded the event.
    pub sm: usize,
    /// Warp id within the SM.
    pub warp: usize,
    /// What happened.
    pub kind: TraceEventKind,
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
    trace_capacity: usize,
    windows: Windowed<WindowCounters>,
    events: VecDeque<TraceEvent>,
    dropped: u64,
    /// Last PDOM stack depth seen per warp id, to turn depth deltas into
    /// push/pop events at commit time. Indexed by the SM's monotonic,
    /// never-reused warp id; 0 means "no entry" (a live warp's stack is
    /// never empty at commit, and a warp that drains its stack on its
    /// final commit never issues again), which keeps the per-commit hot
    /// path a flat array access instead of a map lookup.
    depths: Vec<u32>,
}

impl SmTelemetry {
    pub(crate) fn new(sm: usize, spec: &TelemetrySpec, divergence_window: u64) -> Self {
        SmTelemetry {
            sm,
            metrics: spec.metrics,
            trace: spec.metrics && spec.trace,
            trace_capacity: spec.trace_capacity.max(1),
            windows: Windowed::new(if spec.metrics_window == 0 {
                divergence_window
            } else {
                spec.metrics_window
            }),
            events: VecDeque::new(),
            dropped: 0,
            depths: Vec::new(),
        }
    }

    /// Whether any probe records anything.
    #[inline]
    pub(crate) fn is_on(&self) -> bool {
        self.metrics
    }

    /// The window counting `cycle`, or `None` with telemetry off.
    fn slot(&mut self, cycle: u64) -> Option<&mut WindowCounters> {
        if !self.is_on() {
            return None;
        }
        Some(self.windows.slot(cycle))
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

    fn push_event(&mut self, cycle: u64, warp: usize, kind: TraceEventKind) {
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
            warp,
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
        let prev = match self.swap_depth(warp, depth) {
            0 => depth,
            d => d,
        };
        let w = self.windows.slot(now);
        w.issues += 1;
        w.thread_instructions += u64::from(active);
        if depth > prev {
            w.pdom_pushes += u64::from(depth - prev);
            self.push_event(now, warp, TraceEventKind::PdomPush { depth });
        } else if depth < prev {
            w.pdom_pops += u64::from(prev - depth);
            self.push_event(now, warp, TraceEventKind::PdomPop { depth });
        }
        self.push_event(now, warp, TraceEventKind::Issue { pc, active });
    }

    /// A warp was admitted (launch or formation output).
    pub(crate) fn on_warp_birth(&mut self, now: u64, warp: usize, dynamic: bool, population: u32) {
        let Some(w) = self.slot(now) else { return };
        w.warps_born += 1;
        self.swap_depth(warp, 1);
        self.push_event(
            now,
            warp,
            TraceEventKind::WarpBirth {
                dynamic,
                population,
            },
        );
    }

    /// A warp retired.
    pub(crate) fn on_warp_retire(&mut self, now: u64, warp: usize) {
        let Some(w) = self.slot(now) else { return };
        w.warps_retired += 1;
        if let Some(d) = self.depths.get_mut(warp) {
            *d = 0;
        }
        self.push_event(now, warp, TraceEventKind::WarpRetire {});
    }

    /// A `spawn` deposited `threads` into the formation unit.
    pub(crate) fn on_spawn(&mut self, now: u64, warp: usize, target_pc: usize, threads: u32) {
        let Some(w) = self.slot(now) else { return };
        w.spawn_instructions += 1;
        w.threads_spawned += u64::from(threads);
        self.push_event(now, warp, TraceEventKind::Spawn { target_pc, threads });
    }

    /// A `spawn` retried under formation back-pressure (the stall ledger
    /// counts it; this records its trace event).
    pub(crate) fn on_spawn_stall(&mut self, now: u64, warp: usize) {
        self.push_event(now, warp, TraceEventKind::SpawnStall {});
    }

    /// A `spawn` was elided into an in-place branch.
    pub(crate) fn on_spawn_elided(&mut self, now: u64, warp: usize) {
        let Some(w) = self.slot(now) else { return };
        w.spawn_elisions += 1;
        self.push_event(now, warp, TraceEventKind::SpawnElided {});
    }

    /// An off-chip warp access issued `segments` coalesced requests.
    pub(crate) fn on_offchip(&mut self, now: u64, warp: usize, lanes: u32, segments: u32) {
        let Some(w) = self.slot(now) else { return };
        w.offchip_requests += 1;
        w.offchip_segments += u64::from(segments);
        if segments > 1 {
            self.push_event(
                now,
                warp,
                TraceEventKind::CoalescerSplit { lanes, segments },
            );
        }
    }

    /// A read-only-cache access probed `lanes` lanes, missing
    /// `miss_lines` lines.
    pub(crate) fn on_tex(&mut self, now: u64, warp: usize, lanes: u32, miss_lines: u32) {
        let Some(w) = self.slot(now) else { return };
        w.tex_accesses += 1;
        w.tex_miss_lines += u64::from(miss_lines);
        self.push_event(now, warp, TraceEventKind::TexAccess { lanes, miss_lines });
    }

    /// An L1 data-cache probe (see [`simt_mem::L1Probe`]).
    pub(crate) fn on_l1(&mut self, now: u64, warp: usize, probe: &simt_mem::L1Probe) {
        let Some(w) = self.slot(now) else { return };
        w.l1_accesses += 1;
        w.l1_hits += u64::from(probe.hits);
        w.l1_misses += u64::from(probe.misses);
        w.l1_mshr_merges += u64::from(probe.merges);
        self.push_event(
            now,
            warp,
            TraceEventKind::L1Access {
                lines: probe.lines,
                misses: probe.misses,
                merges: probe.merges,
            },
        );
    }

    /// The windowed counters.
    pub(crate) fn windows(&self) -> &Windowed<WindowCounters> {
        &self.windows
    }

    /// Merges this shard into an accumulating report (SM-id order is the
    /// caller's responsibility).
    pub(crate) fn merge_into(&self, report: &mut TelemetryReport) {
        report.windows.merge(&self.windows);
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
        enc.put_u64(self.windows.width());
        enc.put_usize(self.trace_capacity);
        self.windows.encode_state(enc);
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

    /// Restores state written by [`SmTelemetry::encode_state`] for an SM
    /// that has handed out warp ids below `next_warp_id`. A zero window,
    /// or depth entries out of warp-id order or naming an id not yet
    /// handed out, are refused: no run leaves them, and they would divide
    /// by zero or size the depth table from a corrupt number.
    pub(crate) fn restore_state(
        &mut self,
        dec: &mut Decoder<'_>,
        next_warp_id: usize,
    ) -> Result<(), CodecError> {
        self.metrics = dec.take_bool()?;
        self.trace = dec.take_bool()?;
        let width = dec.take_u64()?;
        if width == 0 {
            return Err(CodecError::BadTag {
                what: "telemetry window",
                tag: 0,
            });
        }
        self.trace_capacity = dec.take_usize()?.max(1);
        self.windows = Windowed::new(width);
        self.windows.restore_state(dec)?;
        let n = dec.take_len(9)?;
        self.depths.clear();
        for _ in 0..n {
            let warp = dec.take_usize()?;
            let depth = dec.take_u32()?;
            if warp < self.depths.len() || warp >= next_warp_id {
                return Err(CodecError::BadTag {
                    what: "telemetry depth entry's warp id",
                    tag: warp as u64,
                });
            }
            self.depths.resize(warp + 1, 0);
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
    /// The machine's divergence timeline: [`crate::SimStats::divergence`]
    /// at the time of the report, whether or not telemetry is on.
    pub divergence: DivergenceTimeline,
    /// The machine's SM-cycle ledger: [`crate::SimStats::stalls`] at the
    /// time of the report, whether or not telemetry is on.
    pub stalls: Windowed<StallRows>,
    /// Windowed counters, the SMs' shards added together.
    pub windows: Windowed<WindowCounters>,
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

/// The [`WindowCounters`] the Chrome trace's `metrics` counter track
/// plots, in [`WindowCounters::NAMES`] order.
const TRACKED: [&str; 6] = [
    "issues",
    "thread_instructions",
    "warps_born",
    "warps_retired",
    "threads_spawned",
    "offchip_segments",
];

impl TelemetryReport {
    /// Chrome trace-event JSON (the `chrome://tracing` / Perfetto format):
    /// an instant event per trace ring entry (`pid` = SM, `tid` = warp),
    /// a `metrics` counter event per metrics window, and an `sm_cycles`
    /// counter event, every stall row, per ledger window.
    pub fn chrome_trace(&self) -> String {
        let mut out = String::from("{\"traceEvents\":[");
        for e in &self.events {
            let _ = write!(
                out,
                "{{\"name\":\"{}\",\"ph\":\"i\",\"s\":\"t\",\"ts\":{},\"pid\":{},\"tid\":{},\"args\":",
                e.kind.name(),
                e.cycle,
                e.sm,
                e.warp
            );
            e.kind.write_args(&mut out);
            out.push_str("},");
        }
        for (ts, w) in self.windows.ends() {
            let _ = write!(
                out,
                "{{\"name\":\"metrics\",\"ph\":\"C\",\"ts\":{ts},\"pid\":0,\"tid\":0,\"args\":"
            );
            let values = w.values();
            let tracked = WindowCounters::NAMES
                .iter()
                .zip(&values)
                .filter(|(name, _)| TRACKED.contains(name));
            write_object(
                &mut out,
                tracked.map(|(name, v)| (*name, v as &dyn fmt::Display)),
            );
            out.push_str("},");
        }
        for (ts, r) in self.stalls.ends() {
            let _ = write!(
                out,
                "{{\"name\":\"sm_cycles\",\"ph\":\"C\",\"ts\":{ts},\"pid\":0,\"tid\":0,\"args\":"
            );
            let values = r.values();
            let rows = StallRows::NAMES.iter().zip(&values);
            write_object(
                &mut out,
                rows.map(|(name, v)| (*name, v as &dyn fmt::Display)),
            );
            out.push_str("},");
        }
        if out.ends_with(',') {
            out.pop();
        }
        let _ = write!(
            out,
            "],\"displayTimeUnit\":\"ns\",\"otherData\":{{\"dropped_events\":{}",
            self.dropped
        );
        if let Some((hits, misses)) = self.l2 {
            let _ = write!(
                out,
                ",\"l2_hits\":{hits},\"l2_misses\":{misses},\"icnt_conflicts\":{}",
                self.icnt_conflicts
            );
        }
        out.push_str("}}");
        out
    }

    /// Windowed-metrics CSV: a counters section, the divergence timeline
    /// (`SimStats::divergence.to_csv()`), the SM-cycle ledger's stall
    /// rows, and per-module DRAM busy time. Sections are separated by
    /// `# `-prefixed headers.
    pub fn metrics_csv(&self) -> String {
        let width = self.windows.width();
        let mut out = format!("# windowed counters (window = {width} cycles)\n");
        self.windows.write_csv(&mut out, WindowCounters::NAMES);
        out.push_str("# divergence timeline\n");
        out.push_str(&self.divergence.to_csv());
        let width = self.stalls.width();
        let _ = writeln!(out, "# sm-cycle stall rows (window = {width} cycles)");
        self.stalls.write_csv(&mut out, StallRows::NAMES);
        out.push_str("# dram module busy (fractional dram cycles)\nmodule,busy\n");
        for (m, busy) in self.module_busy.iter().enumerate() {
            let _ = writeln!(out, "{m},{busy:.3}");
        }
        // Hierarchy sections only exist on a cached machine, so flat-run
        // CSVs stay byte-identical to the pre-hierarchy format.
        if let Some((hits, misses)) = self.l2 {
            out.push_str("# l2\nl2_hits,l2_misses,icnt_conflicts\n");
            let _ = writeln!(out, "{hits},{misses},{}", self.icnt_conflicts);
            out.push_str("# interconnect bank busy (cycles)\nbank,busy\n");
            for (b, busy) in self.icnt_busy.iter().enumerate() {
                let _ = writeln!(out, "{b},{busy}");
            }
        }
        out
    }

    /// The machine's vitals on one line (downstream log parsers depend on
    /// this format). The supervisor publishes `cycle N: <vitals>` at every
    /// healthy slice boundary of a run with telemetry on; campaign workers
    /// relay it as a `pulse` line on their stdout, so the coordinator and
    /// the `repro serve` status endpoint report live per-job progress.
    pub fn vitals(&self) -> String {
        let total = self.windows.total();
        format!(
            "issues {}, mean active lanes {:.1}, warps born {} / retired {}, \
             threads spawned {}, spawn stalls {}, dropped events {}",
            total.issues,
            self.divergence.mean_active_lanes(),
            total.warps_born,
            total.warps_retired,
            total.threads_spawned,
            self.stalls.total().spawn_stalls,
            self.dropped
        )
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
            divergence: DivergenceTimeline::new(10, 32),
            stalls: Windowed::new(10),
            windows: Windowed::new(shards[0].windows.width()),
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
        assert!(t.windows.rows().is_empty());
        assert!(t.events.is_empty());
    }

    #[test]
    fn metrics_mode_keeps_counters_but_no_events() {
        let mut t = SmTelemetry::new(0, &TelemetrySpec::metrics(), 10);
        t.on_issue(5, 1, 0, 32, 1);
        assert_eq!(t.windows.rows()[0].issues, 1);
        assert_eq!(t.windows.rows()[0].thread_instructions, 32);
        assert!(t.events.is_empty());
    }

    #[test]
    fn depth_deltas_become_pushes_and_pops() {
        let mut t = shard();
        t.on_issue(0, 1, 10, 32, 1);
        t.on_issue(1, 1, 11, 16, 2); // push
        t.on_issue(2, 1, 12, 16, 2); // steady
        t.on_issue(3, 1, 13, 32, 1); // pop
        assert_eq!(t.windows.rows()[0].pdom_pushes, 1);
        assert_eq!(t.windows.rows()[0].pdom_pops, 1);
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
        assert_eq!(t.windows.rows()[0].issues, 10);
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
        assert_eq!(r1.chrome_trace(), r2.chrome_trace());
    }

    #[test]
    fn chrome_trace_is_balanced_json() {
        let mut t = shard();
        t.on_issue(0, 1, 0, 32, 1);
        t.on_warp_birth(0, 2, true, 16);
        t.on_spawn(1, 1, 99, 12);
        t.on_offchip(2, 1, 32, 5);
        t.on_tex(3, 1, 32, 2);
        let json = report_of(&[t]).chrome_trace();
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

    /// One event of every kind, and a cached machine's `otherData`,
    /// rendered to the exact Chrome-trace bytes.
    #[test]
    fn every_trace_kind_renders_to_pinned_chrome_json() {
        let mut t = shard();
        t.on_warp_birth(0, 1, true, 3);
        t.on_issue(1, 1, 8, 3, 2);
        t.on_issue(2, 1, 9, 2, 1);
        t.on_spawn(3, 1, 40, 2);
        t.on_spawn_stall(4, 1);
        t.on_spawn_elided(5, 1);
        t.on_offchip(6, 1, 3, 2);
        t.on_tex(7, 1, 3, 1);
        let probe = simt_mem::L1Probe {
            lines: 4,
            hits: 1,
            misses: 3,
            merges: 2,
            mshr_stalls: 0,
        };
        t.on_l1(8, 1, &probe);
        t.on_warp_retire(9, 1);
        let mut report = report_of(&[t]);
        report.stalls.add_span(4, 1, |r, n| r.spawn_stalls += n);
        report.stalls.add_span(12, 2, |r, n| r.offchip += n);
        report.l2 = Some((5, 6));
        report.icnt_conflicts = 7;
        let events: Vec<String> = [
            r#""warp_birth","ph":"i","s":"t","ts":0,"pid":0,"tid":1,"args":{"dynamic":true,"population":3}"#,
            r#""pdom_push","ph":"i","s":"t","ts":1,"pid":0,"tid":1,"args":{"depth":2}"#,
            r#""issue","ph":"i","s":"t","ts":1,"pid":0,"tid":1,"args":{"pc":8,"active":3}"#,
            r#""pdom_pop","ph":"i","s":"t","ts":2,"pid":0,"tid":1,"args":{"depth":1}"#,
            r#""issue","ph":"i","s":"t","ts":2,"pid":0,"tid":1,"args":{"pc":9,"active":2}"#,
            r#""spawn","ph":"i","s":"t","ts":3,"pid":0,"tid":1,"args":{"target_pc":40,"threads":2}"#,
            r#""spawn_stall","ph":"i","s":"t","ts":4,"pid":0,"tid":1,"args":{}"#,
            r#""spawn_elided","ph":"i","s":"t","ts":5,"pid":0,"tid":1,"args":{}"#,
            r#""coalescer_split","ph":"i","s":"t","ts":6,"pid":0,"tid":1,"args":{"lanes":3,"segments":2}"#,
            r#""tex_access","ph":"i","s":"t","ts":7,"pid":0,"tid":1,"args":{"lanes":3,"miss_lines":1}"#,
            r#""l1_access","ph":"i","s":"t","ts":8,"pid":0,"tid":1,"args":{"lines":4,"misses":3,"merges":2}"#,
            r#""warp_retire","ph":"i","s":"t","ts":9,"pid":0,"tid":1,"args":{}"#,
        ]
        .iter()
        .map(|e| format!("{{\"name\":{e}}}"))
        .collect();
        let want = format!(
            "{{\"traceEvents\":[{},{},{},{}],\"displayTimeUnit\":\"ns\",\"otherData\":\
             {{\"dropped_events\":0,\"l2_hits\":5,\"l2_misses\":6,\"icnt_conflicts\":7}}}}",
            events.join(","),
            r#"{"name":"metrics","ph":"C","ts":10,"pid":0,"tid":0,"args":{"issues":2,"thread_instructions":5,"warps_born":1,"warps_retired":1,"threads_spawned":2,"offchip_segments":2}}"#,
            r#"{"name":"sm_cycles","ph":"C","ts":10,"pid":0,"tid":0,"args":{"spawn_stalls":1,"no_warp":0,"formation":0,"offchip":0,"mshr_full":0,"bank_replay":0,"latency":0,"spawn_backoff":0}}"#,
            r#"{"name":"sm_cycles","ph":"C","ts":20,"pid":0,"tid":0,"args":{"spawn_stalls":0,"no_warp":0,"formation":0,"offchip":2,"mshr_full":0,"bank_replay":0,"latency":0,"spawn_backoff":0}}"#
        );
        assert_eq!(report.chrome_trace(), want);
    }

    #[test]
    fn csv_divergence_section_is_verbatim_timeline() {
        let mut t = shard();
        t.on_issue(0, 1, 0, 32, 1);
        let mut report = report_of(&[t]);
        report.divergence.record_issue(0, 32);
        report.divergence.record_idle(12);
        let csv = report.metrics_csv();
        let section = "# divergence timeline\n".to_string() + &report.divergence.to_csv();
        assert!(csv.contains(&section), "{csv}");
    }

    #[test]
    fn the_csv_columns_are_the_declared_counters_in_order() {
        let mut t = shard();
        t.on_issue(0, 1, 0, 32, 1);
        t.on_spawn(1, 1, 99, 12);
        let csv = report_of(&[t]).metrics_csv();
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(
            lines[1],
            "cycle_end,issues,thread_instructions,warps_born,warps_retired,spawn_instructions,\
             threads_spawned,spawn_elisions,pdom_pushes,pdom_pops,\
             offchip_requests,offchip_segments,tex_accesses,tex_miss_lines,\
             l1_accesses,l1_hits,l1_misses,l1_mshr_merges"
        );
        assert_eq!(lines[2], "10,1,32,0,0,1,12,0,0,0,0,0,0,0,0,0,0,0");
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
            report.vitals(),
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
        back.restore_state(&mut dec, 5).expect("restores");
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
        // of 14 counters (112 bytes), not for one of 17 (136).
        enc.put_usize(1);
        let mut bytes = enc.into_bytes();
        bytes.extend([0u8; 130]);
        let mut back = SmTelemetry::new(0, &TelemetrySpec::off(), 10);
        assert_eq!(
            back.restore_state(&mut Decoder::new(&bytes), 0),
            Err(CodecError::BadLength {
                len: 1,
                remaining: 130
            })
        );
    }

    /// Depth entries restore only in rising warp-id order and below the
    /// SM's next warp id.
    #[test]
    fn depth_entries_rise_below_the_next_warp_id() {
        let state = |warps: &[usize]| {
            let mut enc = Encoder::new();
            enc.put_bool(true);
            enc.put_bool(false);
            enc.put_u64(10);
            enc.put_usize(1);
            enc.put_usize(0);
            enc.put_usize(warps.len());
            for &warp in warps {
                enc.put_usize(warp);
                enc.put_u32(1);
            }
            enc.into_bytes()
        };
        let restore = |warps: &[usize]| {
            SmTelemetry::new(0, &TelemetrySpec::off(), 10)
                .restore_state(&mut Decoder::new(&state(warps)), 4)
        };
        assert!(restore(&[0, 3]).is_ok());
        for bad in [&[2, 2][..], &[3, 1], &[4]] {
            assert!(restore(bad).is_err(), "{bad:?}");
        }
    }
}
