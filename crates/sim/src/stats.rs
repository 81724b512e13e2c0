//! Simulation statistics: IPC, divergence timelines, completion counters.

use crate::windowed::Windowed;
use serde::{Deserialize, Serialize};
use simt_isa::codec::{CodecError, Decoder, Encoder};
use std::fmt;

/// Number of warp-occupancy buckets in divergence breakdowns.
///
/// Bucket 0 counts *idle* SM-cycles (no warp issued); buckets `1..=8`
/// count issues with `4(b-1)+1 ..= 4b` active lanes — the paper's
/// `W1:4 .. W29:32` categories of Figs. 3/7/9.
pub const OCCUPANCY_BUCKETS: usize = 9;

/// Divergence breakdown over time: per window, how many SM-cycles issued a
/// warp with each occupancy level (the data behind paper Figs. 3, 7, 9).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct DivergenceTimeline {
    counts: Windowed<[u64; OCCUPANCY_BUCKETS]>,
    warp_size: u32,
}

impl DivergenceTimeline {
    /// Creates a timeline with `window`-cycle buckets.
    ///
    /// # Panics
    ///
    /// Panics if `window` is zero.
    pub fn new(window: u64, warp_size: u32) -> Self {
        DivergenceTimeline {
            counts: Windowed::new(window),
            warp_size,
        }
    }

    #[inline]
    fn bucket_for(&self, active_lanes: u32) -> usize {
        if active_lanes == 0 {
            return 0;
        }
        // Scale to the paper's 4-lane-wide buckets regardless of warp size.
        let per_bucket = (self.warp_size as usize)
            .div_ceil(OCCUPANCY_BUCKETS - 1)
            .max(1);
        // Common warp sizes give a power-of-two bucket width; shift instead
        // of dividing by a runtime value on the per-issue path.
        let scaled = if per_bucket.is_power_of_two() {
            ((active_lanes as usize) - 1) >> per_bucket.trailing_zeros()
        } else {
            ((active_lanes as usize) - 1) / per_bucket
        };
        (scaled + 1).min(OCCUPANCY_BUCKETS - 1)
    }

    /// Records one SM-cycle that issued a warp with `active_lanes` lanes.
    pub fn record_issue(&mut self, cycle: u64, active_lanes: u32) {
        let b = self.bucket_for(active_lanes);
        self.counts.slot(cycle)[b] += 1;
    }

    /// Records one idle SM-cycle (no warp ready).
    pub fn record_idle(&mut self, cycle: u64) {
        self.counts.slot(cycle)[0] += 1;
    }

    /// Records `count` consecutive idle SM-cycles starting at `from` —
    /// identical to calling [`DivergenceTimeline::record_idle`] once per
    /// cycle.
    pub fn record_idle_span(&mut self, from: u64, count: u64) {
        self.counts.add_span(from, count, |w, n| w[0] += n);
    }

    /// The window width in cycles.
    pub fn window(&self) -> u64 {
        self.counts.width()
    }

    /// Raw per-window counts (`[idle, W1:4, W5:8, …]`).
    pub fn windows(&self) -> &[[u64; OCCUPANCY_BUCKETS]] {
        self.counts.rows()
    }

    /// Per-bucket counts summed over every window.
    pub fn total(&self) -> [u64; OCCUPANCY_BUCKETS] {
        self.counts.total()
    }

    /// Bucket labels matching [`DivergenceTimeline::windows`] columns.
    pub fn labels(&self) -> Vec<String> {
        let per_bucket = (self.warp_size as usize)
            .div_ceil(OCCUPANCY_BUCKETS - 1)
            .max(1);
        let mut v = vec!["idle".to_string()];
        for b in 1..OCCUPANCY_BUCKETS {
            let lo = (b - 1) * per_bucket + 1;
            let hi = (b * per_bucket).min(self.warp_size as usize);
            v.push(format!("W{lo}:{hi}"));
        }
        v
    }

    /// Renders the timeline as AerialVision-style CSV: one row per window,
    /// one column per occupancy bucket.
    pub fn to_csv(&self) -> String {
        let mut out = String::new();
        self.counts.write_csv(&mut out, &self.labels());
        out
    }

    /// Merges another timeline into this one (element-wise sum of counts).
    ///
    /// Shards index windows by *absolute* cycle, so merging per-SM shards
    /// reproduces exactly the timeline a single serial recorder would have
    /// built.
    ///
    /// # Panics
    ///
    /// Panics if the timelines have different window widths or warp sizes.
    pub fn merge(&mut self, other: &DivergenceTimeline) {
        assert_eq!(self.warp_size, other.warp_size, "merging mismatched warps");
        self.counts.merge(&other.counts);
    }

    /// Serializes the timeline's counts for a simulator checkpoint (window
    /// width and warp size are configuration, re-derived on restore).
    pub(crate) fn encode_state(&self, enc: &mut Encoder) {
        self.counts.encode_state(enc);
    }

    /// Restores counts previously written by
    /// [`DivergenceTimeline::encode_state`].
    pub(crate) fn restore_state(&mut self, dec: &mut Decoder<'_>) -> Result<(), CodecError> {
        self.counts.restore_state(dec)
    }

    /// Average active lanes per *issue* over the whole run (idle excluded).
    pub fn mean_active_lanes(&self) -> f64 {
        let per_bucket = (self.warp_size as usize)
            .div_ceil(OCCUPANCY_BUCKETS - 1)
            .max(1);
        let mut issues = 0u64;
        let mut weighted = 0f64;
        for w in self.counts.rows() {
            for (b, &n) in w.iter().enumerate().skip(1) {
                issues += n;
                // Midpoint of the bucket's lane range.
                let lo = ((b - 1) * per_bucket + 1) as f64;
                let hi = ((b * per_bucket).min(self.warp_size as usize)) as f64;
                weighted += n as f64 * (lo + hi) / 2.0;
            }
        }
        if issues == 0 {
            0.0
        } else {
            weighted / issues as f64
        }
    }
}

simt_isa::counters! {
    /// Aggregate counters for one simulation run.
    ///
    /// During a run each SM accumulates into its own `SimStats` shard (only
    /// the SM writes it); the GPU merges the shards into its base
    /// stats with [`SimStats::merge`]. All counters are sums, so the merge is
    /// exact regardless of SM count — the basis of the determinism regression
    /// tests. The GPU sets the two derived counters from its clock and the
    /// stall ledger whenever a run returns or a snapshot restores, and a
    /// snapshot stores neither.
    #[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
    pub struct SimStats {
        /// Cycles simulated: the machine's clock.
        pub cycles: u64 = derived,
        /// Committed thread-instructions (the paper's IPC numerator).
        pub thread_instructions: u64 = sum,
        /// Warp-instructions issued.
        pub warp_issues: u64 = sum,
        /// SM-cycles with no warp ready to issue: the idle rows of
        /// [`SimStats::stalls`] added up.
        pub idle_sm_cycles: u64 = derived,
        /// Launch-time threads created.
        pub threads_launched: u64 = sum,
        /// Dynamically spawned threads.
        pub threads_spawned: u64 = sum,
        /// Threads retired (launch + dynamic).
        pub threads_retired: u64 = sum,
        /// Lineages completed: a thread retired without spawning a child. For
        /// the ray-tracing kernels this equals *rays completed* under both the
        /// traditional and the μ-kernel formulation.
        pub lineages_completed: u64 = sum,
        /// Spawns elided into in-place branches (`SpawnPolicy::OnDivergence`).
        pub spawn_elisions: u64 = sum,
        /// Runtime warp traps recorded (illegal accesses, exhausted spawn LUT,
        /// injected faults) — under both fault policies.
        pub faults: u64 = sum,
        /// Warps killed under [`crate::FaultPolicy::KillWarp`].
        pub warps_killed: u64 = sum,
        /// Live threads discarded with killed warps (not counted as retired).
        pub threads_killed: u64 = sum,
        /// Times the watchdog stopped a run with
        /// [`crate::RunOutcome::Deadlock`].
        pub watchdog_deadlocks: u64 = sum,
        /// Back-pressure / trap events forced by [`crate::Injector`].
        pub injected_events: u64 = sum,
    }
    members {
        /// Divergence breakdown over time, added window by window.
        pub divergence: DivergenceTimeline,
        /// The SM-cycle ledger over time: every SM-cycle that neither
        /// issued nor trapped, by cause, added window by window.
        pub stalls: Windowed<StallRows>,
    }
}

simt_isa::counters! {
    /// One window of the SM-cycle ledger. An SM-cycle issues a warp
    /// (counted by `warp_issues` and the divergence buckets), traps
    /// (`faults`), or lands in exactly one row here: a `spawn` pushed back
    /// by the formation unit, or an idle cycle, charged to what the SM was
    /// waiting for. An idle SM's cause is read from its own state, which
    /// does not change while it sleeps.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub struct StallRows {
        /// A `spawn` retried under formation back-pressure.
        pub spawn_stalls: u64 = sum,
        /// Idle: no resident warp, and nothing held in formation.
        pub no_warp: u64 = sum,
        /// Idle: no resident warp, with threads held in the formation unit.
        pub formation: u64 = sum,
        /// Idle: the first-waking warp waits on a load from beyond the SM
        /// (its own fabric request, or an in-flight L1 fill it merged into).
        pub offchip: u64 = sum,
        /// Idle: the first-waking warp waits on a load that found the L1's
        /// MSHR table full.
        pub mshr_full: u64 = sum,
        /// Idle: the issue port is held by bank-conflict replays.
        pub bank_replay: u64 = sum,
        /// Idle: the first-waking warp waits on its own instruction's
        /// on-chip or ALU latency (cache hits included).
        pub latency: u64 = sum,
        /// Idle: the first-waking warp backs off a pushed-back `spawn`.
        pub spawn_backoff: u64 = sum,
    }
}

/// What an SM-cycle that neither issued nor trapped was spent on: one row
/// of [`StallRows`]. A warp's [`crate::Warp::wait`] is one of the four
/// causes a warp can wait on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Stall {
    /// See [`StallRows::spawn_stalls`].
    SpawnStall,
    /// See [`StallRows::no_warp`].
    NoWarp,
    /// See [`StallRows::formation`].
    Formation,
    /// See [`StallRows::offchip`].
    Offchip,
    /// See [`StallRows::mshr_full`].
    MshrFull,
    /// See [`StallRows::bank_replay`].
    BankReplay,
    /// See [`StallRows::latency`].
    Latency,
    /// See [`StallRows::spawn_backoff`].
    SpawnBackoff,
}

impl StallRows {
    /// The row `cause` is charged to.
    #[inline]
    pub fn row(&mut self, cause: Stall) -> &mut u64 {
        match cause {
            Stall::SpawnStall => &mut self.spawn_stalls,
            Stall::NoWarp => &mut self.no_warp,
            Stall::Formation => &mut self.formation,
            Stall::Offchip => &mut self.offchip,
            Stall::MshrFull => &mut self.mshr_full,
            Stall::BankReplay => &mut self.bank_replay,
            Stall::Latency => &mut self.latency,
            Stall::SpawnBackoff => &mut self.spawn_backoff,
        }
    }

    /// The idle rows added up — every row but `spawn_stalls` — in
    /// `u128`, which no forged row overflows.
    pub fn idle(&self) -> u128 {
        self.values()[1..].iter().map(|&v| u128::from(v)).sum()
    }
}

impl SimStats {
    /// Creates zeroed statistics; the divergence timeline and the stall
    /// ledger share `divergence_window`.
    pub fn new(divergence_window: u64, warp_size: u32) -> Self {
        SimStats::with_members(
            DivergenceTimeline::new(divergence_window, warp_size),
            Windowed::new(divergence_window),
        )
    }

    /// Sets the derived counters: `cycles` from the clock `now`, and
    /// `idle_sm_cycles` from the stall ledger (saturating: a restored
    /// ledger has not met the audit yet).
    pub(crate) fn derive(&mut self, now: u64) {
        self.cycles = now;
        let idle: u128 = self.stalls.rows().iter().map(StallRows::idle).sum();
        self.idle_sm_cycles = u64::try_from(idle).unwrap_or(u64::MAX);
    }

    /// Committed thread-instructions per cycle.
    pub fn ipc(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.thread_instructions as f64 / self.cycles as f64
        }
    }

    /// SIMT efficiency: committed thread-instructions over issued warp
    /// slots (`warp_issues × warp_size`).
    pub fn simt_efficiency(&self, warp_size: u32) -> f64 {
        if self.warp_issues == 0 {
            0.0
        } else {
            self.thread_instructions as f64 / (self.warp_issues as f64 * f64::from(warp_size))
        }
    }

    /// Completed lineages (≙ rays) per second at `clock_ghz`.
    pub fn rays_per_second(&self, clock_ghz: f64) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.lineages_completed as f64 / (self.cycles as f64 / (clock_ghz * 1e9))
        }
    }
}

impl fmt::Display for SimStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (name, v) in SimStats::NAMES.iter().zip(self.values()) {
            writeln!(f, "{:<22}{v}", format!("{name}:"))?;
        }
        write!(f, "{:<22}{:.1}", "ipc:", self.ipc())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buckets_cover_paper_categories() {
        let t = DivergenceTimeline::new(100, 32);
        assert_eq!(
            t.labels(),
            vec!["idle", "W1:4", "W5:8", "W9:12", "W13:16", "W17:20", "W21:24", "W25:28", "W29:32"]
        );
    }

    #[test]
    fn bucket_assignment_boundaries() {
        let mut t = DivergenceTimeline::new(100, 32);
        t.record_issue(0, 1);
        t.record_issue(0, 4);
        t.record_issue(0, 5);
        t.record_issue(0, 32);
        t.record_idle(0);
        let w = t.windows()[0];
        assert_eq!(w[0], 1, "idle");
        assert_eq!(w[1], 2, "W1:4");
        assert_eq!(w[2], 1, "W5:8");
        assert_eq!(w[8], 1, "W29:32");
    }

    #[test]
    fn windows_split_by_cycle() {
        let mut t = DivergenceTimeline::new(10, 32);
        t.record_issue(5, 32);
        t.record_issue(15, 32);
        t.record_issue(25, 32);
        assert_eq!(t.windows().len(), 3);
        assert_eq!(t.windows()[1][8], 1);
    }

    #[test]
    fn mean_active_lanes_weighted() {
        let mut t = DivergenceTimeline::new(10, 32);
        t.record_issue(0, 32); // bucket midpoint 30.5
        t.record_issue(0, 2); // bucket midpoint 2.5
        t.record_idle(0); // excluded
        assert!((t.mean_active_lanes() - 16.5).abs() < 1e-9);
    }

    #[test]
    fn ipc_and_efficiency() {
        let mut s = SimStats::new(100, 32);
        s.cycles = 100;
        s.thread_instructions = 1600;
        s.warp_issues = 100;
        assert!((s.ipc() - 16.0).abs() < 1e-9);
        assert!((s.simt_efficiency(32) - 0.5).abs() < 1e-9);
    }

    #[test]
    fn rays_per_second_uses_clock() {
        let mut s = SimStats::new(100, 32);
        s.cycles = 1_000_000;
        s.lineages_completed = 1000;
        // 1000 rays in 1M cycles at 1 GHz = 1M rays/s.
        assert!((s.rays_per_second(1.0) - 1e6).abs() < 1.0);
    }

    #[test]
    fn display_prints_every_counter_by_name_then_ipc() {
        let mut s = SimStats::new(100, 32);
        s.cycles = 10;
        s.thread_instructions = 45;
        let text = s.to_string();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), SimStats::NAMES.len() + 1);
        assert_eq!(lines[0], "cycles:               10");
        assert_eq!(lines[1], "thread_instructions:  45");
        assert_eq!(lines.last(), Some(&"ipc:                  4.5"));
    }

    fn stats_from(bytes: &[u8]) -> Result<SimStats, CodecError> {
        let mut s = SimStats::new(100, 32);
        s.restore_state(&mut Decoder::new(bytes)).map(|()| s)
    }

    fn stats_bytes(s: &SimStats) -> Vec<u8> {
        let mut enc = Encoder::new();
        s.encode_state(&mut enc);
        enc.into_bytes()
    }

    proptest::proptest! {
        /// The declared codec and merge: restore of encode is the identity
        /// (stored counter bytes with every high bit clear, so two of them
        /// never overflow a sum, then one divergence window and one stall
        /// window), a merge sums every counter and adds the timelines, and
        /// a truncated payload is a typed error.
        #[test]
        fn sim_stats_roundtrip_and_merge_field_by_field(
            a in proptest::collection::vec(0u8..0x80, SimStats::ENCODED_BYTES..SimStats::ENCODED_BYTES + 1),
            b in proptest::collection::vec(0u8..0x80, SimStats::ENCODED_BYTES..SimStats::ENCODED_BYTES + 1),
            lanes in 0u32..33,
        ) {
            let with_window = |counters: &[u8]| {
                let mut t = DivergenceTimeline::new(100, 32);
                t.record_issue(0, lanes);
                let mut stalls = Windowed::<StallRows>::new(100);
                stalls.add_span(0, u64::from(lanes), |r, n| r.latency += n);
                let mut enc = Encoder::new();
                t.encode_state(&mut enc);
                stalls.encode_state(&mut enc);
                [counters, &enc.into_bytes()].concat()
            };
            let (a, b) = (with_window(&a), with_window(&b));
            let (x, y) = (stats_from(&a).unwrap(), stats_from(&b).unwrap());
            proptest::prop_assert_eq!(stats_bytes(&x), a.clone());
            let mut m = x.clone();
            m.merge(&y);
            for ((s, p), q) in m.values().into_iter().zip(x.values()).zip(y.values()) {
                proptest::prop_assert_eq!(s, p + q);
            }
            let mut twice = x.divergence.clone();
            twice.merge(&y.divergence);
            proptest::prop_assert_eq!(&m.divergence, &twice);
            proptest::prop_assert_eq!(m.stalls.total().latency, 2 * u64::from(lanes));
            proptest::prop_assert_eq!(stats_from(&stats_bytes(&m)).unwrap(), m);
            for len in [SimStats::ENCODED_BYTES - 1, a.len() - 1] {
                proptest::prop_assert!(stats_from(&a[..len]).is_err(), "truncated to {}", len);
            }
        }
    }

    #[test]
    fn zero_division_is_safe() {
        let s = SimStats::new(100, 32);
        assert_eq!(s.ipc(), 0.0);
        assert_eq!(s.simt_efficiency(32), 0.0);
        assert_eq!(s.rays_per_second(1.3), 0.0);
        assert_eq!(DivergenceTimeline::new(10, 32).mean_active_lanes(), 0.0);
    }

    #[test]
    fn csv_export_shape() {
        let mut t = DivergenceTimeline::new(10, 32);
        t.record_issue(0, 32);
        t.record_idle(12);
        let csv = t.to_csv();
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines.len(), 3, "{csv}");
        assert!(lines[0].starts_with("cycle_end,idle,W1:4"));
        assert!(lines[1].starts_with("10,0,"));
        assert!(lines[1].ends_with(",1"), "{csv}");
        assert!(lines[2].starts_with("20,1,"));
    }

    #[test]
    fn tiny_warp_bucket_scaling() {
        // warp_size 4: per_bucket = 1, buckets W1:1..W4:4 then clamp.
        let mut t = DivergenceTimeline::new(10, 4);
        t.record_issue(0, 4);
        let w = t.windows()[0];
        assert_eq!(w[4], 1);
    }
}
