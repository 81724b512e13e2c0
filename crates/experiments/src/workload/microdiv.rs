//! # `microdiv` — the divergence microbenchmark family
//!
//! Data-dependent loop-trip-count kernels with *controllable* lane
//! imbalance, after Bialas & Strzelecki's SIMD-efficiency
//! microbenchmarks (arXiv:1504.01650): every lane runs the same tiny
//! LCG loop body, but its trip count follows one of four patterns —
//! `uniform` (no divergence), `ramp` (linear imbalance), `mod4` (short
//! period), `hotlane` (one straggler per warp). Because the trip counts
//! are known in closed form, so is the PDOM SIMD efficiency:
//!
//! * **PDOM bound** — lanes of a warp reconverge only after the slowest
//!   lane: `Σᵢ tᵢ / (W · Σ_warps max tᵢ)`.
//! * **Packed bound** — an ideal compaction machine re-packs the lanes
//!   still looping each iteration level: `Σ_level live / (W · Σ_level
//!   ⌈live/W⌉)` — what dynamic μ-kernel spawning approximates.
//!
//! Both variants compute the identical per-lane LCG accumulator, checked
//! exactly against a host reference, so the efficiency comparison is
//! grounded by ground truth. The measured efficiencies sit below the
//! loop-body bounds (prologue, epilogue, and spawn save/restore
//! instructions all issue at full or partial occupancy too), but track
//! their ordering — which is exactly what the figure shows.

use super::{text, Group, Workload};
use crate::configs::Variant;
use crate::fig3::write_bucket_shares;
use crate::runner::{Scale, FRAME_BUDGET};
use crate::supervisor::run_checked;
use dmk_core::DmkConfig;
use raytrace::scenes::SceneScale;
use simt_isa::codec::Encoder;
use simt_isa::{assemble_named, Space};
use simt_sim::{DivergenceTimeline, Gpu, GpuConfig, Launch, RunSummary};
use std::fmt;

/// Warp width of every machine the family runs on.
const WARP: u32 = 32;

/// LCG multiplier of the loop body (Numerical Recipes).
const LCG_MUL: i32 = 1_664_525;

/// The trip-count patterns, in presentation order.
pub const PATTERNS: [&str; 4] = ["uniform", "ramp", "mod4", "hotlane"];

/// Machine variants the family runs standalone.
pub const VARIANTS: [Variant; 2] = [Variant::PdomWarp, Variant::Dynamic];

/// Thread count at a scene scale (whole warps, several per block so
/// compaction across warps has something to pack).
pub(crate) fn threads(scene: SceneScale) -> u32 {
    match scene {
        SceneScale::Tiny => 64,
        SceneScale::Small => 128,
        SceneScale::Full => 256,
    }
}

/// Trip-count cap at a scene scale (power of two ≤ warp width).
pub(crate) fn trip_cap(scene: SceneScale) -> u32 {
    match scene {
        SceneScale::Tiny => 8,
        SceneScale::Small => 16,
        SceneScale::Full => 32,
    }
}

/// Closed-form trip count of `tid` under `pattern` with cap `cap`.
fn trips(pattern: &str, tid: u32, cap: u32) -> u32 {
    match pattern {
        "uniform" => cap / 2,
        "ramp" => (tid & (cap - 1)) + 1,
        "mod4" => (tid & 3) + 1,
        "hotlane" => {
            if tid % WARP == WARP - 1 {
                cap
            } else {
                1
            }
        }
        other => unreachable!("unregistered pattern {other}"),
    }
}

/// Emits the trip-count computation into `r{rout}` from the thread id
/// in `r{rtid}` (scratch `r{rscratch}`, predicate p0) — the only part
/// of either kernel that differs between patterns.
fn trips_fragment(pattern: &str, cap: u32, rtid: u8, rout: u8, rscratch: u8) -> String {
    match pattern {
        "uniform" => format!("    mov.u32 r{rout}, {}\n", cap / 2),
        "ramp" => format!(
            "    and.b32 r{rout}, r{rtid}, {}\n    add.s32 r{rout}, r{rout}, 1\n",
            cap - 1
        ),
        "mod4" => format!("    and.b32 r{rout}, r{rtid}, 3\n    add.s32 r{rout}, r{rout}, 1\n"),
        "hotlane" => format!(
            "    and.b32 r{rscratch}, r{rtid}, {}\n\
             \x20   setp.eq.s32 p0, r{rscratch}, {}\n\
             \x20   mov.u32 r{rout}, 1\n\
             \x20   mov.u32 r{rscratch}, {cap}\n\
             \x20   selp.b32 r{rout}, r{rscratch}, r{rout}, p0\n",
            WARP - 1,
            WARP - 1
        ),
        other => unreachable!("unregistered pattern {other}"),
    }
}

/// Source of the traditional (looped, PDOM) kernel: a backward branch
/// per LCG iteration, the paper's Example 1 shape at its smallest.
pub fn loop_source(pattern: &str, cap: u32, out_base: u32) -> String {
    format!(
        r#"
.kernel main
main:
    mov.u32 r1, %tid
{trips}    mov.u32 r3, 0
    add.s32 r5, r1, 1
body:
    mul.lo.s32 r3, r3, {LCG_MUL}
    add.s32 r3, r3, r5
    sub.s32 r2, r2, 1
    setp.gt.s32 p0, r2, 0
    @p0 bra body
    mul.lo.s32 r4, r1, 4
    add.s32 r4, r4, {out_base}
    st.global.u32 [r4+0], r3
    exit
"#,
        trips = trips_fragment(pattern, cap, 1, 2, 6),
    )
}

/// Source of the dynamic μ-kernel version: the loop is gone; each LCG
/// iteration is one self-spawn of `k_iter`, carrying a 16-byte state
/// record `[acc, remaining, addend, tid]` through spawn memory — the
/// smallest possible μ-kernel decomposition, so its warp compaction is
/// directly comparable to the analytic packed bound.
pub fn spawn_source(pattern: &str, cap: u32, out_base: u32) -> String {
    format!(
        r#"
.kernel main
.kernel k_iter
.spawnstate 16

main:
    mov.u32 r7, %tid
{trips}    mov.u32 r4, 0
    add.s32 r6, r7, 1
    mov.u32 r2, %spawnmem
    st.spawn.v4 [r2+0], r4
    spawn $k_iter, r2
    exit

k_iter:
    mov.u32 r2, %spawnmem
    ld.spawn.u32 r2, [r2+0]
    ld.spawn.v4 r4, [r2+0]
    mul.lo.s32 r4, r4, {LCG_MUL}
    add.s32 r4, r4, r6
    sub.s32 r5, r5, 1
    setp.gt.s32 p0, r5, 0
    @p0 bra k_more
    mul.lo.s32 r3, r7, 4
    add.s32 r3, r3, {out_base}
    st.global.u32 [r3+0], r4
    exit
k_more:
    st.spawn.v4 [r2+0], r4
    spawn $k_iter, r2
    exit
"#,
        trips = trips_fragment(pattern, cap, 7, 5, 8),
    )
}

/// Expected accumulator of `tid` after its trips (bit-exact: `mul.lo`
/// and `add.s32` are wrapping 32-bit ops).
pub(crate) fn host_acc(pattern: &str, tid: u32, cap: u32) -> u32 {
    let mut acc: i32 = 0;
    for _ in 0..trips(pattern, tid, cap) {
        acc = acc.wrapping_mul(LCG_MUL).wrapping_add(tid as i32 + 1);
    }
    acc as u32
}

/// Analytic PDOM SIMT efficiency of the loop body: lanes reconverge
/// after the slowest lane of their warp.
pub fn analytic_pdom(pattern: &str, n: u32, cap: u32) -> f64 {
    let mut work = 0u64;
    let mut issued = 0u64;
    for warp in 0..n / WARP {
        let lanes: Vec<u32> = (warp * WARP..(warp + 1) * WARP)
            .map(|t| trips(pattern, t, cap))
            .collect();
        work += lanes.iter().map(|&t| u64::from(t)).sum::<u64>();
        issued += u64::from(WARP) * u64::from(*lanes.iter().max().unwrap_or(&0));
    }
    work as f64 / issued as f64
}

/// Analytic efficiency of ideal per-iteration warp compaction (the
/// bound dynamic μ-kernel spawning approximates).
pub fn analytic_packed(pattern: &str, n: u32, cap: u32) -> f64 {
    let mut work = 0u64;
    let mut issued = 0u64;
    for level in 1..=cap {
        let live = (0..n).filter(|&t| trips(pattern, t, cap) >= level).count() as u64;
        if live == 0 {
            continue;
        }
        work += live;
        issued += u64::from(WARP) * live.div_ceil(u64::from(WARP));
    }
    work as f64 / issued as f64
}

/// One pattern's measured column under one variant.
#[derive(Debug, Clone)]
pub struct Measured {
    /// The machine variant.
    pub variant: Variant,
    /// Measured whole-run SIMT efficiency.
    pub efficiency: f64,
    /// Aggregate occupancy-bucket totals (idle bucket first), summed
    /// over the run's divergence windows — the same buckets Figs. 3/7/9
    /// histogram.
    pub buckets: Vec<u64>,
}

/// One trip-count pattern's row of the figure.
#[derive(Debug, Clone)]
pub struct PatternRow {
    /// Pattern name.
    pub pattern: &'static str,
    /// Total loop iterations across all threads.
    pub total_trips: u64,
    /// Analytic PDOM loop-body bound.
    pub analytic_pdom: f64,
    /// Analytic ideal-compaction loop-body bound.
    pub analytic_packed: f64,
    /// Measured columns, one per rendered variant.
    pub measured: Vec<Measured>,
}

/// The rendered microbenchmark figure.
#[derive(Debug, Clone)]
pub struct MicrodivFigure {
    /// Threads per run.
    pub threads: u32,
    /// Trip-count cap.
    pub cap: u32,
    /// Occupancy bucket labels (shared by every row).
    pub labels: Vec<String>,
    /// One row per pattern.
    pub rows: Vec<PatternRow>,
}

/// The machine for one variant: one SM, ideal memory (the study
/// isolates branching, like Fig. 2), warp-granular scheduling; the
/// dynamic variant adds DMK hardware with the family's 16-byte state.
fn config(variant: Variant) -> GpuConfig {
    let mut cfg = match variant {
        Variant::Dynamic => {
            let mut dmk = DmkConfig::paper();
            dmk.state_bytes = 16;
            GpuConfig::fx5800_dmk(dmk)
        }
        _ => GpuConfig::fx5800_warp_sched(),
    };
    cfg.num_sms = 1;
    cfg.mem.ideal = true;
    cfg
}

/// Runs `pattern` over `n` threads to completion on a machine built from
/// `cfg` — the spawning form on DMK hardware, the looped one otherwise —
/// and checks every accumulator against the host LCG.
///
/// # Errors
///
/// An assembly, launch, run or host-check failure, as `job`'s error.
pub(crate) fn run_pattern(
    cfg: GpuConfig,
    pattern: &str,
    n: u32,
    cap: u32,
    job: &str,
) -> Result<(RunSummary, Gpu), String> {
    let mut gpu = crate::configs::machine(cfg);
    let out_base = gpu.mem_mut().alloc_global(n * 4, "out");
    let source = if gpu.config().dmk.is_some() {
        spawn_source(pattern, cap, out_base)
    } else {
        loop_source(pattern, cap, out_base)
    };
    let program = assemble_named(&format!("microdiv-{pattern}"), &source)
        .map_err(|e| format!("{job}: kernel assembly failed: {e}"))?;
    gpu.launch(Launch {
        program,
        entry: "main".into(),
        num_threads: n,
        threads_per_block: 64.min(n),
    })
    .map_err(|e| format!("{job}: launch rejected: {e:?}"))?;
    let summary = run_checked(&mut gpu, FRAME_BUDGET, job, true)?;
    let acc = |tid: u32| gpu.mem().read_u32(Space::Global, out_base + tid * 4);
    if (0..n).any(|tid| acc(tid) != host_acc(pattern, tid, cap)) {
        return Err(format!(
            "{job}: device LCG accumulators diverged from the host reference"
        ));
    }
    Ok((summary, gpu))
}

/// Runs the family at `scale`, optionally narrowed to one variant.
///
/// # Errors
///
/// Any cell that fails to assemble, launch, complete, or match the host
/// LCG reference is a deterministic job-level error.
pub fn run(scale: Scale, only: Option<Variant>) -> Result<MicrodivFigure, String> {
    let n = threads(scale.scene);
    let cap = trip_cap(scale.scene);
    let variants: Vec<Variant> = match only {
        Some(v) => vec![v],
        None => VARIANTS.to_vec(),
    };
    let mut rows = Vec::new();
    for pattern in PATTERNS {
        let mut measured = Vec::new();
        for &variant in &variants {
            let job = format!("microdiv {pattern} under {variant}");
            let (summary, gpu) = run_pattern(config(variant), pattern, n, cap, &job)?;
            measured.push(Measured {
                variant,
                efficiency: summary.stats.simt_efficiency(WARP),
                buckets: gpu.telemetry_report().divergence.total().to_vec(),
            });
        }
        rows.push(PatternRow {
            pattern,
            total_trips: (0..n).map(|t| u64::from(trips(pattern, t, cap))).sum(),
            analytic_pdom: analytic_pdom(pattern, n, cap),
            analytic_packed: analytic_packed(pattern, n, cap),
            measured,
        });
    }
    Ok(MicrodivFigure {
        threads: n,
        cap,
        // The bucket labels depend on the warp size alone.
        labels: DivergenceTimeline::new(1, WARP).labels(),
        rows,
    })
}

impl fmt::Display for MicrodivFigure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "Microdiv — SIMD efficiency under controlled loop imbalance \
             ({} threads, trip cap {})",
            self.threads, self.cap
        )?;
        writeln!(
            f,
            "  {:<8} {:>6} {:>11} {:>13} measured",
            "pattern", "trips", "PDOM bound", "packed bound"
        )?;
        for row in &self.rows {
            write!(
                f,
                "  {:<8} {:>6} {:>10.1}% {:>12.1}%",
                row.pattern,
                row.total_trips,
                row.analytic_pdom * 100.0,
                row.analytic_packed * 100.0
            )?;
            for m in &row.measured {
                write!(
                    f,
                    "  {}={:.1}%",
                    m.variant.wire_name(),
                    m.efficiency * 100.0
                )?;
            }
            writeln!(f, "  host:ok")?;
        }
        writeln!(f, "  occupancy buckets ({}):", self.labels.join(", "))?;
        for row in &self.rows {
            for m in &row.measured {
                write!(f, "    {:<8} {:<18}", row.pattern, m.variant.wire_name())?;
                write_bucket_shares(f, &m.buckets)?;
            }
        }
        Ok(())
    }
}

/// The registry row.
pub(super) const WORKLOAD: Workload = Workload {
    id: "microdiv",
    description:
        "Divergence microbenchmarks — loop-imbalance patterns with analytic efficiency bounds",
    group: Group::Extended,
    variants: &VARIANTS,
    render: |_, scale, variant| text(run(scale, variant)),
    extend_fingerprint: Some(extend_fingerprint),
};

/// The family's own identity: its size and every generated kernel.
fn extend_fingerprint(enc: &mut Encoder, scale: Scale) {
    enc.put_str("microdiv-v1");
    let n = threads(scale.scene);
    let cap = trip_cap(scale.scene);
    enc.put_u32(n);
    enc.put_u32(cap);
    for pattern in PATTERNS {
        // Fingerprint the kernel *sources* (base address aside): any
        // change to the generated programs re-keys the job.
        enc.put_str(&loop_source(pattern, cap, 0));
        enc.put_str(&spawn_source(pattern, cap, 0));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn analytic_bounds_are_exact_for_known_patterns() {
        // Uniform trip counts never diverge: both bounds are 1.
        assert_eq!(analytic_pdom("uniform", 64, 8), 1.0);
        assert_eq!(analytic_packed("uniform", 64, 8), 1.0);
        // Ramp over a full warp range: Σ 1..32 / (32·32) = 528/1024.
        assert!((analytic_pdom("ramp", 64, 32) - 528.0 / 1024.0).abs() < 1e-12);
        // One hot lane: (31·1 + 8) / (32·8) per warp.
        assert!((analytic_pdom("hotlane", 64, 8) - 39.0 / 256.0).abs() < 1e-12);
        // Packing never hurts.
        for p in PATTERNS {
            assert!(analytic_packed(p, 128, 16) >= analytic_pdom(p, 128, 16) - 1e-12);
        }
    }

    #[test]
    fn both_variants_match_the_host_lcg_and_the_figure_renders() {
        let fig = run(Scale::test(), None).expect("microdiv family runs");
        assert_eq!(fig.rows.len(), PATTERNS.len());
        for row in &fig.rows {
            assert_eq!(row.measured.len(), VARIANTS.len());
            for m in &row.measured {
                assert!(m.efficiency > 0.0 && m.efficiency <= 1.0);
                assert!(
                    m.buckets.iter().sum::<u64>() > 0,
                    "divergence buckets missing"
                );
            }
        }
        let text = fig.to_string();
        assert!(
            text.contains("hotlane") && text.contains("PDOM bound"),
            "{text}"
        );
    }

    #[test]
    fn imbalanced_patterns_lose_efficiency_under_pdom() {
        let fig = run(Scale::test(), Some(Variant::PdomWarp)).expect("pdom column runs");
        let eff = |name: &str| {
            fig.rows
                .iter()
                .find(|r| r.pattern == name)
                .expect("row exists")
                .measured[0]
                .efficiency
        };
        // The uniform pattern is the ceiling; the divergent patterns sit
        // strictly below it, with the hot-lane straggler worst.
        assert!(eff("uniform") > eff("ramp"), "ramp should diverge");
        assert!(eff("ramp") > eff("hotlane"), "hotlane should be worst");
    }

    #[test]
    fn spawning_recovers_efficiency_on_the_ramp_pattern() {
        // The packed bound dominates the PDOM bound on ramp; the dynamic
        // machine should realize a good part of that gap.
        let fig = run(Scale::test(), None).expect("family runs");
        let row = fig
            .rows
            .iter()
            .find(|r| r.pattern == "ramp")
            .expect("ramp row");
        let pdom = row.measured[0].efficiency;
        let dmk = row.measured[1].efficiency;
        assert!(
            dmk > pdom,
            "dynamic spawning should beat PDOM on ramp: dmk={dmk} pdom={pdom}"
        );
    }
}
