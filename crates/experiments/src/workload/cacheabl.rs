//! # `cacheabl` — the cache-ablation figure
//!
//! Runs three workloads with markedly different memory behaviour — the
//! kd-tree primary-ray tracer (pointer-chasing traversal), the BVH path
//! tracer (deep multi-bounce traversal), and the `microdiv` ramp
//! microbenchmark (compute-bound, a deliberate negative control with no
//! load traffic) — across three memory models:
//!
//! * **ideal** — every access is a single-cycle hit (the paper's
//!   "ideal memory" upper bound, Fig. 10 style);
//! * **l1** — per-SM L1 with MSHRs in front of the flat DRAM modules
//!   (the cycle's timing batch with no L2 in it);
//! * **l1+l2** — the full hierarchy: L1 + MSHRs, the banked
//!   SM↔partition interconnect, and the shared L2 slices (the same batch
//!   through the interconnect).
//!
//! Every cell validates its functional results against the host
//! reference — the memory model is a *timing* model, so any functional
//! deviation between levels is a bug in the cache layer, reported as a
//! job-level error. The figure reports cycles plus per-level hit rates,
//! MSHR merges, and interconnect bank conflicts, and is deterministic:
//! CI `cmp`s it against `results/cacheabl_quick.txt`.

use super::{microdiv, text, Group, Workload};
use crate::configs::{self, Variant};
use crate::runner::{program_digest, Plan, RenderSpec, Scale, Tracer};
use simt_isa::codec::Encoder;
use simt_mem::MemPreset;
use std::fmt;

/// The ablated memory machines, in presentation order. Every cell runs
/// the warp-scheduled PDOM baseline (all three workloads run their
/// traditional kernels), so the ablation isolates the memory hierarchy,
/// not branching or spawning.
pub const LEVELS: [MemPreset; 3] = [MemPreset::Ideal, MemPreset::L1, MemPreset::Cached];

/// The machine every cell runs on.
const VARIANT: Variant = Variant::PdomWarp;

/// A memory machine's column label.
pub fn label(level: MemPreset) -> &'static str {
    match level {
        MemPreset::Flat => "flat",
        MemPreset::L1 => "l1",
        MemPreset::Cached => "l1+l2",
        MemPreset::Ideal => "ideal",
    }
}

/// kd-tree image edge at `scale`: half the paper figures' resolution —
/// the cells run to completion, not to a cycle cutoff.
pub fn kd_resolution(scale: Scale) -> u32 {
    (scale.resolution / 2).max(8)
}

/// One (workload × level) measurement.
#[derive(Debug, Clone)]
pub struct Cell {
    /// The memory machine.
    pub level: MemPreset,
    /// Cycles to completion.
    pub cycles: u64,
    /// (hits, misses, MSHR merges, MSHR stalls) — `None` on ideal.
    pub l1: Option<(u64, u64, u64, u64)>,
    /// (hits, misses) — `None` unless the full hierarchy ran.
    pub l2: Option<(u64, u64)>,
    /// Interconnect grant conflicts (distinct SMs contending per bank
    /// service round, summed).
    pub icnt_conflicts: u64,
}

impl Cell {
    /// L1 hit rate, when the level has an L1 and it saw traffic.
    pub fn l1_hit_rate(&self) -> Option<f64> {
        let (h, m, _, _) = self.l1?;
        (h + m > 0).then(|| h as f64 / (h + m) as f64)
    }

    /// L2 hit rate, when the level has an L2 and it saw traffic.
    pub fn l2_hit_rate(&self) -> Option<f64> {
        let (h, m) = self.l2?;
        (h + m > 0).then(|| h as f64 / (h + m) as f64)
    }
}

/// One workload's row of the figure.
#[derive(Debug, Clone)]
pub struct AblationRow {
    /// Workload name.
    pub workload: &'static str,
    /// Problem-size note for the header.
    pub size: String,
    /// One cell per level, in [`LEVELS`] order.
    pub cells: Vec<Cell>,
}

/// The rendered cache-ablation figure.
#[derive(Debug, Clone)]
pub struct CacheAblationFigure {
    /// One row per workload.
    pub rows: Vec<AblationRow>,
}

/// A traced frame's cell: the traditional kernel on `level`, checked
/// against the host tracer by the runner — the memory model is a timing
/// model, so a functional deviation is a bug in the cache layer.
fn run_frame(
    plan: &mut Plan,
    scale: Scale,
    tracer: Tracer,
    edge: u32,
    level: MemPreset,
) -> Result<Cell, String> {
    let run = plan.render(&RenderSpec {
        mem: Some(level),
        ..RenderSpec::window("conference", VARIANT, scale).frame(tracer, edge)
    })?;
    Ok(Cell {
        level,
        cycles: run.summary.stats.cycles,
        l1: run.l1,
        l2: run.telemetry.l2,
        icnt_conflicts: run.telemetry.icnt_conflicts,
    })
}

/// The microdiv ramp cell: compute-bound, LCG-validated — the negative
/// control (no load traffic, so every level's L1 stays silent).
fn run_microdiv(scale: Scale, level: MemPreset) -> Result<Cell, String> {
    let n = microdiv::threads(scale.scene);
    let cap = microdiv::trip_cap(scale.scene);
    let job = format!("cacheabl microdiv under {}", label(level));
    let cfg = configs::config_on(VARIANT, Some(level));
    let (summary, gpu) = microdiv::run_pattern(cfg, "ramp", n, cap, &job)?;
    Ok(Cell {
        level,
        cycles: summary.stats.cycles,
        l1: gpu.l1_stats(),
        l2: gpu.mem().l2_stats(),
        icnt_conflicts: gpu.mem().icnt_conflicts(),
    })
}

/// Runs the full ablation matrix at `scale`.
///
/// # Errors
///
/// Simulator faults, blown cycle budgets, or any functional deviation
/// from the host references are deterministic job-level errors.
pub fn run(plan: &mut Plan, scale: Scale) -> Result<CacheAblationFigure, String> {
    let kd_edge = kd_resolution(scale);
    let bvh_edge = super::bvh::resolution(scale);
    let n = microdiv::threads(scale.scene);
    // Each row's traced frame, or `None` for the microdiv row.
    let specs = [
        (
            "kdtree",
            format!("{kd_edge}x{kd_edge} primary rays"),
            Some((Tracer::Kd, kd_edge)),
        ),
        (
            "bvh",
            format!("{bvh_edge}x{bvh_edge} path traced"),
            Some((Tracer::Bvh, bvh_edge)),
        ),
        ("microdiv", format!("{n} threads, ramp"), None),
    ];
    let mut rows = Vec::new();
    for (workload, size, frame) in specs {
        let mut cells = Vec::new();
        for level in LEVELS {
            cells.push(match frame {
                Some((tracer, edge)) => run_frame(plan, scale, tracer, edge, level)?,
                None => run_microdiv(scale, level)?,
            });
        }
        rows.push(AblationRow {
            workload,
            size,
            cells,
        });
    }
    Ok(CacheAblationFigure { rows })
}

/// Formats an optional rate as a fixed-width percentage column.
fn pct(rate: Option<f64>) -> String {
    match rate {
        Some(r) => format!("{:>6.1}%", r * 100.0),
        None => format!("{:>7}", "-"),
    }
}

impl fmt::Display for CacheAblationFigure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "Cache ablation — ideal vs L1-only vs L1+L2 memory hierarchy"
        )?;
        writeln!(
            f,
            "  {:<10} {:<8} {:>12} {:>7} {:>8} {:>7} {:>10}",
            "workload", "memory", "cycles", "L1 hit", "merges", "L2 hit", "icnt conf"
        )?;
        for row in &self.rows {
            for cell in &row.cells {
                writeln!(
                    f,
                    "  {:<10} {:<8} {:>12} {} {:>8} {} {:>10}",
                    row.workload,
                    label(cell.level),
                    cell.cycles,
                    pct(cell.l1_hit_rate()),
                    cell.l1.map_or(0, |(_, _, mg, _)| mg),
                    pct(cell.l2_hit_rate()),
                    cell.icnt_conflicts
                )?;
            }
        }
        write!(f, "  sizes:")?;
        for row in &self.rows {
            write!(f, "  {}={}", row.workload, row.size)?;
        }
        writeln!(f)?;
        writeln!(
            f,
            "  (microdiv is the negative control: a compute-bound kernel \
             whose only memory traffic is its final stores)"
        )
    }
}

/// The registry row.
pub(super) const WORKLOAD: Workload = Workload {
    id: "cacheabl",
    description: "Cache ablation — ideal vs L1-only vs L1+L2 across kd-tree, BVH, and microdiv",
    group: Group::Extended,
    variants: &[],
    render: |plan, scale, _| text(run(plan, scale)),
    extend_fingerprint: Some(extend_fingerprint),
};

/// The figure's own identity: its sizes, kernels and memory machines.
fn extend_fingerprint(enc: &mut Encoder, scale: Scale) {
    enc.put_str("cacheabl-v1");
    enc.put_u32(kd_resolution(scale));
    enc.put_u32(super::bvh::resolution(scale));
    enc.put_u32(microdiv::threads(scale.scene));
    enc.put_u32(microdiv::trip_cap(scale.scene));
    for tracer in [Tracer::Kd, Tracer::Bvh] {
        enc.put_u64(program_digest(tracer, false));
    }
    // The ablated memory knobs are part of the figure's identity.
    for level in LEVELS {
        let m = level.config();
        enc.put_u32(m.l1_bytes);
        enc.put_u32(m.l1_line_bytes);
        enc.put_u32(m.l1_ways as u32);
        enc.put_u32(m.l1_mshr_entries as u32);
        enc.put_u32(m.l2_bytes);
        enc.put_u32(m.l2_line_bytes);
        enc.put_u32(m.l2_ways as u32);
        enc.put_u32(m.icnt_latency);
        enc.put_u32(m.icnt_flit_cycles);
        enc.put_u32(u32::from(m.ideal));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn figure_runs_validates_and_orders_the_levels() {
        let fig = run(&mut Plan::default(), Scale::test()).expect("cache ablation runs");
        assert_eq!(fig.rows.len(), 3);
        for row in &fig.rows {
            assert_eq!(row.cells.len(), LEVELS.len());
            // Ideal memory is a lower bound on cycles for every workload.
            let ideal = row.cells[0].cycles;
            for cell in &row.cells[1..] {
                assert!(
                    cell.cycles >= ideal,
                    "{} under {} beat ideal memory: {} < {ideal}",
                    row.workload,
                    label(cell.level),
                    cell.cycles
                );
            }
        }
        // The traversal workloads exercise the caches; the negative
        // control does not.
        let kd = &fig.rows[0];
        let (h, m, _, _) = kd.cells[2].l1.expect("kd L1 counters");
        assert!(h + m > 0, "kd-tree produced no L1 traffic");
        assert!(kd.cells[2].l2.is_some(), "full hierarchy must report L2");
        let micro = &fig.rows[2];
        assert_eq!(
            micro.cells[1].l1_hit_rate(),
            None,
            "microdiv should stay load-free"
        );
        let text = fig.to_string();
        assert!(text.contains("kdtree") && text.contains("l1+l2"), "{text}");
    }

    #[test]
    fn figure_is_deterministic() {
        let a = run(&mut Plan::default(), Scale::test())
            .expect("first render")
            .to_string();
        let b = run(&mut Plan::default(), Scale::test())
            .expect("second render")
            .to_string();
        assert_eq!(a, b, "cache ablation must render identically");
    }
}
