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

use super::{microdiv, page, Group, Workload};
use crate::runner::Scale;
use rt_kernels::pt_render::{exact_mismatches, image_hash, PtSetup};
use rt_kernels::render::{compare, RenderSetup};
use simt_isa::assemble_named;
use simt_isa::codec::Encoder;
use simt_mem::MemConfig;
use simt_sim::{Gpu, GpuConfig, Launch, RunOutcome};
use std::fmt;

/// Cycle budget per cell; every run goes to completion (a budget hit is
/// a job-level error, never a silent truncation).
const CYCLE_BUDGET: u64 = 4_000_000_000;

/// The ablated memory models, in presentation order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MemLevel {
    /// Single-cycle ideal memory.
    Ideal,
    /// Per-SM L1 + MSHRs over the flat DRAM modules.
    L1Only,
    /// L1 + banked interconnect + shared L2 slices.
    L1L2,
}

/// Presentation order of the memory models.
pub const LEVELS: [MemLevel; 3] = [MemLevel::Ideal, MemLevel::L1Only, MemLevel::L1L2];

impl MemLevel {
    /// Short column label.
    pub fn label(self) -> &'static str {
        match self {
            MemLevel::Ideal => "ideal",
            MemLevel::L1Only => "l1",
            MemLevel::L1L2 => "l1+l2",
        }
    }

    /// The memory configuration this level ablates to.
    pub fn mem_config(self) -> MemConfig {
        match self {
            MemLevel::Ideal => MemConfig::fx5800().with_ideal(true),
            MemLevel::L1Only => MemConfig::fx5800_cached().with_l2(0),
            MemLevel::L1L2 => MemConfig::fx5800_cached(),
        }
    }
}

/// Builds the machine for one level: the warp-scheduled PDOM baseline
/// (all three workloads run their traditional kernels, so the ablation
/// isolates the memory hierarchy, not branching or spawning).
fn machine(level: MemLevel) -> Gpu {
    let mut cfg = GpuConfig::fx5800_warp_sched();
    cfg.mem = level.mem_config();
    Gpu::builder(cfg).build()
}

/// kd-tree image edge at `scale`: half the paper figures' resolution —
/// the cells run to completion, not to a cycle cutoff.
pub fn kd_resolution(scale: Scale) -> u32 {
    (scale.resolution / 2).max(8)
}

/// One (workload × level) measurement.
#[derive(Debug, Clone)]
pub struct Cell {
    /// The memory model.
    pub level: MemLevel,
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

/// Extracts the cell counters after a completed run.
fn cell_of(level: MemLevel, gpu: &Gpu, cycles: u64) -> Cell {
    Cell {
        level,
        cycles,
        l1: gpu.l1_stats(),
        l2: gpu.mem().l2_stats(),
        icnt_conflicts: gpu.mem().icnt_conflicts(),
    }
}

/// Runs the run-to-completion budget, mapping faults and budget hits to
/// job-level errors.
fn complete(gpu: &mut Gpu, what: &str) -> Result<u64, String> {
    let summary = gpu
        .run(CYCLE_BUDGET)
        .map_err(|e| format!("cacheabl {what} faulted: {e:?}"))?;
    if summary.outcome != RunOutcome::Completed {
        return Err(format!(
            "cacheabl {what} did not complete within {CYCLE_BUDGET} cycles: {:?}",
            summary.outcome
        ));
    }
    Ok(summary.stats.cycles)
}

/// The kd-tree primary-ray cell: traditional kernel, host-oracle
/// validated per ray.
fn run_kd(scale: Scale, level: MemLevel) -> Result<Cell, String> {
    let scene = raytrace::scenes::conference(scale.scene);
    let edge = kd_resolution(scale);
    let mut gpu = machine(level);
    let setup = RenderSetup::upload(&mut gpu, &scene, edge, edge);
    setup.launch_traditional(&mut gpu, scale.threads_per_block);
    let cycles = complete(&mut gpu, &format!("kdtree under {}", level.label()))?;
    let report = compare(&setup.host_reference(), &setup.device_results(&gpu));
    if report.mismatches > 0 {
        return Err(format!(
            "cacheabl kdtree under {}: {} of {} rays diverged from the host \
             oracle — the memory model altered functional results",
            level.label(),
            report.mismatches,
            report.total
        ));
    }
    Ok(cell_of(level, &gpu, cycles))
}

/// The BVH path-tracer cell: traditional kernel, bit-exact against the
/// host mirror.
fn run_bvh(scale: Scale, level: MemLevel) -> Result<Cell, String> {
    let scene = raytrace::scenes::conference(scale.scene);
    let edge = super::bvh::resolution(scale);
    let mut gpu = machine(level);
    let setup = PtSetup::upload(&mut gpu, &scene, edge, edge);
    setup.launch_traditional(&mut gpu, scale.threads_per_block);
    let cycles = complete(&mut gpu, &format!("bvh under {}", level.label()))?;
    let host = setup.host_reference();
    let device = setup.device_results(&gpu);
    let mismatches = exact_mismatches(&host, &device);
    if mismatches > 0 || image_hash(&device) != image_hash(&host) {
        return Err(format!(
            "cacheabl bvh under {}: device image diverged from the host \
             mirror ({mismatches} exact mismatches)",
            level.label()
        ));
    }
    Ok(cell_of(level, &gpu, cycles))
}

/// The microdiv ramp cell: compute-bound, LCG-validated — the negative
/// control (no load traffic, so every level's L1 stays silent).
fn run_microdiv(scale: Scale, level: MemLevel) -> Result<Cell, String> {
    let n = microdiv::threads(scale.scene);
    let cap = microdiv::trip_cap(scale.scene);
    let mut gpu = machine(level);
    let out_base = gpu.mem_mut().alloc_global(n * 4, "out");
    let source = microdiv::loop_source("ramp", cap, out_base);
    let program = assemble_named("cacheabl-microdiv", &source)
        .map_err(|e| format!("cacheabl microdiv kernel assembly failed: {e}"))?;
    gpu.launch(Launch {
        program,
        entry: "main".into(),
        num_threads: n,
        threads_per_block: 64.min(n),
    })
    .map_err(|e| format!("cacheabl microdiv launch rejected: {e:?}"))?;
    let cycles = complete(&mut gpu, &format!("microdiv under {}", level.label()))?;
    for tid in 0..n {
        let got = gpu
            .mem()
            .read_u32(simt_isa::Space::Global, out_base + tid * 4);
        if got != microdiv::host_acc("ramp", tid, cap) {
            return Err(format!(
                "cacheabl microdiv under {}: accumulator of thread {tid} \
                 diverged from the host LCG",
                level.label()
            ));
        }
    }
    Ok(cell_of(level, &gpu, cycles))
}

/// Runs the full ablation matrix at `scale`.
///
/// # Errors
///
/// Simulator faults, blown cycle budgets, or any functional deviation
/// from the host references are deterministic job-level errors.
pub fn run(scale: Scale) -> Result<CacheAblationFigure, String> {
    type Runner = fn(Scale, MemLevel) -> Result<Cell, String>;
    let mut rows = Vec::new();
    let kd_edge = kd_resolution(scale);
    let bvh_edge = super::bvh::resolution(scale);
    let n = microdiv::threads(scale.scene);
    let runners: [(&'static str, String, Runner); 3] = [
        (
            "kdtree",
            format!("{kd_edge}x{kd_edge} primary rays"),
            run_kd,
        ),
        ("bvh", format!("{bvh_edge}x{bvh_edge} path traced"), run_bvh),
        ("microdiv", format!("{n} threads, ramp"), run_microdiv),
    ];
    for (workload, size, runner) in runners {
        let mut cells = Vec::new();
        for level in LEVELS {
            cells.push(runner(scale, level)?);
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
                    cell.level.label(),
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

/// The registry entry.
pub struct CacheAblation;

impl Workload for CacheAblation {
    fn id(&self) -> &'static str {
        "cacheabl"
    }

    fn description(&self) -> &'static str {
        "Cache ablation — ideal vs L1-only vs L1+L2 across kd-tree, BVH, and microdiv"
    }

    fn group(&self) -> Group {
        Group::Extended
    }

    fn render(
        &self,
        scale: Scale,
        _variant: Option<crate::configs::Variant>,
        json: bool,
    ) -> Result<String, String> {
        Ok(page(self.id(), &run(scale)?, json))
    }

    fn extend_fingerprint(&self, enc: &mut Encoder, scale: Scale) {
        enc.put_str("cacheabl-v1");
        enc.put_u32(kd_resolution(scale));
        enc.put_u32(super::bvh::resolution(scale));
        enc.put_u32(microdiv::threads(scale.scene));
        enc.put_u32(microdiv::trip_cap(scale.scene));
        for program in [
            rt_kernels::traditional::program(),
            rt_kernels::pt_traditional::program(),
        ] {
            enc.put_u64(
                simt_sim::program_digest(&program).expect("embedded kernels encode losslessly"),
            );
        }
        // The ablated memory knobs are part of the figure's identity.
        for level in LEVELS {
            let m = level.mem_config();
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
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn levels_configure_the_expected_hierarchies() {
        assert!(MemLevel::Ideal.mem_config().ideal);
        assert!(!MemLevel::Ideal.mem_config().l1_enabled());
        let l1 = MemLevel::L1Only.mem_config();
        assert!(l1.l1_enabled() && !l1.l2_enabled());
        let full = MemLevel::L1L2.mem_config();
        assert!(full.l1_enabled() && full.l2_enabled());
    }

    #[test]
    fn figure_runs_validates_and_orders_the_levels() {
        let fig = run(Scale::test()).expect("cache ablation runs");
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
                    cell.level.label(),
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
        let a = run(Scale::test()).expect("first render").to_string();
        let b = run(Scale::test()).expect("second render").to_string();
        assert_eq!(a, b, "cache ablation must render identically");
    }
}
