//! # `bvh` — the BVH path-tracer workload
//!
//! A multi-bounce diffuse path tracer over a bounding-volume hierarchy
//! (`raytrace::Bvh`), run under both the traditional looped kernel and
//! the hand-split μ-kernel decomposition from `rt-kernels`
//! (`pt_traditional` / `pt_ukernel`). Per path the μ-kernel form spawns
//! a chain of `p_node` → `p_isect` → `p_pop` threads across up to four
//! bounce segments — markedly deeper spawn chains than the kd tracer's
//! single traversal, which is what makes it a useful second data point
//! for the architecture.
//!
//! Ground truth: both kernels share their float-op fragments
//! instruction-for-instruction with a host mirror
//! (`rt_kernels::pt_render::host_path_trace`), so the rendered image is
//! validated **bit-exactly** — any mismatch is a job-level error, not a
//! tolerance warning. The reported image hash is the FNV-1a-64 of the
//! per-pixel radiance bits, the value CI pins.

use super::{page, Group, Workload};
use crate::configs::Variant;
use crate::runner::{program_digest, RenderRun, RenderSpec, Scale, Tracer};
use simt_isa::codec::Encoder;
use std::fmt;

/// Machine variants the workload runs standalone.
pub const VARIANTS: [Variant; 2] = [Variant::PdomWarp, Variant::Dynamic];

/// Square image edge at `scale`: a quarter of the kd workloads'
/// resolution (path tracing traces up to four segments per pixel), with
/// a floor that keeps at least two warps of rays alive.
pub fn resolution(scale: Scale) -> u32 {
    (scale.resolution / 4).max(8)
}

/// One variant's measured render.
#[derive(Debug, Clone)]
pub struct PtVariantRun {
    /// Machine variant.
    pub variant: Variant,
    /// Cycles to completion.
    pub cycles: u64,
    /// Whole-run SIMT efficiency.
    pub efficiency: f64,
    /// Dynamically spawned threads (0 under PDOM).
    pub threads_spawned: u64,
    /// FNV-1a-64 of the device image, equal to the host mirror's.
    pub image_hash: u64,
    /// Aggregate occupancy-bucket totals (idle bucket first) over the
    /// run's divergence windows, Figs. 3/7/9 style.
    pub buckets: Vec<u64>,
}

/// The rendered figure.
#[derive(Debug, Clone)]
pub struct PtFigure {
    /// Scene name.
    pub scene: String,
    /// Image edge (square).
    pub resolution: u32,
    /// Host-reference image hash.
    pub host_hash: u64,
    /// Occupancy bucket labels.
    pub labels: Vec<String>,
    /// One entry per rendered variant.
    pub runs: Vec<PtVariantRun>,
}

/// Runs the workload at `scale`, optionally narrowed to one variant:
/// one whole frame per variant, each checked bit-exactly against the host
/// image, which the runner traces once for all of them.
///
/// # Errors
///
/// Simulator faults, a blown cycle budget, or any bit-level deviation
/// from the host reference image.
pub fn run(scale: Scale, only: Option<Variant>) -> Result<PtFigure, String> {
    let scene = raytrace::scenes::conference(scale.scene);
    let edge = resolution(scale);
    let variants: Vec<Variant> = match only {
        Some(v) => vec![v],
        None => VARIANTS.to_vec(),
    };
    let mut labels = Vec::new();
    let mut runs = Vec::new();
    for &variant in &variants {
        let spec = RenderSpec::window(&scene, variant, scale).frame(Tracer::Bvh, edge);
        let run = RenderRun::execute(&spec)?;
        let (stats, divergence) = (&run.summary.stats, &run.telemetry.divergence);
        labels = divergence.labels();
        runs.push(PtVariantRun {
            variant,
            cycles: stats.cycles,
            efficiency: stats.simt_efficiency(32),
            threads_spawned: stats.threads_spawned,
            image_hash: run.image_hash.expect("a BVH frame reports its image hash"),
            buckets: divergence.total().to_vec(),
        });
    }
    Ok(PtFigure {
        scene: scene.name.to_string(),
        resolution: edge,
        host_hash: runs.first().map_or(0, |r| r.image_hash),
        labels,
        runs,
    })
}

impl fmt::Display for PtFigure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "BVH path tracer — {scene} at {res}x{res}, {bounces}-segment diffuse GI",
            scene = self.scene,
            res = self.resolution,
            bounces = rt_kernels::PT_MAX_BOUNCES,
        )?;
        writeln!(f, "  host reference image hash: {:016x}", self.host_hash)?;
        for r in &self.runs {
            writeln!(
                f,
                "  {:<24} cycles {:>12}  efficiency {:>5.1}%  spawned {:>8}  \
                 image {:016x} (matches host)",
                r.variant.to_string(),
                r.cycles,
                r.efficiency * 100.0,
                r.threads_spawned,
                r.image_hash
            )?;
        }
        writeln!(f, "  occupancy buckets ({}):", self.labels.join(", "))?;
        for r in &self.runs {
            let total: u64 = r.buckets.iter().sum();
            write!(f, "    {:<18}", r.variant.wire_name())?;
            for b in &r.buckets {
                let pct = if total > 0 {
                    *b as f64 * 100.0 / total as f64
                } else {
                    0.0
                };
                write!(f, " {pct:>5.1}")?;
            }
            writeln!(f)?;
        }
        Ok(())
    }
}

/// The registry entry.
pub struct BvhPathTracer;

impl Workload for BvhPathTracer {
    fn id(&self) -> &'static str {
        "bvh"
    }

    fn description(&self) -> &'static str {
        "BVH path tracer — multi-bounce diffuse GI, bit-exact against the host mirror"
    }

    fn group(&self) -> Group {
        Group::Extended
    }

    fn variants(&self) -> &'static [Variant] {
        &VARIANTS
    }

    fn render(&self, scale: Scale, variant: Option<Variant>, json: bool) -> Result<String, String> {
        let name = match variant {
            Some(v) => format!("{}@{}", self.id(), v.wire_name()),
            None => self.id().to_string(),
        };
        Ok(page(&name, &run(scale, variant)?, json))
    }

    fn extend_fingerprint(&self, enc: &mut Encoder, scale: Scale) {
        enc.put_str("bvh-pt-v1");
        enc.put_u32(resolution(scale));
        for dynamic in [false, true] {
            enc.put_u64(program_digest(Tracer::Bvh, dynamic));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn both_variants_match_the_host_image_at_test_scale() {
        let fig = run(Scale::test(), None).expect("bvh workload runs");
        assert_eq!(fig.runs.len(), 2);
        for r in &fig.runs {
            assert_eq!(r.image_hash, fig.host_hash, "{} diverged", r.variant);
            assert!(
                r.buckets.iter().sum::<u64>() > 0,
                "divergence buckets missing"
            );
        }
        // The μ-kernel run actually spawns; the looped run never does.
        assert_eq!(fig.runs[0].threads_spawned, 0);
        assert!(fig.runs[1].threads_spawned > 0);
        let text = fig.to_string();
        assert!(text.contains("matches host"), "{text}");
    }

    #[test]
    fn variant_narrowing_runs_a_single_column() {
        let fig = run(Scale::test(), Some(Variant::Dynamic)).expect("narrowed run");
        assert_eq!(fig.runs.len(), 1);
        assert_eq!(fig.runs[0].variant, Variant::Dynamic);
    }
}
