//! Beyond the paper: the shadow-ray pass of §III-A as a measured workload.
//!
//! The paper's introduction motivates dynamic μ-kernels with multi-pass
//! global rendering (shadows, reflections, global illumination) but only
//! evaluates primary rays. This runner measures the shadow pass — whose
//! rays start on scattered surfaces and are therefore less coherent —
//! under both branching models.

use crate::configs::Variant;
use crate::runner::{prepare, RenderSpec, Scale, Setup, Tracer, FRAME_BUDGET};
use crate::supervisor::run_checked;
use raytrace::Vec3;
use serde::Serialize;
use std::fmt;

/// Measurements for one branching model over both passes.
#[derive(Debug, Clone, Serialize)]
pub struct ShadowRun {
    /// Variant label.
    pub variant: String,
    /// IPC over the primary pass.
    pub primary_ipc: f64,
    /// IPC over the shadow pass alone.
    pub shadow_ipc: f64,
    /// Mean active lanes over the whole two-pass run.
    pub mean_active_lanes: f64,
    /// Shadowed pixels (must agree across variants).
    pub occluded: usize,
}

/// The shadow-workload comparison.
#[derive(Debug, Clone, Serialize)]
pub struct ShadowStudy {
    /// PDOM baseline.
    pub pdom: ShadowRun,
    /// Dynamic μ-kernels.
    pub dynamic: ShadowRun,
}

impl ShadowStudy {
    /// Shadow-pass IPC improvement of dynamic over PDOM.
    pub fn shadow_ipc_ratio(&self) -> f64 {
        if self.pdom.shadow_ipc == 0.0 {
            0.0
        } else {
            self.dynamic.shadow_ipc / self.pdom.shadow_ipc
        }
    }
}

fn run_variant(variant: Variant, scale: Scale) -> Result<ShadowRun, String> {
    let light = Vec3::new(0.0, 4.7, 0.0);
    let spec = RenderSpec::window("conference", variant, scale).frame(Tracer::Kd, scale.resolution);
    let (mut gpu, Setup::Kd(setup)) = prepare(&spec) else {
        unreachable!("a kd spec uploads the kd tracer")
    };
    // Run each pass to completion so the shadow rays are well-defined.
    let pass = |name: &str| format!("shadow {name} pass under {variant}");
    let s1 = run_checked(&mut gpu, FRAME_BUDGET, &pass("primary"), true)?;
    let primary_instr = s1.stats.thread_instructions;
    let primary_cycles = s1.stats.cycles;

    let dev2 = setup.launch_shadow_pass(
        &mut gpu,
        light,
        variant.is_dynamic(),
        scale.threads_per_block,
    );
    let s2 = run_checked(&mut gpu, FRAME_BUDGET, &pass("shadow"), true)?;
    let shadow_instr = s2.stats.thread_instructions - primary_instr;
    let shadow_cycles = s2.stats.cycles - primary_cycles;
    let occluded = dev2.read_results(gpu.mem()).iter().flatten().count();
    Ok(ShadowRun {
        variant: variant.to_string(),
        primary_ipc: primary_instr as f64 / primary_cycles.max(1) as f64,
        shadow_ipc: shadow_instr as f64 / shadow_cycles.max(1) as f64,
        mean_active_lanes: s2.stats.divergence.mean_active_lanes(),
        occluded,
    })
}

/// Runs the two-pass study on the conference benchmark.
pub fn run(scale: Scale) -> Result<ShadowStudy, String> {
    Ok(ShadowStudy {
        pdom: run_variant(Variant::PdomWarp, scale)?,
        dynamic: run_variant(Variant::Dynamic, scale)?,
    })
}

impl fmt::Display for ShadowStudy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "Shadow-pass study (beyond the paper; conference + point light)"
        )?;
        writeln!(
            f,
            "  {:<12} {:>12} {:>12} {:>12} {:>10}",
            "method", "primary IPC", "shadow IPC", "mean lanes", "shadowed"
        )?;
        for r in [&self.pdom, &self.dynamic] {
            writeln!(
                f,
                "  {:<12} {:>12.0} {:>12.0} {:>12.1} {:>10}",
                r.variant, r.primary_ipc, r.shadow_ipc, r.mean_active_lanes, r.occluded
            )?;
        }
        write!(
            f,
            "  shadow-pass IPC ratio: {:.2}x",
            self.shadow_ipc_ratio()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shadow_study_runs_and_agrees_on_occlusion() {
        let s = run(Scale::test()).expect("clean run");
        assert_eq!(s.pdom.occluded, s.dynamic.occluded, "occlusion must agree");
        assert!(s.pdom.shadow_ipc > 0.0);
        assert!(s.dynamic.shadow_ipc > 0.0);
    }
}
