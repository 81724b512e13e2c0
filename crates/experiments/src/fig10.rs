//! Fig. 10 — branching performance for the conference benchmark against
//! the MIMD theoretical ideal.
//!
//! The paper's observations: PDOM gains nothing from an ideal memory
//! system (it is branch-bound); dynamic μ-kernels reach a larger fraction
//! of the MIMD theoretical, larger still with ideal memory (`fidelity`
//! claims `fig10.dyn` and `fig10.dyn.ideal`).

use crate::configs::Variant;
use crate::fidelity::paper;
use crate::runner::{Plan, RenderSpec, Scale};
use raytrace::scenes;
use rt_kernels::render::RenderSetup;
use serde::Serialize;
use simt_sim::{mimd_theoretical, GpuConfig};
use std::fmt;

/// One bar of the figure.
#[derive(Debug, Clone, Serialize)]
pub struct BranchingPoint {
    /// Configuration label.
    pub label: String,
    /// Average IPC.
    pub ipc: f64,
    /// Fraction of the MIMD theoretical IPC.
    pub fraction_of_mimd: f64,
}

/// The regenerated Fig. 10.
#[derive(Debug, Clone, Serialize)]
pub struct Fig10 {
    /// All bars, MIMD last.
    pub points: Vec<BranchingPoint>,
    /// The MIMD theoretical IPC.
    pub mimd_ipc: f64,
}

impl Fig10 {
    /// Fraction of MIMD reached by a labeled configuration.
    pub fn fraction(&self, label: &str) -> Option<f64> {
        self.points
            .iter()
            .find(|p| p.label == label)
            .map(|p| p.fraction_of_mimd)
    }
}

/// Runs the four simulated configurations plus the MIMD model.
pub fn run(plan: &mut Plan, scale: Scale) -> Result<Fig10, String> {
    // MIMD theoretical: run the traditional kernel functionally. Its
    // scene, machine and upload drop here, before the four renders.
    let mimd = {
        let scene = scenes::conference(scale.scene);
        let cfg = GpuConfig::fx5800_warp_sched();
        let mut gpu = crate::configs::machine(cfg.clone());
        let setup = RenderSetup::upload(&mut gpu, &scene, scale.resolution, scale.resolution);
        let program = rt_kernels::traditional::program();
        let entry = program.entry("main").expect("main entry").pc;
        mimd_theoretical(&program, entry, setup.dev.num_rays, &cfg, gpu.mem_mut())
            .expect("traditional kernel is spawn-free")
    };

    let mut points = Vec::new();
    for variant in [
        Variant::PdomWarp,
        Variant::PdomWarpIdeal,
        Variant::Dynamic,
        Variant::DynamicIdeal,
    ] {
        let r = plan.render(&RenderSpec::window("conference", variant, scale))?;
        points.push(BranchingPoint {
            label: variant.to_string(),
            ipc: r.ipc(),
            fraction_of_mimd: r.ipc() / mimd.ipc,
        });
    }
    points.push(BranchingPoint {
        label: "MIMD Theoretical".into(),
        ipc: mimd.ipc,
        fraction_of_mimd: 1.0,
    });
    Ok(Fig10 {
        points,
        mimd_ipc: mimd.ipc,
    })
}

impl fmt::Display for Fig10 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "Fig. 10 — branching performance vs MIMD theoretical (conference)"
        )?;
        writeln!(
            f,
            "  {:<26} {:>8} {:>12}",
            "configuration", "IPC", "% of MIMD"
        )?;
        for p in &self.points {
            writeln!(
                f,
                "  {:<26} {:>8.0} {:>11.0}%",
                p.label,
                p.ipc,
                p.fraction_of_mimd * 100.0
            )?;
        }
        write!(
            f,
            "  paper shape: PDOM flat under ideal memory; dynamic ~{:.0}% of MIMD, ~{:.0}% potential",
            paper("fig10.dyn"),
            paper("fig10.dyn.ideal")
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn five_bars_with_mimd_at_unity() {
        let fig = run(&mut Plan::default(), Scale::test()).expect("clean run");
        assert_eq!(fig.points.len(), 5);
        assert!((fig.points.last().unwrap().fraction_of_mimd - 1.0).abs() < 1e-9);
        for p in &fig.points {
            assert!(p.ipc > 0.0, "{}", p.label);
        }
    }

    #[test]
    fn dynamic_ideal_beats_dynamic_real() {
        let fig = run(&mut Plan::default(), Scale::test()).expect("clean run");
        let real = fig.fraction("Dynamic").unwrap();
        let ideal = fig.fraction("Dynamic (ideal mem)").unwrap();
        assert!(ideal >= real, "ideal {ideal} < real {real}");
    }

    #[test]
    fn no_simulated_config_exceeds_mimd_substantially() {
        let fig = run(&mut Plan::default(), Scale::test()).expect("clean run");
        for p in &fig.points {
            assert!(
                p.fraction_of_mimd <= 1.05,
                "{} exceeds the MIMD bound: {}",
                p.label,
                p.fraction_of_mimd
            );
        }
    }
}
