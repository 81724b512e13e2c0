//! Fig. 8 — performance (million rays per second) for all benchmarks
//! under the different branching and scheduling methods.
//!
//! The paper's ordering: dynamic μ-kernels > PDOM Warp > PDOM Block, with
//! dynamic's mean gain over the traditional hardware `fidelity` claim
//! `fig8.mean`.

use crate::configs::Variant;
use crate::fidelity::paper;
use crate::runner::{Plan, RenderSpec, Scale};
use raytrace::scenes;
use serde::Serialize;
use std::fmt;

/// One (scene, variant) measurement.
#[derive(Debug, Clone, Serialize)]
pub struct PerfPoint {
    /// Scene name.
    pub scene: &'static str,
    /// Variant label.
    pub variant: String,
    /// Million rays per second.
    pub mrays_per_second: f64,
    /// Rays completed in the simulated window.
    pub rays_completed: u64,
    /// Average IPC.
    pub ipc: f64,
}

/// The regenerated Fig. 8.
#[derive(Debug, Clone, Serialize)]
pub struct Fig8 {
    /// All measurements, scene-major in the paper's presentation order.
    pub points: Vec<PerfPoint>,
}

/// The variants plotted in the paper's Fig. 8.
pub const FIG8_VARIANTS: [Variant; 3] = [Variant::PdomBlock, Variant::PdomWarp, Variant::Dynamic];

impl Fig8 {
    fn value(&self, scene: &str, variant: Variant) -> Option<f64> {
        self.points
            .iter()
            .find(|p| p.scene == scene && p.variant == variant.to_string())
            .map(|p| p.mrays_per_second)
    }

    /// Mean speedup of dynamic μ-kernels over the traditional hardware
    /// baseline (PDOM Block), across scenes.
    pub fn mean_dynamic_speedup(&self) -> f64 {
        let scenes: Vec<&str> = self
            .points
            .iter()
            .map(|p| p.scene)
            .collect::<std::collections::BTreeSet<_>>()
            .into_iter()
            .collect();
        let mut total = 0.0;
        let mut n = 0;
        for s in scenes {
            if let (Some(d), Some(b)) = (
                self.value(s, Variant::Dynamic),
                self.value(s, Variant::PdomBlock),
            ) {
                if b > 0.0 {
                    total += d / b;
                    n += 1;
                }
            }
        }
        if n == 0 {
            0.0
        } else {
            total / n as f64
        }
    }
}

/// Measures every scene × variant combination.
pub fn run(plan: &mut Plan, scale: Scale) -> Result<Fig8, String> {
    let mut points = Vec::new();
    for scene in scenes::NAMES {
        for variant in FIG8_VARIANTS {
            let r = plan.render(&RenderSpec::window(scene, variant, scale))?;
            points.push(PerfPoint {
                scene,
                variant: variant.to_string(),
                mrays_per_second: r.mrays_per_second(),
                rays_completed: r.summary.stats.lineages_completed,
                ipc: r.ipc(),
            });
        }
    }
    Ok(Fig8 { points })
}

impl fmt::Display for Fig8 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Fig. 8 — rays per second by benchmark and method")?;
        writeln!(
            f,
            "  {:<12} {:<22} {:>10} {:>12} {:>8}",
            "scene", "method", "Mrays/s", "rays done", "IPC"
        )?;
        for p in &self.points {
            writeln!(
                f,
                "  {:<12} {:<22} {:>10.1} {:>12} {:>8.0}",
                p.scene, p.variant, p.mrays_per_second, p.rays_completed, p.ipc
            )?;
        }
        write!(
            f,
            "  mean dynamic speedup over traditional hardware: {:.2}x (paper: {:.1}x)",
            self.mean_dynamic_speedup(),
            paper("fig8.mean")
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn produces_nine_points() {
        let fig = run(&mut Plan::default(), Scale::test()).expect("clean run");
        assert_eq!(fig.points.len(), 9);
        for p in &fig.points {
            assert!(p.ipc > 0.0, "{} {}", p.scene, p.variant);
        }
    }

    #[test]
    fn speedup_metric_is_finite() {
        let fig = run(&mut Plan::default(), Scale::test()).expect("clean run");
        let s = fig.mean_dynamic_speedup();
        assert!(s.is_finite());
    }
}
