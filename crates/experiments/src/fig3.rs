//! Fig. 3 — divergence breakdown for warps using traditional SIMT
//! branching (conference benchmark).
//!
//! The shared machinery ([`DivergenceFigure`], [`divergence_figure`]) is
//! also used by Figs. 7 and 9, which run the same measurement on the
//! dynamic μ-kernel machine without/with spawn-memory bank conflicts.

use crate::configs::Variant;
use crate::runner::{Plan, RenderRun, RenderSpec, Scale};
use serde::Serialize;
use std::fmt;

/// An AerialVision-style divergence breakdown over time.
#[derive(Debug, Clone, Serialize)]
pub struct DivergenceFigure {
    /// Which figure/variant this is.
    pub variant: String,
    /// Bucket labels (`idle`, `W1:4` … `W29:32`).
    pub labels: Vec<String>,
    /// Per-window issue counts by bucket.
    pub windows: Vec<Vec<u64>>,
    /// Window width in cycles.
    pub window_cycles: u64,
    /// Average committed thread-instructions per cycle over the run.
    pub ipc: f64,
    /// Mean active lanes per issue.
    pub mean_active_lanes: f64,
    /// Rays finished within the simulated window.
    pub rays_completed: u64,
    /// Fault-model counters; all zeros for a healthy run.
    pub health: crate::runner::FaultHealth,
}

/// Runs `variant`'s standard window on the conference benchmark through
/// `plan` and extracts the breakdown.
pub fn divergence_figure(
    plan: &mut Plan,
    variant: Variant,
    scale: Scale,
) -> Result<DivergenceFigure, String> {
    let run = plan.render(&RenderSpec::window("conference", variant, scale))?;
    Ok(DivergenceFigure::of(run))
}

impl DivergenceFigure {
    /// The breakdown of a finished render.
    ///
    /// The timeline comes from the run's telemetry report, whose divergence
    /// is a copy of `SimStats::divergence`.
    pub(crate) fn of(run: &RenderRun) -> DivergenceFigure {
        let d = &run.telemetry.divergence;
        DivergenceFigure {
            variant: run.variant.to_string(),
            labels: d.labels(),
            windows: d.windows().iter().map(|w| w.to_vec()).collect(),
            window_cycles: d.window(),
            ipc: run.ipc(),
            mean_active_lanes: d.mean_active_lanes(),
            rays_completed: run.summary.stats.lineages_completed,
            health: run.fault_health(),
        }
    }
}

/// Fig. 3: the traditional-branching breakdown.
pub fn run(plan: &mut Plan, scale: Scale) -> Result<DivergenceFigure, String> {
    divergence_figure(plan, Variant::PdomWarp, scale)
}

impl fmt::Display for DivergenceFigure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "Divergence breakdown over time — {} (conference benchmark)",
            self.variant
        )?;
        write!(f, "  {:<10}", "cycles")?;
        for l in &self.labels {
            write!(f, " {l:>8}")?;
        }
        writeln!(f)?;
        for (i, w) in self.windows.iter().enumerate() {
            write!(
                f,
                "  {:<10}",
                format!("{}k", (i as u64 + 1) * self.window_cycles / 1000)
            )?;
            for v in w {
                write!(f, " {v:>8}")?;
            }
            writeln!(f)?;
        }
        writeln!(f, "  average IPC:        {:.0}", self.ipc)?;
        writeln!(
            f,
            "  mean active lanes:  {:.1} / 32",
            self.mean_active_lanes
        )?;
        writeln!(f, "  rays completed:     {}", self.rays_completed)?;
        write!(f, "  fault health:       {}", self.health)
    }
}

/// Ends a row with `buckets` as shares of their sum, one ` {:>5.1}`
/// percentage each (all zero for an empty run): the occupancy-bucket
/// rows of the `bvh` and `microdiv` figures.
pub(crate) fn write_bucket_shares(f: &mut fmt::Formatter<'_>, buckets: &[u64]) -> fmt::Result {
    let total: u64 = buckets.iter().sum();
    for b in buckets {
        let pct = if total > 0 {
            *b as f64 * 100.0 / total as f64
        } else {
            0.0
        };
        write!(f, " {pct:>5.1}")?;
    }
    writeln!(f)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn traditional_breakdown_shows_divergence() {
        let fig = run(&mut Plan::default(), Scale::test()).expect("clean run");
        assert!(!fig.windows.is_empty());
        assert!(fig.ipc > 0.0);
        // Some issues must fall below full occupancy.
        let partial: u64 = fig
            .windows
            .iter()
            .flat_map(|w| w[1..w.len() - 1].iter())
            .sum();
        assert!(partial > 0, "expected partially-occupied issues");
    }

    #[test]
    fn labels_match_window_width() {
        let fig = run(&mut Plan::default(), Scale::test()).expect("clean run");
        assert_eq!(fig.labels.len(), fig.windows[0].len());
        assert_eq!(fig.labels[0], "idle");
    }
}
