//! Fig. 7 — divergence breakdown for warps using dynamic μ-kernels
//! (conference benchmark, spawn-memory bank conflicts eliminated).
//!
//! The comparison against our regenerated Fig. 3 is bundled in [`Fig7`];
//! the paper's IPCs are `fidelity` claims `fig3.ipc`, `fig7.ipc` and
//! `fig7.ratio`.

use crate::configs::Variant;
use crate::fidelity::paper;
use crate::fig3::{self, divergence_figure, DivergenceFigure};
use crate::runner::{Plan, Scale};
use serde::Serialize;
use std::fmt;

/// Fig. 7 plus the IPC comparison against Fig. 3.
#[derive(Debug, Clone, Serialize)]
pub struct Fig7 {
    /// The μ-kernel breakdown.
    pub dynamic: DivergenceFigure,
    /// The traditional breakdown it is compared against.
    pub traditional: DivergenceFigure,
}

impl Fig7 {
    /// IPC improvement of dynamic μ-kernels over traditional branching.
    pub fn ipc_ratio(&self) -> f64 {
        if self.traditional.ipc == 0.0 {
            0.0
        } else {
            self.dynamic.ipc / self.traditional.ipc
        }
    }
}

/// Runs both configurations on the conference benchmark.
pub fn run(plan: &mut Plan, scale: Scale) -> Result<Fig7, String> {
    Ok(Fig7 {
        dynamic: divergence_figure(plan, Variant::Dynamic, scale)?,
        traditional: fig3::run(plan, scale)?,
    })
}

impl fmt::Display for Fig7 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "{}", self.dynamic)?;
        writeln!(
            f,
            "  vs traditional IPC: {:.0} -> {:.0}  ({:.2}x, paper: {:.0} -> {:.0}, {:.1}x)",
            self.traditional.ipc,
            self.dynamic.ipc,
            self.ipc_ratio(),
            paper("fig3.ipc"),
            paper("fig7.ipc"),
            paper("fig7.ratio")
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dynamic_keeps_more_lanes_active() {
        let fig = run(&mut Plan::default(), Scale::test()).expect("clean run");
        assert!(
            fig.dynamic.mean_active_lanes > fig.traditional.mean_active_lanes,
            "dynamic {:.1} !> traditional {:.1}",
            fig.dynamic.mean_active_lanes,
            fig.traditional.mean_active_lanes
        );
    }

    #[test]
    fn ipc_ratio_is_positive() {
        let fig = run(&mut Plan::default(), Scale::test()).expect("clean run");
        assert!(fig.ipc_ratio() > 0.0);
    }
}
