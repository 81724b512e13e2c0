//! Fig. 9 — divergence breakdown with spawn-memory bank conflicts
//! (conference benchmark).
//!
//! The paper's μ-kernels stay ahead of the traditional hardware here
//! (`fidelity` claims `fig9.ipc` and `fig9.ratio`), with extra pipeline
//! stalls from serialized conflicting accesses to the spawn memory space.

use crate::configs::Variant;
use crate::fidelity::paper;
use crate::fig3::{self, divergence_figure, DivergenceFigure};
use crate::runner::{Plan, RenderSpec, Scale};
use serde::Serialize;
use std::fmt;

/// Fig. 9 plus comparisons against Figs. 3 and 7.
#[derive(Debug, Clone, Serialize)]
pub struct Fig9 {
    /// μ-kernels with bank conflicts modeled.
    pub with_conflicts: DivergenceFigure,
    /// μ-kernels without conflicts (Fig. 7 configuration).
    pub without_conflicts: DivergenceFigure,
    /// Traditional baseline (Fig. 3 configuration).
    pub traditional: DivergenceFigure,
    /// Bank-conflict serialization passes observed in spawn memory.
    pub conflict_passes: u64,
}

impl Fig9 {
    /// IPC over the traditional baseline.
    pub fn ipc_ratio_vs_traditional(&self) -> f64 {
        if self.traditional.ipc == 0.0 {
            0.0
        } else {
            self.with_conflicts.ipc / self.traditional.ipc
        }
    }
}

/// Runs the three configurations on the conference benchmark.
pub fn run(plan: &mut Plan, scale: Scale) -> Result<Fig9, String> {
    let with_run = plan.render(&RenderSpec::window(
        "conference",
        Variant::DynamicConflicts,
        scale,
    ))?;
    let conflict_passes = with_run
        .summary
        .traffic
        .space(simt_isa::Space::Spawn)
        .bank_conflict_passes;
    Ok(Fig9 {
        with_conflicts: DivergenceFigure::of(with_run),
        without_conflicts: divergence_figure(plan, Variant::Dynamic, scale)?,
        traditional: fig3::run(plan, scale)?,
        conflict_passes,
    })
}

impl fmt::Display for Fig9 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "{}", self.with_conflicts)?;
        writeln!(
            f,
            "  spawn-memory conflict passes: {}",
            self.conflict_passes
        )?;
        writeln!(
            f,
            "  IPC: no-conflicts {:.0}, with conflicts {:.0}, traditional {:.0}",
            self.without_conflicts.ipc, self.with_conflicts.ipc, self.traditional.ipc
        )?;
        write!(
            f,
            "  with-conflicts vs traditional: {:.2}x (paper: {:.0} vs {:.0}, {:.1}x)",
            self.ipc_ratio_vs_traditional(),
            paper("fig9.ipc"),
            paper("fig3.ipc"),
            paper("fig9.ratio")
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conflicts_cost_performance_but_stay_ahead_of_zero() {
        let fig = run(&mut Plan::default(), Scale::test()).expect("clean run");
        assert!(fig.conflict_passes > 0, "conflicts must actually occur");
        assert!(
            fig.with_conflicts.ipc <= fig.without_conflicts.ipc,
            "conflicts cannot speed things up: {} vs {}",
            fig.with_conflicts.ipc,
            fig.without_conflicts.ipc
        );
        assert!(fig.with_conflicts.ipc > 0.0);
    }
}
