//! Ablation: the §IX branch-instead-of-spawn optimization.
//!
//! "Development of a more advanced algorithm can improve performance by
//! allowing branching instead of thread creation when all threads in a
//! warp follow the same branch." This runner quantifies that future-work
//! claim on the conference benchmark by running the μ-kernel tracer under
//! both spawn policies.

use crate::configs::Variant;
use crate::runner::{Plan, RenderSpec, Scale, Stop};
use serde::Serialize;
use simt_sim::SpawnPolicy;
use std::fmt;

/// One policy's measurements.
#[derive(Debug, Clone, Serialize)]
pub struct PolicyRun {
    /// Policy label.
    pub policy: String,
    /// Average IPC.
    pub ipc: f64,
    /// Rays completed in the window.
    pub rays_completed: u64,
    /// Threads created.
    pub threads_spawned: u64,
    /// Spawns elided into branches.
    pub spawn_elisions: u64,
}

/// The ablation result.
#[derive(Debug, Clone, Serialize)]
pub struct SpawnPolicyAblation {
    /// The paper's evaluated (naïve) policy.
    pub naive: PolicyRun,
    /// The §IX optimized policy.
    pub on_divergence: PolicyRun,
}

impl SpawnPolicyAblation {
    /// Reduction in created threads (1.0 = none created).
    pub fn thread_reduction(&self) -> f64 {
        if self.naive.threads_spawned == 0 {
            return 0.0;
        }
        1.0 - self.on_divergence.threads_spawned as f64 / self.naive.threads_spawned as f64
    }
}

fn run_policy(plan: &mut Plan, policy: SpawnPolicy, scale: Scale) -> Result<PolicyRun, String> {
    let run = plan.render(&RenderSpec {
        spawn_policy: Some(policy),
        stop: Stop::Window {
            warm: 0,
            measure: scale.cycles,
        },
        ..RenderSpec::window("conference", Variant::Dynamic, scale)
    })?;
    let s = &run.summary.stats;
    Ok(PolicyRun {
        policy: format!("{policy:?}"),
        ipc: s.ipc(),
        rays_completed: s.lineages_completed,
        threads_spawned: s.threads_spawned,
        spawn_elisions: s.spawn_elisions,
    })
}

/// Runs the ablation on the conference benchmark.
pub fn run(plan: &mut Plan, scale: Scale) -> Result<SpawnPolicyAblation, String> {
    Ok(SpawnPolicyAblation {
        naive: run_policy(plan, SpawnPolicy::Always, scale)?,
        on_divergence: run_policy(plan, SpawnPolicy::OnDivergence, scale)?,
    })
}

impl fmt::Display for SpawnPolicyAblation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Ablation — §IX branch-instead-of-spawn (conference)")?;
        writeln!(
            f,
            "  {:<14} {:>8} {:>10} {:>12} {:>10}",
            "policy", "IPC", "rays", "spawned", "elisions"
        )?;
        for p in [&self.naive, &self.on_divergence] {
            writeln!(
                f,
                "  {:<14} {:>8.0} {:>10} {:>12} {:>10}",
                p.policy, p.ipc, p.rays_completed, p.threads_spawned, p.spawn_elisions
            )?;
        }
        write!(
            f,
            "  thread creation reduced by {:.0}%",
            self.thread_reduction() * 100.0
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn elision_reduces_thread_creation_without_breaking_rays() {
        let a = run(&mut Plan::default(), Scale::test()).expect("clean run");
        assert_eq!(a.naive.spawn_elisions, 0);
        assert!(a.on_divergence.spawn_elisions > 0);
        assert!(a.on_divergence.threads_spawned < a.naive.threads_spawned);
        assert!(a.thread_reduction() > 0.0);
    }
}
