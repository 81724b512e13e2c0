//! Deterministic process-level chaos schedule.
//!
//! `repro campaign --chaos-kill-every K --seed S` kills worker processes
//! mid-job to prove the campaign converges to byte-identical artifacts
//! anyway. The schedule is a pure function of `(seed, job name, attempt
//! index)` so two campaigns with the same seed kill exactly the same
//! attempts regardless of worker scheduling, host load, or wall-clock
//! time. The kill itself is delivered *inside* the worker by the
//! supervisor's checkpoint-write hook (`--kill-after-checkpoints M` with
//! `--chaos-abort`, a generalization of the PR-3 exit-42 hook that dies
//! by `std::process::abort` instead), so the death point is a
//! deterministic simulated-cycle boundary, not a timing race.
//!
//! `repro serve --chaos-crash-every K --seed S` extends the same idea to
//! the *coordinator* process: [`Chaos::server_crash_plan`] decides, per
//! server incarnation, whether that incarnation aborts and after how many
//! freshly computed (non-cache) job completions. Because only fresh
//! completions count, every crashing incarnation is guaranteed to have
//! banked at least one new result in the content-addressed cache before
//! dying, so a restart loop always makes forward progress and the request
//! stream converges to the same artifact bytes.

use simt_isa::codec::{fnv1a64, Encoder};

/// A seeded chaos-kill schedule.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Chaos {
    /// Kill roughly one in `kill_every` scheduled attempts (1 = kill
    /// every eligible attempt).
    pub kill_every: u64,
    /// Campaign chaos seed.
    pub seed: u64,
}

impl Chaos {
    /// Decides whether attempt `attempt` (0-based) of `job` is killed,
    /// and if so after how many checkpoint writes (progress-bearing ones:
    /// see `supervisor::persist`). Returns `None` for a clean attempt.
    ///
    /// The schedule never touches attempts at or past `retry_budget`:
    /// the final allowed attempt of every job is always clean, so chaos
    /// alone can never drive a job to `GaveUp` — the campaign always
    /// converges, merely later.
    pub fn kill_plan(&self, job: &str, attempt: u32, retry_budget: u32) -> Option<u64> {
        if self.kill_every == 0 || attempt >= retry_budget {
            return None;
        }
        let mut enc = Encoder::new();
        enc.put_str("usimt-chaos-v1");
        enc.put_u64(self.seed);
        enc.put_str(job);
        enc.put_u32(attempt);
        let h = fnv1a64(&enc.into_bytes());
        if h.is_multiple_of(self.kill_every) {
            // Die after 2–4 checkpoint writes. Only snapshots that hold
            // progress are written (the launch and a just-resumed state
            // are not), so every killed attempt leaves its successor at
            // least two slices further on; early enough that short jobs
            // still get killed mid-flight.
            Some(2 + (h >> 32) % 3)
        } else {
            None
        }
    }

    /// Decides whether server incarnation `incarnation` (0-based boot
    /// count, persisted by `repro serve` across restarts) crashes, and if
    /// so after how many *freshly computed* job completions (cache hits
    /// never count, so a crashing incarnation always banks new progress
    /// first — the restart loop can never livelock). Returns `None` for
    /// an incarnation that runs clean.
    pub fn server_crash_plan(&self, incarnation: u64) -> Option<u64> {
        if self.kill_every == 0 {
            return None;
        }
        let mut enc = Encoder::new();
        enc.put_str("usimt-serve-chaos-v1");
        enc.put_u64(self.seed);
        enc.put_u64(incarnation);
        let h = fnv1a64(&enc.into_bytes());
        if h.is_multiple_of(self.kill_every) {
            Some(1 + (h >> 32) % 3)
        } else {
            None
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedule_is_deterministic_and_seed_sensitive() {
        let a = Chaos {
            kill_every: 2,
            seed: 7,
        };
        let b = Chaos {
            kill_every: 2,
            seed: 8,
        };
        let plan_a: Vec<_> = (0..8).map(|n| a.kill_plan("fig8", n, 100)).collect();
        let plan_a2: Vec<_> = (0..8).map(|n| a.kill_plan("fig8", n, 100)).collect();
        let plan_b: Vec<_> = (0..8).map(|n| b.kill_plan("fig8", n, 100)).collect();
        assert_eq!(plan_a, plan_a2, "same seed, same schedule");
        assert_ne!(plan_a, plan_b, "different seed, different schedule");
    }

    #[test]
    fn kill_every_one_kills_every_attempt_under_the_budget() {
        let c = Chaos {
            kill_every: 1,
            seed: 0,
        };
        for attempt in 0..3 {
            let plan = c.kill_plan("fig3", attempt, 3);
            let m = plan.expect("every eligible attempt is killed");
            assert!((2..=4).contains(&m), "kill point {m} out of range");
        }
        assert_eq!(
            c.kill_plan("fig3", 3, 3),
            None,
            "the final allowed attempt is always clean"
        );
    }

    #[test]
    fn zero_rate_never_kills() {
        let c = Chaos {
            kill_every: 0,
            seed: 1,
        };
        assert_eq!(c.kill_plan("fig3", 0, 3), None);
    }
}
