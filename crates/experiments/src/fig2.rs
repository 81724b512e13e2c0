//! Fig. 2 — PDOM branching efficiency for a single warp performing a
//! data-dependent looping operation.
//!
//! A single warp runs `A; do { B } while (lane-dependent count); C`. PDOM
//! keeps all lanes together through `A`, then loses lanes from `B` as
//! their loops finish, reconverging at `C` — exactly the example of the
//! paper's Fig. 2. We report the per-issue active-lane trace and the
//! resulting SIMT efficiency.

use serde::Serialize;
use simt_isa::assemble_named;
use simt_sim::{GpuConfig, Launch};
use std::fmt;

/// Result of the single-warp loop demonstration.
#[derive(Debug, Clone, Serialize)]
pub struct Fig2 {
    /// Active lanes at each issued warp-instruction, in issue order.
    pub lane_trace: Vec<u32>,
    /// SIMT efficiency over the whole run (committed / issued·width).
    pub efficiency: f64,
    /// Efficiency of an ideal MIMD machine on the same work (always 1.0;
    /// shown for contrast).
    pub mimd_efficiency: f64,
}

/// Source of the loop kernel: lane `i` iterates `i % 8 + 1` times.
pub fn loop_kernel_source() -> &'static str {
    r#"
    .kernel main
    main:
        mov.u32 r1, %tid       ; A
        and.b32 r2, r1, 7
        add.s32 r2, r2, 1      ; trips = tid%8 + 1
        mov.u32 r3, 0
    body:
        add.s32 r3, r3, 1      ; B
        sub.s32 r2, r2, 1
        setp.gt.s32 p0, r2, 0
        @p0 bra body
        mul.lo.s32 r4, r1, 4   ; C
        st.global.u32 [r4+0], r3
        exit
    "#
}

/// Runs one 32-thread warp on one SM and records the divergence trace.
///
/// # Errors
///
/// A job-level error when the embedded kernel fails to assemble or the
/// run faults or stalls, so `repro` reports it instead of aborting the
/// campaign.
pub fn run() -> Result<Fig2, String> {
    let mut cfg = GpuConfig::fx5800_warp_sched();
    cfg.num_sms = 1;
    cfg.mem.ideal = true; // isolate branching behaviour, like the figure
    cfg.divergence_window = 1;
    let mut gpu = crate::configs::machine(cfg);
    gpu.mem_mut().alloc_global(32 * 4, "out");
    let program = assemble_named("fig2-loop", loop_kernel_source())
        .map_err(|e| format!("kernel assembly failed: {e}"))?;
    gpu.launch(Launch {
        program,
        entry: "main".into(),
        num_threads: 32,
        threads_per_block: 32,
    })
    .expect("launch accepted");
    let summary = crate::supervisor::run_checked(&mut gpu, 100_000, "fig2", true)?;
    let report = gpu.telemetry_report();
    if crate::supervisor::policy().telemetry.trace {
        crate::runner::write_trace_artifacts("fig2", &report);
    }
    // Rebuild the per-issue lane counts from the telemetry divergence
    // mirror's 1-cycle windows: with one SM and one warp, each window has
    // at most one issue. The mirror is bit-identical to
    // `summary.stats.divergence`, so this is the same trace the figure
    // always printed.
    let lane_trace: Vec<u32> = report
        .divergence
        .windows()
        .iter()
        .filter_map(|w| {
            w.iter()
                .enumerate()
                .skip(1)
                .find(|(_, &n)| n > 0)
                .map(|(b, _)| (b as u32 - 1) * 4 + 4) // bucket upper bound
        })
        .collect();
    Ok(Fig2 {
        lane_trace,
        efficiency: summary.stats.simt_efficiency(32),
        mimd_efficiency: 1.0,
    })
}

impl fmt::Display for Fig2 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "Fig. 2 — PDOM efficiency of one warp in a data-dependent loop"
        )?;
        write!(f, "  active lanes per issue: ")?;
        for (i, l) in self.lane_trace.iter().enumerate() {
            if i > 0 {
                write!(f, ",")?;
            }
            write!(f, "{l}")?;
        }
        writeln!(f)?;
        writeln!(f, "  PDOM SIMT efficiency: {:.0}%", self.efficiency * 100.0)?;
        write!(
            f,
            "  MIMD efficiency:      {:.0}%",
            self.mimd_efficiency * 100.0
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn loop_demo_shows_decaying_occupancy() {
        let r = run().expect("fig2 kernel assembles");
        assert!(!r.lane_trace.is_empty());
        // Starts fully occupied...
        assert_eq!(r.lane_trace[0], 32);
        // ...and at some point drops below half.
        assert!(r.lane_trace.iter().any(|&l| l <= 16), "{:?}", r.lane_trace);
        // Efficiency strictly between the degenerate extremes.
        assert!(r.efficiency > 0.2 && r.efficiency < 1.0, "{}", r.efficiency);
    }

    #[test]
    fn trace_is_monotone_after_reconvergence_structure() {
        // The loop only sheds lanes, so the minimum over time decreases.
        let r = run().expect("fig2 kernel assembles");
        let min_early: u32 = *r.lane_trace[..r.lane_trace.len() / 2].iter().min().unwrap();
        let min_late: u32 = *r.lane_trace[r.lane_trace.len() / 2..].iter().min().unwrap();
        assert!(min_late <= min_early);
    }
}
