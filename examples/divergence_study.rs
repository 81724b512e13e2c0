//! Reproduces the paper's Fig. 2 intuition interactively: how PDOM
//! divergence develops in a single warp running a data-dependent loop,
//! and how the divergence breakdown of a full render evolves over time
//! (the Figs. 3/7 time series) — printed as text bar charts.
//!
//! ```sh
//! cargo run --release --example divergence_study
//! ```

use usimt::experiments::fig2;
use usimt::experiments::fig3::divergence_figure;
use usimt::experiments::runner::{Plan, Scale};
use usimt::experiments::Variant;

fn bar(frac: f64, width: usize) -> String {
    let n = (frac * width as f64).round() as usize;
    "#".repeat(n.min(width))
}

fn main() {
    // --- Part 1: a single warp in a loop (Fig. 2) -----------------------
    let f2 = fig2::run().expect("fig2 kernel assembles");
    println!("single warp, lane-dependent loop (paper Fig. 2):");
    for (i, lanes) in f2.lane_trace.iter().enumerate() {
        println!(
            "  issue {i:>3}: {:>2} lanes |{}",
            lanes,
            bar(f64::from(*lanes) / 32.0, 32)
        );
    }
    println!("  SIMT efficiency: {:.0}%\n", f2.efficiency * 100.0);

    // --- Part 2: full-render divergence over time (Figs. 3 vs 7) --------
    let scale = Scale::quick();
    let mut plan = Plan::default();
    for variant in [Variant::PdomWarp, Variant::Dynamic] {
        let fig = divergence_figure(&mut plan, variant, scale).expect("clean run");
        println!("divergence over time — {variant} (conference):");
        for (wi, w) in fig.windows.iter().enumerate() {
            let total: u64 = w.iter().sum();
            if total == 0 {
                continue;
            }
            // Weighted mean occupancy for the window (buckets of 4 lanes).
            let issues: u64 = w[1..].iter().sum();
            let weighted: f64 = w[1..]
                .iter()
                .enumerate()
                .map(|(b, &n)| n as f64 * (b as f64 * 4.0 + 2.0))
                .sum();
            let mean = if issues == 0 {
                0.0
            } else {
                weighted / issues as f64
            };
            println!(
                "  {:>4}k cycles: mean {:>4.1}/32 active |{}",
                (wi as u64 + 1) * fig.window_cycles / 1000,
                mean,
                bar(mean / 32.0, 32)
            );
        }
        println!(
            "  average IPC {:.0}, mean active lanes {:.1}\n",
            fig.ipc, fig.mean_active_lanes
        );
    }
}
