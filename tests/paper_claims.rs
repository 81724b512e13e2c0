//! The paper's headline claims. The paper-vs-measured table,
//! `results/fidelity_paper.txt`, is `repro fidelity` of the paper-scale
//! golden `results/paper_scale.txt`; the tests below check it and its
//! verdicts without simulating anything. The live tests after them assert
//! the claims' shape at a reduced scale (48×48 rays) so they run in CI.

use usimt::experiments::fidelity;
use usimt::experiments::fig3::divergence_figure;
use usimt::experiments::runner::{Plan, Scale};
use usimt::experiments::Variant;
use usimt::kernels::render::RenderSetup;
use usimt::raytrace::scenes;
use usimt::sim::{mimd_theoretical, Gpu, GpuConfig};

fn golden(name: &str) -> String {
    let path = format!("{}/results/{name}", env!("CARGO_MANIFEST_DIR"));
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path}: {e}"))
}

#[test]
fn fidelity_table_of_the_paper_scale_golden_is_recorded() {
    let table = fidelity::render(&golden("paper_scale.txt")).expect("every section present");
    assert_eq!(
        table,
        golden("fidelity_paper.txt"),
        "re-record with `repro fidelity results/paper_scale.txt`"
    );
}

/// Two directions the paper states do not reproduce, and EXPERIMENTS.md
/// says why: with bank conflicts the μ-kernels fall below the (stronger)
/// PDOM baseline, and eliding convergent spawns (§IX) costs IPC here. They
/// are named so that each must keep failing until a change means to move
/// it; every other direction must hold.
const DIRECTIONS_NOT_REPRODUCED: [&str; 2] = ["fig9.ratio", "ablation.ipc"];

#[test]
fn every_direction_row_holds_at_paper_scale() {
    let rows = fidelity::rows(&golden("paper_scale.txt")).expect("every section present");
    assert!(rows.iter().any(|r| r.holds.is_some()));
    for row in rows {
        if let Some(holds) = row.holds {
            let expected = !DIRECTIONS_NOT_REPRODUCED.contains(&row.claim.id);
            assert_eq!(
                holds, expected,
                "{}: measured {}",
                row.claim.id, row.measured
            );
        }
    }
}

#[test]
fn quick_scale_golden_measures_every_row() {
    let rows = fidelity::rows(&golden("quick_scale.txt")).expect("every section present");
    assert_eq!(rows.len(), fidelity::CLAIMS.len());
    for row in rows {
        assert!(
            row.measured.is_finite() && row.measured > 0.0,
            "{}: {}",
            row.claim.id,
            row.measured
        );
    }
}

fn scale() -> Scale {
    // Small-but-meaningful: 48x48 rays on the full 30-SM machine.
    Scale {
        resolution: 48,
        cycles: 40_000,
        scene: usimt::raytrace::scenes::SceneScale::Small,
        threads_per_block: 64,
    }
}

#[test]
fn dynamic_ukernels_keep_more_lanes_active_than_pdom() {
    let mut plan = Plan::default();
    let pdom = divergence_figure(&mut plan, Variant::PdomWarp, scale()).expect("clean run");
    let dmk = divergence_figure(&mut plan, Variant::Dynamic, scale()).expect("clean run");
    assert!(
        dmk.mean_active_lanes > pdom.mean_active_lanes,
        "dynamic {:.1} lanes !> PDOM {:.1} lanes",
        dmk.mean_active_lanes,
        pdom.mean_active_lanes
    );
}

#[test]
fn dynamic_ukernels_raise_ipc_over_pdom() {
    let mut plan = Plan::default();
    let pdom = divergence_figure(&mut plan, Variant::PdomWarp, scale()).expect("clean run");
    let dmk = divergence_figure(&mut plan, Variant::Dynamic, scale()).expect("clean run");
    assert!(
        dmk.ipc > pdom.ipc,
        "dynamic IPC {:.0} !> PDOM IPC {:.0}",
        dmk.ipc,
        pdom.ipc
    );
}

#[test]
fn pdom_is_branch_bound_not_memory_bound() {
    // Paper Fig. 10: PDOM shows (almost) no gain from an ideal memory
    // system. Allow a modest margin at this small scale.
    let mut plan = Plan::default();
    let real = divergence_figure(&mut plan, Variant::PdomWarp, scale()).expect("clean run");
    let ideal = divergence_figure(&mut plan, Variant::PdomWarpIdeal, scale()).expect("clean run");
    assert!(
        ideal.ipc < real.ipc * 1.6,
        "PDOM must be branch-bound: ideal {:.0} vs real {:.0}",
        ideal.ipc,
        real.ipc
    );
}

#[test]
fn bank_conflicts_slow_dynamic_execution_but_not_fatally() {
    let mut plan = Plan::default();
    let clean = divergence_figure(&mut plan, Variant::Dynamic, scale()).expect("clean run");
    let conflicted =
        divergence_figure(&mut plan, Variant::DynamicConflicts, scale()).expect("clean run");
    assert!(conflicted.ipc <= clean.ipc);
    assert!(
        conflicted.ipc > clean.ipc * 0.5,
        "conflicts should degrade, not destroy: {:.0} vs {:.0}",
        conflicted.ipc,
        clean.ipc
    );
}

#[test]
fn spawn_memory_sizing_follows_the_paper_formula() {
    // §IV-A2: size = NumThreads + (SpawnLocations - 1) * WarpSize, doubled.
    let d = usimt::dmk::DmkConfig::paper();
    assert_eq!(d.formation_entries(), 1024 + 3 * 32);
    let layout = usimt::dmk::SpawnMemoryLayout::new(&d);
    assert_eq!(
        layout.total_bytes(),
        48 * 1024 + d.formation_blocks() * 32 * 4
    );
}

#[test]
fn table2_resource_shape_matches_paper() {
    let t = usimt::experiments::table2::run();
    // μ-kernels need spawn memory, the traditional kernel none (Table II).
    assert_eq!(t.traditional.spawn_bytes, 0);
    assert_eq!(t.ukernel.spawn_bytes, 48);
    // Constant memory identical (same header), global identical (same
    // buffers) — the paper's μ-kernel column shrinks mainly in constant
    // memory, ours is shared infrastructure.
    assert_eq!(t.traditional.const_bytes, t.ukernel.const_bytes);
}

#[test]
fn table4_dynamic_bandwidth_blowup_matches_paper_direction() {
    let t = usimt::experiments::table4::run(Scale::test());
    assert!(t.mean_read_increase() > 1.5);
    assert!(t.mean_total_increase() > t.mean_read_increase());
}

/// Fig. 10 prints the MIMD bound's IPC rounded to an integer, so the golden
/// files cannot see a small drift in the reference machine's instruction
/// counts. These are the counts behind the test-scale figure (the
/// quick-scale frame: 24 469 529 / 27 595; the paper's: 741 458 473 /
/// 69 183 — the longest ray is a thirtieth of the per-thread budget).
#[test]
fn mimd_theoretical_counts_are_pinned_at_test_scale() {
    let scale = Scale::test();
    let scene = scenes::conference(scale.scene);
    let cfg = GpuConfig::fx5800_warp_sched();
    let mut gpu = Gpu::builder(cfg.clone()).build();
    let setup = RenderSetup::upload(&mut gpu, &scene, scale.resolution, scale.resolution);
    let program = usimt::kernels::traditional::program();
    let entry = program.entry("main").expect("main entry").pc;
    let r = mimd_theoretical(&program, entry, setup.dev.num_rays, &cfg, gpu.mem_mut())
        .expect("traditional kernel is spawn-free");
    assert_eq!(
        (r.total_instructions, r.longest_thread, r.cycles, r.threads),
        (674_525, 8_345, 8_345, 256)
    );
}
