//! The lockstep oracle's corpus, in tier-1: the first 200
//! generated programs of `fuzz_diff --iterations 1000 --seed 0` — spawn
//! chains, guarded spawns, loops, every memory space, vectors — each run
//! on the independent reference machine and on every variant of the
//! cycle-level `Gpu` (both spawn policies, bank conflicts, forced ticking,
//! the cached, L1-only and ideal memory presets, a mid-run restore),
//! comparing final memory and lifecycle counters. A few seconds in a debug
//! build. CI's `fuzz_diff` step runs all 1000 from seed 0, these 200
//! among them, and `crates/sim/tests/oracle_diff.rs` the first 40: this
//! file is what puts the corpus in front of a plain `cargo test`. Every
//! variant's machine is held to `Gpu::audit`'s laws as well.
//!
//! Beside it, the cross-layer smoke: one μ-kernel render at test scale
//! through the whole cached memory path, which must match the host and
//! end with the machine's laws intact, so a break between the memory
//! hierarchy and the kernels shows in a plain `cargo test`.

use usimt::dmk::DmkConfig;
use usimt::isa::gen::GenConfig;
use usimt::kernels::render::{compare, RenderSetup};
use usimt::mem::MemConfig;
use usimt::raytrace::scenes::{self, SceneScale};
use usimt::sim::oracle::run_case;
use usimt::sim::{Gpu, GpuConfig, RunOutcome};

#[test]
fn the_first_200_programs_of_the_fuzz_corpus_match_the_reference() {
    let (mut spawning, mut looping, mut children) = (0, 0, 0);
    for seed in 0..200 {
        let cfg = GenConfig::from_seed(seed);
        let report = run_case(&cfg);
        assert!(
            report.passed(),
            "differential mismatch for `{}`:\n  {}",
            cfg.to_kv(),
            report.mismatch.expect("mismatch present")
        );
        spawning += u32::from(report.spawns);
        looping += u32::from(report.loops);
        children += report.ref_spawned;
    }
    // The corpus covers what it is here to cover.
    assert!(spawning >= 50, "{spawning} spawning programs");
    assert!(looping >= 50, "{looping} looping programs");
    assert!(children > 0, "no thread was ever spawned");
}

/// A 16×16 `conference` frame (test scale) as μ-kernels on the paper's DMK
/// hardware behind L1, interconnect and L2 (`MemConfig::fx5800_cached`):
/// it completes, matches the host tracer, and keeps every law of
/// `Gpu::audit` — checked here, so in release builds too.
#[test]
fn a_cached_ukernel_render_at_test_scale_keeps_the_machines_laws() {
    let cfg = GpuConfig {
        mem: MemConfig::fx5800_cached(),
        ..GpuConfig::fx5800_dmk(DmkConfig::paper())
    };
    let mut gpu = Gpu::builder(cfg).build();
    let scene = scenes::conference(SceneScale::Tiny);
    let setup = RenderSetup::upload(&mut gpu, &scene, 16, 16);
    setup.launch_ukernel(&mut gpu, 32);
    let summary = gpu.run(100_000_000).expect("fault-free run");
    assert_eq!(summary.outcome, RunOutcome::Completed);
    let l1 = gpu.l1_stats().expect("an L1 is modelled");
    assert!(l1.0 + l1.1 > 0, "the L1 saw traffic");
    let r = compare(&setup.host_reference(), &setup.device_results(&gpu));
    assert!(
        r.match_rate() > 0.99,
        "{} of {} differ",
        r.mismatches,
        r.total
    );
    assert_eq!(gpu.audit(), Ok(()));
}
