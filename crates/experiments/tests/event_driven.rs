//! Differential tests for the event-driven cycle loop at render scale:
//! sleeping SMs must be observationally invisible. The same render jobs
//! run with sleeping on (the default) and with the forced
//! tick-every-cycle debug mode, and every artifact — `SimStats`, the
//! rendered metrics CSV, the fault log, the output image hash, and the
//! checkpoint taken where the first leg stops — must be byte-identical.
//! A 16×16 frame is 8 warps on a 30-SM chip, so most SMs sleep
//! throughout while a few issue.

use experiments::{config_for, Scale, Variant};
use raytrace::scenes::{self, SceneScale};
use rt_kernels::render::RenderSetup;
use simt_mem::MemConfig;
use simt_sim::{Gpu, RunSummary, SimStats, TelemetrySpec};

/// FNV-1a 64 over the rendered hit buffer (t bits + triangle id per ray).
fn image_hash(results: &[Option<raytrace::Hit>]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut mix = |word: u32| {
        for b in word.to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x1_0000_01b3);
        }
    };
    for r in results {
        match r {
            Some(hit) => {
                mix(hit.t.to_bits());
                mix(hit.tri);
            }
            None => mix(u32::MAX),
        }
    }
    h
}

struct Frame {
    summary: RunSummary,
    stats: SimStats,
    metrics_csv: String,
    image: u64,
    skipped_cycles: u64,
    slept_sm_cycles: u64,
    /// Checkpoint bytes where the first leg stopped.
    snapshot: Vec<u8>,
}

fn render(variant: Variant, force_tick: bool) -> Frame {
    render_on(variant, MemConfig::fx5800(), force_tick, 1_000_000)
}

/// Renders in two legs — `first_leg` cycles, a checkpoint, then to the
/// end — on a machine with memory configuration `mem`.
fn render_on(variant: Variant, mem: MemConfig, force_tick: bool, first_leg: u64) -> Frame {
    let scale = Scale::test();
    let scene = scenes::conference(SceneScale::Tiny);
    let mut cfg = config_for(variant);
    cfg.mem = mem;
    let mut gpu = Gpu::builder(cfg)
        .telemetry(TelemetrySpec::metrics())
        .force_tick(force_tick)
        .build();
    let setup = RenderSetup::upload(&mut gpu, &scene, scale.resolution, scale.resolution);
    if variant.is_dynamic() {
        setup.launch_ukernel(&mut gpu, scale.threads_per_block);
    } else {
        setup.launch_traditional(&mut gpu, scale.threads_per_block);
    }
    gpu.run(first_leg).expect("fault-free first leg");
    let snapshot = gpu.checkpoint().expect("encodable").to_bytes();
    let summary = gpu.run(1_000_000).expect("fault-free run");
    Frame {
        image: image_hash(&setup.device_results(&gpu)),
        metrics_csv: gpu.telemetry_report().metrics_csv(),
        stats: gpu.stats().clone(),
        skipped_cycles: gpu.skipped_cycles(),
        slept_sm_cycles: gpu.slept_sm_cycles(),
        snapshot,
        summary,
    }
}

fn assert_frames_identical(tick: &Frame, skip: &Frame, what: &str) {
    assert_eq!(tick.stats, skip.stats, "{what}: SimStats diverged");
    assert_eq!(
        tick.summary.stats, skip.summary.stats,
        "{what}: summary stats diverged"
    );
    assert_eq!(
        tick.summary.traffic, skip.summary.traffic,
        "{what}: traffic diverged"
    );
    assert_eq!(
        tick.summary.faults, skip.summary.faults,
        "{what}: fault log diverged"
    );
    assert_eq!(tick.summary.outcome, skip.summary.outcome);
    assert_eq!(
        tick.metrics_csv, skip.metrics_csv,
        "{what}: metrics CSV diverged"
    );
    assert_eq!(tick.image, skip.image, "{what}: output image diverged");
    assert!(
        tick.snapshot == skip.snapshot,
        "{what}: checkpoint bytes diverged"
    );
}

#[test]
fn dynamic_render_skip_vs_forced_tick() {
    let tick = render(Variant::Dynamic, true);
    let skip = render(Variant::Dynamic, false);
    assert_frames_identical(&tick, &skip, "dynamic");
    assert_eq!(tick.skipped_cycles, 0, "force_tick must never skip");
    assert!(skip.stats.threads_spawned > 0, "render actually spawned");
}

#[test]
fn traditional_render_skip_vs_forced_tick() {
    let tick = render(Variant::PdomWarp, true);
    let skip = render(Variant::PdomWarp, false);
    assert_frames_identical(&tick, &skip, "traditional");
}

/// The first leg stops mid-frame, while most of the chip is asleep: the
/// snapshot there, and everything after resuming, must not depend on
/// whether idle SMs slept or ticked — on the flat fabric and through the
/// L1/L2 hierarchy, whose timing batch also passes over sleepers.
#[test]
fn mid_sleep_checkpoint_matches_forced_tick_flat_and_cached() {
    for (name, mem) in [
        ("flat", MemConfig::fx5800()),
        ("cached", MemConfig::fx5800_cached()),
    ] {
        let tick = render_on(Variant::Dynamic, mem.clone(), true, 1_500);
        let skip = render_on(Variant::Dynamic, mem, false, 1_500);
        assert_frames_identical(&tick, &skip, name);
        assert!(
            skip.summary.stats.cycles > 1_500,
            "{name}: stopped mid-frame"
        );
        assert_eq!(tick.slept_sm_cycles, 0, "force_tick must never sleep");
        // At least 20 of the 30 SMs never receive a warp.
        assert!(
            skip.slept_sm_cycles > 20 * 1_500,
            "{name}: most SMs slept through the first leg"
        );
    }
}
