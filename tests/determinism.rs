//! The whole stack must be deterministic: identical runs produce identical
//! statistics, traffic, and images.

use usimt::dmk::DmkConfig;
use usimt::kernels::render::RenderSetup;
use usimt::mem::MemConfig;
use usimt::raytrace::scenes::{self, SceneScale};
use usimt::sim::{Gpu, GpuConfig, RunSummary, Snapshot, TelemetrySpec};

fn run_once(dynamic: bool) -> (RunSummary, Vec<Option<usimt::raytrace::Hit>>) {
    let scene = scenes::fairyforest(SceneScale::Tiny);
    let mut gpu = if dynamic {
        Gpu::builder(GpuConfig::fx5800_dmk(DmkConfig::paper())).build()
    } else {
        Gpu::builder(GpuConfig::fx5800()).build()
    };
    let setup = RenderSetup::upload(&mut gpu, &scene, 16, 16);
    if dynamic {
        setup.launch_ukernel(&mut gpu, 32);
    } else {
        setup.launch_traditional(&mut gpu, 32);
    }
    let s = gpu.run(100_000_000).expect("fault-free run");
    let img = setup.device_results(&gpu);
    (s, img)
}

#[test]
fn pdom_runs_are_bit_identical() {
    let (a, img_a) = run_once(false);
    let (b, img_b) = run_once(false);
    assert_eq!(a.stats.cycles, b.stats.cycles);
    assert_eq!(a.stats.thread_instructions, b.stats.thread_instructions);
    assert_eq!(a.stats.warp_issues, b.stats.warp_issues);
    assert_eq!(a.traffic, b.traffic);
    assert_eq!(img_a, img_b);
}

#[test]
fn dynamic_runs_are_bit_identical() {
    let (a, img_a) = run_once(true);
    let (b, img_b) = run_once(true);
    assert_eq!(a.stats.cycles, b.stats.cycles);
    assert_eq!(a.stats.threads_spawned, b.stats.threads_spawned);
    assert_eq!(a.dmk, b.dmk);
    assert_eq!(img_a, img_b);
}

/// A 16×16 frame is 8 warps on 30 SMs: most of the chip sleeps while a
/// few SMs issue. Sleeping must be invisible next to forced per-cycle
/// ticking — statistics, traffic, the metrics CSV with its divergence
/// timeline, the image, and the checkpoint bytes at a cycle limit that
/// lands mid-frame — and a machine restored from that mid-sleep snapshot
/// must finish the frame the same way. Every memory machine goes through
/// the same cycle loop, so each is a row: the image must also not move
/// from one row to the next.
#[test]
fn sleeping_sms_are_bit_identical_to_forced_tick_through_a_checkpoint() {
    const FIRST_LEG: u64 = 1_500;
    let scene = scenes::fairyforest(SceneScale::Tiny);
    let finish = |mut gpu: Gpu, setup: &RenderSetup| {
        let summary = gpu.run(100_000_000).expect("fault-free run");
        (
            format!("{summary:?}"),
            gpu.telemetry_report().metrics_csv(),
            setup.device_results(&gpu),
        )
    };
    let mut images = Vec::new();
    for (machine, mem) in [
        ("flat", MemConfig::fx5800()),
        ("l1-only", MemConfig::fx5800().with_l1(16 * 1024)),
        ("cached", MemConfig::fx5800_cached()),
    ] {
        let first_leg = |force_tick: bool| {
            let cfg = GpuConfig {
                mem: mem.clone(),
                ..GpuConfig::fx5800_dmk(DmkConfig::paper())
            };
            let mut gpu = Gpu::builder(cfg)
                .force_tick(force_tick)
                .telemetry(TelemetrySpec::metrics())
                .build();
            let setup = RenderSetup::upload(&mut gpu, &scene, 16, 16);
            setup.launch_ukernel(&mut gpu, 32);
            gpu.run(FIRST_LEG).expect("fault-free first leg");
            assert_eq!(gpu.now(), FIRST_LEG, "the limit lands mid-frame");
            let snapshot = gpu.checkpoint().expect("encodable").to_bytes();
            (gpu, setup, snapshot)
        };
        let (ticked, setup, tick_snapshot) = first_leg(true);
        let (slept, _, snapshot) = first_leg(false);
        assert_eq!(ticked.slept_sm_cycles(), 0, "force_tick never sleeps");
        assert!(
            slept.slept_sm_cycles() > 20 * FIRST_LEG,
            "the SMs without a warp slept through the first leg ({machine})"
        );
        assert!(
            tick_snapshot == snapshot,
            "mid-sleep checkpoint bytes diverged ({machine})"
        );
        let resumed = Gpu::restore(&Snapshot::from_bytes(&snapshot).expect("frame intact"))
            .expect("restores");
        let tick_end = finish(ticked, &setup);
        assert!(
            tick_end == finish(slept, &setup),
            "sleeping diverged ({machine})"
        );
        assert!(
            tick_end == finish(resumed, &setup),
            "resume diverged ({machine})"
        );
        images.push(tick_end.2);
    }
    assert!(
        images.windows(2).all(|w| w[0] == w[1]),
        "the image depends on the memory machine"
    );
}

/// The divergence breakdown has one writer, the statistics block: the
/// telemetry report hands out that timeline — with telemetry off too —
/// and a run cut mid-frame and carried through a snapshot ends with the
/// timeline of the run that never stopped.
#[test]
fn the_report_reads_the_machines_divergence_timeline_through_a_checkpoint() {
    let scene = scenes::fairyforest(SceneScale::Tiny);
    let launch = || {
        let mut gpu = Gpu::builder(GpuConfig::fx5800_dmk(DmkConfig::paper())).build();
        let setup = RenderSetup::upload(&mut gpu, &scene, 16, 16);
        setup.launch_ukernel(&mut gpu, 32);
        gpu
    };
    let mut whole = launch();
    whole.run(100_000_000).expect("fault-free run");

    let mut first_leg = launch();
    first_leg.run(1_500).expect("fault-free first leg");
    assert_eq!(first_leg.now(), 1_500, "the limit lands mid-frame");
    let snapshot = first_leg.checkpoint().expect("encodable").to_bytes();
    let mut resumed =
        Gpu::restore(&Snapshot::from_bytes(&snapshot).expect("frame intact")).expect("restores");
    assert_eq!(
        resumed.telemetry_report().divergence,
        first_leg.stats().divergence
    );
    resumed.run(100_000_000).expect("fault-free run");

    assert!(!resumed.telemetry_enabled());
    let timeline = resumed.telemetry_report().divergence;
    assert!(timeline.mean_active_lanes() > 0.0, "the frame issued");
    assert_eq!(timeline, resumed.stats().divergence);
    assert_eq!(timeline, whole.telemetry_report().divergence);
}

/// A Fig. 7 frame at test scale — the conference scene, 16×16, dynamic
/// μ-kernels, 32-thread blocks — with every count the cycle loop keeps
/// pinned to what the simulator printed before its issue path was cut
/// down (ISSUE 21): a faster loop may not issue, idle, sleep or skip one
/// cycle differently.
#[test]
fn a_fig7_test_scale_frame_keeps_its_cycle_loop_counts() {
    let scene = scenes::conference(SceneScale::Tiny);
    let mut gpu = Gpu::builder(GpuConfig::fx5800_dmk(DmkConfig::paper())).build();
    let setup = RenderSetup::upload(&mut gpu, &scene, 16, 16);
    setup.launch_ukernel(&mut gpu, 32);
    let s = gpu.run(100_000_000).expect("fault-free run");
    let stats = &s.stats;
    assert_eq!(
        (
            stats.cycles,
            stats.warp_issues,
            stats.thread_instructions,
            stats.idle_sm_cycles,
        ),
        (124_720, 45_173, 933_840, 3_696_427)
    );
    assert_eq!(
        (gpu.skipped_cycles(), gpu.slept_sm_cycles()),
        (76_481, 3_693_332)
    );
    // Idle SM-cycles, then issues by active-lane bucket, per 25k cycles.
    assert_eq!(
        stats.divergence.windows(),
        [
            [729_674, 960, 1_081, 687, 817, 865, 927, 486, 14_503],
            [743_388, 527, 510, 417, 395, 347, 652, 553, 3_211],
            [745_886, 276, 323, 312, 162, 237, 392, 427, 1_985],
            [745_166, 915, 510, 370, 243, 455, 328, 598, 1_415],
            [732_313, 5_727, 1_485, 653, 374, 512, 362, 132, 42],
        ]
    );
}

#[test]
fn scene_generation_is_deterministic_across_calls() {
    let a = scenes::conference(SceneScale::Small);
    let b = scenes::conference(SceneScale::Small);
    assert_eq!(a.triangles.len(), b.triangles.len());
    assert_eq!(a.triangles.first(), b.triangles.first());
    assert_eq!(a.triangles.last(), b.triangles.last());
}
