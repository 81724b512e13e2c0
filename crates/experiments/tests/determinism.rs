//! Determinism regression tests for the two-phase pipeline: the same
//! launch must produce bit-identical statistics, traffic, fault logs,
//! telemetry artifacts, and output images at every phase-A parallelism
//! level, and across repeated runs at the same level.

use dmk_core::DmkConfig;
use experiments::{gpu_for, gpu_for_with, Scale, Variant};
use raytrace::scenes::{self, SceneScale};
use rt_kernels::render::RenderSetup;
use simt_sim::{
    ChromeTraceSink, CsvMetricsSink, FaultPolicy, Gpu, GpuConfig, InjectedFault, Injector,
    RunSummary, SimStats, TelemetrySpec, TraceSink,
};

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

/// One fully rendered frame at the given parallelism.
struct Frame {
    summary: RunSummary,
    stats: SimStats,
    image: u64,
}

fn render_at(variant: Variant, parallel: usize) -> Frame {
    let scale = Scale::test();
    let scene = scenes::conference(SceneScale::Tiny);
    let mut gpu = gpu_for(variant).with_parallelism(parallel);
    let setup = RenderSetup::upload(&mut gpu, &scene, scale.resolution, scale.resolution);
    if variant.is_dynamic() {
        setup.launch_ukernel(&mut gpu, scale.threads_per_block);
    } else {
        setup.launch_traditional(&mut gpu, scale.threads_per_block);
    }
    let summary = gpu.run(1_000_000).expect("fault-free run");
    Frame {
        image: image_hash(&setup.device_results(&gpu)),
        stats: gpu.stats().clone(),
        summary,
    }
}

fn assert_frames_identical(a: &Frame, b: &Frame, what: &str) {
    assert_eq!(a.stats, b.stats, "{what}: SimStats diverged");
    assert_eq!(
        a.summary.stats, b.summary.stats,
        "{what}: summary stats diverged"
    );
    assert_eq!(
        a.summary.traffic, b.summary.traffic,
        "{what}: traffic diverged"
    );
    assert_eq!(
        a.summary.faults, b.summary.faults,
        "{what}: fault log diverged"
    );
    assert_eq!(a.summary.outcome, b.summary.outcome);
    assert_eq!(a.image, b.image, "{what}: output image diverged");
}

#[test]
fn dynamic_render_is_identical_across_parallelism() {
    let serial = render_at(Variant::Dynamic, 1);
    let par4 = render_at(Variant::Dynamic, 4);
    assert_frames_identical(&serial, &par4, "dynamic parallel 1 vs 4");
    assert!(serial.stats.threads_spawned > 0, "render actually spawned");
}

#[test]
fn traditional_render_is_identical_across_parallelism() {
    let serial = render_at(Variant::PdomWarp, 1);
    let par4 = render_at(Variant::PdomWarp, 4);
    assert_frames_identical(&serial, &par4, "traditional parallel 1 vs 4");
}

#[test]
fn repeated_runs_at_same_parallelism_are_identical() {
    let a = render_at(Variant::Dynamic, 4);
    let b = render_at(Variant::Dynamic, 4);
    assert_frames_identical(&a, &b, "dynamic parallel 4, run twice");
}

/// Injected warp traps under `KillWarp` must land on the same warps at the
/// same cycles regardless of how many worker threads step phase A.
#[test]
fn injected_fault_log_is_identical_across_parallelism() {
    let run_at = |parallel: usize| {
        let mut cfg = GpuConfig::fx5800_dmk(DmkConfig::paper());
        cfg.fault_policy = FaultPolicy::KillWarp;
        let mut gpu = Gpu::builder(cfg)
            .parallelism(parallel)
            .injector(Injector::new(7).force_with_probability(
                InjectedFault::Trap,
                500..4_000,
                0.02,
            ))
            .build();
        let scale = Scale::test();
        let scene = scenes::conference(SceneScale::Tiny);
        let setup = RenderSetup::upload(&mut gpu, &scene, scale.resolution, scale.resolution);
        setup.launch_ukernel(&mut gpu, scale.threads_per_block);
        let summary = gpu.run(scale.cycles).expect("KillWarp never aborts");
        (summary.faults.clone(), summary.stats.clone())
    };
    let (faults1, stats1) = run_at(1);
    let (faults4, stats4) = run_at(4);
    assert!(!faults1.is_empty(), "the injector actually trapped warps");
    assert_eq!(faults1, faults4, "fault logs diverged across parallelism");
    assert_eq!(stats1, stats4);
}

/// One fully traced render: the rendered Chrome-trace JSON and the
/// rendered metrics CSV.
fn traced_render_at(parallel: usize) -> (String, String) {
    let scale = Scale::test();
    let scene = scenes::conference(SceneScale::Tiny);
    let mut gpu = gpu_for_with(Variant::Dynamic, TelemetrySpec::trace()).with_parallelism(parallel);
    let setup = RenderSetup::upload(&mut gpu, &scene, scale.resolution, scale.resolution);
    setup.launch_ukernel(&mut gpu, scale.threads_per_block);
    gpu.run(1_000_000).expect("fault-free run");
    let report = gpu.telemetry_report();
    (
        ChromeTraceSink.render(&report),
        CsvMetricsSink.render(&report),
    )
}

/// Telemetry is produced in per-SM shards during phase A and merged in
/// SM-id order, so the rendered artifacts — not just the aggregate
/// statistics — must be byte-identical at every parallelism level.
#[test]
fn telemetry_artifacts_are_identical_across_parallelism() {
    let (trace1, csv1) = traced_render_at(1);
    let (trace4, csv4) = traced_render_at(4);
    assert!(
        trace1.contains("\"traceEvents\""),
        "trace JSON looks malformed: {trace1:.120}"
    );
    assert_eq!(trace1, trace4, "Chrome trace diverged across parallelism");
    assert_eq!(csv1, csv4, "metrics CSV diverged across parallelism");
}
