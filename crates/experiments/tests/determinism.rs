//! Determinism regression tests for the cycle loop: the same
//! launch, run twice, must produce bit-identical statistics, traffic,
//! fault logs, telemetry artifacts, and output images.

use dmk_core::DmkConfig;
use experiments::{gpu_for, gpu_for_with, Scale, Variant};
use raytrace::scenes::{self, SceneScale};
use rt_kernels::render::RenderSetup;
use simt_sim::{
    FaultPolicy, Gpu, GpuConfig, InjectedFault, Injector, RunSummary, SimStats, TelemetrySpec,
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

/// One fully rendered μ-kernel frame.
struct Frame {
    summary: RunSummary,
    stats: SimStats,
    image: u64,
}

fn render() -> Frame {
    let scale = Scale::test();
    let scene = scenes::conference(SceneScale::Tiny);
    let mut gpu = gpu_for(Variant::Dynamic);
    let setup = RenderSetup::upload(&mut gpu, &scene, scale.resolution, scale.resolution);
    setup.launch_ukernel(&mut gpu, scale.threads_per_block);
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
fn repeated_renders_are_identical() {
    let a = render();
    let b = render();
    assert_frames_identical(&a, &b, "dynamic, run twice");
    assert!(a.stats.threads_spawned > 0, "render actually spawned");
}

/// Injected warp traps under `KillWarp` must land on the same warps at the
/// same cycles on every run: the injector draws from its seed and the
/// cycle, nothing else.
#[test]
fn injected_fault_log_is_reproducible() {
    let run = || {
        let mut cfg = GpuConfig::fx5800_dmk(DmkConfig::paper());
        cfg.fault_policy = FaultPolicy::KillWarp;
        let mut gpu = Gpu::builder(cfg)
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
    let (faults_a, stats_a) = run();
    let (faults_b, stats_b) = run();
    assert!(!faults_a.is_empty(), "the injector actually trapped warps");
    assert_eq!(faults_a, faults_b, "fault logs diverged between runs");
    assert_eq!(stats_a, stats_b);
}

/// One fully traced render: the rendered Chrome-trace JSON and the
/// rendered metrics CSV.
fn traced_render() -> (String, String) {
    let scale = Scale::test();
    let scene = scenes::conference(SceneScale::Tiny);
    let mut gpu = gpu_for_with(Variant::Dynamic, TelemetrySpec::trace());
    let setup = RenderSetup::upload(&mut gpu, &scene, scale.resolution, scale.resolution);
    setup.launch_ukernel(&mut gpu, scale.threads_per_block);
    gpu.run(1_000_000).expect("fault-free run");
    let report = gpu.telemetry_report();
    (report.chrome_trace(), report.metrics_csv())
}

/// Telemetry is produced in per-SM shards as the SMs step and merged in
/// SM-id order, so the rendered artifacts — not just the aggregate
/// statistics — must be byte-identical from run to run.
#[test]
fn telemetry_artifacts_are_reproducible() {
    let (trace_a, csv_a) = traced_render();
    let (trace_b, csv_b) = traced_render();
    assert!(
        trace_a.contains("\"traceEvents\""),
        "trace JSON looks malformed: {trace_a:.120}"
    );
    assert_eq!(trace_a, trace_b, "Chrome trace diverged between runs");
    assert_eq!(csv_a, csv_b, "metrics CSV diverged between runs");
}
