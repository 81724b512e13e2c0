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

/// The jobs `repro all --scale test --trace` traces: fig. 2's kernel and
/// the fourteen distinct scene windows of the paper artifacts.
const TRACED_JOBS: [&str; 15] = [
    "atrium-Dynamic-16",
    "atrium-PdomBlock-16",
    "atrium-PdomWarp-16",
    "conference-Dynamic-16",
    "conference-Dynamic-16-Kd-Always-w0-20000",
    "conference-Dynamic-16-Kd-OnDivergence-w0-20000",
    "conference-DynamicConflicts-16",
    "conference-DynamicIdeal-16",
    "conference-PdomBlock-16",
    "conference-PdomWarp-16",
    "conference-PdomWarpIdeal-16",
    "fairyforest-Dynamic-16",
    "fairyforest-PdomBlock-16",
    "fairyforest-PdomWarp-16",
    "fig2",
];

/// `repro all` shares one plan across its artifacts, so a window that
/// figs. 3, 7, 8, 9 and 10 all read is rendered, and its trace written,
/// once; and tracing changes no byte of the output.
#[test]
fn repro_all_traces_each_distinct_window_once() {
    let dir = std::env::temp_dir().join(format!("all-trace-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("temp dir");
    let repro = |extra: &[&str]| {
        std::process::Command::new(env!("CARGO_BIN_EXE_repro"))
            .args(["all", "--scale", "test"])
            .args(extra)
            .current_dir(&dir)
            .output()
            .expect("repro binary runs")
    };
    let traced = repro(&["--trace"]);
    assert!(traced.status.success());
    let stderr = String::from_utf8_lossy(&traced.stderr);
    let mut wrote: Vec<&str> = stderr
        .lines()
        .filter_map(|l| l.strip_prefix("trace: wrote "))
        .collect();
    let lines = wrote.len();
    wrote.sort_unstable();
    wrote.dedup();
    assert_eq!(lines, wrote.len(), "a trace file was written twice");
    let mut want: Vec<String> = TRACED_JOBS
        .iter()
        .flat_map(|job| [format!("{job}.metrics.csv"), format!("{job}.trace.json")])
        .collect();
    want.sort_unstable();
    assert_eq!(wrote, want);
    let mut left: Vec<String> = std::fs::read_dir(&dir)
        .expect("dir")
        .map(|e| e.expect("entry").file_name().to_string_lossy().into_owned())
        .collect();
    left.sort_unstable();
    assert_eq!(left, want);
    let plain = repro(&[]);
    assert!(plain.status.success());
    assert_eq!(
        traced.stdout, plain.stdout,
        "tracing changes no output byte"
    );
    let _ = std::fs::remove_dir_all(&dir);
}
