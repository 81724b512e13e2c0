//! End-to-end checkpoint/resume correctness: a render interrupted at an
//! arbitrary cycle, serialized through the on-disk snapshot format,
//! restored, and run to the original budget must be **bit-identical** to
//! an uninterrupted run — statistics, memory traffic, fault log,
//! windowed telemetry metrics, and the rendered image. The same through
//! the `repro` binary's kill hook: killed at every checkpoint it persists
//! and resumed each time, a job ends on the uninterrupted run's bytes,
//! and what it persists is progress only — nothing at launch, never the
//! same cycle twice.

use experiments::runner::RenderSpec;
use experiments::{gpu_for, Scale, Variant};
use raytrace::scenes::{self, SceneScale};
use rt_kernels::render::RenderSetup;
use rt_kernels::RESULT_RECORD_BYTES;
use simt_isa::codec::fnv1a64;
use simt_sim::{seal_frame, Gpu, Snapshot, SNAPSHOT_MAGIC};
use std::path::{Path, PathBuf};
use std::process::{Command, Output};

const REPRO: &str = env!("CARGO_BIN_EXE_repro");

const RESOLUTION: u32 = 16;
const BUDGET: u64 = 20_000;

fn launch(variant: Variant, setup: &RenderSetup, gpu: &mut Gpu) {
    if variant.is_dynamic() {
        setup.launch_ukernel(gpu, 32);
    } else {
        setup.launch_traditional(gpu, 32);
    }
}

/// FNV-1a hash of the raw result records — the "image" the render wrote.
fn image_hash(gpu: &Gpu, setup: &RenderSetup) -> u64 {
    let mut bytes = Vec::with_capacity(setup.dev.num_rays as usize * 8);
    for i in 0..setup.dev.num_rays {
        let base = setup.dev.results_base + i * RESULT_RECORD_BYTES;
        for off in [0, 4] {
            let word = gpu.mem().read_u32(simt_isa::Space::Global, base + off);
            bytes.extend_from_slice(&word.to_le_bytes());
        }
    }
    fnv1a64(&bytes)
}

/// Runs `variant` uninterrupted and interrupted-at-`interrupt_at` (with a
/// full serialize → deserialize → restore cycle in between) and asserts
/// the two machines end bit-identical.
fn assert_resume_matches(variant: Variant, interrupt_at: u64) {
    let scene = scenes::conference(SceneScale::Tiny);

    let mut reference = gpu_for(variant);
    let ref_setup = RenderSetup::upload(&mut reference, &scene, RESOLUTION, RESOLUTION);
    launch(variant, &ref_setup, &mut reference);
    let want = reference.run(BUDGET).expect("fault-free reference run");

    let mut gpu = gpu_for(variant);
    let setup = RenderSetup::upload(&mut gpu, &scene, RESOLUTION, RESOLUTION);
    launch(variant, &setup, &mut gpu);
    gpu.run(interrupt_at).expect("fault-free partial run");
    let bytes = gpu.checkpoint().expect("snapshot encodes").to_bytes();
    drop(gpu); // everything must come back from the serialized bytes

    let snap = Snapshot::from_bytes(&bytes).expect("snapshot frame is valid");
    let mut restored = Gpu::restore(&snap).expect("snapshot restores");
    let got = restored
        .run(BUDGET - interrupt_at)
        .expect("fault-free resumed run");

    let tag = format!("{variant:?} interrupt@{interrupt_at}");
    assert_eq!(got.outcome, want.outcome, "{tag}: outcome");
    assert_eq!(got.stats, want.stats, "{tag}: stats");
    assert_eq!(got.traffic, want.traffic, "{tag}: traffic");
    assert_eq!(got.dmk, want.dmk, "{tag}: dmk stats");
    assert_eq!(got.faults, want.faults, "{tag}: fault log");
    assert_eq!(
        image_hash(&restored, &setup),
        image_hash(&reference, &ref_setup),
        "{tag}: image hash"
    );
    // The windowed telemetry counters ride the snapshot with the rest of
    // the machine state: a resumed run must render the same metrics CSV
    // as the uninterrupted reference.
    assert!(
        restored.telemetry_enabled(),
        "{tag}: telemetry config survives restore"
    );
    assert_eq!(
        restored.telemetry_report().metrics_csv(),
        reference.telemetry_report().metrics_csv(),
        "{tag}: windowed telemetry metrics"
    );
}

#[test]
fn resume_is_bit_identical() {
    assert_resume_matches(Variant::Dynamic, 7_301);
    assert_resume_matches(Variant::PdomWarp, 4_097);
}

/// A dense encoding of the test-scale fig-7 machine is 4.1 MB, 97 % of it
/// zeros; zero-run elision brings a mid-run snapshot to ≈ 0.3 MB. A block
/// that goes back to dense shows here before it shows as seconds of
/// `fsync` in a campaign.
#[test]
fn mid_run_snapshot_stays_under_a_megabyte() {
    let scene = scenes::conference(SceneScale::Tiny);
    let mut gpu = gpu_for(Variant::Dynamic);
    let setup = RenderSetup::upload(&mut gpu, &scene, RESOLUTION, RESOLUTION);
    launch(Variant::Dynamic, &setup, &mut gpu);
    gpu.run(7_301).expect("fault-free partial run");
    let bytes = gpu.checkpoint().expect("snapshot encodes").to_bytes();
    assert!(
        bytes.len() < 1_000_000,
        "mid-run fig7 test-scale snapshot is {} bytes",
        bytes.len()
    );
}

/// `fig3 --scale test` is one supervised job, `conference-PdomWarp-16`:
/// warm-up to cycle 20 000, steady state to 40 000.
const FIG3_JOB: &str = "conference-PdomWarp-16";

fn temp_dir(tag: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("ckpt-e2e-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&d);
    std::fs::create_dir_all(&d).expect("temp dir");
    d
}

/// `repro fig3 --scale test` checkpointing into `dir` every `every`
/// cycles, plus `extra` flags.
fn fig3(dir: &Path, every: u64, extra: &[&str]) -> Output {
    Command::new(REPRO)
        .args(["fig3", "--scale", "test", "--checkpoint-every"])
        .arg(every.to_string())
        .arg("--checkpoint-dir")
        .arg(dir)
        .args(extra)
        .output()
        .expect("repro binary runs")
}

fn fig3_uninterrupted() -> Vec<u8> {
    let out = Command::new(REPRO)
        .args(["fig3", "--scale", "test"])
        .output()
        .expect("repro binary runs");
    assert!(out.status.success());
    out.stdout
}

/// The cycle the job's persisted snapshot restores to.
fn persisted_cycle(dir: &Path) -> u64 {
    let snap = Snapshot::read_from(&dir.join(format!("{FIG3_JOB}.ckpt")))
        .expect("the killed run left a valid snapshot");
    Gpu::restore(&snap).expect("restores").now()
}

/// Resume from the directory, and die at the first write into it.
const RESUME_AND_DIE_AT_FIRST_WRITE: [&str; 3] = ["--resume", "--kill-after-checkpoints", "1"];

#[test]
fn first_persisted_snapshot_is_the_first_progress_not_the_launch() {
    let dir = temp_dir("first");
    // One slice per phase, as the served matrix runs: the hook counts
    // writes, so had the launch snapshot been written the process would
    // have died holding a cycle-0 file. It dies at the phase-1 entry.
    let killed = fig3(&dir, BUDGET, &RESUME_AND_DIE_AT_FIRST_WRITE);
    assert_eq!(killed.status.code(), Some(42), "kill hook fired");
    assert_eq!(persisted_cycle(&dir), BUDGET);
    // Resumed at the phase boundary it writes nothing more (the state it
    // enters on is the one on disk) and finishes on the same bytes.
    let resumed = fig3(&dir, BUDGET, &RESUME_AND_DIE_AT_FIRST_WRITE);
    assert!(resumed.status.success(), "no write left to die at");
    assert_eq!(resumed.stdout, fig3_uninterrupted());
    assert!(!dir.join(format!("{FIG3_JOB}.ckpt")).exists(), "cleared");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn killed_at_every_write_persisted_cycles_strictly_increase() {
    let dir = temp_dir("ladder");
    let mut cycles = Vec::new();
    let finished = loop {
        let out = fig3(&dir, 7_000, &RESUME_AND_DIE_AT_FIRST_WRITE);
        if out.status.code() != Some(42) {
            break out;
        }
        cycles.push(persisted_cycle(&dir));
        assert!(cycles.len() <= 8, "no progress between kills: {cycles:?}");
    };
    // Mid-phase boundaries and the phase-1 entry, each once; never the
    // launch, never the state a resume had just read.
    assert_eq!(cycles, [7_000, 14_000, 20_000, 27_000, 34_000]);
    assert!(finished.status.success());
    assert_eq!(finished.stdout, fig3_uninterrupted());
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_v5_checkpoint_is_refused_by_version_and_the_job_restarts() {
    let dir = temp_dir("v5");
    // What a pre-v6 build left behind: a sound frame of the previous
    // version. There is no reader for it.
    let frame = seal_frame(&SNAPSHOT_MAGIC, 5, b"phase meta", &[0u8; 4096]);
    std::fs::write(dir.join(format!("{FIG3_JOB}.ckpt")), frame).expect("writable");
    let out = fig3(&dir, BUDGET, &["--resume"]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("ignoring unusable checkpoint")
            && stderr.contains("unsupported snapshot version 5"),
        "the refusal is reported: {stderr}"
    );
    assert!(out.status.success());
    assert_eq!(out.stdout, fig3_uninterrupted());
    let _ = std::fs::remove_dir_all(&dir);
}

/// `repro ablation --scale test` with `extra` flags.
fn ablation(extra: &[&str]) -> Output {
    Command::new(REPRO)
        .args(["ablation", "--scale", "test"])
        .args(extra)
        .output()
        .expect("repro binary runs")
}

#[test]
fn ablation_windows_slice_and_resume_transparently() {
    let plain = ablation(&[]);
    assert!(plain.status.success());
    let sliced = ablation(&["--checkpoint-every", "2000"]);
    assert!(sliced.status.success());
    assert_eq!(sliced.stdout, plain.stdout, "slicing is transparent");
    // Killed at its third snapshot (cycle 6 000 of the first policy's
    // window), then resumed: the same bytes as the uninterrupted run.
    let dir = temp_dir("ablation");
    let sliced_into_dir = |extra: &[&str]| {
        let mut args = vec!["--checkpoint-every", "2000", "--checkpoint-dir"];
        args.push(dir.to_str().expect("utf-8 temp dir"));
        args.extend_from_slice(extra);
        ablation(&args)
    };
    let killed = sliced_into_dir(&["--kill-after-checkpoints", "3"]);
    assert_eq!(killed.status.code(), Some(42), "kill hook fired");
    let resumed = sliced_into_dir(&["--resume"]);
    let stderr = String::from_utf8_lossy(&resumed.stderr);
    assert!(
        stderr.contains("resuming from checkpoint at cycle 6000"),
        "{stderr}"
    );
    assert!(resumed.status.success());
    assert_eq!(resumed.stdout, plain.stdout);
    let left: Vec<_> = std::fs::read_dir(&dir).expect("dir").collect();
    assert!(
        left.is_empty(),
        "finished jobs clear their snapshots: {left:?}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// `repro all --scale test` checkpointing into `dir` every 2 000 cycles,
/// plus `extra` flags.
fn all(dir: &Path, extra: &[&str]) -> Output {
    Command::new(REPRO)
        .args(["all", "--scale", "test", "--checkpoint-every", "2000"])
        .arg("--checkpoint-dir")
        .arg(dir)
        .args(extra)
        .output()
        .expect("repro binary runs")
}

#[test]
fn a_killed_repro_all_resumes_to_the_uninterrupted_bytes() {
    let dir = temp_dir("all");
    // Fig. 3's window writes 19 snapshots; the 22nd is the one at cycle
    // 6 000 of fig. 7's μ-kernel window, the first window `all` renders
    // after fig. 3 has finished.
    let killed = all(&dir, &["--kill-after-checkpoints", "22"]);
    assert_eq!(killed.status.code(), Some(42), "kill hook fired");
    let left: Vec<_> = std::fs::read_dir(&dir)
        .expect("dir")
        .map(|e| e.expect("entry").file_name())
        .collect();
    assert_eq!(left, ["conference-Dynamic-16.ckpt"]);
    let resumed = all(&dir, &["--resume"]);
    let stderr = String::from_utf8_lossy(&resumed.stderr);
    assert!(
        stderr.contains("conference-Dynamic-16: resuming from checkpoint at cycle 6000"),
        "{stderr}"
    );
    assert!(resumed.status.success());
    let plain = Command::new(REPRO)
        .args(["all", "--scale", "test"])
        .output()
        .expect("repro binary runs");
    assert!(plain.status.success());
    assert_eq!(resumed.stdout, plain.stdout);
    let left: Vec<_> = std::fs::read_dir(&dir).expect("dir").collect();
    assert!(
        left.is_empty(),
        "finished jobs clear their snapshots: {left:?}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn the_standard_window_keeps_its_historical_identity() {
    for scale in [Scale::test(), Scale::quick(), Scale::paper()] {
        for scene in scenes::NAMES {
            for variant in Variant::ALL {
                assert_eq!(
                    RenderSpec::window(scene, variant, scale).job(),
                    format!("{scene}-{variant:?}-{}", scale.resolution)
                );
            }
        }
    }
}
