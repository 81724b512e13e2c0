//! Shared run machinery: scales and the standard render-run wrapper.

use crate::configs::{self, gpu_for, Variant};
use crate::supervisor;
use raytrace::scenes::{Scene, SceneScale};
use rt_kernels::render::RenderSetup;
use serde::{Deserialize, Serialize};
use simt_isa::codec::{fnv1a64, Codec, Encoder};
use simt_sim::{Gpu, RunSummary, TelemetryReport};
use std::fmt;
use std::sync::OnceLock;

/// Experiment scale: resolution, simulated-cycle budget, scene size.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Scale {
    /// Square image resolution (the paper uses 256).
    pub resolution: u32,
    /// Simulated cycles (the paper simulates the first 300k).
    pub cycles: u64,
    /// Scene triangle-count scale.
    #[serde(skip, default = "default_scene_scale")]
    pub scene: SceneScale,
    /// Threads per block for the launch (paper: 64 = two warps).
    pub threads_per_block: u32,
}

// Referenced only from the `serde(default = ...)` attribute; the offline
// serde shim expands derives to nothing, so keep the fn alive explicitly.
#[allow(dead_code)]
fn default_scene_scale() -> SceneScale {
    SceneScale::Small
}

impl Scale {
    /// The paper's measurement scale: 256×256 over the first 300k cycles.
    pub fn paper() -> Self {
        Scale {
            resolution: 256,
            cycles: 300_000,
            scene: SceneScale::Full,
            threads_per_block: 64,
        }
    }

    /// A reduced scale for quick runs.
    pub fn quick() -> Self {
        Scale {
            resolution: 64,
            cycles: 60_000,
            scene: SceneScale::Small,
            threads_per_block: 64,
        }
    }

    /// A toy scale for unit tests.
    pub fn test() -> Self {
        Scale {
            resolution: 16,
            cycles: 20_000,
            scene: SceneScale::Tiny,
            threads_per_block: 32,
        }
    }

    /// Parses `paper`/`quick`/`test`.
    pub fn parse(s: &str) -> Option<Scale> {
        match s {
            "paper" => Some(Scale::paper()),
            "quick" => Some(Scale::quick()),
            "test" => Some(Scale::test()),
            _ => None,
        }
    }
}

/// Fault-model counters for one run. A healthy reproduction run reports
/// all zeros; anything else means the simulated render misbehaved and the
/// figures built from it are suspect.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct FaultHealth {
    /// Warp traps recorded (any [`usimt-sim` fault kind](simt_sim::FaultKind)).
    pub faults: u64,
    /// Warps discarded under [`simt_sim::FaultPolicy::KillWarp`].
    pub warps_killed: u64,
    /// Threads lost to killed warps.
    pub threads_killed: u64,
    /// Watchdog deadlock detections.
    pub watchdog_deadlocks: u64,
    /// Events forced by a configured [`simt_sim::Injector`].
    pub injected_events: u64,
}

impl FaultHealth {
    /// True when the run completed without any trap, kill, or deadlock.
    pub fn is_clean(&self) -> bool {
        *self == FaultHealth::default()
    }
}

impl fmt::Display for FaultHealth {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "faults {}, warps killed {}, threads killed {}, watchdog deadlocks {}, injected events {}",
            self.faults,
            self.warps_killed,
            self.threads_killed,
            self.watchdog_deadlocks,
            self.injected_events
        )
    }
}

/// Digest of the embedded kernel a variant runs (μ-kernel or traditional
/// program). The sources are compile-time constants, so each is assembled
/// and digested once per process.
fn kernel_digest(variant: Variant) -> u64 {
    static UKERNEL: OnceLock<u64> = OnceLock::new();
    static TRADITIONAL: OnceLock<u64> = OnceLock::new();
    let digest = |program: simt_isa::Program| {
        simt_sim::program_digest(&program).expect("embedded kernels encode losslessly")
    };
    if variant.is_dynamic() {
        *UKERNEL.get_or_init(|| digest(rt_kernels::ukernel::program()))
    } else {
        *TRADITIONAL.get_or_init(|| digest(rt_kernels::traditional::program()))
    }
}

/// Deterministic identity of one render-run, for checkpoint/result-cache
/// keying: FNV-1a-64 over the kernel program bytes, the scene (name and
/// triangle-count scale), the full [`simt_sim::GpuConfig`], the
/// [`Scale`], and the active telemetry spec. Two runs share a
/// fingerprint exactly when they are guaranteed to produce bit-identical
/// results, so a checkpoint or cached result stamped with a different
/// fingerprint must never be trusted for this run.
pub fn run_fingerprint(scene: &Scene, variant: Variant, scale: Scale) -> u64 {
    run_fingerprint_by_name(scene.name, variant, scale)
}

/// [`run_fingerprint`] from the scene's name alone (one of
/// [`raytrace::scenes::NAMES`]): the name is all of a scene the identity
/// reads — its geometry is a pure function of name and [`Scale::scene`]
/// — so job identities are computed without generating any. The
/// telemetry spec and the variant's configuration are process state
/// (`--trace`, `--metrics-every`) or cheap, and are read on every call;
/// only the digests of the embedded kernels are kept between calls.
pub fn run_fingerprint_by_name(scene_name: &str, variant: Variant, scale: Scale) -> u64 {
    let mut enc = Encoder::new();
    enc.put_str("usimt-run-fp-v1");
    enc.put_str(scene_name);
    enc.put_str(&format!("{variant:?}"));
    enc.put_u32(scale.resolution);
    enc.put_u64(scale.cycles);
    enc.put_u32(scale.threads_per_block);
    enc.put_u8(match scale.scene {
        SceneScale::Tiny => 0,
        SceneScale::Small => 1,
        SceneScale::Full => 2,
    });
    let spec = configs::telemetry_spec();
    enc.put_bool(spec.metrics);
    enc.put_bool(spec.trace);
    enc.put_u64(spec.metrics_window);
    enc.put_u64(simt_sim::config_digest(&configs::config_for(variant)));
    enc.put_u64(kernel_digest(variant));
    fnv1a64(&enc.into_bytes())
}

simt_isa::record! {
    /// Phase bookkeeping stored in each snapshot's meta section so a resumed
    /// job can rebuild the warm-up/steady-state split of
    /// [`RenderRun::execute`] without re-running the warm-up. The
    /// [`run_fingerprint`] rides along so a resume rejects snapshots taken
    /// by a different job identity (other scene/variant/scale/config or
    /// changed kernel bytes) instead of silently continuing the wrong run.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    struct PhaseMeta {
        /// Identity of the run this snapshot belongs to.
        fingerprint: u64,
        /// 0 = warm-up, 1 = steady-state measurement.
        phase: u32,
        /// Absolute end cycle of the current phase.
        target: u64,
        /// Cycle at the end of warm-up (meaningful once `phase == 1`).
        warm_cycle: u64,
        /// Rays completed at the end of warm-up (meaningful once `phase == 1`).
        warm_rays: u64,
    }
}

/// Rebuilds `(machine, phase bookkeeping)` from the job's on-disk
/// snapshot when `--resume` is active and the snapshot is usable.
/// Unusable snapshots — including one stamped with a different job
/// fingerprint — are reported and discarded: the job restarts.
fn resume_state(job: &str, fingerprint: u64) -> Option<(Gpu, PhaseMeta)> {
    let snap = supervisor::try_resume(job)?;
    let Ok(meta) = PhaseMeta::from_bytes(snap.meta()) else {
        eprintln!("warning: {job}: snapshot has unusable phase metadata; restarting");
        return None;
    };
    if meta.fingerprint != fingerprint {
        eprintln!(
            "warning: {job}: snapshot belongs to a different job identity \
             ({:#018x}, expected {:#018x}); restarting",
            meta.fingerprint, fingerprint
        );
        return None;
    }
    match Gpu::restore(&snap) {
        Ok(gpu) => {
            eprintln!(
                "note: {job}: resuming from checkpoint at cycle {}",
                gpu.now()
            );
            Some((gpu, meta))
        }
        Err(e) => {
            eprintln!("warning: {job}: snapshot restore failed ({e}); restarting");
            None
        }
    }
}

/// Writes the Chrome-trace JSON and windowed-metrics CSV for a job next
/// to the process's normal output (`{job}.trace.json`, `{job}.metrics.csv`).
/// Called by the drivers when `--trace` is active; failures warn and
/// continue — trace artifacts must never sink a campaign.
pub fn write_trace_artifacts(job: &str, report: &TelemetryReport) {
    for (suffix, rendered) in [
        ("trace.json", report.chrome_trace()),
        ("metrics.csv", report.metrics_csv()),
    ] {
        let path = format!("{job}.{suffix}");
        match std::fs::write(&path, rendered) {
            Ok(()) => eprintln!("trace: wrote {path}"),
            Err(e) => eprintln!("warning: {job}: cannot write {path}: {e}"),
        }
    }
}

/// The result of one standard render run.
#[derive(Debug)]
pub struct RenderRun {
    /// Scene name.
    pub scene: &'static str,
    /// Variant executed.
    pub variant: Variant,
    /// Full simulator summary (whole run, including warm-up).
    pub summary: RunSummary,
    /// Cumulative telemetry over the whole run (windowed counters, the
    /// divergence mirror, and — under `--trace` — per-event rings).
    pub telemetry: TelemetryReport,
    /// Shader clock used for rays/s conversion.
    pub clock_ghz: f64,
    /// Rays completed during the steady-state half of the window.
    pub steady_rays: u64,
    /// Cycles in the steady-state window.
    pub steady_cycles: u64,
}

impl RenderRun {
    /// Runs `variant` over `scene` at `scale` for the configured cycle
    /// budget.
    ///
    /// Rays/second is measured over the second half of the window — the
    /// paper observes that behaviour is steady over the 150k–300k-cycle
    /// range, so this skips the pipeline-fill transient at frame start.
    ///
    /// Both halves run under the [`supervisor`]: the run is checkpointed
    /// at the configured interval and — with `--resume` — restored from
    /// the job's last on-disk snapshot, bit-identical to an uninterrupted
    /// run.
    ///
    /// # Errors
    ///
    /// A fault or a watchdog deadlock in either half, as the job-level
    /// error of [`supervisor::run_checked`].
    pub fn execute(scene: &Scene, variant: Variant, scale: Scale) -> Result<RenderRun, String> {
        let job = format!("{}-{:?}-{}", scene.name, variant, scale.resolution);
        let fingerprint = run_fingerprint(scene, variant, scale);
        let (mut gpu, mut meta) = match resume_state(&job, fingerprint) {
            Some(state) => state,
            None => {
                let mut gpu = gpu_for(variant);
                let setup =
                    RenderSetup::upload(&mut gpu, scene, scale.resolution, scale.resolution);
                if variant.is_dynamic() {
                    setup.launch_ukernel(&mut gpu, scale.threads_per_block);
                } else {
                    setup.launch_traditional(&mut gpu, scale.threads_per_block);
                }
                let meta = PhaseMeta {
                    fingerprint,
                    phase: 0,
                    target: gpu.now() + scale.cycles,
                    warm_cycle: 0,
                    warm_rays: 0,
                };
                (gpu, meta)
            }
        };
        if meta.phase == 0 {
            supervisor::run_to_target(&mut gpu, meta.target, &job, &meta.to_bytes())?;
            meta = PhaseMeta {
                fingerprint,
                phase: 1,
                target: gpu.now() + scale.cycles,
                warm_cycle: gpu.now(),
                warm_rays: gpu.stats().lineages_completed,
            };
        }
        let (warm_cycle, warm_rays) = (meta.warm_cycle, meta.warm_rays);
        let summary = supervisor::run_to_target(&mut gpu, meta.target, &job, &meta.to_bytes())?;
        supervisor::clear(&job);
        let telemetry = gpu.telemetry_report();
        if supervisor::policy().telemetry.trace {
            write_trace_artifacts(&job, &telemetry);
        }
        let end_cycle = summary.stats.cycles;
        let (steady_rays, steady_cycles) = if end_cycle > warm_cycle {
            (
                summary.stats.lineages_completed - warm_rays,
                end_cycle - warm_cycle,
            )
        } else {
            // The whole frame finished during warm-up (tiny scales).
            (summary.stats.lineages_completed, end_cycle.max(1))
        };
        let run = RenderRun {
            scene: scene.name,
            variant,
            clock_ghz: gpu.config().clock_ghz,
            summary,
            telemetry,
            steady_rays,
            steady_cycles,
        };
        let health = run.fault_health();
        if !health.is_clean() {
            eprintln!(
                "warning: {} / {} run was not fault-clean: {health}",
                run.scene, run.variant
            );
        }
        Ok(run)
    }

    /// The run's fault-model counters; a clean reproduction is all zeros.
    pub fn fault_health(&self) -> FaultHealth {
        FaultHealth {
            faults: self.summary.stats.faults,
            warps_killed: self.summary.stats.warps_killed,
            threads_killed: self.summary.stats.threads_killed,
            watchdog_deadlocks: self.summary.stats.watchdog_deadlocks,
            injected_events: self.summary.stats.injected_events,
        }
    }

    /// Committed thread-instructions per cycle (whole run).
    pub fn ipc(&self) -> f64 {
        self.summary.stats.ipc()
    }

    /// Million rays per second at the configured clock, measured over the
    /// steady-state window.
    pub fn mrays_per_second(&self) -> f64 {
        if self.steady_cycles == 0 {
            return 0.0;
        }
        self.steady_rays as f64 / (self.steady_cycles as f64 / (self.clock_ghz * 1e9)) / 1e6
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use raytrace::scenes;

    /// The records this crate keeps in frame meta sections keep the codec
    /// laws (`simt_isa::codec::check_codec_laws`) on a zeroed input with
    /// any one byte overwritten: they round-trip, and every strict prefix
    /// of an encoding is an error, never a panic.
    #[test]
    fn meta_records_round_trip_and_refuse_their_prefixes() {
        use crate::campaign::cache::ResultMeta;
        use crate::serve::journal::JournalEntry;
        use simt_isa::codec::check_codec_laws;
        for at in 0..48 {
            for byte in [1, 2, b'q', 0xFF] {
                let mut bytes = [0u8; 48];
                bytes[at] = byte;
                check_codec_laws::<PhaseMeta>(&bytes);
                check_codec_laws::<JournalEntry>(&bytes);
                check_codec_laws::<ResultMeta>(&bytes);
            }
        }
    }

    #[test]
    fn scales_parse() {
        assert_eq!(Scale::parse("paper"), Some(Scale::paper()));
        assert_eq!(Scale::parse("quick"), Some(Scale::quick()));
        assert_eq!(Scale::parse("test"), Some(Scale::test()));
        assert_eq!(Scale::parse("bogus"), None);
    }

    #[test]
    fn run_fingerprint_separates_job_identities() {
        let conference = scenes::conference(SceneScale::Tiny);
        let atrium = scenes::atrium(SceneScale::Tiny);
        let base = run_fingerprint(&conference, Variant::Dynamic, Scale::test());
        assert_eq!(
            base,
            run_fingerprint(&conference, Variant::Dynamic, Scale::test()),
            "fingerprint is deterministic"
        );
        assert_ne!(
            base,
            run_fingerprint(&atrium, Variant::Dynamic, Scale::test()),
            "scene must re-key"
        );
        assert_ne!(
            base,
            run_fingerprint(&conference, Variant::PdomWarp, Scale::test()),
            "variant (config + program family) must re-key"
        );
        assert_ne!(
            base,
            run_fingerprint(&conference, Variant::Dynamic, Scale::quick()),
            "scale must re-key"
        );
    }

    #[test]
    fn render_run_executes_both_kernel_families() {
        let scene = scenes::conference(SceneScale::Tiny);
        let scale = Scale::test();
        let pdom = RenderRun::execute(&scene, Variant::PdomWarp, scale).expect("clean run");
        assert!(pdom.summary.stats.thread_instructions > 0);
        let dmk = RenderRun::execute(&scene, Variant::Dynamic, scale).expect("clean run");
        assert!(dmk.summary.stats.threads_spawned > 0);
    }
}
