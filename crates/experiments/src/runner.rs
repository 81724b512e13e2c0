//! Shared run machinery: scales and the one render path, which takes
//! every scene render as one [`RenderSpec`] through a [`Plan`].
//!
//! A plan owns one invocation's renders: `repro all` builds one for its
//! whole loop, and every other caller one per artifact. It runs each
//! fingerprint once, the first time it is asked for, and hands the same
//! [`RenderRun`] (or the same job-level error) to every later request, so
//! each snapshot, kill point, trace file and stderr note comes from that
//! one run. It also holds the host images frame checks compare against,
//! so no render state outlives the invocation or hides in a thread.

use crate::configs::{self, Variant};
use crate::supervisor;
use raytrace::scenes::{self, SceneScale};
use raytrace::Hit;
use rt_kernels::pt_layout::PtResult;
use rt_kernels::pt_render::{exact_mismatches, image_hash, PtSetup};
use rt_kernels::render::{compare, RenderSetup};
use serde::{Deserialize, Serialize};
use simt_isa::codec::{fnv1a64, Codec, Encoder};
use simt_mem::MemPreset;
use simt_sim::{Gpu, GpuConfig, RunSummary, SpawnPolicy, TelemetryReport};
use std::collections::HashMap;
use std::fmt;
use std::fmt::Write as _;
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

/// Which tracer a render runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Tracer {
    /// The paper's kd-tree primary-ray tracer.
    Kd,
    /// The BVH diffuse path tracer.
    Bvh,
}

/// When a render stops.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Stop {
    /// Warm-up, then measurement; sliced and resumable.
    Window {
        /// Warm-up cycles.
        warm: u64,
        /// Measured cycles.
        measure: u64,
    },
    /// Completion, in one call, checked against the host image.
    Frame,
}

/// Cycle budget of a [`Stop::Frame`]: hitting it is a job-level error.
pub(crate) const FRAME_BUDGET: u64 = 4_000_000_000;

/// One scene render: everything that decides what is simulated, as plain
/// data — no scene is generated until the render path prepares it.
#[derive(Debug, Clone, Copy)]
pub struct RenderSpec {
    /// The scene's name, one of [`raytrace::scenes::NAMES`]; it is
    /// generated at `scale.scene`, a pure function of the two.
    pub scene: &'static str,
    /// The tracer.
    pub tracer: Tracer,
    /// The machine variant.
    pub variant: Variant,
    /// A memory machine in place of the variant's own.
    pub mem: Option<MemPreset>,
    /// A spawn policy in place of the variant's own.
    pub spawn_policy: Option<SpawnPolicy>,
    /// Square image edge in pixels.
    pub edge: u32,
    /// The stop rule.
    pub stop: Stop,
    /// Launch geometry and job identity.
    pub scale: Scale,
}

impl RenderSpec {
    /// The figures' standard window of the scene named `scene`: the kd
    /// tracer on the variant's own machine at `scale.resolution`, warmed
    /// and measured `scale.cycles`.
    pub fn window(scene: &'static str, variant: Variant, scale: Scale) -> Self {
        RenderSpec {
            scene,
            tracer: Tracer::Kd,
            variant,
            mem: None,
            spawn_policy: None,
            edge: scale.resolution,
            stop: Stop::Window {
                warm: scale.cycles,
                measure: scale.cycles,
            },
            scale,
        }
    }

    /// This spec's scene as a whole frame through `tracer` at `edge`.
    pub fn frame(self, tracer: Tracer, edge: u32) -> Self {
        RenderSpec {
            tracer,
            edge,
            stop: Stop::Frame,
            ..self
        }
    }

    /// What sets this spec apart from the standard window — its tracer,
    /// overrides and stop rule — or `None` for that window, whose job
    /// name and fingerprint are the historical ones.
    fn suffix(&self) -> Option<String> {
        let std = RenderSpec::window(self.scene, self.variant, self.scale);
        let knobs = |s: &RenderSpec| (s.tracer, s.mem, s.spawn_policy, s.edge, s.stop);
        if knobs(self) == knobs(&std) {
            return None;
        }
        let mut suffix = format!("-{:?}", self.tracer);
        if let Some(mem) = self.mem {
            let _ = write!(suffix, "-{mem:?}");
        }
        if let Some(policy) = self.spawn_policy {
            let _ = write!(suffix, "-{policy:?}");
        }
        let _ = match self.stop {
            Stop::Window { warm, measure } => write!(suffix, "-w{warm}-{measure}"),
            Stop::Frame => write!(suffix, "-frame"),
        };
        Some(suffix)
    }

    /// The machine configuration the render runs on.
    fn config(&self) -> GpuConfig {
        let mut cfg = configs::config_on(self.variant, self.mem);
        cfg.spawn_policy = self.spawn_policy.unwrap_or(cfg.spawn_policy);
        cfg
    }

    /// `{scene}-{Variant:?}-{edge}`; any spec but the standard window
    /// appends its tracer, overrides and stop rule.
    pub fn job(&self) -> String {
        let job = format!("{}-{:?}-{}", self.scene, self.variant, self.edge);
        job + &self.suffix().unwrap_or_default()
    }

    /// The render's identity, for checkpoint, result-cache and plan
    /// keying: FNV-1a-64 over the scene's name and the [`Scale`] (a
    /// scene's geometry is a pure function of the two), the variant, the
    /// active telemetry spec, the digest of the variant's full
    /// [`simt_sim::GpuConfig`] and of the kd program it launches. Any spec
    /// but the standard window appends the digests of the configuration
    /// and program it really runs, its edge and its suffix. A checkpoint
    /// or cached result stamped with another fingerprint must never be
    /// trusted for this render.
    pub fn fingerprint(&self) -> u64 {
        let mut enc = Encoder::new();
        enc.put_str("usimt-run-fp-v1");
        enc.put_str(self.scene);
        enc.put_str(&format!("{:?}", self.variant));
        enc.put_u32(self.scale.resolution);
        enc.put_u64(self.scale.cycles);
        enc.put_u32(self.scale.threads_per_block);
        enc.put_u8(match self.scale.scene {
            SceneScale::Tiny => 0,
            SceneScale::Small => 1,
            SceneScale::Full => 2,
        });
        let telemetry = configs::telemetry_spec();
        enc.put_bool(telemetry.metrics);
        enc.put_bool(telemetry.trace);
        enc.put_u64(telemetry.metrics_window);
        enc.put_u64(simt_sim::config_digest(&configs::config_for(self.variant)));
        enc.put_u64(program_digest(Tracer::Kd, self.variant.is_dynamic()));
        if let Some(suffix) = self.suffix() {
            let cfg = self.config();
            enc.put_u64(simt_sim::config_digest(&cfg));
            enc.put_u64(program_digest(self.tracer, cfg.dmk.is_some()));
            enc.put_u32(self.edge);
            enc.put_str(&suffix);
        }
        fnv1a64(&enc.into_bytes())
    }
}

/// Digest of the embedded program a tracer runs, μ-kernel or looped,
/// assembled and digested once per process.
pub(crate) fn program_digest(tracer: Tracer, dynamic: bool) -> u64 {
    static DIGESTS: [OnceLock<u64>; 4] = [const { OnceLock::new() }; 4];
    *DIGESTS[2 * tracer as usize + usize::from(dynamic)].get_or_init(|| {
        let program = match (tracer, dynamic) {
            (Tracer::Kd, false) => rt_kernels::traditional::program(),
            (Tracer::Kd, true) => rt_kernels::ukernel::program(),
            (Tracer::Bvh, false) => rt_kernels::pt_traditional::program(),
            (Tracer::Bvh, true) => rt_kernels::pt_ukernel::program(),
        };
        simt_sim::program_digest(&program).expect("embedded kernels encode losslessly")
    })
}

simt_isa::record! {
    /// Phase bookkeeping in each snapshot's meta section, so a resumed
    /// [`Stop::Window`] keeps its warm-up/measurement split, and a resume
    /// refuses a snapshot of another [`RenderSpec::fingerprint`].
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

/// What a tracer's upload placed in device memory.
#[derive(Debug)]
pub(crate) enum Setup {
    /// The kd tracer's.
    Kd(RenderSetup),
    /// The path tracer's.
    Bvh(PtSetup),
}

/// Builds `spec`'s machine with [`configs::machine`], generates its scene
/// and uploads it for its tracer, and launches the μ-kernel program on a
/// DMK machine, the looped one otherwise. The one place a render's scene
/// is generated; it is dropped once uploaded.
pub(crate) fn prepare(spec: &RenderSpec) -> (Gpu, Setup) {
    let cfg = spec.config();
    let dynamic = cfg.dmk.is_some();
    let mut gpu = configs::machine(cfg);
    let scene =
        scenes::by_name(spec.scene, spec.scale.scene).expect("a spec names one of scenes::NAMES");
    let (edge, tpb) = (spec.edge, spec.scale.threads_per_block);
    let setup = match spec.tracer {
        Tracer::Kd => Setup::Kd(RenderSetup::upload(&mut gpu, &scene, edge, edge)),
        Tracer::Bvh => Setup::Bvh(PtSetup::upload(&mut gpu, &scene, edge, edge)),
    };
    match (&setup, dynamic) {
        (Setup::Kd(setup), true) => setup.launch_ukernel(&mut gpu, tpb),
        (Setup::Kd(setup), false) => setup.launch_traditional(&mut gpu, tpb),
        (Setup::Bvh(setup), true) => setup.launch_ukernel(&mut gpu, tpb),
        (Setup::Bvh(setup), false) => setup.launch_traditional(&mut gpu, tpb),
    }
    (gpu, setup)
}

/// A host tracer's image of one frame.
enum HostImage {
    Kd(Vec<Option<Hit>>),
    Bvh(Vec<PtResult>),
}

/// What a host image depends on: scene name and scale (a scene is a pure
/// function of the two), tracer and edge.
type HostKey = (&'static str, SceneScale, Tracer, u32);

/// Checks a finished frame against the host tracer's image: no kd ray
/// may differ, and the path tracer must match bit for bit, with an equal
/// hash, which it returns. The image is traced into `hosts` the first
/// time its key is asked for, so each is traced once per [`Plan`]
/// however many machines render it.
fn check_frame(
    spec: &RenderSpec,
    job: &str,
    gpu: &Gpu,
    setup: &Setup,
    hosts: &mut HashMap<HostKey, HostImage>,
) -> Result<Option<u64>, String> {
    let key = (spec.scene, spec.scale.scene, spec.tracer, spec.edge);
    let host = hosts.entry(key).or_insert_with(|| match setup {
        Setup::Kd(setup) => HostImage::Kd(setup.host_reference()),
        Setup::Bvh(setup) => HostImage::Bvh(setup.host_reference()),
    });
    match (setup, host) {
        (Setup::Kd(setup), HostImage::Kd(host)) => {
            let report = compare(host, &setup.device_results(gpu));
            if report.mismatches > 0 {
                return Err(format!(
                    "{job}: {} of {} rays diverged from the host oracle",
                    report.mismatches, report.total
                ));
            }
            Ok(None)
        }
        (Setup::Bvh(setup), HostImage::Bvh(host)) => {
            let device = setup.device_results(gpu);
            let mismatches = exact_mismatches(host, &device);
            let (host_hash, hash) = (image_hash(host), image_hash(&device));
            if mismatches > 0 || hash != host_hash {
                return Err(format!(
                    "{job}: device image diverged from the host reference ({mismatches} \
                     exact mismatches, hash {hash:016x} vs {host_hash:016x})"
                ));
            }
            Ok(Some(hash))
        }
        _ => unreachable!("the key names the tracer"),
    }
}

/// Runs a [`Stop::Window`], each phase sliced by
/// [`supervisor::run_to_target`] and resumed from the job's snapshot when
/// `--resume` finds a usable one.
fn run_window(
    spec: &RenderSpec,
    job: &str,
    warm: u64,
    measure: u64,
) -> Result<(Gpu, RunSummary, PhaseMeta), String> {
    let fingerprint = spec.fingerprint();
    let (mut gpu, mut meta) = match resume_state(job, fingerprint) {
        Some(state) => state,
        None => {
            let gpu = prepare(spec).0;
            let meta = PhaseMeta {
                fingerprint,
                phase: 0,
                target: gpu.now() + warm,
                warm_cycle: 0,
                warm_rays: 0,
            };
            (gpu, meta)
        }
    };
    if meta.phase == 0 {
        if warm > 0 {
            supervisor::run_to_target(&mut gpu, meta.target, job, &meta.to_bytes())?;
        }
        meta = PhaseMeta {
            fingerprint,
            phase: 1,
            target: gpu.now() + measure,
            warm_cycle: gpu.now(),
            warm_rays: gpu.stats().lineages_completed,
        };
    }
    let summary = supervisor::run_to_target(&mut gpu, meta.target, job, &meta.to_bytes())?;
    supervisor::clear(job);
    Ok((gpu, summary, meta))
}

/// The result of one render.
#[derive(Debug)]
pub struct RenderRun {
    /// Scene name.
    pub scene: &'static str,
    /// Variant executed.
    pub variant: Variant,
    /// Full simulator summary (whole run, including warm-up).
    pub summary: RunSummary,
    /// Cumulative telemetry over the whole run, less its trace-event
    /// stream, which goes to the trace file under `--trace` and no further.
    pub telemetry: TelemetryReport,
    /// Aggregate L1 `(hits, misses, mshr_merges, mshr_stalls)`, if any.
    pub l1: Option<(u64, u64, u64, u64)>,
    /// A BVH frame's image hash, equal to the host's.
    pub image_hash: Option<u64>,
    /// Shader clock used for rays/s conversion.
    pub clock_ghz: f64,
    /// Rays completed after warm-up (the whole run for a frame).
    pub steady_rays: u64,
    /// Cycles after warm-up (the whole run for a frame).
    pub steady_cycles: u64,
}

/// One invocation's renders (see the module docs): each [`RenderSpec`]
/// fingerprint is rendered once and held, with its job-level error if it
/// failed, together with the host images its frames were checked against.
/// Nothing outlives the plan.
#[derive(Default)]
pub struct Plan {
    /// Each rendered fingerprint's run or job-level error.
    runs: HashMap<u64, Result<RenderRun, String>>,
    /// The host images frames were checked against.
    hosts: HashMap<HostKey, HostImage>,
}

impl Plan {
    /// The run this plan holds under `spec`'s fingerprint, rendered now
    /// if this is the first time the fingerprint is asked for.
    ///
    /// # Errors
    ///
    /// The render's job-level error (a fault, a watchdog deadlock, a blown
    /// frame budget or an image that differs from the host's), the same
    /// one every time the fingerprint is asked for.
    pub fn render(&mut self, spec: &RenderSpec) -> Result<&RenderRun, String> {
        let hosts = &mut self.hosts;
        self.runs
            .entry(spec.fingerprint())
            .or_insert_with(|| RenderRun::execute(spec, hosts))
            .as_ref()
            .map_err(String::clone)
    }
}

impl RenderRun {
    /// Renders `spec` on the machine `prepare` builds, under its stop
    /// rule, and writes its trace artifacts under `--trace`, after which
    /// the run drops its trace-event stream. Rays/second is measured after
    /// the warm-up, which skips the pipeline-fill transient at frame start
    /// (the paper finds 150k–300k steady).
    ///
    /// # Errors
    ///
    /// A fault or a watchdog deadlock, as the job-level error of
    /// [`supervisor::run_checked`]; for a frame, also a blown
    /// frame budget or an image that differs from the host's.
    fn execute(
        spec: &RenderSpec,
        hosts: &mut HashMap<HostKey, HostImage>,
    ) -> Result<RenderRun, String> {
        let job = spec.job();
        let (gpu, summary, warm_cycle, warm_rays, image_hash) = match spec.stop {
            Stop::Window { warm, measure } => {
                let (gpu, summary, meta) = run_window(spec, &job, warm, measure)?;
                (gpu, summary, meta.warm_cycle, meta.warm_rays, None)
            }
            Stop::Frame => {
                let (mut gpu, setup) = prepare(spec);
                let summary = supervisor::run_checked(&mut gpu, FRAME_BUDGET, &job, true)?;
                let hash = check_frame(spec, &job, &gpu, &setup, hosts)?;
                (gpu, summary, 0, 0, hash)
            }
        };
        let mut telemetry = gpu.telemetry_report();
        if supervisor::policy().telemetry.trace {
            write_trace_artifacts(&job, &telemetry);
            telemetry.events = Vec::new();
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
            scene: spec.scene,
            variant: spec.variant,
            clock_ghz: gpu.config().clock_ghz,
            l1: gpu.l1_stats(),
            image_hash,
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
    fn the_standard_windows_fingerprint_separates_job_identities() {
        let fp = |scene, variant, scale| RenderSpec::window(scene, variant, scale).fingerprint();
        let base = fp("conference", Variant::Dynamic, Scale::test());
        assert_eq!(
            base,
            fp("conference", Variant::Dynamic, Scale::test()),
            "fingerprint is deterministic"
        );
        assert_ne!(
            base,
            fp("atrium", Variant::Dynamic, Scale::test()),
            "scene must re-key"
        );
        assert_ne!(
            base,
            fp("conference", Variant::PdomWarp, Scale::test()),
            "variant (config + program family) must re-key"
        );
        assert_ne!(
            base,
            fp("conference", Variant::Dynamic, Scale::quick()),
            "scale must re-key"
        );
    }

    /// The standard window and six specs that each differ from it, or
    /// from one another, in one knob: spawn policy, stop rule, memory
    /// preset, edge or tracer.
    fn distinct_specs() -> [RenderSpec; 7] {
        let scale = Scale::test();
        let std = RenderSpec::window("conference", Variant::Dynamic, scale);
        let ablation = RenderSpec {
            spawn_policy: Some(SpawnPolicy::Always),
            stop: Stop::Window {
                warm: 0,
                measure: scale.cycles,
            },
            ..std
        };
        [
            std,
            ablation,
            RenderSpec {
                spawn_policy: Some(SpawnPolicy::OnDivergence),
                ..ablation
            },
            RenderSpec {
                mem: Some(MemPreset::Cached),
                ..std
            },
            RenderSpec { edge: 8, ..std },
            std.frame(Tracer::Kd, 16),
            std.frame(Tracer::Bvh, 16),
        ]
    }

    #[test]
    fn every_other_spec_gets_its_own_name_and_identity() {
        let specs = distinct_specs();
        let mut names: Vec<String> = specs.iter().map(RenderSpec::job).collect();
        let mut ids: Vec<u64> = specs.iter().map(RenderSpec::fingerprint).collect();
        names.sort();
        names.dedup();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!((names.len(), ids.len()), (specs.len(), specs.len()));
    }

    #[test]
    fn a_spec_asked_for_twice_runs_once() {
        let spec = RenderSpec::window("conference", Variant::PdomWarp, Scale::test());
        let mut plan = Plan::default();
        let first = plan.render(&spec).expect("clean run").steady_rays;
        // Mark the held run: a second render would not carry the mark.
        let held = plan.runs.get_mut(&spec.fingerprint()).expect("held");
        held.as_mut().expect("clean run").steady_rays = first + 1;
        let again = plan.render(&spec).expect("the held run");
        assert_eq!(
            again.steady_rays,
            first + 1,
            "the second answer is the held run"
        );
        assert_eq!(plan.runs.len(), 1);
    }

    #[test]
    fn each_distinct_spec_runs_separately() {
        let specs = distinct_specs();
        let mut plan = Plan::default();
        for spec in &specs {
            let run = plan.render(spec).expect("clean run");
            assert!(run.summary.stats.thread_instructions > 0, "{}", spec.job());
        }
        assert_eq!(plan.runs.len(), specs.len());
        // The two frames traced one host image each.
        assert_eq!(plan.hosts.len(), 2);
    }

    #[test]
    fn a_failed_spec_gives_the_same_error_again_without_rerunning() {
        let spec =
            RenderSpec::window("conference", Variant::Dynamic, Scale::test()).frame(Tracer::Kd, 16);
        let mut plan = Plan::default();
        // A host image in which every ray misses: the frame check fails.
        let key = ("conference", SceneScale::Tiny, Tracer::Kd, 16);
        plan.hosts.insert(key, HostImage::Kd(vec![None; 16 * 16]));
        let error = plan
            .render(&spec)
            .expect_err("no device ray missed everything");
        assert!(error.contains("diverged from the host oracle"), "{error}");
        // Re-run, the frame would trace the true image and pass.
        plan.hosts.clear();
        assert_eq!(plan.render(&spec).expect_err("the held error"), error);
        assert!(plan.hosts.is_empty(), "nothing ran");
    }

    #[test]
    fn render_run_executes_both_kernel_families() {
        let scale = Scale::test();
        let mut plan = Plan::default();
        let pdom = plan
            .render(&RenderSpec::window("conference", Variant::PdomWarp, scale))
            .expect("clean run");
        assert!(pdom.summary.stats.thread_instructions > 0);
        let dmk = plan
            .render(&RenderSpec::window("conference", Variant::Dynamic, scale))
            .expect("clean run");
        assert!(dmk.summary.stats.threads_spawned > 0);
    }
}
