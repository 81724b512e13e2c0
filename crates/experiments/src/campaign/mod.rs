//! `repro campaign` — a sharded, crash-tolerant campaign runner.
//!
//! The paper's figures come from a matrix of per-scene/per-config
//! simulation jobs. `repro all` runs that matrix sequentially in one
//! process; this module fans it across N **worker processes** (the
//! `repro` binary re-invoked in a single-job `__worker` mode, see
//! [`worker`]), supervised by a [`Coordinator`] that:
//!
//! - tracks per-worker liveness by the lines on its stdout and imposes
//!   per-job wall-clock timeouts, SIGKILLing wedged workers;
//! - reschedules dead or hung jobs with exponential backoff under a
//!   bounded retry budget, each retry resuming from the worker's last
//!   good `.ckpt` through the existing `supervisor::try_resume` path
//!   instead of restarting from cycle 0;
//! - serves repeated jobs from a content-addressed result [`cache`]
//!   keyed by an FNV hash of (program bytes, scene, `GpuConfig`, scale,
//!   telemetry spec), detecting and quarantining corrupt entries;
//! - enforces optional per-job deadlines (SIGKILLing and reporting
//!   [`JobOutcome::DeadlineExceeded`] without retry — the `repro serve`
//!   front-end attaches these);
//! - reports every job in a campaign [`manifest`] — a job that exhausts
//!   its retries is `GaveUp` there while the rest of the matrix
//!   completes.
//!
//! The [`Coordinator`] is deliberately a *pumped* engine: [`Coordinator::poll`]
//! performs one non-blocking supervision pass (reap, liveness, deadline,
//! spawn), so the batch [`run`] loop and the long-running `repro serve`
//! front-end (`crate::serve`) drive the identical scheduling code —
//! serve just keeps submitting while it pumps. A worker's stdout pipe is
//! its whole report (beats, progress, then the result frame: [`worker`]).
//! A watcher thread reads it to end-of-file — which is the process going,
//! however it went — and calls the [`Waker`] the coordinator's owner
//! installed, so the owner runs the pass that reaps it at once. What only
//! looking can find (a silent worker, a wall-clock or deadline expiry, a
//! back-off run out) is still found by the owner's periodic pass.
//!
//! Because each job's simulation is deterministic and checkpoint resume
//! is bit-identical, a completed campaign's artifact bytes are the same
//! whether they were computed serially (`repro all`), sharded across
//! workers, served from the cache, or chaos-tested: the process-level
//! [`chaos`] mode deterministically kills workers mid-job and the
//! campaign still converges to identical output. See `DESIGN.md` §12.

pub mod cache;
pub mod chaos;
pub mod manifest;
pub mod worker;

use crate::runner::{run_fingerprint_by_name, Scale};
use crate::workload::{RenderError, ScenarioSpec};
use chaos::Chaos;
use manifest::{JobOutcome, JobRecord, Manifest};
use simt_isa::codec::{fnv1a64, Encoder};
use std::collections::HashMap;
use std::io::{BufRead, BufReader, Read};
use std::path::PathBuf;
use std::process::{Child, ChildStdout, Command, ExitStatus, Stdio};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

/// Longest the batch [`run`] loop waits between supervision passes, and
/// how long a pass that finds one half of a worker's end (its stdout
/// closed, its status waitable) waits for the other.
const TICK: Duration = Duration::from_millis(10);

/// Longest a dead or hung job waits before its retry, however many
/// attempts it has consumed.
const BACKOFF_CAP: Duration = Duration::from_secs(5);

/// Called from a worker's watcher thread the moment that worker's stdout
/// reaches end-of-file, after the watcher has recorded all it heard; has
/// the coordinator's owner run a [`Coordinator::poll`] now. It must not
/// wait on that pass.
pub type Waker = Arc<dyn Fn() + Send + Sync>;

/// The paper-group artifacts of a full campaign, in canonical
/// presentation order (the order `repro all` runs them). Delegates to
/// the [`crate::workload`] registry — the single source of truth for
/// what is runnable.
pub fn artifacts() -> Vec<&'static str> {
    crate::workload::paper_ids()
}

/// Renders one job to the exact bytes `repro` prints on stdout for
/// it — `Display` text plus the trailing blank line, or the one-line
/// JSON envelope under `--json`. Campaign workers, the serial `repro`
/// path, and the result cache all share this definition (via the
/// [`crate::workload`] registry), which is what makes "byte-identical
/// however computed" checkable.
///
/// Returns `None` for a name no registered workload covers, `Some(Err)`
/// when the job itself failed (a deterministic job-level error the
/// campaign reports without retrying).
pub fn render_artifact(name: &str, scale: Scale, json: bool) -> Option<Result<String, String>> {
    match ScenarioSpec::new(name, scale, "").render(json) {
        Ok(rendered) => Some(Ok(rendered)),
        Err(RenderError::Unknown(_)) => None,
        Err(RenderError::Job(e)) => Some(Err(e)),
    }
}

/// Identity fingerprint of one campaign job: FNV-1a-64 over the
/// scenario's canonical job name, output mode, and the
/// [`crate::run_fingerprint`] of every (scene × variant) render the matrix can
/// touch at this scale — which folds in the kernel program bytes, the
/// full `GpuConfig` per variant, the scene identities, the [`Scale`],
/// and the telemetry spec. Workloads with private inputs (extra kernel
/// programs, their own configuration) extend the encoding through
/// [`crate::workload::Workload::extend_fingerprint`]; the hook appends
/// *after* the historical encoding and is a no-op for the paper
/// artifacts, so their fingerprints — and every existing cache entry and
/// journal id — are unchanged. Any change to any input re-keys the job;
/// the content-addressed cache can therefore never serve a stale result.
pub fn scenario_fingerprint(spec: &ScenarioSpec, json: bool) -> u64 {
    let mut enc = Encoder::new();
    enc.put_str("usimt-campaign-fp-v1");
    enc.put_str(spec.name());
    enc.put_bool(json);
    for scene in raytrace::scenes::NAMES {
        for variant in crate::configs::Variant::ALL {
            enc.put_u64(run_fingerprint_by_name(scene, variant, spec.scale));
        }
    }
    if let Ok(w) = spec.resolve() {
        w.extend_fingerprint(&mut enc, spec.scale);
    }
    fnv1a64(&enc.into_bytes())
}

/// [`scenario_fingerprint`] for a bare job name (see there).
pub fn job_fingerprint(artifact: &str, scale: Scale, json: bool) -> u64 {
    scenario_fingerprint(&ScenarioSpec::new(artifact, scale, ""), json)
}

/// The job engine's one configuration: what a batch [`run`] renders and
/// how the [`Coordinator`] supervises workers, for `repro campaign` and
/// `repro serve` alike. Built by the `repro` argument parser (or directly
/// by tests and the benchmark harness). A [`Coordinator`] reads only the
/// supervision fields: the artifact list, scale and output mode are what
/// [`run`] submits, and `repro serve` gives a request that names no scale
/// this `scale`.
#[derive(Debug, Clone)]
pub struct CampaignConfig {
    /// Experiment scale every job runs at.
    pub scale: Scale,
    /// Scale name forwarded to workers (`--scale <name>`).
    pub scale_name: String,
    /// Render jobs in `--json` mode.
    pub json: bool,
    /// Job names to run (validated against the [`crate::workload`]
    /// registry, executed in canonical registry order).
    pub artifacts: Vec<String>,
    /// Worker process count.
    pub workers: usize,
    /// Coordinator working directory (checkpoints, manifest).
    pub work_dir: PathBuf,
    /// Content-addressed result cache directory.
    pub cache_dir: PathBuf,
    /// Binary to re-invoke in `__worker` mode (defaults to this
    /// process's executable — the coordinator *is* `repro`).
    pub worker_exe: PathBuf,
    /// Checkpoint interval forwarded to workers (cycles).
    pub checkpoint_every: u64,
    /// Worker-process reschedules allowed per job before `GaveUp`
    /// (a job gets `max_retries + 1` attempts).
    pub max_retries: u32,
    /// Per-job wall-clock timeout; a worker past it is SIGKILLed.
    pub job_timeout: Duration,
    /// Heartbeat staleness bound; a worker that writes no line to its
    /// stdout for this long is SIGKILLed as wedged.
    pub heartbeat_timeout: Duration,
    /// Base reschedule delay; doubles per consumed attempt, up to
    /// five seconds.
    pub backoff_base: Duration,
    /// Deterministic process-level chaos (kill rate + seed).
    pub chaos: Option<Chaos>,
    /// Extra `repro` flags forwarded verbatim to every worker
    /// (`--json`, `--trace`, `--metrics-every`, ...).
    pub passthrough: Vec<String>,
    /// Test hook: this job's workers abort on every attempt (drives the
    /// job to `GaveUp` while the rest of the campaign completes).
    pub test_fail_job: Option<String>,
    /// Test hook: this job's first worker wedges without heartbeating
    /// (drives the coordinator's liveness kill + reschedule path).
    pub test_hang_job: Option<String>,
}

impl CampaignConfig {
    /// A full-matrix campaign at `scale` with production defaults.
    pub fn new(scale: Scale, scale_name: &str) -> Self {
        let work_dir = PathBuf::from("campaign");
        CampaignConfig {
            scale,
            scale_name: scale_name.to_string(),
            json: false,
            artifacts: artifacts().iter().map(|s| s.to_string()).collect(),
            workers: 2,
            cache_dir: work_dir.join("cache"),
            work_dir,
            worker_exe: std::env::current_exe().unwrap_or_else(|_| PathBuf::from("repro")),
            checkpoint_every: 2000,
            max_retries: 3,
            job_timeout: Duration::from_secs(3600),
            heartbeat_timeout: Duration::from_secs(120),
            backoff_base: Duration::from_millis(100),
            chaos: None,
            passthrough: Vec::new(),
            test_fail_job: None,
            test_hang_job: None,
        }
    }
}

/// One job submission: which scenario, in which output mode, and under
/// what (optional) completion deadline.
#[derive(Debug, Clone)]
pub struct JobSpec {
    /// The typed scenario this job renders (workload, optional variant
    /// narrowing, scale).
    pub scenario: ScenarioSpec,
    /// Render in `--json` mode.
    pub json: bool,
    /// Wall-clock budget from submission; on expiry the job's worker is
    /// SIGKILLed and the job finishes [`JobOutcome::DeadlineExceeded`]
    /// without retry.
    pub deadline: Option<Duration>,
}

impl JobSpec {
    /// A no-deadline spec for the job name `name` (`workload` or
    /// `workload@variant`) at `scale`.
    pub fn new(name: &str, scale: Scale, scale_name: &str, json: bool) -> Self {
        JobSpec {
            scenario: ScenarioSpec::new(name, scale, scale_name),
            json,
            deadline: None,
        }
    }

    /// Canonical job name (wire format, worker argv, manifest entry;
    /// byte-identical to the bare artifact name for paper jobs).
    pub fn name(&self) -> &str {
        self.scenario.name()
    }

    /// Identity fingerprint of the work this spec names (deadlines do not
    /// re-key: the same render under a different deadline is the same
    /// bytes).
    pub fn fingerprint(&self) -> u64 {
        scenario_fingerprint(&self.scenario, self.json)
    }
}

/// A finished campaign: the manifest plus, parallel to
/// `manifest.jobs`, each job's output bytes (`None` for `GaveUp` /
/// `Failed`).
#[derive(Debug)]
pub struct CampaignOutcome {
    /// Per-job supervision records.
    pub manifest: Manifest,
    /// Output bytes per job, in `manifest.jobs` order.
    pub outputs: Vec<Option<Vec<u8>>>,
}

impl CampaignOutcome {
    /// True when every job produced output (nothing gave up or failed).
    pub fn complete(&self) -> bool {
        self.manifest.gave_up() == 0
            && self.manifest.failed() == 0
            && self.manifest.deadline_exceeded() == 0
    }
}

/// Coordinator-side record of one job.
#[derive(Debug)]
pub struct Job {
    spec: JobSpec,
    /// Unique file-system key: `<artifact>-<fingerprint>` — two jobs for
    /// the same artifact at different scales must not share a checkpoint
    /// directory.
    key: String,
    fingerprint: u64,
    attempts: u32,
    kills: u32,
    timeouts: u32,
    resumed: bool,
    quarantined: bool,
    cache_hit: bool,
    deadline_at: Option<Instant>,
    ready_at: Instant,
    in_flight: bool,
    /// Latest worker progress pulse (cycle + machine vitals), relayed
    /// from the worker's stdout.
    progress: Option<String>,
    last_failure: Option<String>,
    done: Option<(JobOutcome, Option<Vec<u8>>, Option<String>)>,
}

impl Job {
    /// Canonical job name (the artifact name, for paper jobs).
    pub fn artifact(&self) -> &str {
        self.spec.name()
    }

    /// The submitted spec.
    pub fn spec(&self) -> &JobSpec {
        &self.spec
    }

    /// Job identity fingerprint (cache key, public job id).
    pub fn fingerprint(&self) -> u64 {
        self.fingerprint
    }

    /// True once the job reached a terminal state.
    pub fn is_done(&self) -> bool {
        self.done.is_some()
    }

    /// True while a worker process is executing this job.
    pub fn is_running(&self) -> bool {
        self.in_flight
    }

    /// Terminal outcome, when reached.
    pub fn outcome(&self) -> Option<&JobOutcome> {
        self.done.as_ref().map(|(o, _, _)| o)
    }

    /// Rendered output bytes, when the job completed with output.
    pub fn output(&self) -> Option<&[u8]> {
        self.done.as_ref().and_then(|(_, out, _)| out.as_deref())
    }

    /// Terminal error message, when the job degraded.
    pub fn error(&self) -> Option<&str> {
        self.done.as_ref().and_then(|(_, _, e)| e.as_deref())
    }

    /// Latest worker progress pulse ("cycle N: issues ...").
    pub fn progress(&self) -> Option<&str> {
        self.progress.as_deref()
    }

    /// Worker attempts consumed by deaths/timeouts so far.
    pub fn attempts(&self) -> u32 {
        self.attempts
    }

    /// Manifest record for this job. A job the scheduling loop somehow
    /// abandoned without a terminal state is *degraded to `Failed`* with
    /// a typed internal error — never a panic: one confused job must not
    /// take down the whole campaign's reporting (or the serve process).
    pub fn record(&self) -> JobRecord {
        let (outcome, error) = match &self.done {
            Some((outcome, _, error)) => (outcome.clone(), error.clone()),
            None => (
                JobOutcome::Failed,
                Some(
                    "internal: coordinator finished with this job in a non-terminal state"
                        .to_string(),
                ),
            ),
        };
        JobRecord {
            name: self.spec.name().to_string(),
            fingerprint: self.fingerprint,
            outcome,
            attempts: self.attempts,
            kills: self.kills,
            timeouts: self.timeouts,
            resumed_from_checkpoint: self.resumed,
            cache_hit: self.cache_hit,
            quarantined: self.quarantined,
            error,
        }
    }

    /// Consumes the job, yielding its output bytes (if any).
    fn into_output(self) -> Option<Vec<u8>> {
        self.done.and_then(|(_, out, _)| out)
    }
}

simt_isa::counters! {
    /// Aggregate degradation counters across everything a [`Coordinator`]
    /// has supervised, for end-of-run summaries and the serve `/healthz`
    /// endpoint — degradation must be visible, never silent. `/healthz`
    /// prints them in declaration order under their field names.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub struct ExecCounters {
        /// Jobs served from the content-addressed cache.
        pub cache_hits: u32 = sum,
        /// Jobs completed by a worker this coordinator ran (not cached).
        pub fresh_completions: u32 = sum,
        /// Worker processes started (one per attempt).
        pub jobs_spawned: u32 = sum,
        /// Cumulative time attempts waited for a worker slot: from admission
        /// (or the end of a retry's back-off) to the spawn.
        pub queue_wait_us: u64 = sum,
        /// Cumulative time from a worker's spawn to its exit being seen: its
        /// stdout closing, or the pass that reaped or killed it when that
        /// came first.
        pub worker_run_us: u64 = sum,
        /// Cumulative time from a worker's exit being seen to the pass that
        /// reaped it: what a completion waits for the coordinator's owner.
        pub exit_seen_lag_us: u64 = sum,
        /// Corrupt cache entries quarantined.
        pub quarantined: u32 = sum,
        /// Worker attempts consumed by retries (deaths, hangs, timeouts).
        pub retried_attempts: u32 = sum,
        /// SIGKILLs delivered by the coordinator (wall-clock timeout, stale
        /// heartbeat, or deadline expiry).
        pub sigkills: u32 = sum,
        /// Subset of `sigkills` delivered for per-job deadline expiry.
        pub deadline_kills: u32 = sum,
    }
}

/// One live worker process.
struct Running {
    child: Child,
    job: usize,
    started: Instant,
    /// When a pass first found the worker's status waitable.
    exited: Option<Instant>,
    /// What the watcher has heard on the worker's stdout.
    heard: Arc<Mutex<Heard>>,
}

/// A worker's report as its watcher thread records it.
#[derive(Default)]
struct Heard {
    /// When the latest line arrived.
    last_line: Option<Instant>,
    /// The latest progress pulse not yet handed to the job.
    pulse: Option<String>,
    /// Everything after the `frame` line, once the pipe is at end-of-file.
    frame: Option<Vec<u8>>,
    /// When the pipe reached end-of-file.
    closed: Option<Instant>,
}

/// Locks a worker's [`Heard`], recovering from poison: each field stands
/// alone, so a panic under the lock leaves nothing half-done.
fn lock(heard: &Mutex<Heard>) -> MutexGuard<'_, Heard> {
    heard.lock().unwrap_or_else(PoisonError::into_inner)
}

/// How a supervision pass found a worker it is about to remove.
enum Fate {
    Exited(ExitStatus),
    WaitFailed(std::io::Error),
    Kill {
        why: &'static str,
        deadline_hit: bool,
    },
}

/// Starts the thread that reads a worker's report into `into`, and once
/// the pipe is at end-of-file calls `waker`. The worker holds the only
/// write end, so end-of-file comes exactly when the process is gone —
/// exit, `abort()` or SIGKILL alike — and the thread ends with its worker.
/// It is not joined, and holds `into` only to record: `poll` may run under
/// a lock the waker takes.
fn watch(
    name: &str,
    stdout: ChildStdout,
    into: Arc<Mutex<Heard>>,
    waker: Option<Waker>,
) -> std::io::Result<()> {
    let watcher = move || {
        let mut pipe = BufReader::new(stdout);
        let mut line = Vec::new();
        while matches!(pipe.read_until(b'\n', &mut line), Ok(1..)) && line != worker::FRAME {
            let mut h = lock(&into);
            h.last_line = Some(Instant::now());
            if let Some(pulse) = line.strip_prefix(worker::PULSE) {
                h.pulse = Some(String::from_utf8_lossy(pulse).trim_end().to_string());
            }
            drop(h);
            line.clear();
        }
        let mut frame = Vec::new();
        let framed = line == worker::FRAME && pipe.read_to_end(&mut frame).is_ok();
        let mut h = lock(&into);
        (h.frame, h.closed) = (framed.then_some(frame), Some(Instant::now()));
        drop(h);
        if let Some(wake) = waker {
            wake();
        }
    };
    std::thread::Builder::new()
        .name(format!("watch-{name}"))
        .spawn(watcher)
        .map(drop)
}

/// Human description of a worker exit status.
fn describe_exit(status: ExitStatus) -> String {
    match status.code() {
        Some(code) if code == i32::from(crate::supervisor::KILL_EXIT_CODE) => {
            format!("kill hook exit {code}")
        }
        Some(code) => format!("exit code {code}"),
        None => "killed by signal".to_string(),
    }
}

/// The pumped job-execution engine: accepts [`JobSpec`]s, fans them over
/// worker processes under crash supervision, and reaches a terminal
/// [`JobOutcome`] for every one. [`run`] pumps it to completion for
/// batch campaigns; `repro serve` pumps it continuously while admitting
/// new work.
pub struct Coordinator {
    cfg: CampaignConfig,
    ckpt_root: PathBuf,
    jobs: Vec<Job>,
    /// Index in `jobs` of the latest job submitted under each
    /// fingerprint. At most one job per fingerprint is unfinished (a
    /// resubmission attaches to it), and that one is always the latest.
    by_fingerprint: HashMap<u64, usize>,
    running: Vec<Running>,
    counters: ExecCounters,
    waker: Option<Waker>,
}

impl Coordinator {
    /// Creates the engine and its working directories.
    ///
    /// # Errors
    ///
    /// Misconfiguration only: zero workers or unusable directories.
    pub fn new(cfg: CampaignConfig) -> Result<Self, String> {
        if cfg.workers == 0 {
            return Err("campaign needs at least one worker".to_string());
        }
        let ckpt_root = cfg.work_dir.join("ckpt");
        for d in [&cfg.work_dir, &ckpt_root, &cfg.cache_dir] {
            std::fs::create_dir_all(d)
                .map_err(|e| format!("cannot create {}: {e}", d.display()))?;
        }
        Ok(Coordinator {
            cfg,
            ckpt_root,
            jobs: Vec::new(),
            by_fingerprint: HashMap::new(),
            running: Vec::new(),
            counters: ExecCounters::default(),
            waker: None,
        })
    }

    /// Installs the callback that workers spawned from now on make when
    /// they exit. Without one an exit waits for the owner's next pass.
    pub fn set_waker(&mut self, waker: Waker) {
        self.waker = Some(waker);
    }

    /// Submits a job. Probes the result cache first: a warm hit
    /// completes the job immediately ([`JobOutcome::Cached`]); a corrupt
    /// entry is quarantined and the job recomputes. A resubmission whose
    /// fingerprint matches a job that is still queued or running attaches
    /// to that job instead of double-scheduling the same work. Returns
    /// the job's index (stable for this coordinator's lifetime).
    ///
    /// # Errors
    ///
    /// Rejects scenarios no registered workload covers (the typed
    /// [`crate::workload::UnknownWorkload`] error, stringified).
    pub fn submit(&mut self, spec: JobSpec) -> Result<usize, String> {
        spec.scenario.resolve().map_err(|e| e.to_string())?;
        let fingerprint = spec.fingerprint();
        if let Some(&idx) = self.by_fingerprint.get(&fingerprint) {
            if !self.jobs[idx].is_done() {
                return Ok(idx);
            }
        }
        let now = Instant::now();
        let mut job = Job {
            key: format!("{}-{fingerprint:016x}", spec.name()),
            fingerprint,
            attempts: 0,
            kills: 0,
            timeouts: 0,
            resumed: false,
            quarantined: false,
            cache_hit: false,
            deadline_at: spec.deadline.map(|d| now + d),
            ready_at: now,
            in_flight: false,
            progress: None,
            last_failure: None,
            done: None,
            spec,
        };
        match cache::probe(&self.cfg.cache_dir, job.spec.name(), fingerprint) {
            cache::Probe::Hit(output) => {
                eprintln!("campaign: {}: cache hit", job.spec.name());
                job.cache_hit = true;
                job.done = Some((JobOutcome::Cached, Some(output), None));
                self.counters.cache_hits += 1;
            }
            cache::Probe::Quarantined(_) => {
                eprintln!(
                    "campaign: {}: corrupt cache entry quarantined; recomputing",
                    job.spec.name()
                );
                job.quarantined = true;
                self.counters.quarantined += 1;
            }
            cache::Probe::Miss => {}
        }
        let idx = self.jobs.len();
        self.jobs.push(job);
        self.by_fingerprint.insert(fingerprint, idx);
        Ok(idx)
    }

    /// All jobs, in submission order.
    pub fn jobs(&self) -> &[Job] {
        &self.jobs
    }

    /// One job by index.
    pub fn job(&self, idx: usize) -> Option<&Job> {
        self.jobs.get(idx)
    }

    /// The latest job submitted under `fingerprint` (the public job id
    /// of `repro serve`).
    pub fn job_by_fingerprint(&self, fingerprint: u64) -> Option<&Job> {
        self.by_fingerprint
            .get(&fingerprint)
            .map(|&idx| &self.jobs[idx])
    }

    /// Aggregate degradation counters.
    pub fn counters(&self) -> ExecCounters {
        self.counters
    }

    /// True when every submitted job reached a terminal state.
    pub fn all_done(&self) -> bool {
        self.jobs.iter().all(Job::is_done)
    }

    /// Jobs currently executing in a worker process.
    pub fn in_flight(&self) -> usize {
        self.running.len()
    }

    /// Jobs accepted but not yet terminal (queued + running).
    pub fn backlog(&self) -> usize {
        self.jobs.iter().filter(|j| !j.is_done()).count()
    }

    /// One supervision pass: relay progress pulses, reap exited workers,
    /// police liveness, wall-clock timeouts, and per-job deadlines, then
    /// fill free worker slots with ready jobs in submission order. It
    /// waits on nothing but a worker that is already on its way out: one
    /// whose stdout has just closed and whose status is microseconds
    /// behind, or the other way round.
    /// Returns how many jobs reached a terminal state during the pass.
    ///
    /// # Errors
    ///
    /// Only an unspawnable worker binary is an engine-level error;
    /// everything job-level degrades into the job's record.
    pub fn poll(&mut self) -> Result<usize, String> {
        let mut finished = 0usize;
        // Reap finished workers and police liveness + deadlines.
        let mut i = 0;
        while i < self.running.len() {
            let Some(fate) = self.fate(i) else {
                i += 1;
                continue;
            };
            let mut r = self.running.swap_remove(i);
            if !matches!(fate, Fate::Exited(_)) {
                let _ = r.child.kill();
                let _ = r.child.wait();
            }
            let reaped = Instant::now();
            let (closed, frame) = {
                let mut h = lock(&r.heard);
                (h.closed, h.frame.take())
            };
            // A worker killed before its watcher heard the pipe close
            // waited for nobody.
            let seen = closed.unwrap_or(reaped).min(reaped);
            self.counters.worker_run_us += (seen - r.started).as_micros() as u64;
            self.counters.exit_seen_lag_us += (reaped - seen).as_micros() as u64;
            let job = &mut self.jobs[r.job];
            job.in_flight = false;
            match fate {
                Fate::Exited(status) if status.success() => {
                    complete_from_frame(&self.cfg, &mut self.counters, job, frame, &self.ckpt_root)
                }
                Fate::Exited(status) => worker_died(
                    &self.cfg,
                    &mut self.counters,
                    job,
                    &describe_exit(status),
                    false,
                ),
                Fate::WaitFailed(e) => worker_died(
                    &self.cfg,
                    &mut self.counters,
                    job,
                    &format!("wait failed: {e}"),
                    false,
                ),
                Fate::Kill { why, deadline_hit } => {
                    self.counters.sigkills += 1;
                    if deadline_hit {
                        expire_deadline(&mut self.counters, job);
                    } else {
                        worker_died(
                            &self.cfg,
                            &mut self.counters,
                            job,
                            &format!("SIGKILL after {why}"),
                            true,
                        );
                    }
                }
            }
            if job.is_done() {
                finished += 1;
            }
        }
        // Queued jobs whose deadline already expired never get a worker.
        let now = Instant::now();
        for job in &mut self.jobs {
            if job.done.is_none() && !job.in_flight && job.deadline_at.is_some_and(|d| now >= d) {
                expire_deadline(&mut self.counters, job);
                finished += 1;
            }
        }
        // Fill free worker slots with ready jobs, submission order first.
        while self.running.len() < self.cfg.workers {
            let now = Instant::now();
            let Some(idx) = self
                .jobs
                .iter()
                .position(|j| j.done.is_none() && !j.in_flight && j.ready_at <= now)
            else {
                break;
            };
            let r = spawn_attempt(
                &self.cfg,
                &mut self.jobs[idx],
                idx,
                &self.ckpt_root,
                self.waker.clone(),
            )?;
            self.counters.jobs_spawned += 1;
            self.counters.queue_wait_us += (r.started - self.jobs[idx].ready_at).as_micros() as u64;
            self.jobs[idx].in_flight = true;
            self.running.push(r);
        }
        Ok(finished)
    }

    /// Looks at live worker `i` once: has it exited, and if not, is it
    /// still within its liveness, wall-clock and deadline bounds? `None`
    /// for a worker that stays.
    fn fate(&mut self, i: usize) -> Option<Fate> {
        let r = &mut self.running[i];
        let job = &mut self.jobs[r.job];
        let last_line = {
            let mut h = lock(&r.heard);
            job.progress = h.pulse.take().or(job.progress.take());
            h.last_line.unwrap_or(r.started)
        };
        // A worker is gone once its stdout is at end-of-file, frame read,
        // *and* its status is waitable. The two show microseconds apart in
        // either order (descriptors close a moment before the process is
        // waitable; the watcher may still be reading the frame when it is),
        // so look again for the other. The bound is for a worker that
        // closed its stdout and lives on, or died leaving the pipe to a
        // process of its own: it holds its owner up for one tick, once.
        let now = loop {
            let status = match r.child.try_wait() {
                Ok(status) => status,
                Err(e) => return Some(Fate::WaitFailed(e)),
            };
            let closed = lock(&r.heard).closed;
            let now = Instant::now();
            if status.is_some() {
                r.exited.get_or_insert(now);
            }
            match (status, closed.or(r.exited)) {
                (Some(status), _) if closed.is_some() => return Some(Fate::Exited(status)),
                (_, Some(first)) if now - first < TICK => std::thread::yield_now(),
                _ => break now,
            }
        };
        let deadline_hit = job.deadline_at.is_some_and(|d| now >= d);
        let why = if deadline_hit {
            "deadline expired"
        } else if now.duration_since(r.started) > self.cfg.job_timeout {
            "wall-clock timeout"
        } else if now.duration_since(last_line) > self.cfg.heartbeat_timeout {
            "stale heartbeat"
        } else {
            return None;
        };
        Some(Fate::Kill { why, deadline_hit })
    }

    /// SIGKILLs every live worker, leaving their checkpoints on disk (a
    /// later attempt resumes from them). Used by `repro serve` on
    /// graceful drain when in-flight work cannot finish in time, and by
    /// `Drop` so an abandoned coordinator never leaks worker processes.
    pub fn kill_workers(&mut self) {
        for r in &mut self.running {
            let _ = r.child.kill();
            let _ = r.child.wait();
            let job = &mut self.jobs[r.job];
            job.in_flight = false;
            job.kills += 1;
        }
        self.running.clear();
    }

    /// Consumes the coordinator into its jobs.
    pub fn into_jobs(self) -> Vec<Job> {
        // `self` is moved; Drop must not double-kill. Take the running
        // set out first.
        let mut me = self;
        me.kill_workers();
        std::mem::take(&mut me.jobs)
    }
}

impl Drop for Coordinator {
    fn drop(&mut self) {
        self.kill_workers();
    }
}

/// Runs a campaign to completion. Every scheduling decision is logged to
/// stderr; the returned outcome carries the manifest and the per-job
/// output bytes in canonical order.
///
/// # Errors
///
/// Returns `Err` only for campaign-level misconfiguration (unknown
/// artifact names, unusable work directory, unspawnable worker binary).
/// Job-level trouble — worker deaths, hangs, corrupt cache entries,
/// deterministic job errors — is supervised and reported per job in the
/// manifest instead.
pub fn run(cfg: &CampaignConfig) -> Result<CampaignOutcome, String> {
    let mut requested = Vec::new();
    for name in &cfg.artifacts {
        let spec = ScenarioSpec::new(name, cfg.scale, &cfg.scale_name);
        spec.resolve().map_err(|e| e.to_string())?;
        requested.push(spec);
    }
    let mut coord = Coordinator::new(cfg.clone())?;
    // Canonical registry order; duplicates collapse (requests for the
    // same workload keep their relative request order, so a narrowed
    // `id@variant` job sorts with its workload).
    for w in crate::workload::all() {
        for spec in requested.iter().filter(|s| s.workload_id == w.id()) {
            coord.submit(JobSpec {
                scenario: spec.clone(),
                json: cfg.json,
                deadline: None,
            })?;
        }
    }
    // A worker's exit arrives as a message; the timeout is for what a
    // pass can only find by looking (silence, timeouts, back-offs).
    let (wake, woken) = std::sync::mpsc::channel();
    coord.set_waker(Arc::new(move || {
        let _ = wake.send(());
    }));
    loop {
        coord.poll()?;
        #[cfg(test)]
        tests::RUN_LOOP.with(|c| c.set((c.get().0 + 1, c.get().1)));
        if coord.all_done() {
            break;
        }
        let _ = woken.recv_timeout(TICK);
        #[cfg(test)]
        tests::RUN_LOOP.with(|c| c.set((c.get().0, c.get().1 + 1)));
    }

    let jobs = coord.into_jobs();
    let records: Vec<JobRecord> = jobs.iter().map(Job::record).collect();
    let manifest = Manifest {
        scale: cfg.scale_name.clone(),
        workers: cfg.workers,
        chaos_kill_every: cfg.chaos.map(|c| c.kill_every),
        seed: cfg.chaos.map(|c| c.seed).unwrap_or(0),
        jobs: records,
    };
    let manifest_path = cfg.work_dir.join("manifest.json");
    if let Err(e) = simt_sim::write_atomic(&manifest_path, manifest.to_json().as_bytes()) {
        eprintln!(
            "warning: campaign: cannot write {}: {e}",
            manifest_path.display()
        );
    } else {
        eprintln!("campaign: manifest written to {}", manifest_path.display());
    }
    let outputs = jobs.into_iter().map(Job::into_output).collect();
    Ok(CampaignOutcome { manifest, outputs })
}

/// Finishes a job from the result frame its worker sent, as its watcher
/// captured it. A frame that is missing, truncated, corrupt, or stamped
/// with the wrong identity is treated as a worker failure (the attempt is
/// retried); a frame carrying a job-level error finishes the job as
/// `Failed` without burning retries — the error is deterministic.
fn complete_from_frame(
    cfg: &CampaignConfig,
    counters: &mut ExecCounters,
    job: &mut Job,
    frame: Option<Vec<u8>>,
    ckpt_root: &std::path::Path,
) {
    let verdict = frame
        .ok_or_else(|| "sent no result frame".to_string())
        .and_then(|bytes| cache::open_result(&bytes));
    match verdict {
        Ok((meta, output))
            if meta.artifact == job.spec.name() && meta.fingerprint == job.fingerprint =>
        {
            if meta.ok {
                if let Err(e) =
                    cache::store(&cfg.cache_dir, job.spec.name(), job.fingerprint, &output)
                {
                    eprintln!(
                        "warning: campaign: {}: cache store failed: {e}",
                        job.spec.name()
                    );
                }
                let outcome = if job.attempts > 0 {
                    JobOutcome::Resumed(job.attempts)
                } else {
                    JobOutcome::Completed
                };
                eprintln!("campaign: {}: {}", job.spec.name(), outcome);
                job.done = Some((outcome, Some(output), None));
                counters.fresh_completions += 1;
            } else {
                eprintln!(
                    "campaign: {}: job-level error: {}",
                    job.spec.name(),
                    meta.error
                );
                job.done = Some((JobOutcome::Failed, None, Some(meta.error)));
            }
            let _ = std::fs::remove_dir_all(ckpt_root.join(&job.key));
        }
        Ok((meta, _)) => worker_died(
            cfg,
            counters,
            job,
            &format!(
                "result frame stamped {}/{:#018x}, expected {}/{:#018x}",
                meta.artifact,
                meta.fingerprint,
                job.spec.name(),
                job.fingerprint
            ),
            false,
        ),
        Err(e) => worker_died(cfg, counters, job, &format!("exited 0 but {e}"), false),
    }
}

/// Finishes a job whose deadline expired: no retry, typed outcome, the
/// checkpoint (if any) stays on disk so an idempotent resubmission with a
/// longer budget resumes instead of restarting.
fn expire_deadline(counters: &mut ExecCounters, job: &mut Job) {
    counters.deadline_kills += 1;
    job.kills += 1;
    let error = format!(
        "deadline expired after {} attempt(s); partial progress checkpointed",
        job.attempts + u32::from(job.in_flight)
    );
    eprintln!("campaign: {}: {error}", job.spec.name());
    job.done = Some((JobOutcome::DeadlineExceeded, None, Some(error)));
}

/// Consumes one attempt after a worker death/hang: reschedules with
/// exponential backoff under the retry budget, or finishes the job as
/// `GaveUp` — the campaign itself keeps going either way.
fn worker_died(
    cfg: &CampaignConfig,
    counters: &mut ExecCounters,
    job: &mut Job,
    reason: &str,
    timeout: bool,
) {
    job.kills += 1;
    if timeout {
        job.timeouts += 1;
    }
    job.attempts += 1;
    counters.retried_attempts += 1;
    job.last_failure = Some(reason.to_string());
    if job.attempts > cfg.max_retries {
        let error = format!(
            "gave up after {} attempt(s); last failure: {reason}",
            job.attempts
        );
        eprintln!("campaign: {}: {error}", job.spec.name());
        job.done = Some((JobOutcome::GaveUp, None, Some(error)));
        return;
    }
    let backoff = cfg
        .backoff_base
        .checked_mul(1u32.checked_shl(job.attempts - 1).unwrap_or(u32::MAX))
        .unwrap_or(BACKOFF_CAP)
        .min(BACKOFF_CAP);
    job.ready_at = Instant::now() + backoff;
    eprintln!(
        "campaign: {}: worker died ({reason}); retry {}/{} in {:?}",
        job.spec.name(),
        job.attempts,
        cfg.max_retries,
        backoff
    );
}

/// Spawns one worker attempt for `job`, wiring its checkpoint directory,
/// chaos plan, and test hooks, and starts the thread that reads its
/// report.
fn spawn_attempt(
    cfg: &CampaignConfig,
    job: &mut Job,
    idx: usize,
    ckpt_root: &std::path::Path,
    waker: Option<Waker>,
) -> Result<Running, String> {
    let ckpt_dir = ckpt_root.join(&job.key);
    if job.attempts > 0 {
        // A checkpoint left by the killed attempt means the retry resumes
        // mid-job instead of restarting from cycle 0.
        let has_ckpt = std::fs::read_dir(&ckpt_dir)
            .map(|mut d| d.next().is_some())
            .unwrap_or(false);
        if has_ckpt {
            job.resumed = true;
            eprintln!(
                "campaign: {}: attempt {} will resume from checkpoint",
                job.spec.name(),
                job.attempts + 1
            );
        }
    }
    let mut cmd = Command::new(&cfg.worker_exe);
    cmd.arg("__worker")
        .arg(job.spec.name())
        .arg("--worker-fingerprint")
        .arg(format!("{:016x}", job.fingerprint))
        .arg("--checkpoint-every")
        .arg(cfg.checkpoint_every.to_string())
        .arg("--checkpoint-dir")
        .arg(&ckpt_dir)
        .arg("--resume")
        .arg("--scale")
        .arg(&job.spec.scenario.scale_name)
        .args(&cfg.passthrough)
        .stdin(Stdio::null())
        // The worker's report, and how its exit is heard (see `watch`).
        .stdout(Stdio::piped());
    if job.spec.json && !cfg.passthrough.iter().any(|f| f == "--json") {
        cmd.arg("--json");
    }
    if let Some(chaos) = cfg.chaos {
        if let Some(after) = chaos.kill_plan(job.spec.name(), job.attempts, cfg.max_retries) {
            eprintln!(
                "campaign: {}: chaos will abort attempt {} after {after} checkpoint write(s)",
                job.spec.name(),
                job.attempts + 1
            );
            cmd.arg("--kill-after-checkpoints")
                .arg(after.to_string())
                .arg("--chaos-abort");
        }
    }
    if cfg.test_fail_job.as_deref() == Some(job.spec.name()) {
        cmd.arg("--worker-test-fail");
    }
    if cfg.test_hang_job.as_deref() == Some(job.spec.name()) && job.attempts == 0 {
        cmd.arg("--worker-test-hang");
    }
    let mut child = cmd.spawn().map_err(|e| {
        format!(
            "cannot spawn worker {} for {}: {e}",
            cfg.worker_exe.display(),
            job.spec.name()
        )
    })?;
    eprintln!(
        "campaign: {}: attempt {} started (worker pid {}, slot {idx})",
        job.spec.name(),
        job.attempts + 1,
        child.id()
    );
    let heard = Arc::default();
    let stdout = child.stdout.take().expect("stdout is piped");
    if let Err(e) = watch(job.spec.name(), stdout, Arc::clone(&heard), waker) {
        // Its frame would have no reader: the attempt is a dead worker,
        // found by the next pass and retried like any other.
        eprintln!(
            "warning: campaign: {}: no watcher ({e}); killing it",
            job.spec.name()
        );
        let _ = child.kill();
        lock(&heard).closed = Some(Instant::now());
    }
    Ok(Running {
        child,
        job: idx,
        started: Instant::now(),
        exited: None,
        heard,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    thread_local! {
        /// `(passes, waits)` of the [`run`] loop on this thread.
        pub(super) static RUN_LOOP: std::cell::Cell<(u32, u32)> =
            const { std::cell::Cell::new((0, 0)) };
    }

    #[test]
    fn run_returns_from_the_pass_that_finished_the_last_job() {
        // `true` stands in for the worker: it exits 0 having sent no
        // result frame, which with no retries left finishes the job as
        // GaveUp in the pass that reaps it.
        let dir = std::env::temp_dir().join(format!("coord-run-{}", std::process::id()));
        let mut cfg = CampaignConfig::new(Scale::test(), "test");
        cfg.cache_dir = dir.join("cache");
        cfg.work_dir = dir.clone();
        cfg.worker_exe = PathBuf::from("true");
        cfg.artifacts = vec!["table1".to_string()];
        cfg.workers = 1;
        cfg.max_retries = 0;
        let outcome = run(&cfg).expect("campaign runs");
        assert_eq!(outcome.manifest.gave_up(), 1);
        let (passes, waits) = RUN_LOOP.with(std::cell::Cell::get);
        assert!(passes >= 2, "one pass spawns, a later one reaps");
        assert_eq!(waits, passes - 1, "no wait follows the last pass");
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Runs a one-job `table1` campaign under `dir` whose every worker is
    /// a shell script that sends a `frame` line and then `frame` on its
    /// stdout, as a real worker does, and exits 0.
    fn run_with_frame(dir: &std::path::Path, frame: &[u8], max_retries: u32) -> CampaignOutcome {
        use std::os::unix::fs::PermissionsExt;
        let _ = std::fs::remove_dir_all(dir);
        std::fs::create_dir_all(dir).expect("temp dir");
        let sealed = dir.join("sealed");
        std::fs::write(&sealed, frame).expect("frame written");
        let worker = dir.join("worker.sh");
        let script = format!("#!/bin/sh\necho frame\ncat '{}'\n", sealed.display());
        std::fs::write(&worker, script).expect("worker written");
        std::fs::set_permissions(&worker, std::fs::Permissions::from_mode(0o755))
            .expect("worker executable");
        let mut cfg = CampaignConfig::new(Scale::test(), "test");
        cfg.cache_dir = dir.join("cache");
        cfg.work_dir = dir.to_path_buf();
        cfg.worker_exe = worker;
        cfg.artifacts = vec!["table1".to_string()];
        cfg.workers = 1;
        cfg.max_retries = max_retries;
        cfg.backoff_base = Duration::from_millis(1);
        run(&cfg).expect("campaign runs")
    }

    /// `table1`'s result meta at test scale, in text mode.
    fn table1_meta(ok: bool, error: &str) -> cache::ResultMeta {
        cache::ResultMeta {
            artifact: "table1".to_string(),
            fingerprint: job_fingerprint("table1", Scale::test(), false),
            ok,
            error: error.to_string(),
        }
    }

    #[test]
    fn a_job_level_error_fails_the_job_with_no_retry_and_nothing_cached() {
        // The worker sends a frame carrying a run's job-level error, as a
        // render that faulted does: the job ends Failed on its first
        // attempt, and the cache stays empty.
        let dir = std::env::temp_dir().join(format!("coord-failed-{}", std::process::id()));
        let meta = table1_meta(false, "table1: fault at cycle 3");
        let outcome = run_with_frame(&dir, &cache::seal_result(&meta, &[]), 3);
        let record = &outcome.manifest.jobs[0];
        assert_eq!(record.outcome, JobOutcome::Failed);
        assert_eq!((record.attempts, record.kills), (0, 0), "no retry");
        assert_eq!(record.error.as_deref(), Some("table1: fault at cycle 3"));
        assert!(matches!(
            cache::probe(&dir.join("cache"), "table1", meta.fingerprint),
            cache::Probe::Miss
        ));
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A worker that exits 0 with a frame `open_result` refuses, or one
    /// stamped for another job, is a dead worker: each attempt is retried,
    /// the job gives up, and nothing reaches the cache.
    #[test]
    fn a_truncated_or_foreign_frame_is_retried_and_never_cached() {
        let good = table1_meta(true, "");
        let sealed = cache::seal_result(&good, b"table1 bytes\n");
        let mut foreign = good.clone();
        foreign.fingerprint ^= 1;
        let cases = [
            (
                "truncated",
                sealed[..sealed.len() - 3].to_vec(),
                "unusable result frame",
            ),
            (
                "foreign",
                cache::seal_result(&foreign, b"table1 bytes\n"),
                "result frame stamped",
            ),
        ];
        for (tag, frame, why) in cases {
            let dir = std::env::temp_dir().join(format!("coord-{tag}-{}", std::process::id()));
            let outcome = run_with_frame(&dir, &frame, 1);
            let record = &outcome.manifest.jobs[0];
            assert_eq!(record.outcome, JobOutcome::GaveUp, "{tag}");
            assert_eq!(
                (record.attempts, record.kills),
                (2, 2),
                "{tag}: retried once"
            );
            let error = record.error.as_deref().unwrap_or("");
            assert!(error.contains(why), "{tag}: {error}");
            assert!(
                matches!(
                    cache::probe(&dir.join("cache"), "table1", good.fingerprint),
                    cache::Probe::Miss
                ),
                "{tag}"
            );
            let _ = std::fs::remove_dir_all(&dir);
        }
    }

    /// The declared codec and merge of [`ExecCounters`], over 1000 seeded
    /// draws of bytes with every high bit clear (so two never overflow a
    /// sum): restore of encode is the identity, a merge sums field by
    /// field, and a truncated payload is a typed error.
    #[test]
    fn exec_counters_roundtrip_and_merge_field_by_field() {
        use simt_isa::codec::{CodecError, Decoder, Encoder};
        let decode = |bytes: &[u8]| {
            let mut c = ExecCounters::default();
            c.restore_state(&mut Decoder::new(bytes)).map(|()| c)
        };
        let encode = |c: &ExecCounters| {
            let mut enc = Encoder::new();
            c.encode_state(&mut enc);
            enc.into_bytes()
        };
        let mut state = 0x9e37_79b9_7f4a_7c15u64;
        let mut draw = || -> Vec<u8> {
            (0..ExecCounters::ENCODED_BYTES)
                .map(|_| {
                    state ^= state << 13;
                    state ^= state >> 7;
                    state ^= state << 17;
                    (state & 0x7f) as u8
                })
                .collect()
        };
        for _ in 0..1000 {
            let (a, b) = (draw(), draw());
            let (x, y) = (decode(&a).unwrap(), decode(&b).unwrap());
            assert_eq!(encode(&x), a);
            let mut m = x;
            m.merge(&y);
            for ((s, p), q) in m.values().into_iter().zip(x.values()).zip(y.values()) {
                assert_eq!(s, p + q);
            }
            assert_eq!(decode(&encode(&m)).unwrap(), m);
            assert!(matches!(
                decode(&a[..a.len() - 1]),
                Err(CodecError::UnexpectedEof { .. })
            ));
        }
    }

    #[test]
    fn job_fingerprint_keys_on_artifact_scale_and_mode() {
        let base = job_fingerprint("fig3", Scale::test(), false);
        assert_eq!(base, job_fingerprint("fig3", Scale::test(), false));
        assert_ne!(base, job_fingerprint("fig7", Scale::test(), false));
        assert_ne!(base, job_fingerprint("fig3", Scale::quick(), false));
        assert_ne!(base, job_fingerprint("fig3", Scale::test(), true));
    }

    #[test]
    fn rendered_artifacts_match_known_set() {
        // Every canonical artifact renders (at the cheapest scale the
        // static ones allow); unknown names are rejected.
        assert!(render_artifact("table1", Scale::test(), false)
            .expect("known")
            .is_ok());
        assert!(render_artifact("nope", Scale::test(), false).is_none());
        let json = render_artifact("table1", Scale::test(), true)
            .expect("known")
            .expect("renders");
        assert!(json.starts_with("{\"artifact\":\"table1\""));
        assert!(json.ends_with("\"}\n"));
    }

    #[test]
    fn unknown_artifact_fails_fast() {
        let dir = std::env::temp_dir().join(format!("coord-unknown-{}", std::process::id()));
        let mut cfg = CampaignConfig::new(Scale::test(), "test");
        cfg.cache_dir = dir.join("cache");
        cfg.work_dir = dir.clone();
        cfg.artifacts = vec!["bogus".to_string()];
        assert!(run(&cfg).is_err());
        let mut coord = Coordinator::new(cfg).expect("engine builds");
        assert!(coord
            .submit(JobSpec::new("bogus", Scale::test(), "test", false))
            .is_err());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn abandoned_job_degrades_to_failed_record_instead_of_panicking() {
        // Satellite of PR 8: a job that never reaches a terminal state
        // must produce a typed Failed record, not an expect() abort.
        let dir = std::env::temp_dir().join(format!("coord-test-{}", std::process::id()));
        let mut cfg = CampaignConfig::new(Scale::test(), "test");
        cfg.cache_dir = dir.join("cache");
        cfg.work_dir = dir.clone();
        let mut coord = Coordinator::new(cfg).expect("engine builds");
        let idx = coord
            .submit(JobSpec::new("table3", Scale::test(), "test", false))
            .expect("submits");
        // Never polled: the job is still queued.
        let rec = coord.job(idx).expect("job exists").record();
        assert_eq!(rec.outcome, JobOutcome::Failed);
        assert!(rec.error.as_deref().unwrap_or("").contains("non-terminal"));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn resubmitting_an_unfinished_fingerprint_attaches() {
        let dir = std::env::temp_dir().join(format!("coord-dedup-{}", std::process::id()));
        let mut cfg = CampaignConfig::new(Scale::test(), "test");
        cfg.cache_dir = dir.join("cache");
        cfg.work_dir = dir.clone();
        let mut coord = Coordinator::new(cfg).expect("engine builds");
        let a = coord
            .submit(JobSpec::new("table3", Scale::test(), "test", false))
            .expect("submits");
        let b = coord
            .submit(JobSpec::new("table3", Scale::test(), "test", false))
            .expect("submits");
        assert_eq!(a, b, "identical in-flight work is deduplicated");
        let c = coord
            .submit(JobSpec::new("fig3", Scale::test(), "test", false))
            .expect("submits");
        assert_ne!(a, c);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
