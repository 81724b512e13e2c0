//! `repro serve` — a crash-tolerant job-queue front door for the
//! campaign execution engine (`DESIGN.md` §14).
//!
//! The service accepts render/experiment requests over a hand-rolled
//! HTTP/1.1 layer ([`http`], loopback `TcpListener`, no new deps) and —
//! for headless use — a filesystem job-drop directory
//! (`<serve_dir>/drop/*.json`, same JSON body as `POST /jobs`). A
//! request names an artifact, scale, output mode, and optional deadline;
//! it passes through [`admission`] control (bounded queue +
//! token-bucket rate limit, typed 429 sheds with retry-after hints), is
//! made durable in the write-ahead [`journal`] *before* the 202
//! acknowledgment, and is then submitted to the shared
//! [`crate::campaign::Coordinator`] — which dedups it against the
//! content-addressed result cache by job fingerprint (a warm hit
//! completes instantly), fans cold work across supervised worker
//! processes, and enforces the deadline by SIGKILL.
//!
//! Robustness model:
//!
//! - **Crash**: `kill -9` (or the seeded chaos abort) loses nothing
//!   acknowledged — on restart the journal replays every
//!   accepted-but-unfinished request in admission order, warm results
//!   come straight from the cache, and interrupted jobs resume from
//!   their checkpoints. Workers orphaned by the crash are harmless:
//!   result frames and checkpoints are written atomically and the
//!   simulation is deterministic, so an orphan and its replacement can
//!   only ever write identical bytes.
//! - **Drain**: `POST /drain` (or a `drain` sentinel file in the drop
//!   directory) stops admission — new submissions shed typed
//!   `draining` responses — finishes or checkpoints in-flight work,
//!   writes a final manifest, and exits 0. This is the graceful-stop
//!   path; the experiments crate forbids `unsafe` and links no libc, so
//!   a SIGTERM handler is deliberately out of reach — and unnecessary,
//!   because the crash path above already covers abrupt termination.
//! - **Chaos**: `--chaos-crash-every K --seed S` arms
//!   [`Chaos::server_crash_plan`] — a deterministic schedule that
//!   aborts whole server incarnations after 1–3 *freshly computed*
//!   completions. Cache hits never count toward the crash point, so a
//!   crashing incarnation always banks new work first and a restart
//!   loop provably converges to byte-identical artifacts.
//!
//! `/healthz` reports queue depth, shed counts by reason, worker
//! liveness, journal lag, the engine's degradation counters
//! (quarantines, retries, SIGKILLs), and per-route request counts and
//! handler time; `/readyz` flips unready the moment
//! draining starts. Long-poll job status (`GET /jobs/<id>?wait_ms=N`)
//! carries the worker's latest `ProgressPulse`.
//!
//! No request waits on a timer: the accept thread blocks in `accept()`
//! (and is woken for shutdown by one loopback connect), the pump parks
//! on a condvar that admission, drain and a worker's exit signal (the
//! last through the coordinator's [`crate::campaign::Waker`]), and a
//! job's identity is computed from constants before the server-wide lock
//! is taken. Nor
//! does a short one wait on a thread: the accept thread answers what is
//! whole and will not park, and only the rest — slow peers, long-polls —
//! gets a thread of its own ([`handlers::serve`]).

pub mod admission;
pub mod client;
pub mod handlers;
pub mod http;
pub mod journal;
pub mod json;

use crate::campaign::chaos::Chaos;
use crate::campaign::manifest::Manifest;
use crate::campaign::{Coordinator, ExecConfig, Job, JobSpec};
use crate::runner::Scale;
use admission::{ShedCounters, ShedReason, TokenBucket};
use journal::{Journal, JournalEntry};
use std::collections::HashMap;
use std::io::ErrorKind;
use std::net::{IpAddr, Ipv4Addr, Ipv6Addr, SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

/// Longest the pump parks between passes: the bound on noticing what it
/// can only learn by looking — a file in the drop directory, a stale
/// heartbeat, a wall-clock or deadline expiry, a back-off run out.
/// Admission, drain and a worker's exit wake it at once.
const PUMP_TICK: Duration = Duration::from_millis(10);

/// How long the accept thread stays away from `accept()` after it failed
/// for want of a descriptor or a buffer, which an immediate retry would
/// only fail on again.
const ACCEPT_BACKOFF: Duration = Duration::from_millis(50);

/// Serve configuration, built by the `repro serve` argument parser.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Bind address (`127.0.0.1:0` = loopback, ephemeral port; the
    /// resolved address is written to `<serve_dir>/endpoint`).
    pub bind: String,
    /// Service state directory: journal, drop-dir ingress, endpoint
    /// file, incarnation counter, final manifest.
    pub serve_dir: PathBuf,
    /// Worker-supervision configuration for the backing coordinator.
    pub exec: ExecConfig,
    /// Default scale for requests that don't name one.
    pub default_scale: Scale,
    /// Name of the default scale.
    pub default_scale_name: String,
    /// Bounded-queue capacity: accepted-but-not-terminal jobs never
    /// exceed this; excess submissions shed `queue-full`.
    pub queue_capacity: usize,
    /// Token-bucket refill rate (requests/second; 0 disables).
    pub rate_per_sec: u64,
    /// Token-bucket burst capacity.
    pub burst: u64,
    /// Service-level chaos: seeded schedule of whole-incarnation
    /// crashes.
    pub server_chaos: Option<Chaos>,
}

/// Status of one submitted job as the API reports it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobState {
    /// Admitted, waiting for a worker slot.
    Queued,
    /// Executing in a worker process.
    Running,
    /// Terminal (completed, cached, failed, gave up, or
    /// deadline-exceeded).
    Done,
}

impl JobState {
    /// Stable tag for status JSON.
    pub fn tag(&self) -> &'static str {
        match self {
            JobState::Queued => "queued",
            JobState::Running => "running",
            JobState::Done => "done",
        }
    }

    /// Classifies a coordinator job.
    pub fn of(job: &Job) -> JobState {
        if job.is_done() {
            JobState::Done
        } else if job.is_running() {
            JobState::Running
        } else {
            JobState::Queued
        }
    }
}

/// Mutable server state behind the lock.
pub struct Inner {
    /// The job-execution engine.
    pub coord: Coordinator,
    /// Write-ahead journal.
    pub journal: Journal,
    /// Journal entries not yet retired, by fingerprint.
    pub pending: HashMap<u64, JournalEntry>,
    /// Admission rate limiter.
    pub bucket: TokenBucket,
    /// Shed counters by reason.
    pub sheds: ShedCounters,
    /// True once draining started (no new admissions).
    pub draining: bool,
    /// True once the accept loop should exit.
    pub stop: bool,
    /// This server incarnation (0-based boot count).
    pub incarnation: u64,
    /// Requests admitted (journaled + acked) this incarnation.
    pub admitted: u64,
    /// Set with [`Shared::pump`] signaled: the pump has work and must not
    /// park before its next pass.
    pub pump_due: bool,
}

/// Traffic of one route since boot: requests handled and the time their
/// handlers took, from parsed request to response body (socket reads and
/// writes excluded; a long-poll's parked time included).
#[derive(Debug, Default)]
pub struct RouteStat {
    requests: AtomicU64,
    handler_us: AtomicU64,
}

impl RouteStat {
    /// Runs one request's handler, counting it and its duration — unless
    /// it declines (`None`: nothing done, the request comes round again).
    pub fn timed<T>(&self, handler: impl FnOnce() -> Option<T>) -> Option<T> {
        let start = Instant::now();
        let out = handler()?;
        // Statistics only: nothing is published through these.
        self.requests.fetch_add(1, Ordering::Relaxed);
        self.handler_us
            .fetch_add(start.elapsed().as_micros() as u64, Ordering::Relaxed);
        Some(out)
    }

    /// `(requests, cumulative handler microseconds)`.
    pub fn read(&self) -> (u64, u64) {
        (
            self.requests.load(Ordering::Relaxed),
            self.handler_us.load(Ordering::Relaxed),
        )
    }
}

/// [`RouteStat`]s of the three routes a job's round trip takes.
#[derive(Debug, Default)]
pub struct RouteStats {
    /// `POST /jobs`.
    pub post_jobs: RouteStat,
    /// `GET /jobs/<id>`.
    pub get_status: RouteStat,
    /// `GET /jobs/<id>/output`.
    pub get_output: RouteStat,
}

/// State shared between the pump loop, the accept loop, and connection
/// handler threads.
pub struct Shared {
    /// Immutable configuration.
    pub cfg: ServeConfig,
    /// Lock-protected state.
    pub inner: Mutex<Inner>,
    /// Signaled whenever a job reaches a terminal state (long-poll
    /// wake-up) and on drain.
    pub cv: Condvar,
    /// Signaled, with [`Inner::pump_due`] set, when the pump has work
    /// that should not wait out `PUMP_TICK`: a cold job admitted, a
    /// worker exited, a drain begun.
    pub pump: Condvar,
    /// Per-route traffic, reported by `/healthz`.
    pub routes: RouteStats,
}

impl Shared {
    /// Locks the state, recovering from poison (a panicking handler
    /// thread must not wedge the server; the state has no cross-call
    /// invariants a panic could tear).
    pub fn lock(&self) -> std::sync::MutexGuard<'_, Inner> {
        self.inner
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    /// Has the pump run a pass now instead of at its next tick.
    fn wake_pump(&self, inner: &mut Inner) {
        inner.pump_due = true;
        self.pump.notify_one();
    }

    /// Stops admission and starts the graceful drain.
    pub fn begin_drain(&self) {
        let mut inner = self.lock();
        inner.draining = true;
        self.wake_pump(&mut inner);
        self.cv.notify_all();
    }
}

/// Outcome of one admission attempt.
pub enum Admission {
    /// Journaled and submitted; the job id is the fingerprint.
    Accepted {
        /// Public job id (fingerprint).
        fingerprint: u64,
        /// True when the result was already cached (done immediately).
        warm: bool,
    },
    /// Shed with a typed reason and a retry hint.
    Shed {
        /// Why.
        reason: ShedReason,
        /// Hint for the client's next attempt.
        retry_after_ms: u64,
    },
    /// Malformed or unknown-artifact request.
    Rejected(String),
}

/// Runs full admission control for one parsed request. Order matters:
/// validation first (a garbage request never consumes a token), then
/// draining, rate limit, queue bound, then the durable journal append,
/// then coordinator submission — the 202 is only earned once the entry
/// is journaled. The fingerprint reads no server state, so it is
/// computed before the server-wide lock is taken.
pub fn admit(shared: &Shared, spec: JobSpec, now: Instant) -> Admission {
    if let Err(e) = spec.scenario.resolve() {
        return Admission::Rejected(e.to_string());
    }
    let fingerprint = spec.fingerprint();
    let mut inner = shared.lock();
    if inner.draining {
        inner.sheds.count(ShedReason::Draining);
        return Admission::Shed {
            reason: ShedReason::Draining,
            retry_after_ms: 0,
        };
    }
    if let Err(wait) = inner.bucket.take(now) {
        inner.sheds.count(ShedReason::RateLimited);
        return Admission::Shed {
            reason: ShedReason::RateLimited,
            retry_after_ms: (wait.as_millis() as u64).max(1),
        };
    }
    // An identical job already admitted (or already terminal) is free:
    // idempotent by fingerprint, no new queue slot, no new journal entry.
    let attached = inner
        .coord
        .job_by_fingerprint(fingerprint)
        .map(Job::is_done);
    if let Some(done) = attached {
        return Admission::Accepted {
            fingerprint,
            warm: done,
        };
    }
    if inner.coord.backlog() >= shared.cfg.queue_capacity {
        inner.sheds.count(ShedReason::QueueFull);
        return Admission::Shed {
            reason: ShedReason::QueueFull,
            retry_after_ms: 250,
        };
    }
    let deadline_ms = spec.deadline.map(|d| d.as_millis() as u64).unwrap_or(0);
    let entry = match inner.journal.append(
        spec.name(),
        &spec.scenario.scale_name,
        spec.json,
        deadline_ms,
        fingerprint,
    ) {
        Ok(entry) => entry,
        Err(e) => return Admission::Rejected(format!("journal unavailable: {e}")),
    };
    inner.pending.insert(fingerprint, entry);
    match inner.coord.submit(spec) {
        Ok(idx) => {
            inner.admitted += 1;
            let warm = inner.coord.jobs()[idx].is_done();
            if warm {
                shared.cv.notify_all();
            } else {
                // A worker slot may be free: start the job now.
                shared.wake_pump(&mut inner);
            }
            Admission::Accepted { fingerprint, warm }
        }
        Err(e) => {
            // Unreachable after the registry check above, but never
            // leave a journaled ghost behind.
            if let Some(entry) = inner.pending.remove(&fingerprint) {
                inner.journal.retire(&entry);
            }
            Admission::Rejected(e)
        }
    }
}

/// Builds a [`JobSpec`] from a parsed request body, applying server
/// defaults.
///
/// # Errors
///
/// Unknown fields are ignored; a missing artifact, an unknown scale
/// name, or a non-positive deadline is an error string for a 400.
pub fn spec_from_request(
    cfg: &ServeConfig,
    body: &std::collections::BTreeMap<String, json::Value>,
) -> Result<JobSpec, String> {
    let artifact = json::get_str(body, "artifact").ok_or("missing \"artifact\"")?;
    let (scale, scale_name) = match json::get_str(body, "scale") {
        None => (cfg.default_scale, cfg.default_scale_name.clone()),
        Some(name) => (
            Scale::parse(name).ok_or_else(|| format!("unknown scale: {name}"))?,
            name.to_string(),
        ),
    };
    let deadline = match json::get_num(body, "deadline_ms") {
        None | Some(0) => None,
        Some(ms) if ms > 0 => Some(Duration::from_millis(ms as u64)),
        Some(ms) => return Err(format!("bad deadline_ms: {ms}")),
    };
    let mut spec = JobSpec::new(
        artifact,
        scale,
        &scale_name,
        json::get_bool(body, "json").unwrap_or(false),
    );
    spec.deadline = deadline;
    Ok(spec)
}

/// Replaces a per-boot file through a `.tmp` sibling and a rename, so a
/// reader sees the old contents or the new, never a torn file — without
/// [`simt_sim::write_atomic`]'s `fsync`s. Only for what every boot
/// rewrites: the endpoint names a port that dies with the process, and
/// the incarnation only keys the chaos schedule, which a `kill -9` (the
/// crash that schedule stages) cannot lose from the page cache.
fn write_per_boot(path: &std::path::Path, bytes: &[u8]) -> std::io::Result<()> {
    let mut tmp = path.as_os_str().to_owned();
    tmp.push(".tmp");
    std::fs::write(&tmp, bytes)?;
    std::fs::rename(&tmp, path)
}

/// Reads, bumps, and persists the incarnation counter. Returns the
/// 0-based incarnation this boot runs as.
fn bump_incarnation(dir: &std::path::Path) -> u64 {
    let path = dir.join("incarnation");
    let current = std::fs::read_to_string(&path)
        .ok()
        .and_then(|s| s.trim().parse::<u64>().ok())
        .unwrap_or(0);
    let _ = write_per_boot(&path, format!("{}\n", current + 1).as_bytes());
    current
}

/// Runs the server until drain completes. Binds and advertises its
/// endpoint, replays the journal, starts the accept loop, and pumps the
/// coordinator; on `--chaos-crash-every` schedules the process may abort
/// mid-stream (the restart loop around it is the test harness's job).
///
/// # Errors
///
/// Bind/journal/work-dir misconfiguration only; everything job-level is
/// supervised and reported per job.
pub fn run(cfg: ServeConfig) -> Result<(), String> {
    std::fs::create_dir_all(&cfg.serve_dir)
        .map_err(|e| format!("cannot create {}: {e}", cfg.serve_dir.display()))?;
    // Bound and advertised before anything else, so a client finds the
    // endpoint while the journal is still being opened. A connection made
    // that early waits in the backlog: the accept loop, and with it
    // `/readyz`, starts only after replay.
    let listener = TcpListener::bind(&cfg.bind).map_err(|e| format!("bind {}: {e}", cfg.bind))?;
    let addr = listener
        .local_addr()
        .map_err(|e| format!("local_addr: {e}"))?;
    write_per_boot(
        &cfg.serve_dir.join("endpoint"),
        format!("{addr}\n").as_bytes(),
    )
    .map_err(|e| format!("cannot write endpoint file: {e}"))?;
    let drop_dir = cfg.serve_dir.join("drop");
    std::fs::create_dir_all(&drop_dir)
        .map_err(|e| format!("cannot create {}: {e}", drop_dir.display()))?;
    let incarnation = bump_incarnation(&cfg.serve_dir);
    let crash_plan = cfg
        .server_chaos
        .and_then(|c| c.server_crash_plan(incarnation));
    if let Some(after) = crash_plan {
        eprintln!(
            "serve: chaos: incarnation {incarnation} will abort after {after} fresh completion(s)"
        );
    }

    let coord = Coordinator::new(cfg.exec.clone())?;
    let (journal, replay) = Journal::open(&cfg.serve_dir.join("journal"))?;
    eprintln!(
        "serve: incarnation {incarnation} listening on {addr} (queue capacity {}, rate {}/s burst {}, {} journaled job(s) to replay)",
        cfg.queue_capacity,
        cfg.rate_per_sec,
        cfg.burst,
        replay.len()
    );

    let now = Instant::now();
    let shared = Arc::new(Shared {
        inner: Mutex::new(Inner {
            coord,
            journal,
            pending: HashMap::new(),
            bucket: TokenBucket::new(cfg.rate_per_sec, cfg.burst, now),
            sheds: ShedCounters::default(),
            draining: false,
            stop: false,
            incarnation,
            admitted: 0,
            pump_due: false,
        }),
        cv: Condvar::new(),
        pump: Condvar::new(),
        routes: RouteStats::default(),
        cfg,
    });

    // A worker's exit wakes the pump. Weak: a watcher thread must not
    // keep a server that is going away alive.
    let waking = Arc::downgrade(&shared);
    shared.lock().coord.set_waker(Arc::new(move || {
        if let Some(shared) = waking.upgrade() {
            shared.wake_pump(&mut shared.lock());
        }
    }));

    // Replay journaled requests in admission order. Replay bypasses
    // admission control (they were already admitted — shedding them now
    // would break the "202 survives a crash" contract) and restarts any
    // deadline budget from now.
    {
        let mut inner = shared.lock();
        for entry in replay {
            let Some(scale) = Scale::parse(&entry.scale_name) else {
                eprintln!(
                    "serve: journal: entry {} names unknown scale {}; quarantining",
                    entry.seq, entry.scale_name
                );
                inner.journal.retire(&entry);
                continue;
            };
            let mut spec = JobSpec::new(&entry.artifact, scale, &entry.scale_name, entry.json);
            if entry.deadline_ms > 0 {
                spec.deadline = Some(Duration::from_millis(entry.deadline_ms));
            }
            match inner.coord.submit(spec) {
                Ok(_) => {
                    inner.pending.insert(entry.fingerprint, entry);
                }
                Err(e) => {
                    eprintln!(
                        "serve: journal: entry {} ({}) rejected on replay ({e}); retiring",
                        entry.seq, entry.artifact
                    );
                    inner.journal.retire(&entry);
                }
            }
        }
    }

    // Accept loop: blocks in `accept()` and answers each connection
    // itself, or on a thread of its own when answering could hold the
    // next one up (`handlers::serve`). It ends on the first connection it
    // accepts after `stop` is set — the one `run` makes below.
    let accept_shared = Arc::clone(&shared);
    let accept_thread = std::thread::spawn(move || loop {
        match listener.accept() {
            Ok((stream, _)) => {
                if accept_shared.lock().stop {
                    return;
                }
                handlers::serve(&accept_shared, stream);
            }
            // The peer gave up during the handshake, or a signal arrived:
            // the next client in the backlog is unaffected.
            Err(e)
                if matches!(
                    e.kind(),
                    ErrorKind::ConnectionAborted | ErrorKind::Interrupted
                ) => {}
            // Out of descriptors or buffers. The connection stays in the
            // backlog and `accept()` would fail on it again at once, so
            // park — where a finished job or the stop flag still reaches
            // this thread — and retry.
            Err(e) => {
                eprintln!("serve: accept: {e}");
                let inner = accept_shared.lock();
                if inner.stop {
                    return;
                }
                drop(
                    accept_shared
                        .cv
                        .wait_timeout(inner, ACCEPT_BACKOFF)
                        .unwrap_or_else(std::sync::PoisonError::into_inner),
                );
            }
        }
    });

    // Pump loop: drive the coordinator, retire journal entries for
    // terminal jobs, honor the chaos crash plan, ingest the drop
    // directory, and complete drains.
    loop {
        {
            let mut inner = shared.lock();
            inner.pump_due = false;
            let finished = inner.coord.poll()?;
            // Retire journal entries whose jobs reached a terminal state
            // (their results are banked in the cache or recorded as typed
            // failures).
            let terminal: Vec<u64> = inner
                .pending
                .keys()
                .copied()
                .filter(|fp| {
                    inner
                        .coord
                        .job_by_fingerprint(*fp)
                        .is_some_and(Job::is_done)
                })
                .collect();
            for fp in terminal {
                if let Some(entry) = inner.pending.remove(&fp) {
                    inner.journal.retire(&entry);
                }
            }
            if finished > 0 {
                shared.cv.notify_all();
            }
            if let Some(after) = crash_plan {
                if u64::from(inner.coord.counters().fresh_completions) >= after {
                    eprintln!(
                        "serve: chaos: aborting incarnation {} after {} fresh completion(s)",
                        inner.incarnation,
                        inner.coord.counters().fresh_completions
                    );
                    // A real crash: no drain, no worker cleanup, no
                    // destructors — the journal and cache are the only
                    // survivors, which is the point.
                    std::process::abort();
                }
            }
            if inner.draining && inner.coord.all_done() {
                inner.stop = true;
                shared.cv.notify_all();
                write_final_manifest(&shared.cfg, &inner);
                break;
            }
        }
        ingest_drop_dir(&shared, &drop_dir);
        let inner = shared.lock();
        if !inner.pump_due {
            drop(
                shared
                    .pump
                    .wait_timeout(inner, PUMP_TICK)
                    .unwrap_or_else(std::sync::PoisonError::into_inner),
            );
        }
    }
    // The accept thread is blocked in `accept()`: hand it one connection
    // to see `stop` by. (A client's connection may have got there first,
    // in which case the thread is gone and the listener with it.) If it
    // cannot be woken it cannot be joined either; the process is about
    // to exit and takes it along.
    match TcpStream::connect_timeout(&loopback(addr), Duration::from_secs(1)) {
        Err(e) if !accept_thread.is_finished() => {
            eprintln!("warning: serve: cannot wake the accept thread: {e}");
        }
        _ => accept_thread
            .join()
            .map_err(|_| "accept thread panicked".to_string())?,
    }
    eprintln!("serve: drained; exiting");
    Ok(())
}

/// The address to reach a listener bound to `bound` from this host: a
/// wildcard bind (`0.0.0.0`, `::`) is not a destination, loopback is.
fn loopback(bound: SocketAddr) -> SocketAddr {
    let ip = match bound.ip() {
        IpAddr::V4(ip) if ip.is_unspecified() => IpAddr::V4(Ipv4Addr::LOCALHOST),
        IpAddr::V6(ip) if ip.is_unspecified() => IpAddr::V6(Ipv6Addr::LOCALHOST),
        ip => ip,
    };
    SocketAddr::new(ip, bound.port())
}

/// Writes the end-of-drain manifest (same format as a batch campaign's).
fn write_final_manifest(cfg: &ServeConfig, inner: &Inner) {
    let manifest = Manifest {
        scale: "serve".to_string(),
        workers: cfg.exec.workers,
        chaos_kill_every: cfg.exec.chaos.map(|c| c.kill_every),
        seed: cfg.exec.chaos.map(|c| c.seed).unwrap_or(0),
        jobs: inner.coord.jobs().iter().map(Job::record).collect(),
    };
    let path = cfg.serve_dir.join("manifest.json");
    match simt_sim::write_atomic(&path, manifest.to_json().as_bytes()) {
        Ok(()) => eprintln!("serve: final manifest written to {}", path.display()),
        Err(e) => eprintln!("warning: serve: cannot write {}: {e}", path.display()),
    }
    eprintln!("{manifest}");
}

/// Scans the drop directory once: `<name>.json` files are admitted like
/// `POST /jobs` bodies (the response JSON is written to `<name>.resp`
/// and the request file removed); a file named `drain` triggers
/// graceful drain.
fn ingest_drop_dir(shared: &Shared, drop_dir: &std::path::Path) {
    let Ok(listing) = std::fs::read_dir(drop_dir) else {
        return;
    };
    for item in listing.flatten() {
        let path = item.path();
        if path.file_name().and_then(|n| n.to_str()) == Some("drain") {
            let _ = std::fs::remove_file(&path);
            eprintln!("serve: drain requested via drop directory");
            shared.begin_drain();
            continue;
        }
        if path.extension().and_then(|e| e.to_str()) != Some("json") {
            continue;
        }
        let body = match std::fs::read_to_string(&path) {
            Ok(b) => b,
            Err(_) => continue, // racing a partial write; next scan gets it
        };
        let response = match json::parse_flat(&body)
            .and_then(|map| spec_from_request(&shared.cfg, &map))
        {
            Ok(spec) => match admit(shared, spec, Instant::now()) {
                Admission::Accepted { fingerprint, warm } => format!(
                    "{{\"accepted\": true, \"job\": \"{fingerprint:016x}\", \"warm\": {warm}}}\n"
                ),
                Admission::Shed {
                    reason,
                    retry_after_ms,
                } => format!(
                    "{{\"accepted\": false, \"shed\": \"{}\", \"retry_after_ms\": {retry_after_ms}}}\n",
                    reason.tag()
                ),
                Admission::Rejected(e) => format!(
                    "{{\"accepted\": false, \"error\": \"{}\"}}\n",
                    crate::campaign::manifest::escape(&e)
                ),
            },
            Err(e) => format!(
                "{{\"accepted\": false, \"error\": \"{}\"}}\n",
                crate::campaign::manifest::escape(&e)
            ),
        };
        let _ = simt_sim::write_atomic(&path.with_extension("resp"), response.as_bytes());
        let _ = std::fs::remove_file(&path);
    }
}
