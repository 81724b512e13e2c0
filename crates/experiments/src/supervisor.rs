//! Supervised execution of simulator jobs.
//!
//! Every scene render is one [`RenderSpec`](crate::runner::RenderSpec)
//! taken from a [`Plan`](crate::runner::Plan), which runs each
//! fingerprint once per invocation, and its stop rule says how it runs:
//!
//! * a window is sliced and resumable: [`run_to_target`] slices the
//!   simulation at a configurable checkpoint interval and, when a
//!   checkpoint directory is configured, writes a [`Snapshot`] at each
//!   slice boundary that holds progress over what the directory already
//!   has for the job;
//! * a frame runs to completion in one [`run_checked`] call;
//! * the custom-kernel runs of fig. 2 and `microdiv` go through
//!   [`run_checked`] too, on a machine from the one builder,
//!   `configs::machine`.
//!
//! [`run_checked`] owns the one decision of what a failed run is: a typed
//! [`simt_sim::Fault`] under `FaultPolicy::Abort` or a watchdog
//! [`RunOutcome::Deadlock`] is a job-level error naming the job, the
//! cycle and the failure. The simulator is deterministic, so running the
//! job again from any earlier state would meet the same failure:
//! `repro all` reports the error and goes on, and a campaign finishes the
//! job as `Failed`, with no retry and nothing cached.
//!
//! On-disk snapshots are crash/kill recovery: `repro --resume` restores
//! each job from its last snapshot and continues, bit-identical to an
//! uninterrupted run (see `DESIGN.md` §9). The kill hook counts the
//! process's snapshot writes, not a job's: a plan renders its windows one
//! after another, so "the N-th write" names one point of a whole
//! `repro all`, inside whichever artifact first renders that window.

use simt_sim::{Gpu, RunOutcome, RunSummary, Snapshot, TelemetrySpec};
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// Process exit code used by the deterministic kill test hook
/// (`--kill-after-checkpoints`), so CI can tell an intentional
/// mid-campaign kill from a real failure.
pub const KILL_EXIT_CODE: u8 = 42;

/// Supervisor policy, set once from the `repro` command line and read by
/// every job. It is a process-global that never changes simulated results
/// (checkpointing at a slice boundary is transparent): it says how runs
/// are supervised and what telemetry they record.
#[derive(Debug, Clone)]
pub struct Policy {
    /// Cycles between slice boundaries. 0 runs each phase in one slice.
    pub checkpoint_every: u64,
    /// Directory for on-disk snapshots (`None` = no snapshots).
    pub checkpoint_dir: Option<PathBuf>,
    /// Restore jobs from their last on-disk snapshot when present.
    pub resume: bool,
    /// Test hook: exit the process with [`KILL_EXIT_CODE`] after this
    /// many on-disk snapshot writes — each one progress a resume keeps —
    /// simulating a mid-campaign kill at a deterministic point.
    pub kill_after_checkpoints: Option<u64>,
    /// Chaos variant of the kill hook: when set, the hook dies by
    /// [`std::process::abort`] (an uncatchable, signal-style death)
    /// instead of the orderly exit-42, so the campaign coordinator's
    /// worker supervision sees a genuine process kill mid-job.
    pub chaos_abort: bool,
    /// Telemetry of every machine `configs::machine` builds: windowed
    /// metrics by default; `--trace` adds per-event rings, and the drivers
    /// write Chrome-trace/metrics-CSV files next to their normal output;
    /// `--metrics-every N` sets the metrics window.
    pub telemetry: TelemetrySpec,
}

impl Default for Policy {
    fn default() -> Self {
        Policy {
            checkpoint_every: 0,
            checkpoint_dir: None,
            resume: false,
            kill_after_checkpoints: None,
            chaos_abort: false,
            telemetry: TelemetrySpec::metrics(),
        }
    }
}

static POLICY: Mutex<Option<Policy>> = Mutex::new(None);

/// Count of the process's on-disk snapshot writes, for the kill test hook:
/// one count across every job, so the hook can stop `repro all` inside a
/// later artifact.
static DISK_WRITES: AtomicU64 = AtomicU64::new(0);

/// Per job in flight, the cycle of the newest snapshot the checkpoint
/// directory holds for it, as far as this process can know: the cycle
/// [`persist`] first saw the job at (a launch, which a restart rebuilds,
/// or the state a resume just read back from the directory), then every
/// cycle it wrote. [`clear`] forgets the job.
static PERSISTED: Mutex<BTreeMap<String, u64>> = Mutex::new(BTreeMap::new());

/// Locks [`PERSISTED`], recovering from poison like [`policy_slot`]: each
/// entry stands alone, so a panic under the lock leaves nothing half-done.
fn persisted_cycles() -> std::sync::MutexGuard<'static, BTreeMap<String, u64>> {
    PERSISTED
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// Latest progress pulse published by `run_to_target`: `cycle N`, or
/// `cycle N: <vitals>` with telemetry on. Campaign workers poll this to
/// relay live progress as `pulse` lines on their stdout.
static LAST_PULSE: Mutex<Option<String>> = Mutex::new(None);

/// The latest slice-boundary progress pulse ("cycle N" or
/// "cycle N: issues ..."), if any run has reached a boundary yet; what
/// `Job::progress` and `GET /jobs/<id>` show of a campaign worker's job.
pub fn last_progress_pulse() -> Option<String> {
    LAST_PULSE
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
        .clone()
}

/// Locks the policy slot, recovering from poison. The policy is plain
/// data with no invariants spanning the critical section, so a campaign
/// worker that panicked mid-job while holding the lock must not cascade
/// into poisoned-lock aborts on every subsequent job in the process.
fn policy_slot() -> std::sync::MutexGuard<'static, Option<Policy>> {
    POLICY
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// Installs the process-wide supervisor policy.
pub fn set_policy(policy: Policy) {
    *policy_slot() = Some(policy);
}

/// The current supervisor policy (defaults when none was installed).
pub fn policy() -> Policy {
    policy_slot().clone().unwrap_or_default()
}

/// Path of the on-disk snapshot for `job` under `dir`.
fn snapshot_path(dir: &std::path::Path, job: &str) -> PathBuf {
    let safe: String = job
        .chars()
        .map(|c| {
            if c.is_ascii_alphanumeric() || c == '-' || c == '_' {
                c
            } else {
                '_'
            }
        })
        .collect();
    dir.join(format!("{safe}.ckpt"))
}

/// Writes a snapshot of `gpu`, tagged with `meta`, for `job` when a
/// checkpoint directory is configured and the machine holds progress: its
/// cycle is past the newest one [`PERSISTED`] has for the job. The machine
/// is encoded only to be written. The first state seen of a job therefore
/// never reaches the disk — it is the launch, or the very state
/// `--resume` restored — and neither does the first of a run that starts
/// over behind what an earlier run of the same job persisted. Snapshot
/// and write failures are reported and tolerated: losing a checkpoint
/// must never fail the job it protects. Honours the deterministic kill
/// hook.
fn persist(gpu: &Gpu, job: &str, meta: &[u8], pol: &Policy) {
    let Some(dir) = &pol.checkpoint_dir else {
        return;
    };
    let cycle = gpu.now();
    let mut persisted = persisted_cycles();
    let newest = persisted.entry(job.to_string()).or_insert(cycle);
    if cycle <= *newest {
        *newest = cycle;
        return;
    }
    let mut snap = match gpu.checkpoint() {
        Ok(snap) => snap,
        Err(e) => {
            eprintln!("warning: {job}: checkpoint failed: {e}");
            return;
        }
    };
    snap.set_meta(meta.to_vec());
    if let Err(e) = std::fs::create_dir_all(dir) {
        eprintln!("warning: {job}: cannot create {}: {e}", dir.display());
        return;
    }
    let path = snapshot_path(dir, job);
    if let Err(e) = snap.write_to(&path) {
        eprintln!("warning: {job}: checkpoint write failed: {e}");
        return;
    }
    *newest = cycle;
    drop(persisted);
    let written = DISK_WRITES.fetch_add(1, Ordering::Relaxed) + 1;
    if let Some(kill_after) = pol.kill_after_checkpoints {
        if written >= kill_after {
            eprintln!(
                "supervisor: kill hook: {} after {written} checkpoint write(s) \
                 (last: {})",
                if pol.chaos_abort {
                    "aborting"
                } else {
                    "exiting"
                },
                path.display()
            );
            if pol.chaos_abort {
                // Die the way a SIGKILLed worker dies: no unwinding, no
                // exit code — the parent sees death by signal.
                std::process::abort();
            }
            std::process::exit(i32::from(KILL_EXIT_CODE));
        }
    }
}

/// Loads the last on-disk snapshot for `job` when `--resume` is active.
///
/// A corrupt or truncated snapshot (bad magic, checksum mismatch,
/// unsupported version, decode error) is reported and ignored — the job
/// restarts from scratch rather than poisoning the campaign.
pub fn try_resume(job: &str) -> Option<Snapshot> {
    let pol = policy();
    if !pol.resume {
        return None;
    }
    let path = snapshot_path(pol.checkpoint_dir.as_deref()?, job);
    if !path.exists() {
        return None;
    }
    match Snapshot::read_from(&path) {
        Ok(s) => Some(s),
        Err(e) => {
            eprintln!(
                "warning: {job}: ignoring unusable checkpoint {}: {e}",
                path.display()
            );
            None
        }
    }
}

/// Removes the on-disk snapshot for `job` (called once a job finishes so
/// a later `--resume` does not replay a completed job).
pub fn clear(job: &str) {
    persisted_cycles().remove(job);
    let pol = policy();
    let Some(dir) = &pol.checkpoint_dir else {
        return;
    };
    let path = snapshot_path(dir, job);
    if path.exists() {
        if let Err(e) = std::fs::remove_file(&path) {
            eprintln!("warning: {job}: cannot remove {}: {e}", path.display());
        }
    }
}

/// Runs `gpu` for at most `cycles` more cycles: the one place a run's
/// failure becomes a job-level error, for the supervised slices of
/// [`run_to_target`] and the unsupervised runs alike. A fault, a watchdog
/// deadlock, an outcome newer than this crate, or — when `complete` is
/// set — stopping at the budget with work left is an error naming `job`,
/// the cycle and the failure.
///
/// # Errors
///
/// The failure, as the job's one-line report.
pub fn run_checked(
    gpu: &mut Gpu,
    cycles: u64,
    job: &str,
    complete: bool,
) -> Result<RunSummary, String> {
    let summary = gpu.run(cycles).map_err(|e| format!("{job}: {e}"))?;
    let failure = match summary.outcome {
        RunOutcome::Completed => return Ok(summary),
        RunOutcome::CycleLimit if !complete => return Ok(summary),
        RunOutcome::CycleLimit => format!("did not complete within {cycles} cycles"),
        RunOutcome::Deadlock { .. } => "watchdog deadlock".to_string(),
        other => format!("unexpected outcome {other:?}"),
    };
    Err(format!("{job}: {failure} at cycle {}", gpu.now()))
}

/// Runs `gpu` forward to the absolute cycle `target` under supervision.
///
/// The run is sliced at [`Policy::checkpoint_every`] cycles. The phase
/// entry and each slice boundary — the only safe points, see `DESIGN.md`
/// §9 — are written to the checkpoint directory when they hold progress,
/// and each boundary publishes a progress pulse. A slice that fails ends
/// the phase with the job-level error of [`run_checked`], and the job's
/// snapshot is [`clear`]ed as it is once a job finishes.
///
/// `job` names the on-disk snapshot; `meta` is stored verbatim in every
/// snapshot so the caller can rebuild its own phase bookkeeping on
/// resume (see [`crate::runner::Plan::render`]).
///
/// # Errors
///
/// The failed slice's job-level error.
pub fn run_to_target(
    gpu: &mut Gpu,
    target: u64,
    job: &str,
    meta: &[u8],
) -> Result<RunSummary, String> {
    let pol = policy();
    persist(gpu, job, meta, &pol);
    loop {
        let left = target.saturating_sub(gpu.now());
        let slice = match pol.checkpoint_every {
            0 => left,
            every => every.min(left),
        };
        let summary = run_checked(gpu, slice, job, false).inspect_err(|_| clear(job))?;
        if summary.outcome == RunOutcome::Completed || gpu.now() >= target {
            return Ok(summary);
        }
        // Healthy slice boundary: persist the new state and publish a
        // one-line pulse of the machine's vitals (campaign workers relay
        // it on their stdout for live status reporting).
        persist(gpu, job, meta, &pol);
        let mut pulse = format!("cycle {}", gpu.now());
        if gpu.telemetry_enabled() {
            pulse = format!("{pulse}: {}", gpu.telemetry_report().vitals());
            eprintln!("supervisor: {job}: {pulse}");
        }
        *LAST_PULSE
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner) = Some(pulse);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simt_sim::{FaultPolicy, GpuConfig, InjectedFault, Injector, Launch};

    /// The policy is process-wide and `cargo test` runs these tests on
    /// parallel threads: each test that installs or depends on one holds
    /// this for its whole body.
    static POLICY_IN_USE: Mutex<()> = Mutex::new(());

    fn policy_in_use() -> std::sync::MutexGuard<'static, ()> {
        POLICY_IN_USE
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    fn small_gpu() -> Gpu {
        let mut gpu = Gpu::builder(GpuConfig::tiny()).build();
        gpu.mem_mut().alloc_global(256, "out");
        let program = simt_isa::assemble(
            r#"
            .kernel main
            main:
                mov.u32 r1, %tid
                mul.lo.s32 r2, r1, 4
                ld.global.u32 r3, [r2+0]
                add.s32 r3, r3, 7
                st.global.u32 [r2+0], r3
                exit
            "#,
        )
        .expect("assembles");
        gpu.launch(Launch {
            program,
            entry: "main".into(),
            num_threads: 32,
            threads_per_block: 8,
        })
        .expect("launch accepted");
        gpu
    }

    #[test]
    fn policy_lock_recovers_from_poison() {
        let _policy = policy_in_use();
        // A job that panics while holding the policy lock poisons it;
        // later jobs in the same campaign worker must keep working.
        let _ = std::thread::spawn(|| {
            let _guard = POLICY
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner);
            panic!("deliberate poison");
        })
        .join();
        set_policy(Policy::default());
        assert_eq!(
            policy().checkpoint_every,
            Policy::default().checkpoint_every
        );
    }

    #[test]
    fn clean_run_needs_no_intervention() {
        let _policy = policy_in_use();
        let mut gpu = small_gpu();
        let s = run_to_target(&mut gpu, 10_000, "test-clean", &[]).expect("clean run");
        assert_eq!(s.outcome, RunOutcome::Completed);
    }

    #[test]
    fn sliced_run_matches_unsliced() {
        let _policy = policy_in_use();
        // A run sliced at a checkpoint interval is bit-identical to an
        // uninterrupted run of the same machine.
        let mut reference = small_gpu();
        let want = reference.run(10_000).expect("fault-free");

        set_policy(Policy {
            checkpoint_every: 3,
            ..Policy::default()
        });
        let mut gpu = small_gpu();
        let got = run_to_target(&mut gpu, 10_000, "test-sliced", &[]);
        set_policy(Policy::default());
        let got = got.expect("clean run");

        assert_eq!(got.outcome, want.outcome);
        assert_eq!(got.stats, want.stats);
        assert_eq!(got.traffic, want.traffic);
        for addr in (0..128).step_by(4) {
            assert_eq!(
                gpu.mem().read_u32(simt_isa::Space::Global, addr),
                reference.mem().read_u32(simt_isa::Space::Global, addr),
            );
        }
    }

    #[test]
    fn an_injected_trap_is_a_job_level_error_after_one_attempt() {
        let _policy = policy_in_use();
        // A deterministic run meets an injected trap under Abort on every
        // attempt, so the first one ends the phase: a typed error naming
        // the job and the cycle, the machine left on the faulting cycle,
        // and the job's snapshot gone from the checkpoint directory.
        const JOB: &str = "test-trap";
        let mut cfg = GpuConfig::tiny();
        cfg.fault_policy = FaultPolicy::Abort;
        let mut gpu = Gpu::builder(cfg).build();
        gpu.mem_mut().alloc_global(256, "out");
        let program = simt_isa::assemble(
            r#"
            .kernel main
            main:
                mov.u32 r1, %tid
                mul.lo.s32 r2, r1, 4
                st.global.u32 [r2+0], r1
                exit
            "#,
        )
        .expect("assembles");
        gpu.launch(Launch {
            program,
            entry: "main".into(),
            num_threads: 64,
            threads_per_block: 8,
        })
        .expect("launch accepted");
        gpu.set_injector(Injector::new(7).force(InjectedFault::Trap, 3..4));

        let dir = std::env::temp_dir().join(format!("sup-trap-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        set_policy(Policy {
            checkpoint_every: 2,
            checkpoint_dir: Some(dir.clone()),
            ..Policy::default()
        });
        let got = run_to_target(&mut gpu, 10_000, JOB, &[]);
        set_policy(Policy::default());
        let _ = std::fs::remove_dir_all(&dir);

        let err = got.expect_err("the trap fails the phase");
        assert!(err.starts_with("test-trap: "), "{err}");
        assert!(err.contains("at cycle 3"), "{err}");
        assert_eq!(gpu.now(), 3, "the machine stays on the faulting cycle");
        assert_eq!(persisted_cycle(&dir, JOB), None);
        assert!(!persisted_cycles().contains_key(JOB));
    }

    #[test]
    fn a_watchdog_deadlock_is_a_job_level_error() {
        let mut cfg = GpuConfig::tiny();
        cfg.watchdog_cycles = 50;
        let mut gpu = Gpu::builder(cfg).build();
        let program = simt_isa::assemble(
            r#"
            .kernel main
            main:
            spin:
                bra spin
            "#,
        )
        .expect("assembles");
        gpu.launch(Launch {
            program,
            entry: "main".into(),
            num_threads: 32,
            threads_per_block: 32,
        })
        .expect("launch accepted");
        let err = run_checked(&mut gpu, 10_000, "test-spin", false).expect_err("stalls");
        assert!(
            err.starts_with("test-spin: watchdog deadlock at cycle "),
            "{err}"
        );
    }

    /// File state of `job`'s checkpoint under `dir`: the cycle it restores
    /// to, or `None` when there is no file.
    fn persisted_cycle(dir: &std::path::Path, job: &str) -> Option<u64> {
        let path = snapshot_path(dir, job);
        path.exists().then(|| {
            let snap = Snapshot::read_from(&path).expect("persisted snapshot reads back");
            Gpu::restore(&snap).expect("restores").now()
        })
    }

    #[test]
    fn only_progress_reaches_the_checkpoint_directory() {
        let _policy = policy_in_use();
        const JOB: &str = "test-disk";
        let dir = std::env::temp_dir().join(format!("sup-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        set_policy(Policy {
            checkpoint_every: 5,
            checkpoint_dir: Some(dir.clone()),
            resume: true,
            ..Policy::default()
        });
        // Phase entry at launch: kept in memory, not written — a restart
        // rebuilds cycle 0 — and the phase ends at its target unwritten.
        let mut gpu = small_gpu();
        let _ = run_to_target(&mut gpu, 5, JOB, b"phase-0");
        assert_eq!(gpu.now(), 5);
        assert_eq!(persisted_cycle(&dir, JOB), None);
        assert!(try_resume(JOB).is_none());
        // The next phase's entry is progress, and so is each boundary.
        let _ = run_to_target(&mut gpu, 12, JOB, b"phase-1");
        assert_eq!(persisted_cycle(&dir, JOB), Some(10));
        let resumed = try_resume(JOB).expect("snapshot on disk");
        assert_eq!(resumed.meta(), b"phase-1");
        // A process that resumes (it has seen nothing of the job) enters
        // on the very state the directory holds: not written again.
        persisted_cycles().remove(JOB);
        std::fs::remove_file(snapshot_path(&dir, JOB)).expect("removable");
        let mut restored = Gpu::restore(&resumed).expect("restores");
        let _ = run_to_target(&mut restored, 11, JOB, b"phase-1");
        assert_eq!(restored.now(), 11);
        assert_eq!(persisted_cycle(&dir, JOB), None);
        // The same job started over (no `clear` in between) is a new run:
        // its launch is not written, its first boundary is — behind what
        // the earlier run reached.
        let mut again = small_gpu();
        let _ = run_to_target(&mut again, 7, JOB, b"again");
        assert_eq!(persisted_cycle(&dir, JOB), Some(5));
        clear(JOB);
        assert!(try_resume(JOB).is_none());
        set_policy(Policy::default());
        let _ = std::fs::remove_dir_all(&dir);
    }
}
