//! Supervised, retry-capable execution of simulator jobs.
//!
//! The experiment drivers run every render through [`run_to_target`],
//! which slices the simulation at a configurable checkpoint interval and
//! keeps the last good [`Snapshot`] (in memory always; on disk, when a
//! checkpoint directory is configured, each one that holds progress over
//! what the directory already has for the job). When a run raises a typed
//! [`simt_sim::Fault`] under `FaultPolicy::Abort` or the watchdog reports
//! [`RunOutcome::Deadlock`], the supervisor rolls the machine back to the
//! last good snapshot and retries with an exponentially grown slice
//! budget; after [`Policy::max_retries`] interventions it gives up and
//! reports the job's figures from the last good state instead of
//! aborting the whole campaign.
//!
//! Because the simulator is deterministic, a retry only changes the
//! outcome when the grown cycle budget lets a slice run past a spurious
//! slice-boundary watchdog window; a genuinely wedged or faulting run
//! deterministically exhausts its retries and lands on
//! [`JobStatus::GaveUp`] — which is exactly the point: the campaign
//! keeps going and the per-job status says what happened.
//!
//! On-disk snapshots double as crash/kill recovery: `repro --resume`
//! restores each job from its last snapshot and continues, bit-identical
//! to an uninterrupted run (see `DESIGN.md` §9).

use simt_sim::{Gpu, ProgressPulse, RunOutcome, RunSummary, Snapshot};
use std::collections::BTreeMap;
use std::fmt;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// Process exit code used by the deterministic kill test hook
/// (`--kill-after-checkpoints`), so CI can tell an intentional
/// mid-campaign kill from a real failure.
pub const KILL_EXIT_CODE: u8 = 42;

/// Supervisor policy, set once from the `repro` command line and read by
/// every job. Like the trace switch in [`crate::configs`], this is a
/// process-global: it never changes simulated results (checkpointing at
/// a slice boundary is transparent), only how runs are supervised.
#[derive(Debug, Clone)]
pub struct Policy {
    /// Cycles between snapshots. 0 disables periodic checkpoints; a
    /// rollback snapshot is still taken at each phase entry.
    pub checkpoint_every: u64,
    /// Directory for on-disk snapshots (`None` = in-memory only).
    pub checkpoint_dir: Option<PathBuf>,
    /// Restore jobs from their last on-disk snapshot when present.
    pub resume: bool,
    /// Rollback/retry interventions allowed per phase before giving up.
    pub max_retries: u32,
    /// Test hook: exit the process with [`KILL_EXIT_CODE`] after this
    /// many on-disk snapshot writes — each one progress a resume keeps —
    /// simulating a mid-campaign kill at a deterministic point.
    pub kill_after_checkpoints: Option<u64>,
    /// Chaos variant of the kill hook: when set, the hook dies by
    /// [`std::process::abort`] (an uncatchable, signal-style death)
    /// instead of the orderly exit-42, so the campaign coordinator's
    /// worker supervision sees a genuine process kill mid-job.
    pub chaos_abort: bool,
}

impl Default for Policy {
    fn default() -> Self {
        Policy {
            checkpoint_every: 0,
            checkpoint_dir: None,
            resume: false,
            max_retries: 3,
            kill_after_checkpoints: None,
            chaos_abort: false,
        }
    }
}

impl Policy {
    /// Whether any supervision feature beyond plain fault rollback is on.
    pub fn is_active(&self) -> bool {
        self.checkpoint_every > 0 || self.checkpoint_dir.is_some() || self.resume
    }
}

static POLICY: Mutex<Option<Policy>> = Mutex::new(None);

/// Count of on-disk snapshot writes, for the kill test hook.
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

/// Latest progress pulse published by `run_to_target`, rendered to its
/// one-line form. Campaign workers poll this to relay live progress in
/// their heartbeat files.
static LAST_PULSE: Mutex<Option<String>> = Mutex::new(None);

/// Publishes a slice-boundary progress pulse for heartbeat relaying.
fn publish_pulse(pulse: &ProgressPulse) {
    *LAST_PULSE
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner) = Some(pulse.to_string());
}

/// The latest slice-boundary progress pulse ("cycle N" or
/// "cycle N: issues ..."), if any run has reached a boundary yet.
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

/// Final supervision status of one job.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobStatus {
    /// Ran to its cycle target with no intervention.
    Completed,
    /// Finished after `n` rollback or resume interventions.
    Resumed(u32),
    /// Exhausted the retry budget; reported figures come from the last
    /// good snapshot.
    GaveUp,
}

impl fmt::Display for JobStatus {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            JobStatus::Completed => f.write_str("completed"),
            JobStatus::Resumed(n) => write!(f, "completed after {n} intervention(s)"),
            JobStatus::GaveUp => f.write_str("gave up (results from last good snapshot)"),
        }
    }
}

/// Result of one supervised phase.
#[derive(Debug)]
pub struct Supervised {
    /// Summary at the end of the phase (cumulative machine statistics).
    pub summary: RunSummary,
    /// Rollback interventions performed during the phase.
    pub interventions: u32,
    /// True when the retry budget ran out and the phase stopped at the
    /// last good snapshot instead of its cycle target.
    pub gave_up: bool,
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

/// Persists `snap`, taken at `cycle`, for `job` when a checkpoint
/// directory is configured and the snapshot holds progress: its cycle is
/// past the newest one [`PERSISTED`] has for the job. The first snapshot
/// of a job therefore never reaches the disk — it is the launch, or the
/// very state `--resume` restored — and neither does the first of a run
/// that starts over behind what an earlier run of the same job persisted.
/// Write failures are reported and tolerated: losing a checkpoint must
/// never fail the job it protects. Honours the deterministic kill hook.
fn persist(job: &str, snap: &Snapshot, cycle: u64, pol: &Policy) {
    let Some(dir) = &pol.checkpoint_dir else {
        return;
    };
    let mut persisted = persisted_cycles();
    let newest = persisted.entry(job.to_string()).or_insert(cycle);
    if cycle <= *newest {
        *newest = cycle;
        return;
    }
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

/// Takes a snapshot tagged with `meta`, remembers it as the last good
/// state, and persists it when configured and it holds progress (see
/// [`persist`]). Snapshot failures are reported and tolerated (the phase
/// simply loses rollback coverage).
fn take_snapshot(
    gpu: &Gpu,
    job: &str,
    meta: &[u8],
    pol: &Policy,
    last_good: &mut Option<Snapshot>,
) {
    match gpu.checkpoint() {
        Ok(mut snap) => {
            snap.set_meta(meta.to_vec());
            persist(job, &snap, gpu.now(), pol);
            *last_good = Some(snap);
        }
        Err(e) => eprintln!("warning: {job}: checkpoint failed: {e}"),
    }
}

/// Rolls `gpu` back to `last_good`. Returns false when no usable
/// snapshot exists (the caller must give up).
fn rollback(gpu: &mut Gpu, job: &str, last_good: &Option<Snapshot>) -> bool {
    let Some(snap) = last_good else {
        eprintln!("warning: {job}: no good snapshot to roll back to");
        return false;
    };
    match Gpu::restore(snap) {
        Ok(restored) => {
            *gpu = restored;
            true
        }
        Err(e) => {
            eprintln!("warning: {job}: rollback restore failed: {e}");
            false
        }
    }
}

/// Produces a consistent [`RunSummary`] for the machine's current state
/// without advancing it (a zero-cycle run merges statistics only).
fn summarize(gpu: &mut Gpu, job: &str) -> RunSummary {
    match gpu.run(0) {
        Ok(s) => s,
        Err(e) => {
            // A zero-cycle run issues no work; a fault here means the
            // machine was left mid-fault with no snapshot to return to.
            unreachable!("{job}: zero-cycle summary run faulted: {e}")
        }
    }
}

/// Runs `gpu` forward to the absolute cycle `target` under supervision.
///
/// The run is sliced at [`Policy::checkpoint_every`] cycles; each slice
/// boundary snapshots the machine (the only safe point — see
/// `DESIGN.md` §9). On a [`simt_sim::SimError::Fault`] or a watchdog
/// [`RunOutcome::Deadlock`] the machine rolls back to the last good
/// snapshot and the slice budget doubles (`checkpoint_every << retries`)
/// so a retry is not re-interrupted at the same boundary; after
/// [`Policy::max_retries`] interventions the phase gives up and reports
/// the last good state.
///
/// `job` names the on-disk snapshot; `meta` is stored verbatim in every
/// snapshot so the caller can rebuild its own phase bookkeeping on
/// resume (see [`crate::runner::RenderRun::execute`]).
pub fn run_to_target(gpu: &mut Gpu, target: u64, job: &str, meta: &[u8]) -> Supervised {
    let pol = policy();
    let mut interventions = 0u32;
    let mut last_good: Option<Snapshot> = None;
    take_snapshot(gpu, job, meta, &pol, &mut last_good);
    loop {
        let now = gpu.now();
        if now >= target {
            return Supervised {
                summary: summarize(gpu, job),
                interventions,
                gave_up: false,
            };
        }
        let slice = if pol.checkpoint_every > 0 {
            // Exponential budget growth on retries, saturating.
            let grown = pol
                .checkpoint_every
                .saturating_mul(1u64.checked_shl(interventions).unwrap_or(u64::MAX));
            grown.min(target - now)
        } else {
            target - now
        };
        let failure = match gpu.run(slice) {
            Ok(summary) => match summary.outcome {
                RunOutcome::Completed => {
                    return Supervised {
                        summary,
                        interventions,
                        gave_up: false,
                    };
                }
                RunOutcome::CycleLimit => {
                    if gpu.now() >= target {
                        return Supervised {
                            summary,
                            interventions,
                            gave_up: false,
                        };
                    }
                    // Healthy slice boundary: record the new good state
                    // and publish a one-line pulse of the machine's
                    // vitals (campaign workers relay it to their
                    // heartbeat for live status reporting).
                    take_snapshot(gpu, job, meta, &pol, &mut last_good);
                    let pulse = if gpu.telemetry_enabled() {
                        ProgressPulse::collect(gpu.now(), &gpu.telemetry_report())
                    } else {
                        ProgressPulse::at_cycle(gpu.now())
                    };
                    if pulse.telemetry {
                        eprintln!("supervisor: {job}: {pulse}");
                    }
                    publish_pulse(&pulse);
                    continue;
                }
                RunOutcome::Deadlock { .. } => "watchdog deadlock".to_string(),
                // `RunOutcome` is non-exhaustive: treat anything newer
                // than this crate as a failed slice and retry.
                other => format!("unexpected outcome: {other:?}"),
            },
            Err(e) => e.to_string(),
        };
        // Roll back to the last good snapshot; when that fails (or the
        // retry budget is spent) the phase gives up, reporting whatever
        // consistent state it could recover.
        let rolled = rollback(gpu, job, &last_good);
        if !rolled || interventions >= pol.max_retries {
            eprintln!(
                "warning: {job}: giving up after {interventions} intervention(s) ({failure})"
            );
            return Supervised {
                summary: summarize(gpu, job),
                interventions,
                gave_up: true,
            };
        }
        interventions += 1;
        eprintln!(
            "supervisor: {job}: {failure} at cycle {}; rolled back to cycle {} \
             (retry {interventions}/{})",
            now,
            gpu.now(),
            pol.max_retries
        );
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
        assert_eq!(policy().max_retries, Policy::default().max_retries);
    }

    #[test]
    fn clean_run_needs_no_intervention() {
        let _policy = policy_in_use();
        let mut gpu = small_gpu();
        let s = run_to_target(&mut gpu, 10_000, "test-clean", &[]);
        assert_eq!(s.interventions, 0);
        assert!(!s.gave_up);
        assert_eq!(s.summary.outcome, RunOutcome::Completed);
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

        assert_eq!(got.summary.outcome, want.outcome);
        assert_eq!(got.summary.stats, want.stats);
        assert_eq!(got.summary.traffic, want.traffic);
        for addr in (0..128).step_by(4) {
            assert_eq!(
                gpu.mem().read_u32(simt_isa::Space::Global, addr),
                reference.mem().read_u32(simt_isa::Space::Global, addr),
            );
        }
    }

    #[test]
    fn deterministic_fault_exhausts_retries_and_gives_up() {
        let _policy = policy_in_use();
        // An injected trap under Abort recurs on every deterministic
        // retry; the supervisor must bound the retries and give up with
        // figures from the last good snapshot instead of panicking.
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

        set_policy(Policy {
            checkpoint_every: 2,
            max_retries: 2,
            ..Policy::default()
        });
        let s = run_to_target(&mut gpu, 10_000, "test-gaveup", &[]);
        set_policy(Policy::default());

        assert!(s.gave_up);
        assert_eq!(s.interventions, 2);
        // The machine sits at the last good snapshot, before the trap.
        assert!(gpu.now() < 4);
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
