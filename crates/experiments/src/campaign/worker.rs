//! Worker-process side of the campaign protocol.
//!
//! The coordinator re-invokes the `repro` binary as `repro __worker
//! <artifact> ...` for each scheduled attempt. The worker:
//!
//! 1. starts a heartbeat thread that rewrites its heartbeat file with an
//!    incrementing counter (~10 Hz) so the coordinator can tell a
//!    wedged worker from a slow one,
//! 2. renders the single artifact under the normal supervised runner
//!    (checkpointing on, `--resume` restoring any checkpoint a killed
//!    predecessor attempt left behind), and
//! 3. seals the rendered bytes — or the job-level error — into a
//!    checksummed result frame and writes it atomically to the
//!    agreed-on shard path, then exits 0.
//!
//! Any other exit (chaos abort inside the supervisor's kill hook, a
//! crash, a coordinator SIGKILL after a timeout) leaves no result frame,
//! which is exactly how the coordinator knows to reschedule. However it
//! exits, the coordinator hears of it at once: the worker's stdout is a
//! pipe it never writes to, and its closing is the exit.

use super::cache::{seal_result, ResultMeta};
use super::render_artifact;
use crate::runner::Scale;
use simt_sim::write_atomic;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Duration;

/// Parsed `__worker` command-line surface (beyond the shared repro
/// flags, which the caller applies before invoking [`run_worker`]).
#[derive(Debug, Clone)]
pub struct WorkerArgs {
    /// Artifact to render.
    pub artifact: String,
    /// Where to write the sealed result frame.
    pub out: PathBuf,
    /// Heartbeat file to keep fresh (optional: absent in direct
    /// debugging invocations).
    pub heartbeat: Option<PathBuf>,
    /// Job identity fingerprint to stamp into the result frame.
    pub fingerprint: u64,
    /// Render in `--json` mode.
    pub json: bool,
    /// Test hook: die by abort immediately (exercises the coordinator's
    /// retry/GaveUp path on every attempt it is passed to).
    pub test_fail: bool,
    /// Test hook: wedge forever without heartbeating (exercises the
    /// coordinator's liveness kill).
    pub test_hang: bool,
}

/// Heartbeat rewrite interval.
pub const HEARTBEAT_INTERVAL: Duration = Duration::from_millis(100);

/// Spawns the detached heartbeat thread. The thread dies with the
/// process; failures to write are ignored (a missing heartbeat reads as
/// a wedged worker, which kills this attempt — the safe direction).
///
/// Heartbeat format: line 1 is `<pid> <beat>`, line 2 (once the
/// supervisor has reached a slice boundary) is the latest
/// [`crate::supervisor::last_progress_pulse`] — the coordinator relays
/// it so status endpoints can show live per-job progress.
fn start_heartbeat(path: PathBuf) {
    std::thread::spawn(move || {
        let mut beat: u64 = 0;
        loop {
            beat += 1;
            let mut body = format!("{} {beat}\n", std::process::id());
            if let Some(pulse) = crate::supervisor::last_progress_pulse() {
                body.push_str(&pulse);
                body.push('\n');
            }
            let _ = std::fs::write(&path, body);
            std::thread::sleep(HEARTBEAT_INTERVAL);
        }
    });
}

/// Runs one campaign job to a sealed result frame. The process-wide
/// supervisor policy, scale, and trace switches must already be
/// installed by the caller (the `repro` argument parser).
///
/// Nothing under here may write to stdout — diagnostics go to stderr, the
/// result to its frame. Stdout is a pipe the coordinator only listens on
/// for end-of-file (`campaign::watch_exit`), and once the coordinator has
/// been `kill -9`ed it has no reader: a `println!` would then panic this
/// orphan on `EPIPE` halfway through a job the restarted server expects
/// to find finished or checkpointed.
pub fn run_worker(args: &WorkerArgs, scale: Scale) -> ExitCode {
    if args.test_hang {
        // Deliberately wedge with no heartbeat: the coordinator must
        // detect the stale heartbeat and SIGKILL this process.
        eprintln!(
            "worker[{}]: test hook: hanging without heartbeat",
            args.artifact
        );
        loop {
            std::thread::sleep(Duration::from_secs(3600));
        }
    }
    if let Some(hb) = &args.heartbeat {
        start_heartbeat(hb.clone());
    }
    if args.test_fail {
        eprintln!("worker[{}]: test hook: aborting", args.artifact);
        std::process::abort();
    }
    let meta = match render_artifact(&args.artifact, scale, args.json) {
        None => {
            eprintln!("worker[{}]: unknown workload", args.artifact);
            return ExitCode::from(2);
        }
        Some(Ok(rendered)) => {
            let meta = ResultMeta {
                artifact: args.artifact.clone(),
                fingerprint: args.fingerprint,
                ok: true,
                error: String::new(),
            };
            return write_frame(args, &meta, rendered.as_bytes());
        }
        Some(Err(e)) => ResultMeta {
            artifact: args.artifact.clone(),
            fingerprint: args.fingerprint,
            ok: false,
            error: e,
        },
    };
    write_frame(args, &meta, &[])
}

/// Seals and atomically writes the result frame; the frame write is the
/// worker's commit point.
fn write_frame(args: &WorkerArgs, meta: &ResultMeta, output: &[u8]) -> ExitCode {
    if let Some(dir) = args.out.parent().filter(|d| !d.as_os_str().is_empty()) {
        if let Err(e) = std::fs::create_dir_all(dir) {
            eprintln!(
                "worker[{}]: cannot create {}: {e}",
                args.artifact,
                dir.display()
            );
            return ExitCode::FAILURE;
        }
    }
    match write_atomic(&args.out, &seal_result(meta, output)) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!(
                "worker[{}]: cannot write result {}: {e}",
                args.artifact,
                args.out.display()
            );
            ExitCode::FAILURE
        }
    }
}
