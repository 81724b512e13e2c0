//! Worker-process side of the campaign protocol.
//!
//! The coordinator re-invokes the `repro` binary as `repro __worker
//! <artifact> ...` for each scheduled attempt. The worker's stdout is a
//! pipe to the coordinator, and everything it reports goes down it:
//!
//! 1. every [`HEARTBEAT_INTERVAL`] a `beat` line, so the coordinator can
//!    tell a wedged worker from a slow one — or, when the supervisor has
//!    published a progress pulse since the last line, a `pulse <text>`
//!    line in its place, which the coordinator relays to status readers;
//! 2. once the single artifact is rendered under the normal supervised
//!    runner (checkpointing on, `--resume` restoring any checkpoint a
//!    killed predecessor attempt left behind), a `frame` line followed by
//!    the rendered bytes — or the job-level error — sealed into a
//!    checksummed result frame, to end-of-file. Then it exits 0.
//!
//! The frame checks itself: a worker killed while writing it leaves a
//! truncated frame that [`super::cache::open_result`] refuses, and one
//! killed before it (chaos abort inside the supervisor's kill hook, a
//! crash, a coordinator SIGKILL after a timeout) leaves none; either way
//! the coordinator reschedules. However it exits, the coordinator hears of
//! it at once: the pipe reaching end-of-file is the exit.

use super::cache::{seal_result, ResultMeta};
use super::render_artifact;
use crate::runner::Scale;
use std::io::{self, Write};
use std::process::ExitCode;
use std::sync::{Mutex, PoisonError};
use std::time::Duration;

/// Parsed `__worker` command-line surface (beyond the shared repro
/// flags, which the caller applies before invoking [`run_worker`]).
#[derive(Debug, Clone)]
pub struct WorkerArgs {
    /// Artifact to render.
    pub artifact: String,
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

/// Interval between the lines of a running worker.
pub const HEARTBEAT_INTERVAL: Duration = Duration::from_millis(100);

/// The line a worker sends when it has nothing new to say.
pub(super) const BEAT: &[u8] = b"beat\n";

/// Prefix of the line that carries a progress pulse.
pub(super) const PULSE: &[u8] = b"pulse ";

/// The line after which the result frame runs to end-of-file.
pub(super) const FRAME: &[u8] = b"frame\n";

/// Set by the frame, under the lock every line is sent under: nothing
/// follows the frame.
static SEALED: Mutex<bool> = Mutex::new(false);

/// Writes `parts` to stdout unless the frame has gone; `frame` says they
/// are the frame.
fn send(parts: &[&[u8]], frame: bool) -> io::Result<()> {
    let mut sealed = SEALED.lock().unwrap_or_else(PoisonError::into_inner);
    if *sealed {
        return Ok(());
    }
    *sealed = frame;
    let mut out = io::stdout().lock();
    parts.iter().try_for_each(|part| out.write_all(part))?;
    out.flush()
}

/// Spawns the detached thread that sends a line every
/// [`HEARTBEAT_INTERVAL`]: the latest
/// [`crate::supervisor::last_progress_pulse`] when it is new, else a beat.
/// The thread dies with the process. It stops at the first line that
/// cannot be written — the coordinator is gone — and the render goes on
/// without it, to the checkpoints a successor resumes from.
fn start_heartbeat() {
    std::thread::spawn(|| {
        let mut sent = None;
        loop {
            let pulse = crate::supervisor::last_progress_pulse();
            let line = match &pulse {
                Some(p) if pulse != sent => send(&[PULSE, p.as_bytes(), b"\n"], false),
                _ => send(&[BEAT], false),
            };
            if line.is_err() {
                return;
            }
            sent = pulse;
            std::thread::sleep(HEARTBEAT_INTERVAL);
        }
    });
}

/// Runs one campaign job to a sealed result frame on stdout. The
/// process-wide supervisor policy, scale, and trace switches must already
/// be installed by the caller (the `repro` argument parser).
///
/// Nothing under here may print to stdout — diagnostics go to stderr —
/// and nothing here panics on a write to it: once the coordinator has
/// been `kill -9`ed the pipe has no reader, and this orphan still has a
/// job to finish whose checkpoints the restarted server resumes from. It
/// ends saying on stderr that its result could not be delivered.
pub fn run_worker(args: &WorkerArgs, scale: Scale) -> ExitCode {
    if args.test_hang {
        // Deliberately wedge with no line: the coordinator must find the
        // silence and SIGKILL this process. A coordinator that dies first
        // (`kill -9`) never will, so once this process is handed to a new
        // parent it gives up instead.
        eprintln!(
            "worker[{}]: test hook: hanging without heartbeat",
            args.artifact
        );
        let parent = std::os::unix::process::parent_id();
        while std::os::unix::process::parent_id() == parent {
            std::thread::sleep(HEARTBEAT_INTERVAL);
        }
        return ExitCode::FAILURE;
    }
    start_heartbeat();
    if args.test_fail {
        eprintln!("worker[{}]: test hook: aborting", args.artifact);
        std::process::abort();
    }
    let (ok, output, error) = match render_artifact(&args.artifact, scale, args.json) {
        None => {
            eprintln!("worker[{}]: unknown workload", args.artifact);
            return ExitCode::from(2);
        }
        Some(Ok(rendered)) => (true, rendered, String::new()),
        Some(Err(e)) => (false, String::new(), e),
    };
    let meta = ResultMeta {
        artifact: args.artifact.clone(),
        fingerprint: args.fingerprint,
        ok,
        error,
    };
    match send(&[FRAME, &seal_result(&meta, output.as_bytes())], true) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!(
                "worker[{}]: result could not be delivered: {e}",
                args.artifact
            );
            ExitCode::FAILURE
        }
    }
}
