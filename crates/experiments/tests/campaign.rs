//! End-to-end tests of the `repro campaign` coordinator/worker protocol:
//! a campaign's stdout must be byte-identical to the serial runs of the
//! same artifacts whether it was computed by sharded workers, replayed
//! from the result cache, recomputed after cache corruption, or
//! chaos-killed mid-job and resumed from checkpoints — and a job that
//! exhausts its retry budget must be reported `GaveUp` in the manifest
//! without taking the rest of the campaign down.

use experiments::campaign::manifest::JobOutcome;
use experiments::campaign::{CampaignConfig, Coordinator, JobSpec};
use experiments::Scale;
use std::path::{Path, PathBuf};
use std::process::{Command, Output, Stdio};
use std::sync::mpsc::{channel, Receiver};
use std::sync::Arc;
use std::time::Duration;

const REPRO: &str = env!("CARGO_BIN_EXE_repro");

fn temp_dir(tag: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("campaign-e2e-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&d);
    std::fs::create_dir_all(&d).expect("temp dir");
    d
}

fn repro(args: &[&str]) -> Output {
    Command::new(REPRO)
        .args(args)
        .output()
        .expect("repro binary runs")
}

/// Serial reference bytes for `artifacts`: each rendered alone at test
/// scale, stdout concatenated in the given order.
fn serial_bytes(artifacts: &[&str]) -> Vec<u8> {
    let mut bytes = Vec::new();
    for artifact in artifacts {
        let out = repro(&[artifact, "--scale", "test"]);
        assert!(out.status.success(), "serial {artifact} run succeeds");
        bytes.extend_from_slice(&out.stdout);
    }
    bytes
}

fn manifest(dir: &Path) -> String {
    std::fs::read_to_string(dir.join("manifest.json")).expect("campaign wrote its manifest")
}

#[test]
fn sharded_campaign_matches_serial_and_round_trips_through_cache() {
    let dir = temp_dir("shard");
    let dir_s = dir.to_str().expect("utf-8 temp path");
    let want = serial_bytes(&["table3", "fig3"]);

    // Cold: computed by two worker processes.
    let cold = repro(&[
        "campaign",
        "--scale",
        "test",
        "--workers",
        "2",
        "--only",
        "table3,fig3",
        "--campaign-dir",
        dir_s,
    ]);
    assert!(cold.status.success(), "cold campaign succeeds");
    assert_eq!(cold.stdout, want, "sharded bytes == serial bytes");
    let m = manifest(&dir);
    assert!(
        m.contains("\"outcome\": \"completed\""),
        "computed, not cached: {m}"
    );

    // Warm: served entirely from the content-addressed cache.
    let warm = repro(&[
        "campaign",
        "--scale",
        "test",
        "--workers",
        "2",
        "--only",
        "table3,fig3",
        "--campaign-dir",
        dir_s,
    ]);
    assert!(warm.status.success(), "warm campaign succeeds");
    assert_eq!(warm.stdout, want, "cached bytes == serial bytes");
    let m = manifest(&dir);
    assert_eq!(
        m.matches("\"outcome\": \"cached\"").count(),
        2,
        "both jobs served from cache: {m}"
    );

    // A different output mode must re-key, not reuse, the cache.
    let json = repro(&[
        "campaign",
        "--scale",
        "test",
        "--workers",
        "2",
        "--only",
        "table3",
        "--campaign-dir",
        dir_s,
        "--json",
    ]);
    assert!(json.status.success(), "json campaign succeeds");
    let json_serial = repro(&["table3", "--scale", "test", "--json"]);
    assert_eq!(
        json.stdout, json_serial.stdout,
        "json campaign == json serial"
    );

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn corrupt_cache_entries_are_quarantined_and_recomputed() {
    let dir = temp_dir("corrupt");
    let dir_s = dir.to_str().expect("utf-8 temp path");
    let want = serial_bytes(&["table3"]);
    let args = [
        "campaign",
        "--scale",
        "test",
        "--workers",
        "1",
        "--only",
        "table3",
        "--campaign-dir",
        dir_s,
    ];
    assert!(repro(&args).status.success(), "seed campaign succeeds");

    let cache = dir.join("cache");
    let entry = std::fs::read_dir(&cache)
        .expect("cache dir exists")
        .filter_map(Result::ok)
        .map(|e| e.path())
        .find(|p| p.extension().is_some_and(|x| x == "result"))
        .expect("cache holds the table3 entry");

    // Bit-flip: the checksum must catch it; the entry must be moved
    // aside (not deleted) and the job recomputed to identical bytes.
    let mut bytes = std::fs::read(&entry).expect("entry readable");
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x01;
    std::fs::write(&entry, &bytes).expect("entry writable");
    let rerun = repro(&args);
    assert!(rerun.status.success(), "campaign recovers from bit flip");
    assert_eq!(rerun.stdout, want, "recomputed bytes == serial bytes");
    let m = manifest(&dir);
    assert!(
        m.contains("\"quarantined\": true"),
        "quarantine recorded: {m}"
    );
    assert!(
        m.contains("\"outcome\": \"completed\""),
        "recomputed, not served: {m}"
    );
    let quarantined: Vec<_> = std::fs::read_dir(&cache)
        .expect("cache dir exists")
        .filter_map(Result::ok)
        .map(|e| e.path())
        .filter(|p| p.extension().is_some_and(|x| x == "quarantined"))
        .collect();
    assert_eq!(quarantined.len(), 1, "corrupt entry kept for post-mortem");

    // Truncation: same contract.
    let bytes = std::fs::read(&entry).expect("recomputed entry readable");
    std::fs::write(&entry, &bytes[..bytes.len() - 5]).expect("entry writable");
    let rerun = repro(&args);
    assert!(rerun.status.success(), "campaign recovers from truncation");
    assert_eq!(rerun.stdout, want, "recomputed bytes == serial bytes");

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn chaos_kills_are_survived_via_checkpoint_resume() {
    let dir = temp_dir("chaos");
    let dir_s = dir.to_str().expect("utf-8 temp path");
    let want = serial_bytes(&["fig9"]);

    // kill-every 1: every attempt under the retry budget is aborted by
    // the in-worker kill hook after a few checkpoint writes; retries
    // resume from the dead worker's checkpoint and must still converge
    // to the serial bytes.
    let out = repro(&[
        "campaign",
        "--scale",
        "test",
        "--workers",
        "1",
        "--only",
        "fig9",
        "--campaign-dir",
        dir_s,
        "--chaos-kill-every",
        "1",
        "--seed",
        "7",
        "--checkpoint-every",
        "500",
    ]);
    assert!(out.status.success(), "chaos campaign converges");
    assert_eq!(out.stdout, want, "post-chaos bytes == serial bytes");
    let m = manifest(&dir);
    assert!(
        m.contains("\"outcome\": \"resumed\""),
        "job survived kills: {m}"
    );
    assert!(
        m.contains("\"resumed_from_checkpoint\": true"),
        "resume recorded: {m}"
    );
    assert!(
        !m.contains("\"kills\": 0,"),
        "at least one kill observed: {m}"
    );
    assert!(
        m.contains("\"chaos_kill_every\": 1"),
        "chaos settings recorded: {m}"
    );

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn hung_worker_is_killed_by_liveness_and_rescheduled() {
    let dir = temp_dir("hang");
    let dir_s = dir.to_str().expect("utf-8 temp path");
    let want = serial_bytes(&["table3"]);

    // The first attempt wedges without writing a line; the coordinator
    // must SIGKILL it for the silence and the retry must finish.
    let out = repro(&[
        "campaign",
        "--scale",
        "test",
        "--workers",
        "1",
        "--only",
        "table3",
        "--campaign-dir",
        dir_s,
        "--chaos-hang-job",
        "table3",
        "--heartbeat-timeout-secs",
        "1",
    ]);
    assert!(out.status.success(), "campaign recovers from the hang");
    assert_eq!(out.stdout, want, "post-hang bytes == serial bytes");
    let m = manifest(&dir);
    assert!(
        m.contains("\"timeouts\": 1"),
        "coordinator kill recorded: {m}"
    );
    assert!(
        m.contains("\"outcome\": \"resumed\""),
        "rescheduled to done: {m}"
    );

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn exhausted_retries_gave_up_without_aborting_the_campaign() {
    let dir = temp_dir("gaveup");
    let dir_s = dir.to_str().expect("utf-8 temp path");
    let want = serial_bytes(&["table3"]);

    // table1's workers abort on every attempt; with --retries 1 it burns
    // its budget and must be reported GaveUp while table3 completes.
    let out = repro(&[
        "campaign",
        "--scale",
        "test",
        "--workers",
        "2",
        "--only",
        "table1,table3",
        "--campaign-dir",
        dir_s,
        "--chaos-fail-job",
        "table1",
        "--retries",
        "1",
    ]);
    assert!(
        !out.status.success(),
        "a GaveUp job fails the campaign exit code"
    );
    assert_eq!(
        out.stdout, want,
        "the surviving job's bytes == serial bytes"
    );
    let m = manifest(&dir);
    assert!(
        m.contains("\"outcome\": \"gave-up\""),
        "GaveUp recorded: {m}"
    );
    assert!(
        m.contains("\"outcome\": \"completed\""),
        "other job completed: {m}"
    );
    assert!(
        m.contains("\"gave_up\": 1"),
        "summary counts the casualty: {m}"
    );

    let _ = std::fs::remove_dir_all(&dir);
}

/// A worker's stdout is its report to its coordinator. When the
/// coordinator has been `kill -9`ed the read end is gone, and a worker that
/// panicked on `EPIPE` would die instead of finishing the job whose
/// checkpoints its successor resumes from: it must run the render to the
/// end, and say on stderr that its result could not be delivered.
#[test]
fn an_orphaned_worker_finishes_without_a_reader_on_its_stdout() {
    use std::os::unix::process::ExitStatusExt;
    let dir = temp_dir("orphan");
    let ckpt = dir.join("ckpt");
    let mut child = Command::new(REPRO)
        .args(["__worker", "fig3", "--scale", "test"])
        .args(["--worker-fingerprint", "00000000000000aa"])
        .args(["--checkpoint-every", "2000", "--checkpoint-dir"])
        .arg(&ckpt)
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("worker spawns");
    drop(child.stdout.take());
    let out = child.wait_with_output().expect("worker waitable");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.signal(), None, "no signal: {stderr}");
    assert_eq!(out.status.code(), Some(1), "no panic, no success: {stderr}");
    assert!(
        stderr.contains("worker[fig3]: result could not be delivered"),
        "{stderr}"
    );
    // The directory is made for the first snapshot written; the finished
    // job's own snapshot is cleared with it done.
    assert!(ckpt.is_dir(), "checkpoints written on the way");
    let _ = std::fs::remove_dir_all(&dir);
}

/// A campaign's workers trace under the coordinator's telemetry: a
/// `--trace` campaign leaves the trace and metrics files a serial
/// `--trace` run writes, byte for byte, and prints the same stdout.
#[test]
fn campaign_workers_get_the_coordinators_telemetry() {
    let dir = temp_dir("telemetry");
    let (serial_dir, campaign_dir) = (dir.join("serial"), dir.join("campaign"));
    let run = |cwd: &Path, args: &str| {
        std::fs::create_dir_all(cwd).expect("work dir");
        let out = Command::new(REPRO)
            .args(args.split(' '))
            .current_dir(cwd)
            .output()
            .expect("repro binary runs");
        assert!(out.status.success(), "{args}");
        out.stdout
    };
    let serial = run(&serial_dir, "fig3 --scale test --trace");
    let campaign = run(
        &campaign_dir,
        "campaign --scale test --workers 1 --only fig3 --trace",
    );
    assert_eq!(campaign, serial, "campaign stdout == serial stdout");
    for file in [
        "conference-PdomWarp-16.trace.json",
        "conference-PdomWarp-16.metrics.csv",
    ] {
        let read = |d: &Path| std::fs::read(d.join(file)).expect("trace artifact written");
        assert!(read(&campaign_dir) == read(&serial_dir), "{file} differs");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// A one-worker engine over `dir` whose waker sends on the returned
/// channel, so a test can block until a worker's exit has been heard
/// instead of sleeping and looking.
fn woken_engine(dir: &Path, tune: impl FnOnce(&mut CampaignConfig)) -> (Coordinator, Receiver<()>) {
    let mut cfg = CampaignConfig::new(Scale::test(), "test");
    cfg.work_dir = dir.to_path_buf();
    cfg.cache_dir = dir.join("cache");
    cfg.worker_exe = PathBuf::from(REPRO);
    cfg.workers = 1;
    tune(&mut cfg);
    let mut coord = Coordinator::new(cfg).expect("engine builds");
    let (wake, woken) = channel();
    coord.set_waker(Arc::new(move || {
        let _ = wake.send(());
    }));
    (coord, woken)
}

/// The cheapest job there is: no simulation, a worker that lives 2 ms.
fn table1() -> JobSpec {
    JobSpec::new("table1", Scale::test(), "test", false)
}

/// Far longer than any worker here lives: the bound on a wake that never
/// comes, not a wait the tests time anything by.
const NEVER: Duration = Duration::from_secs(120);

#[test]
fn a_workers_exit_wakes_the_owner_and_the_very_next_pass_reaps_it() {
    // Clean exit: one pass spawns, the wake arrives, one pass completes.
    let dir = temp_dir("wake-exit");
    let (mut coord, woken) = woken_engine(&dir, |_| {});
    let idx = coord.submit(table1()).expect("submits");
    assert_eq!(coord.poll().expect("spawns"), 0);
    assert_eq!(coord.in_flight(), 1);
    woken.recv_timeout(NEVER).expect("exit heard");
    assert_eq!(
        coord.poll().expect("reaps"),
        1,
        "reaped by the pass the wake asked for"
    );
    assert_eq!(coord.jobs()[idx].outcome(), Some(&JobOutcome::Completed));
    let clocks = coord.counters();
    assert_eq!(clocks.jobs_spawned, 1);
    assert!(clocks.worker_run_us > 0, "{clocks:?}");
    let _ = std::fs::remove_dir_all(&dir);

    // Death by signal (`abort()`, as `--chaos-abort` dies): the same one
    // pass consumes the attempt and schedules the retry.
    let dir = temp_dir("wake-abort");
    let (mut coord, woken) = woken_engine(&dir, |cfg| {
        cfg.test_fail_job = Some("table1".to_string());
    });
    let idx = coord.submit(table1()).expect("submits");
    assert_eq!(coord.poll().expect("spawns"), 0);
    woken.recv_timeout(NEVER).expect("death heard");
    assert_eq!(coord.poll().expect("reaps"), 0);
    let job = &coord.jobs()[idx];
    assert_eq!(
        (job.attempts(), job.is_done()),
        (1, false),
        "attempt consumed, retry pending"
    );
    assert_eq!(coord.in_flight(), 0, "backing off, not left running");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn coordinator_kills_still_work_with_a_watcher_on_the_worker() {
    // A worker that wedges is found by looking, not by its watcher — and
    // the watcher then reports the SIGKILL like any other exit, so the
    // thread ends with its worker.
    let dir = temp_dir("wake-hang");
    let (mut coord, woken) = woken_engine(&dir, |cfg| {
        cfg.test_hang_job = Some("table1".to_string());
        cfg.heartbeat_timeout = Duration::from_millis(300);
        cfg.backoff_base = Duration::from_millis(1);
    });
    let idx = coord.submit(table1()).expect("submits");
    while !coord.all_done() {
        coord.poll().expect("pass");
        let _ = woken.recv_timeout(Duration::from_millis(10));
    }
    assert_eq!(coord.jobs()[idx].outcome(), Some(&JobOutcome::Resumed(1)));
    let counters = coord.counters();
    assert_eq!(
        (counters.sigkills, counters.jobs_spawned),
        (1, 2),
        "{counters:?}"
    );
    let _ = std::fs::remove_dir_all(&dir);

    // A deadline on a wedged worker: killed at the deadline, no retry,
    // and the kill is heard.
    let dir = temp_dir("wake-deadline");
    let (mut coord, woken) = woken_engine(&dir, |cfg| {
        cfg.test_hang_job = Some("table1".to_string());
    });
    let mut spec = table1();
    spec.deadline = Some(Duration::from_millis(200));
    let idx = coord.submit(spec).expect("submits");
    assert_eq!(coord.poll().expect("spawns"), 0);
    assert!(
        woken.recv_timeout(Duration::from_millis(100)).is_err(),
        "a live worker wakes nobody"
    );
    while !coord.all_done() {
        std::thread::sleep(Duration::from_millis(10));
        coord.poll().expect("pass");
    }
    assert_eq!(
        coord.jobs()[idx].outcome(),
        Some(&JobOutcome::DeadlineExceeded)
    );
    assert_eq!(coord.counters().deadline_kills, 1);
    woken
        .recv_timeout(NEVER)
        .expect("the kill is heard: the watcher ended with its worker");
    let _ = std::fs::remove_dir_all(&dir);
}

/// A worker's slice-boundary pulses reach `Job::progress` while the
/// worker runs: fig7 sliced every 200 cycles crosses dozens of slice
/// boundaries in each of its renders and outlasts several beat intervals,
/// so more than one pulse is relayed, and each reads `cycle N: <vitals>`.
#[test]
fn a_workers_progress_pulses_reach_the_job_while_it_runs() {
    let dir = temp_dir("progress");
    let (mut coord, woken) = woken_engine(&dir, |cfg| cfg.checkpoint_every = 200);
    let spec = JobSpec::new("fig7", Scale::test(), "test", false);
    let idx = coord.submit(spec).expect("submits");
    let mut relayed: Vec<String> = Vec::new();
    while !coord.all_done() {
        coord.poll().expect("pass");
        let job = &coord.jobs()[idx];
        if let (true, Some(pulse)) = (job.is_running(), job.progress()) {
            if relayed.last().map(String::as_str) != Some(pulse) {
                relayed.push(pulse.to_string());
            }
        }
        let _ = woken.recv_timeout(Duration::from_millis(10));
    }
    assert_eq!(coord.jobs()[idx].outcome(), Some(&JobOutcome::Completed));
    assert!(relayed.len() >= 2, "pulses relayed live: {relayed:?}");
    for pulse in &relayed {
        let (cycle, vitals) = pulse
            .strip_prefix("cycle ")
            .and_then(|rest| rest.split_once(": "))
            .unwrap_or_else(|| panic!("{pulse}"));
        assert!(cycle.parse::<u64>().is_ok_and(|n| n > 0), "{pulse}");
        assert!(vitals.starts_with("issues "), "{pulse}");
    }
    let _ = std::fs::remove_dir_all(&dir);
}
