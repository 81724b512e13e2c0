//! End-to-end tests of the workload registry front-ends: the `repro
//! list` catalog, typed unknown-workload errors at the CLI and over
//! `repro serve`, extended workloads (`bvh`, `microdiv`) running
//! through the campaign engine with ground-truth validation,
//! variant-qualified job names, the usage path for a flag `repro` does
//! not have, and replay of journal entries written in the pre-registry
//! bare-name format or under a fingerprint that has since gone stale.

use experiments::campaign;
use experiments::serve::client::{self, ClientOpts};
use experiments::serve::journal::Journal;
use experiments::serve::json;
use experiments::Scale;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Output, Stdio};
use std::time::{Duration, Instant};

const REPRO: &str = env!("CARGO_BIN_EXE_repro");

fn temp_dir(tag: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("registry-e2e-{tag}-{}", std::process::id()));
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

/// Serial reference bytes: each job rendered alone at test scale,
/// stdout concatenated in the given order.
fn serial_bytes(jobs: &[&str]) -> Vec<u8> {
    let mut bytes = Vec::new();
    for job in jobs {
        let out = repro(&[job, "--scale", "test"]);
        assert!(out.status.success(), "serial {job} run succeeds");
        bytes.extend_from_slice(&out.stdout);
    }
    bytes
}

#[test]
fn repro_list_prints_the_full_catalog() {
    let out = repro(&["list"]);
    assert!(out.status.success(), "repro list exits 0");
    let text = String::from_utf8(out.stdout).expect("utf-8 catalog");
    let lines: Vec<&str> = text.lines().collect();
    assert!(
        lines.len() >= 12,
        "catalog lists every workload, got {} lines",
        lines.len()
    );
    for w in experiments::workload::all() {
        let line = lines
            .iter()
            .find(|l| l.starts_with(w.id))
            .unwrap_or_else(|| panic!("{} missing from `repro list`", w.id));
        assert!(
            line.contains(&w.group.to_string()),
            "{} line carries its group: {line}",
            w.id
        );
    }
    // Extended workloads advertise their standalone variants.
    assert!(text.contains("bvh") && text.contains("[variants: pdom-warp, dynamic]"));
    assert!(text.contains("microdiv"));
}

#[test]
fn unknown_workloads_are_typed_cli_errors() {
    for bad in ["bogus", "bvh@warp9"] {
        let out = repro(&[bad, "--scale", "test"]);
        assert_eq!(out.status.code(), Some(2), "{bad} exits 2");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(
            err.contains("unknown workload") && err.contains("repro list"),
            "{bad} reports the typed error and points at the catalog: {err}"
        );
    }
    // A known workload with a variant it does not run standalone is the
    // other typed rejection.
    let out = repro(&["fig3@dynamic", "--scale", "test"]);
    assert_eq!(out.status.code(), Some(2));
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(
        err.contains("does not run standalone variant"),
        "variant-on-paper-artifact is a typed error: {err}"
    );
}

/// `--parallel` was a flag once; like any other flag `repro` does not
/// have, it is refused with the usage text rather than swallowed.
#[test]
fn the_removed_parallel_flag_takes_the_usage_path() {
    let out = repro(&["fig3", "--scale", "test", "--parallel", "2"]);
    assert_eq!(out.status.code(), Some(2), "an unknown flag exits 2");
    assert!(out.stdout.is_empty(), "nothing is rendered");
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.starts_with("usage: repro"), "usage on stderr: {err}");
    assert!(!err.contains("--parallel"), "usage no longer offers it");
}

/// The extended workloads run through the full campaign engine: sharded
/// workers, result cache, manifest — with their built-in host-reference
/// validation (a ground-truth mismatch would fail the job and the
/// campaign).
#[test]
fn extended_workloads_run_through_campaign_with_ground_truth() {
    let dir = temp_dir("extended");
    let dir_s = dir.to_str().expect("utf-8 temp path");
    let want = serial_bytes(&["bvh", "microdiv"]);

    let cold = repro(&[
        "campaign",
        "--scale",
        "test",
        "--workers",
        "2",
        "--only",
        "bvh,microdiv",
        "--campaign-dir",
        dir_s,
    ]);
    assert!(
        cold.status.success(),
        "extended campaign succeeds: {}",
        String::from_utf8_lossy(&cold.stderr)
    );
    assert_eq!(cold.stdout, want, "campaign bytes == serial bytes");

    // Warm: both jobs replay from the content-addressed cache.
    let warm = repro(&[
        "campaign",
        "--scale",
        "test",
        "--workers",
        "2",
        "--only",
        "bvh,microdiv",
        "--campaign-dir",
        dir_s,
    ]);
    assert!(warm.status.success());
    assert_eq!(warm.stdout, want, "cached bytes == serial bytes");
    let manifest =
        std::fs::read_to_string(dir.join("manifest.json")).expect("campaign wrote its manifest");
    assert_eq!(
        manifest.matches("\"outcome\": \"cached\"").count(),
        2,
        "both extended jobs served from cache: {manifest}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// Variant-qualified job names (`workload@variant`) are first-class
/// campaign citizens: scheduled, cached, and byte-stable like any other
/// job.
#[test]
fn variant_qualified_names_are_first_class_jobs() {
    let dir = temp_dir("variant");
    let dir_s = dir.to_str().expect("utf-8 temp path");
    // Campaign output follows canonical registry order (bvh before
    // microdiv), not the `--only` listing order.
    let want = serial_bytes(&["bvh@pdom-warp", "microdiv@dynamic"]);

    let cold = repro(&[
        "campaign",
        "--scale",
        "test",
        "--workers",
        "2",
        "--only",
        "microdiv@dynamic,bvh@pdom-warp",
        "--campaign-dir",
        dir_s,
    ]);
    assert!(
        cold.status.success(),
        "variant campaign succeeds: {}",
        String::from_utf8_lossy(&cold.stderr)
    );
    assert_eq!(cold.stdout, want, "variant-narrowed bytes == serial bytes");

    // An unknown job name fails the campaign up front with the typed
    // error, before any worker runs.
    let bad = repro(&[
        "campaign",
        "--scale",
        "test",
        "--only",
        "microdiv@warp9",
        "--campaign-dir",
        dir_s,
    ]);
    assert!(!bad.status.success(), "unknown job name fails the campaign");
    assert!(
        String::from_utf8_lossy(&bad.stderr).contains("unknown workload"),
        "campaign reports the typed error"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

struct Server {
    child: Child,
    serve_dir: PathBuf,
}

impl Server {
    fn start(serve_dir: &Path) -> Server {
        let log = std::fs::File::create(serve_dir.join("serve.log")).expect("server log file");
        let child = Command::new(REPRO)
            .args([
                "serve",
                "--serve-dir",
                serve_dir.to_str().expect("utf-8 path"),
                "--scale",
                "test",
                "--workers",
                "2",
            ])
            .stdout(Stdio::null())
            .stderr(log)
            .spawn()
            .expect("server spawns");
        Server {
            child,
            serve_dir: serve_dir.to_path_buf(),
        }
    }

    fn opts(&self) -> ClientOpts {
        let endpoint = self.serve_dir.join("endpoint");
        ClientOpts {
            server: client::read_endpoint(&endpoint, Duration::from_secs(30))
                .expect("server advertises its endpoint"),
            endpoint_file: Some(endpoint),
            artifacts: Vec::new(),
            scale_name: "test".to_string(),
            json: false,
            deadline_ms: None,
            concurrency: 2,
            out_dir: None,
            timeout: Duration::from_secs(240),
        }
    }

    fn drain(mut self) {
        let opts = self.opts();
        let deadline = Instant::now() + Duration::from_secs(120);
        client::request_retry(&opts, "POST", "/drain", "", deadline).expect("drain accepted");
        let status = self.child.wait().expect("server exits");
        assert!(status.success(), "drained server exits 0, got {status}");
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// Satellite 2's compat contract: a journal entry written before the
/// registry existed — a bare artifact name in the unchanged frame
/// format — must replay on boot and finish with serial-identical bytes.
/// Piggybacks the serve-side typed rejection: an unknown workload name
/// is a 400, not a crash or a queued ghost.
#[test]
fn pre_registry_journal_entries_replay_after_restart() {
    let dir = temp_dir("journal-compat");

    // Hand-write the journal entry exactly as a pre-registry server
    // would have: bare artifact name, same sealed frame format.
    let fingerprint = campaign::job_fingerprint("table3", Scale::test(), false);
    {
        let (mut journal, replay) =
            Journal::open(&dir.join("journal")).expect("fresh journal opens");
        assert!(replay.is_empty());
        journal
            .append("table3", "test", false, 0, fingerprint)
            .expect("entry journaled");
    }

    // Boot on that serve dir: replay must resubmit the job with no
    // client action; we only poll its public id.
    let server = Server::start(&dir);
    let opts = server.opts();
    let job_id = format!("{fingerprint:016x}");
    let wait_deadline = Instant::now() + Duration::from_secs(120);
    loop {
        let resp = client::request_retry(
            &opts,
            "GET",
            &format!("/jobs/{job_id}?wait_ms=2000"),
            "",
            wait_deadline,
        )
        .expect("status reachable");
        assert_ne!(resp.status, 404, "journaled job must be replayed, not lost");
        let map = json::parse_flat(&String::from_utf8_lossy(&resp.body)).expect("status JSON");
        if json::get_str(&map, "state") == Some("done") {
            break;
        }
        assert!(
            Instant::now() < wait_deadline,
            "replayed job must finish in time"
        );
    }
    let out = client::request_retry(
        &opts,
        "GET",
        &format!("/jobs/{job_id}/output"),
        "",
        Instant::now() + Duration::from_secs(30),
    )
    .expect("output fetch");
    assert_eq!(out.status, 200);
    assert_eq!(
        out.body,
        serial_bytes(&["table3"]),
        "replayed bytes == serial bytes"
    );

    // Unknown workload over the wire: typed 400 with the catalog hint.
    let resp = client::request_retry(
        &opts,
        "POST",
        "/jobs",
        "{\"artifact\": \"bogus\", \"scale\": \"test\"}",
        Instant::now() + Duration::from_secs(30),
    )
    .expect("submit reaches the server");
    assert_eq!(resp.status, 400, "unknown workload is shed as a 400");
    assert!(
        String::from_utf8_lossy(&resp.body).contains("unknown workload"),
        "400 body carries the typed error"
    );

    server.drain();
    let _ = std::fs::remove_dir_all(&dir);
}

/// A journal entry whose fingerprint went stale — its job's inputs
/// changed between admission and replay — completes under the job's
/// current id, and its entry is retired: the drained journal is empty
/// instead of replaying the entry on every boot.
#[test]
fn a_stale_journal_entry_is_retired_under_its_current_id() {
    let dir = temp_dir("journal-stale");
    let fingerprint = campaign::job_fingerprint("table1", Scale::test(), false);
    let stale = fingerprint ^ 1;
    let journal_dir = dir.join("journal");
    {
        let (mut journal, _) = Journal::open(&journal_dir).expect("fresh journal opens");
        journal
            .append("table1", "test", false, 0, stale)
            .expect("entry journaled");
    }

    let server = Server::start(&dir);
    let opts = server.opts();
    let deadline = Instant::now() + Duration::from_secs(120);
    loop {
        let resp = client::request_retry(
            &opts,
            "GET",
            &format!("/jobs/{fingerprint:016x}?wait_ms=2000"),
            "",
            deadline,
        )
        .expect("status reachable");
        assert_eq!(
            resp.status, 200,
            "the replayed job runs under its current id"
        );
        let map = json::parse_flat(&String::from_utf8_lossy(&resp.body)).expect("status JSON");
        if json::get_str(&map, "state") == Some("done") {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "replayed job must finish in time"
        );
    }
    let old = client::request_retry(&opts, "GET", &format!("/jobs/{stale:016x}"), "", deadline)
        .expect("status reachable");
    assert_eq!(old.status, 404, "the stale id names no job");
    server.drain();

    let left: Vec<PathBuf> = std::fs::read_dir(&journal_dir)
        .expect("journal dir")
        .flatten()
        .map(|e| e.path())
        .filter(|p| p.extension().is_some_and(|x| x == "job"))
        .collect();
    assert!(left.is_empty(), "entries left to replay: {left:?}");
    let _ = std::fs::remove_dir_all(&dir);
}
