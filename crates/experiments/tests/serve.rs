//! End-to-end tests of `repro serve`: crash recovery via journal
//! replay, idempotent resubmission across restarts, provably bounded
//! admission control, per-request deadlines, and byte-identity of
//! served artifacts with serial renders.

use experiments::campaign::ExecCounters;
use experiments::serve::client::{self, ClientOpts};
use experiments::serve::{http, json};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

const REPRO: &str = env!("CARGO_BIN_EXE_repro");

fn temp_dir(tag: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("serve-e2e-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&d);
    std::fs::create_dir_all(&d).expect("temp dir");
    d
}

/// Serial reference bytes for one artifact at test scale.
fn serial_bytes(artifact: &str) -> Vec<u8> {
    let out = Command::new(REPRO)
        .args([artifact, "--scale", "test"])
        .output()
        .expect("repro binary runs");
    assert!(out.status.success(), "serial {artifact} run succeeds");
    out.stdout
}

/// A running server incarnation; killed on drop so a panicking test
/// never leaks the process.
struct Server {
    child: Child,
    serve_dir: PathBuf,
}

impl Server {
    fn start(serve_dir: &Path, extra: &[&str]) -> Server {
        let log = std::fs::File::create(serve_dir.join(format!(
            "serve-{}.log",
            std::time::SystemTime::now()
                .duration_since(std::time::UNIX_EPOCH)
                .map(|d| d.as_millis())
                .unwrap_or(0)
        )))
        .expect("server log file");
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
            .args(extra)
            .stdout(Stdio::null())
            .stderr(log)
            .spawn()
            .expect("server spawns");
        Server {
            child,
            serve_dir: serve_dir.to_path_buf(),
        }
    }

    fn endpoint_file(&self) -> PathBuf {
        self.serve_dir.join("endpoint")
    }

    fn opts(&self, artifacts: &[&str]) -> ClientOpts {
        ClientOpts {
            server: client::read_endpoint(&self.endpoint_file(), Duration::from_secs(30))
                .expect("server advertises its endpoint"),
            endpoint_file: Some(self.endpoint_file()),
            artifacts: artifacts.iter().map(|s| s.to_string()).collect(),
            scale_name: "test".to_string(),
            json: false,
            deadline_ms: None,
            concurrency: 2,
            out_dir: None,
            timeout: Duration::from_secs(240),
        }
    }

    /// `kill -9`: no drain, no cleanup — the crash the journal exists
    /// for.
    fn kill9(&mut self) {
        self.child.kill().expect("SIGKILL delivered");
        let _ = self.child.wait();
    }

    /// Requests graceful drain and waits for a clean exit.
    fn drain(mut self) {
        let opts = self.opts(&[]);
        let deadline = Instant::now() + Duration::from_secs(120);
        client::request_retry(&opts, "POST", "/drain", "", deadline).expect("drain accepted");
        let status = self.child.wait().expect("server exits");
        assert!(status.success(), "drained server exits 0, got {status}");
        // Disarm the Drop kill (already reaped).
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// Whether a `--worker-test-hang` worker whose arguments name a path
/// under `dir` is still running (read from `/proc`; a zombie has an empty
/// command line and no longer counts).
fn hung_worker_alive(dir: &Path) -> bool {
    let dir = dir.to_string_lossy();
    std::fs::read_dir("/proc")
        .into_iter()
        .flatten()
        .flatten()
        .any(|entry| {
            let Ok(cmdline) = std::fs::read(entry.path().join("cmdline")) else {
                return false;
            };
            let args: Vec<_> = cmdline
                .split(|&b| b == 0)
                .map(String::from_utf8_lossy)
                .collect();
            args.iter().any(|a| a == "--worker-test-hang")
                && args.iter().any(|a| a.starts_with(&*dir))
        })
}

fn healthz(opts: &ClientOpts) -> std::collections::BTreeMap<String, json::Value> {
    let deadline = Instant::now() + Duration::from_secs(30);
    let resp = client::request_retry(opts, "GET", "/healthz", "", deadline).expect("healthz");
    assert_eq!(resp.status, 200);
    json::parse_flat(&String::from_utf8_lossy(&resp.body)).expect("healthz is flat JSON")
}

/// The satellite-3 e2e: a request mix of cold, warm-cache, and
/// deadline-exceeding jobs; `kill -9` mid-flight; restart; journal
/// replay finishes accepted work with bytes identical to serial
/// renders — without the client resubmitting.
#[test]
fn kill9_recovery_replays_journal_and_matches_serial_bytes() {
    let dir = temp_dir("kill9");
    // The first incarnation hangs fig7's worker (test hook), pinning
    // that job in-flight so the kill below is deterministic, not a race
    // against a fast render.
    let mut server = Server::start(&dir, &["--chaos-hang-job", "fig7"]);
    let opts = server.opts(&[]);

    // Cold request runs to completion before any crash.
    let table3 = client::run_job(&opts, "table3").expect("cold table3");
    assert_eq!(table3.outcome, "completed");
    assert_eq!(
        table3.output.as_deref(),
        Some(serial_bytes("table3").as_slice()),
        "served bytes == serial bytes"
    );

    // Accept a longer job, then kill -9 the server mid-flight. The 202
    // has been issued, so this request must survive the crash.
    let fig7_body = "{\"artifact\": \"fig7\", \"scale\": \"test\"}";
    let deadline = Instant::now() + Duration::from_secs(60);
    let accept =
        client::request_retry(&opts, "POST", "/jobs", fig7_body, deadline).expect("fig7 submitted");
    assert_eq!(accept.status, 202, "fig7 accepted and journaled");
    let accept_map =
        json::parse_flat(&String::from_utf8_lossy(&accept.body)).expect("202 body parses");
    let fig7_id = json::get_str(&accept_map, "job")
        .expect("job id")
        .to_string();
    std::thread::sleep(Duration::from_millis(500));
    server.kill9();
    // The hung worker's coordinator is gone and no one is left to
    // SIGKILL it: orphaned, it exits by itself within a few heartbeats.
    let orphan_deadline = Instant::now() + Duration::from_secs(2);
    while hung_worker_alive(&dir) {
        assert!(
            Instant::now() < orphan_deadline,
            "the hung worker outlived its killed server"
        );
        std::thread::sleep(Duration::from_millis(20));
    }

    // Restart on the same serve dir — WITHOUT the hang hook, so the
    // replayed job can actually run. Journal replay must resubmit fig7
    // with no client action; we only poll the same job id.
    let server = Server::start(&dir, &[]);
    let opts = server.opts(&[]);
    let wait_deadline = Instant::now() + Duration::from_secs(180);
    let fig7_done = loop {
        let resp = client::request_retry(
            &opts,
            "GET",
            &format!("/jobs/{fig7_id}?wait_ms=2000"),
            "",
            wait_deadline,
        )
        .expect("status reachable after restart");
        assert_ne!(
            resp.status, 404,
            "journaled-but-unfinished job must be replayed, not lost"
        );
        let map = json::parse_flat(&String::from_utf8_lossy(&resp.body)).expect("status JSON");
        if json::get_str(&map, "state") == Some("done") {
            break map;
        }
        assert!(
            Instant::now() < wait_deadline,
            "fig7 must finish after replay"
        );
    };
    let outcome = json::get_str(&fig7_done, "outcome").expect("outcome");
    assert!(
        outcome == "completed" || outcome == "resumed" || outcome == "cached",
        "replayed job converges, got {outcome}"
    );
    let out = client::request_retry(
        &opts,
        "GET",
        &format!("/jobs/{fig7_id}/output"),
        "",
        Instant::now() + Duration::from_secs(30),
    )
    .expect("output fetch");
    assert_eq!(out.status, 200);
    assert_eq!(
        out.body,
        serial_bytes("fig7"),
        "post-crash bytes == serial bytes"
    );

    // Warm resubmission of the pre-crash artifact: the cache survived
    // the kill, so this is instant and still byte-identical.
    let warm = client::run_job(&opts, "table3").expect("warm table3");
    assert_eq!(warm.outcome, "cached");
    assert_eq!(
        warm.output.as_deref(),
        Some(serial_bytes("table3").as_slice())
    );

    // Deadline-exceeding request: a 1ms budget expires before any worker
    // finishes; typed outcome, no output, counted in /healthz.
    let mut dl_opts = opts.clone();
    dl_opts.deadline_ms = Some(1);
    let expired = client::run_job(&dl_opts, "fig9").expect("deadline job terminal");
    assert_eq!(expired.outcome, "deadline-exceeded");
    assert!(expired.output.is_none());

    let health = healthz(&opts);
    assert!(
        json::get_num(&health, "deadline_kills").unwrap_or(0) >= 1,
        "deadline kill surfaced in /healthz: {health:?}"
    );
    assert_eq!(
        json::get_num(&health, "queue_depth"),
        Some(0),
        "everything terminal"
    );

    server.drain();
    // After drain: journal empty (nothing accepted was lost or left
    // behind) and the final manifest records the degraded deadline job.
    let journal_left = std::fs::read_dir(dir.join("journal"))
        .map(|d| {
            d.flatten()
                .filter(|i| i.path().extension().and_then(|e| e.to_str()) == Some("job"))
                .count()
        })
        .unwrap_or(0);
    assert_eq!(journal_left, 0, "journal fully retired after drain");
    let manifest = std::fs::read_to_string(dir.join("manifest.json")).expect("final manifest");
    assert!(
        manifest.contains("\"outcome\": \"deadline-exceeded\""),
        "manifest records the deadline job: {manifest}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// The admission-bound acceptance criterion: under a flood the queue
/// never exceeds its configured capacity, excess requests get typed
/// shed responses with retry hints, the sheds are counted in
/// `/healthz`, and nothing accepted is lost.
#[test]
fn flood_sheds_typed_and_queue_stays_bounded() {
    let dir = temp_dir("flood");
    // Capacity 1: the first cold job occupies the whole queue.
    let server = Server::start(&dir, &["--queue-capacity", "1"]);
    let opts = server.opts(&[]);
    let deadline = Instant::now() + Duration::from_secs(60);

    let first = client::request_retry(
        &opts,
        "POST",
        "/jobs",
        "{\"artifact\": \"fig7\", \"scale\": \"test\"}",
        deadline,
    )
    .expect("first submit");
    assert_eq!(first.status, 202, "first job fills the queue");

    // Distinct artifacts (distinct fingerprints) must shed queue-full;
    // resubmitting the SAME artifact attaches idempotently instead.
    let mut sheds = 0;
    for artifact in ["fig3", "fig9", "table4"] {
        let body = format!("{{\"artifact\": \"{artifact}\", \"scale\": \"test\"}}");
        let resp =
            client::request_retry(&opts, "POST", "/jobs", &body, deadline).expect("flood submit");
        if resp.status == 429 {
            let map =
                json::parse_flat(&String::from_utf8_lossy(&resp.body)).expect("shed body JSON");
            assert_eq!(json::get_str(&map, "shed"), Some("queue-full"));
            assert!(resp.retry_after_ms.is_some(), "shed carries a retry hint");
            sheds += 1;
        } else {
            // fig7 may complete mid-flood and free the slot; anything
            // accepted must have been journaled, which drain verifies.
            assert_eq!(resp.status, 202);
        }
    }
    let dup = client::request_retry(
        &opts,
        "POST",
        "/jobs",
        "{\"artifact\": \"fig7\", \"scale\": \"test\"}",
        deadline,
    )
    .expect("duplicate submit");
    assert_eq!(
        dup.status, 202,
        "identical in-flight work attaches, never sheds"
    );

    let health = healthz(&opts);
    let depth = json::get_num(&health, "queue_depth").expect("queue_depth");
    assert!(depth <= 1, "queue depth {depth} exceeds capacity 1");
    assert!(
        json::get_num(&health, "shed_queue_full").unwrap_or(0) >= i64::from(sheds),
        "sheds counted in /healthz: {health:?}"
    );
    assert!(sheds >= 1, "flood produced at least one typed shed");

    // Everything accepted (202) must converge; drain proves it.
    server.drain();
    let manifest = std::fs::read_to_string(dir.join("manifest.json")).expect("final manifest");
    assert!(
        !manifest.contains("\"gave_up\": 1"),
        "accepted jobs all converge: {manifest}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// Rate limiting: with a 1-token bucket and no refill to speak of, the
/// second immediate submission sheds `rate-limited`.
#[test]
fn token_bucket_sheds_rate_limited() {
    let dir = temp_dir("rate");
    let server = Server::start(&dir, &["--rate", "1", "--burst", "1"]);
    let opts = server.opts(&[]);
    let deadline = Instant::now() + Duration::from_secs(30);

    let first = client::request_retry(
        &opts,
        "POST",
        "/jobs",
        "{\"artifact\": \"table3\", \"scale\": \"test\"}",
        deadline,
    )
    .expect("first submit");
    assert_eq!(first.status, 202);
    let second = client::request_retry(
        &opts,
        "POST",
        "/jobs",
        "{\"artifact\": \"fig3\", \"scale\": \"test\"}",
        deadline,
    )
    .expect("second submit");
    assert_eq!(second.status, 429, "bucket empty: typed shed");
    let map = json::parse_flat(&String::from_utf8_lossy(&second.body)).expect("shed body");
    assert_eq!(json::get_str(&map, "shed"), Some("rate-limited"));
    let hint = second.retry_after_ms.expect("retry hint present");
    assert!(hint >= 1, "hint must be a real wait, got {hint}");

    let health = healthz(&opts);
    assert!(json::get_num(&health, "shed_rate_limited").unwrap_or(0) >= 1);
    server.drain();
    let _ = std::fs::remove_dir_all(&dir);
}

/// Result-cache entries written by the binary of the commit before job
/// fingerprints were computed from constants (`repro campaign --scale
/// test --only table3,fig2,fig7`), copied into a fresh server's cache.
const PARENT_CACHE: [&str; 3] = ["table3", "fig2", "fig7"];

fn seed_parent_cache(serve_dir: &Path) {
    let fixtures = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/parent_cache");
    let cache = serve_dir.join("cache");
    std::fs::create_dir_all(&cache).expect("cache dir");
    let mut copied = 0;
    for item in std::fs::read_dir(&fixtures).expect("fixture dir").flatten() {
        std::fs::copy(item.path(), cache.join(item.file_name())).expect("copy fixture");
        copied += 1;
    }
    assert_eq!(copied, PARENT_CACHE.len(), "one entry per fixture artifact");
}

/// An idle server's accept thread is blocked in `accept()` with nobody
/// connecting; drain must still get it out.
#[test]
fn drain_on_an_idle_server_exits_promptly() {
    let dir = temp_dir("idle-drain");
    let mut server = Server::start(&dir, &[]);
    let opts = server.opts(&[]);
    let resp = client::request(&opts.server, "POST", "/drain", "").expect("drain reachable");
    assert_eq!(resp.status, 200);
    let asked = Instant::now();
    let status = loop {
        if let Some(status) = server.child.try_wait().expect("server waitable") {
            break status;
        }
        assert!(
            asked.elapsed() < Duration::from_secs(2),
            "an idle server is still running 2 s after POST /drain"
        );
        std::thread::sleep(Duration::from_millis(5));
    };
    assert!(status.success(), "drained server exits 0, got {status}");
    let _ = std::fs::remove_dir_all(&dir);
}

/// A cache directory the parent binary wrote is this build's cache: every
/// entry is found under the same key and comes back `cached`, byte for
/// byte the serial render.
#[test]
fn a_cache_written_by_the_parent_binary_is_served_as_hits() {
    let dir = temp_dir("parent-cache");
    seed_parent_cache(&dir);
    let server = Server::start(&dir, &[]);
    let opts = server.opts(&[]);
    for artifact in PARENT_CACHE {
        let job = client::run_job(&opts, artifact).expect("trip completes");
        assert_eq!(job.outcome, "cached", "{artifact} was recomputed");
        assert_eq!(
            job.output.as_deref(),
            Some(serial_bytes(artifact).as_slice()),
            "{artifact}: cached bytes == serial bytes"
        );
    }
    let health = healthz(&opts);
    assert_eq!(json::get_num(&health, "cache_hits"), Some(3), "{health:?}");
    assert_eq!(json::get_num(&health, "fresh_completions"), Some(0));
    // One POST, one status and one output request per trip, each timed.
    for route in ["post_jobs", "get_status", "get_output"] {
        assert_eq!(
            json::get_num(&health, &format!("{route}_requests")),
            Some(3),
            "{route}: {health:?}"
        );
        assert!(json::get_num(&health, &format!("{route}_handler_us")).is_some());
    }
    server.drain();
    let _ = std::fs::remove_dir_all(&dir);
}

/// A server's own `--json` is no request's output mode: a server started
/// with it answers a text request with the serial text bytes, and a JSON
/// request with the serial JSON bytes.
#[test]
fn each_request_gets_its_own_output_mode_from_a_json_server() {
    let dir = temp_dir("json-server");
    let server = Server::start(&dir, &["--json"]);
    let mut opts = server.opts(&[]);
    let text = client::run_job(&opts, "table1").expect("text trip completes");
    assert_eq!(
        text.output.as_deref(),
        Some(serial_bytes("table1").as_slice())
    );
    opts.json = true;
    let json = client::run_job(&opts, "table1").expect("json trip completes");
    let serial = Command::new(REPRO)
        .args(["table1", "--scale", "test", "--json"])
        .output()
        .expect("repro binary runs");
    assert!(serial.status.success());
    assert_eq!(json.output.as_deref(), Some(serial.stdout.as_slice()));
    server.drain();
    let _ = std::fs::remove_dir_all(&dir);
}

/// Warm hits wait on no timer: the median of 50 POST → status → output
/// trips stays under 5 ms — a third of what three exchanges cost when
/// each waited out a 5 ms accept tick, ten times what they cost now, so
/// it trips on a reintroduced tick and not on a busy host — and a peer
/// that connects and then says nothing holds up nobody else.
#[test]
fn warm_trips_are_not_quantised_and_a_silent_peer_delays_nobody() {
    let dir = temp_dir("warm-trips");
    seed_parent_cache(&dir);
    let server = Server::start(&dir, &[]);
    let opts = server.opts(&[]);
    // Load each result from disk into the server's memory.
    for artifact in PARENT_CACHE {
        let job = client::run_job(&opts, artifact).expect("priming trip");
        assert_eq!(job.outcome, "cached");
    }
    // Connected, accepted, handed to a handler thread that now waits for
    // a request line that never comes.
    let silent = std::net::TcpStream::connect(&opts.server).expect("silent peer connects");
    let mut trips_ms = Vec::new();
    for i in 0..50 {
        let start = Instant::now();
        let job = client::run_job(&opts, PARENT_CACHE[i % PARENT_CACHE.len()]).expect("warm trip");
        trips_ms.push(start.elapsed().as_secs_f64() * 1e3);
        assert_eq!(job.outcome, "cached");
        assert_eq!((job.sheds, job.resubmits), (0, 0));
    }
    drop(silent);
    trips_ms.sort_by(f64::total_cmp);
    let median = trips_ms[trips_ms.len() / 2];
    assert!(
        median < 5.0,
        "median warm trip {median:.2} ms (fastest {:.2}, slowest {:.2})",
        trips_ms[0],
        trips_ms[trips_ms.len() - 1]
    );
    server.drain();
    let _ = std::fs::remove_dir_all(&dir);
}

/// A cold job waits on no timer either: the pump is woken when the
/// worker's stdout closes, so five distinct cheap jobs, posted one after
/// another, each go from POST to `state: done` in what the worker process
/// takes (4–5 ms here) — where learning of an exit at the next
/// `PUMP_TICK`, which starts at the spawn, made every one of them at least
/// 10 ms. The stage clocks in `/healthz` say the same from inside: a
/// finished worker waits for the pump for microseconds, not half a tick.
///
/// The bound is on time a worker process takes, which the sibling tests'
/// simulations double while they share the host's cores; so the trips are
/// made up to three times, each on a fresh server, and one quiet round is
/// enough. A timer back on the path fails all three by construction.
#[test]
fn cold_trips_are_not_quantised_to_the_pump_tick() {
    const CHEAP: [&str; 5] = ["table1", "table2", "table3", "table4", "fig2"];
    let mut rounds = Vec::new();
    for round in 0..3 {
        let dir = temp_dir(&format!("cold-trips-{round}"));
        let server = Server::start(&dir, &[]);
        let opts = server.opts(&[]);
        let mut trips_ms = Vec::new();
        for artifact in CHEAP {
            let body = format!("{{\"artifact\": \"{artifact}\", \"scale\": \"test\"}}");
            let start = Instant::now();
            let accept =
                client::request(&opts.server, "POST", "/jobs", &body).expect("POST answered");
            assert_eq!(accept.status, 202);
            let accepted =
                json::parse_flat(&String::from_utf8_lossy(&accept.body)).expect("202 body parses");
            assert_eq!(json::get_bool(&accepted, "warm"), Some(false), "{artifact}");
            let job = json::get_str(&accepted, "job").expect("job id");
            let poll = format!("/jobs/{job}?wait_ms=20000");
            let status = client::request(&opts.server, "GET", &poll, "").expect("poll answered");
            trips_ms.push(start.elapsed().as_secs_f64() * 1e3);
            let text = String::from_utf8_lossy(&status.body).into_owned();
            let map = json::parse_flat(&text).expect("status body parses");
            assert_eq!(json::get_str(&map, "state"), Some("done"), "{text}");
            assert_eq!(json::get_str(&map, "outcome"), Some("completed"), "{text}");
        }
        let health = healthz(&opts);
        let spawned = json::get_num(&health, "jobs_spawned").expect("jobs_spawned");
        assert_eq!(spawned, CHEAP.len() as i64, "{health:?}");
        let lag_us = json::get_num(&health, "exit_seen_lag_us").expect("exit_seen_lag_us");
        assert!(
            lag_us / spawned < 2000,
            "a finished worker waited {} us for the pump on average: {health:?}",
            lag_us / spawned
        );
        for clock in ["queue_wait_us", "worker_run_us"] {
            assert!(
                json::get_num(&health, clock).is_some_and(|us| us > 0),
                "{clock}: {health:?}"
            );
        }
        // Every degradation counter is there under its field name.
        for name in ExecCounters::NAMES {
            assert!(json::get_num(&health, name).is_some(), "{name}: {health:?}");
        }
        assert_eq!(
            json::get_num(&health, "fresh_completions"),
            Some(CHEAP.len() as i64)
        );
        server.drain();
        let _ = std::fs::remove_dir_all(&dir);
        rounds.push(trips_ms.clone());
        trips_ms.sort_by(f64::total_cmp);
        if trips_ms[trips_ms.len() / 2] < 8.0 {
            return;
        }
    }
    panic!("median cold trip of 8 ms or more in every round: {rounds:.2?}");
}

/// What the accept thread cannot answer at once gets a thread of its own
/// and the same answer: a request that arrives in two pieces a pause
/// apart (the thread goes on from the bytes already read), and a
/// long-poll on a job that is still running, during which other peers
/// are served.
#[test]
fn a_request_in_pieces_and_a_parked_poll_leave_the_accept_thread_free() {
    use std::io::Write;
    let dir = temp_dir("slow-paths");
    let server = Server::start(&dir, &[]);
    let opts = server.opts(&[]);
    let body = "{\"artifact\": \"fig7\", \"scale\": \"test\", \"json\": false}";
    let message = format!(
        "POST /jobs HTTP/1.1\r\nHost: x\r\nContent-Length: {}\r\n\r\n{body}",
        body.len()
    );
    // Cut inside the body: the head alone says more is to come.
    let (front, back) = message.split_at(message.len() - 10);
    let mut peer = std::net::TcpStream::connect(&opts.server).expect("peer connects");
    peer.write_all(front.as_bytes()).expect("front sent");
    std::thread::sleep(Duration::from_millis(50));
    peer.write_all(back.as_bytes()).expect("back sent");
    let resp = http::read_response(&mut std::io::BufReader::new(peer)).expect("answered");
    let text = String::from_utf8_lossy(&resp.body).into_owned();
    assert_eq!(resp.status, 202, "{text}");
    let accepted = json::parse_flat(&text).expect("202 body parses");
    let job = json::get_str(&accepted, "job").expect("job id").to_string();

    let addr = opts.server.clone();
    let poll = std::thread::spawn(move || {
        client::request(&addr, "GET", &format!("/jobs/{job}?wait_ms=20000"), "")
    });
    let asked = Instant::now();
    let ready = client::request(&opts.server, "GET", "/readyz", "").expect("readyz reachable");
    assert_eq!(ready.status, 200);
    assert!(
        asked.elapsed() < Duration::from_secs(2),
        "readyz waited {:?} behind a long-poll",
        asked.elapsed()
    );
    let status = poll.join().expect("poll thread").expect("poll answered");
    assert_eq!(status.status, 200);
    let text = String::from_utf8_lossy(&status.body).into_owned();
    let map = json::parse_flat(&text).expect("status body parses");
    assert_eq!(json::get_str(&map, "state"), Some("done"), "{text}");
    server.drain();
    let _ = std::fs::remove_dir_all(&dir);
}
