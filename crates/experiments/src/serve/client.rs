//! Client side of the `repro serve` job API — the load generator the
//! CI smoke test and e2e tests drive, usable standalone as `repro
//! client`.
//!
//! The client is deliberately paranoid about server crashes, because
//! the server is deliberately crashy under chaos testing. Every
//! operation retries connection failures with backoff (a restarting
//! server refuses connections for a moment), honors typed shed
//! responses by sleeping out the `retry_after_ms` hint, and treats a
//! 404 for a previously accepted job as the documented restart signal:
//! resubmit, which is free — job identity is the content fingerprint,
//! so a result the dead incarnation banked comes back as an instant
//! warm hit.

use super::http::{read_response, Response};
use super::json;
use std::io::{BufReader, Write};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// One client workload description.
#[derive(Debug, Clone)]
pub struct ClientOpts {
    /// Server address (`host:port`).
    pub server: String,
    /// Endpoint file to re-resolve the address from on connection
    /// failure. A restarted server on an ephemeral port (`--bind
    /// 127.0.0.1:0`) binds a *new* port; the endpoint file is the
    /// rendezvous that keeps clients attached across restarts.
    pub endpoint_file: Option<PathBuf>,
    /// Artifacts to submit.
    pub artifacts: Vec<String>,
    /// Scale name sent with each request.
    pub scale_name: String,
    /// Request `--json` rendering.
    pub json: bool,
    /// Per-request deadline to attach (milliseconds).
    pub deadline_ms: Option<u64>,
    /// Concurrent submitter threads.
    pub concurrency: usize,
    /// Directory to write fetched outputs into (`<artifact>.out`).
    pub out_dir: Option<PathBuf>,
    /// Overall per-job budget (submission through output fetch),
    /// including riding out server restarts.
    pub timeout: Duration,
}

/// Reads a server address from an endpoint file written by `repro
/// serve` (retrying briefly: the caller may race the server's boot).
///
/// # Errors
///
/// The file never appeared or never held an address.
pub fn read_endpoint(path: &Path, timeout: Duration) -> Result<String, String> {
    let deadline = Instant::now() + timeout;
    loop {
        if let Ok(s) = std::fs::read_to_string(path) {
            let addr = s.trim();
            if !addr.is_empty() {
                return Ok(addr.to_string());
            }
        }
        if Instant::now() >= deadline {
            return Err(format!(
                "no endpoint at {} after {timeout:?}",
                path.display()
            ));
        }
        std::thread::sleep(Duration::from_millis(50));
    }
}

/// One raw HTTP exchange.
///
/// # Errors
///
/// Connection or framing trouble (the caller decides whether to retry).
pub fn request(addr: &str, method: &str, path: &str, body: &str) -> Result<Response, String> {
    let mut stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
    stream
        .set_read_timeout(Some(Duration::from_secs(45)))
        .map_err(|e| format!("timeout: {e}"))?;
    let _ = stream.set_nodelay(true);
    // Head and body in one write: one segment for a small request.
    let message = format!(
        "{method} {path} HTTP/1.1\r\nHost: {addr}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    );
    stream
        .write_all(message.as_bytes())
        .map_err(|e| format!("send: {e}"))?;
    read_response(&mut BufReader::new(stream))
}

/// Like [`request`], but rides out connection failures (server
/// restarting) with backoff until `deadline`, re-resolving the address
/// from `opts.endpoint_file` between attempts — a restarted server on
/// an ephemeral port advertises its new address there.
///
/// # Errors
///
/// The deadline passed without a successful exchange.
pub fn request_retry(
    opts: &ClientOpts,
    method: &str,
    path: &str,
    body: &str,
    deadline: Instant,
) -> Result<Response, String> {
    let mut addr = opts.server.clone();
    loop {
        let last = match request(&addr, method, path, body) {
            Ok(resp) => return Ok(resp),
            Err(e) => e,
        };
        if Instant::now() >= deadline {
            return Err(format!("gave up on {method} {path}: {last}"));
        }
        std::thread::sleep(Duration::from_millis(100));
        if let Some(file) = &opts.endpoint_file {
            if let Ok(s) = std::fs::read_to_string(file) {
                let fresh = s.trim();
                if !fresh.is_empty() {
                    addr = fresh.to_string();
                }
            }
        }
    }
}

/// Result of driving one artifact through the full submit → wait →
/// fetch flow.
#[derive(Debug)]
pub struct JobResult {
    /// Artifact name.
    pub artifact: String,
    /// Job id the server assigned (fingerprint hex).
    pub job: String,
    /// Final outcome tag from the status endpoint.
    pub outcome: String,
    /// Output bytes (terminal non-degraded jobs only).
    pub output: Option<Vec<u8>>,
    /// Typed sheds absorbed along the way.
    pub sheds: u64,
    /// Resubmissions forced by server restarts (404s).
    pub resubmits: u64,
}

/// The request body for one artifact under `opts`.
fn body_for(opts: &ClientOpts, artifact: &str) -> String {
    let mut body = format!(
        "{{\"artifact\": \"{}\", \"scale\": \"{}\", \"json\": {}",
        json::escape(artifact),
        json::escape(&opts.scale_name),
        opts.json
    );
    if let Some(ms) = opts.deadline_ms {
        body.push_str(&format!(", \"deadline_ms\": {ms}"));
    }
    body.push('}');
    body
}

/// Submits until accepted (absorbing sheds and restarts), returning
/// `(job id, sheds absorbed)`.
fn submit_until_accepted(
    opts: &ClientOpts,
    artifact: &str,
    deadline: Instant,
) -> Result<(String, u64), String> {
    let body = body_for(opts, artifact);
    let mut sheds = 0u64;
    loop {
        let resp = request_retry(opts, "POST", "/jobs", &body, deadline)?;
        match resp.status {
            202 => {
                let text = String::from_utf8_lossy(&resp.body).into_owned();
                let map =
                    json::parse_flat(&text).map_err(|e| format!("bad 202 body {text:?}: {e}"))?;
                let job = json::get_str(&map, "job")
                    .ok_or_else(|| format!("202 body missing job id: {text:?}"))?;
                return Ok((job.to_string(), sheds));
            }
            429 | 503 => {
                sheds += 1;
                if Instant::now() >= deadline {
                    return Err(format!(
                        "shed until deadline: {}",
                        String::from_utf8_lossy(&resp.body)
                    ));
                }
                std::thread::sleep(Duration::from_millis(
                    resp.retry_after_ms.unwrap_or(100).clamp(10, 2000),
                ));
            }
            other => {
                return Err(format!(
                    "submit {artifact}: HTTP {other}: {}",
                    String::from_utf8_lossy(&resp.body)
                ));
            }
        }
    }
}

/// Drives one artifact end to end: submit (absorbing sheds), long-poll
/// to terminal (resubmitting across restarts), fetch output.
///
/// # Errors
///
/// Budget exhausted or a protocol-level surprise.
pub fn run_job(opts: &ClientOpts, artifact: &str) -> Result<JobResult, String> {
    let deadline = Instant::now() + opts.timeout;
    let (mut job, mut sheds) = submit_until_accepted(opts, artifact, deadline)?;
    let mut resubmits = 0u64;
    // A 404 anywhere after acceptance means a restarted server retired
    // this job before we collected it. Resubmitting is the documented
    // recovery: identity is the fingerprint, a banked result is an
    // instant warm hit.
    let resubmit = |job: &mut String, sheds: &mut u64, resubmits: &mut u64| {
        *resubmits += 1;
        submit_until_accepted(opts, artifact, deadline).map(|(j, s)| {
            *job = j;
            *sheds += s;
        })
    };
    'collect: loop {
        let outcome = loop {
            let path = format!("/jobs/{job}?wait_ms=2000");
            let resp = request_retry(opts, "GET", &path, "", deadline)?;
            match resp.status {
                200 => {
                    let text = String::from_utf8_lossy(&resp.body).into_owned();
                    let map = json::parse_flat(&text)
                        .map_err(|e| format!("bad status body {text:?}: {e}"))?;
                    if json::get_str(&map, "state") == Some("done") {
                        break json::get_str(&map, "outcome")
                            .unwrap_or("unknown")
                            .to_string();
                    }
                }
                404 => resubmit(&mut job, &mut sheds, &mut resubmits)?,
                other => {
                    return Err(format!(
                        "status {artifact}: HTTP {other}: {}",
                        String::from_utf8_lossy(&resp.body)
                    ));
                }
            }
            if Instant::now() >= deadline {
                return Err(format!(
                    "{artifact}: not terminal within {:?}",
                    opts.timeout
                ));
            }
        };
        let output =
            if outcome == "gave-up" || outcome == "failed" || outcome == "deadline-exceeded" {
                None
            } else {
                let resp =
                    request_retry(opts, "GET", &format!("/jobs/{job}/output"), "", deadline)?;
                match resp.status {
                    200 => Some(resp.body),
                    404 => {
                        // Crashed between status and fetch; go around again.
                        resubmit(&mut job, &mut sheds, &mut resubmits)?;
                        continue 'collect;
                    }
                    other => {
                        return Err(format!(
                            "output {artifact}: HTTP {other}: {}",
                            String::from_utf8_lossy(&resp.body)
                        ));
                    }
                }
            };
        return Ok(JobResult {
            artifact: artifact.to_string(),
            job,
            outcome,
            output,
            sheds,
            resubmits,
        });
    }
}

/// Runs the whole workload across `opts.concurrency` submitter threads,
/// writing outputs to `opts.out_dir` and printing one summary line per
/// job.
///
/// # Errors
///
/// The first per-job error encountered (after letting every thread
/// finish).
pub fn run_workload(opts: &ClientOpts) -> Result<Vec<JobResult>, String> {
    if let Some(dir) = &opts.out_dir {
        std::fs::create_dir_all(dir)
            .map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
    }
    let next = std::sync::atomic::AtomicUsize::new(0);
    let results: std::sync::Mutex<Vec<Result<JobResult, String>>> =
        std::sync::Mutex::new(Vec::new());
    std::thread::scope(|scope| {
        for _ in 0..opts.concurrency.max(1) {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                let Some(artifact) = opts.artifacts.get(i) else {
                    return;
                };
                let outcome = run_job(opts, artifact);
                results
                    .lock()
                    .unwrap_or_else(std::sync::PoisonError::into_inner)
                    .push(outcome);
            });
        }
    });
    let mut collected = results
        .into_inner()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    // Deterministic reporting order regardless of completion order.
    collected.sort_by_key(|r| match r {
        Ok(j) => opts
            .artifacts
            .iter()
            .position(|a| *a == j.artifact)
            .unwrap_or(usize::MAX),
        Err(_) => usize::MAX,
    });
    let mut out = Vec::new();
    for item in collected {
        let job = item?;
        eprintln!(
            "client: {}: {} (job {}, {} shed(s), {} resubmit(s))",
            job.artifact, job.outcome, job.job, job.sheds, job.resubmits
        );
        if let (Some(dir), Some(bytes)) = (&opts.out_dir, &job.output) {
            let path = dir.join(format!("{}.out", job.artifact));
            std::fs::write(&path, bytes).map_err(|e| format!("write {}: {e}", path.display()))?;
        }
        out.push(job);
    }
    Ok(out)
}

/// Fires `n` submissions for `artifact` as fast as possible with no
/// waiting, returning `(accepted, shed)` — the flood half of the
/// admission-bound test.
///
/// # Errors
///
/// Connection-level trouble only; sheds are the expected outcome.
pub fn flood(opts: &ClientOpts, artifact: &str, n: u64) -> Result<(u64, u64), String> {
    let deadline = Instant::now() + opts.timeout;
    let body = body_for(opts, artifact);
    let (mut accepted, mut shed) = (0u64, 0u64);
    for _ in 0..n {
        let resp = request_retry(opts, "POST", "/jobs", &body, deadline)?;
        match resp.status {
            202 => accepted += 1,
            429 | 503 => shed += 1,
            other => return Err(format!("flood: HTTP {other}")),
        }
    }
    Ok((accepted, shed))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_request_body_carries_any_artifact_name_intact() {
        let opts = ClientOpts {
            server: String::new(),
            endpoint_file: None,
            artifacts: Vec::new(),
            scale_name: "test".to_string(),
            json: true,
            deadline_ms: Some(5),
            concurrency: 1,
            out_dir: None,
            timeout: Duration::from_secs(1),
        };
        let name = "a\"b\\c\nd";
        let body = json::parse_flat(&body_for(&opts, name)).expect("the body is JSON");
        assert_eq!(json::get_str(&body, "artifact"), Some(name));
        assert_eq!(json::get_str(&body, "scale"), Some("test"));
        assert_eq!(json::get_bool(&body, "json"), Some(true));
        assert_eq!(json::get_num(&body, "deadline_ms"), Some(5));
    }
}
