//! HTTP route handlers for `repro serve`.
//!
//! | route | behavior |
//! |---|---|
//! | `POST /jobs` | admission control → 202 (accepted, body carries the job id) / 429 (typed shed + `Retry-After-Ms`) / 400 / 503 (draining) |
//! | `GET /jobs/<id>` | job status; `?wait_ms=N` long-polls until terminal or the wait expires |
//! | `GET /jobs/<id>/output` | the rendered artifact bytes |
//! | `GET /healthz` | queue depth, shed counts, worker liveness, journal lag, degradation counters, cumulative job stage clocks (queue wait, worker run, exit-seen lag), per-route request counts and handler time |
//! | `GET /readyz` | 200 while admitting, 503 once draining |
//! | `POST /drain` | begin graceful drain |
//!
//! Job ids are job fingerprints (16 hex digits): idempotent across
//! restarts, resubmission-safe, and directly addressable in the result
//! cache.

use super::admission::ShedReason;
use super::json::escape;
use super::{admit, http, json, spec_from_request, Admission, JobState, Shared};
use crate::campaign::{ExecCounters, Job};
use std::io::{BufReader, Read};
use std::net::TcpStream;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Longest allowed long-poll parking time.
const MAX_WAIT: Duration = Duration::from_secs(30);

/// How long the accept thread waits for a connection's request. A client
/// that writes its request once connected has it here well inside this;
/// a peer that has not gets a thread of its own to be slow on.
const PROMPT: Duration = Duration::from_millis(2);

/// Socket timeouts of a connection that has its own thread.
const PATIENT: Duration = Duration::from_secs(60);

/// The most of a request the accept thread reads: a job submission is a
/// few hundred bytes.
const FIRST_READ: usize = 4096;

/// `(status, body, retry_after_ms)` of one response.
type Answer = (u16, String, Option<u64>);

/// Serves one accepted connection: parse, route, respond, close. Called
/// on the accept thread, and done there when that holds the next
/// connection up by no more than the handler's own work: the request
/// arrived whole within `PROMPT` and its handler has no need to park
/// (the response, an artifact's text at most, is one write that a fresh
/// socket's buffer takes without waiting for the peer). Starting and
/// ending a thread costs more than any such request. Everything else — a
/// peer yet to send, a request in pieces or malformed, a long-poll on an
/// unfinished job — moves to a thread of its own.
pub fn serve(shared: &Arc<Shared>, mut stream: TcpStream) {
    let _ = stream.set_nodelay(true);
    let _ = stream.set_write_timeout(Some(PATIENT));
    let _ = stream.set_read_timeout(Some(PROMPT));
    let mut seen = vec![0u8; FIRST_READ];
    match stream.read(&mut seen) {
        // Hung up without a word: nobody to answer.
        Ok(0) => return,
        Ok(n) => seen.truncate(n),
        Err(_) => seen.clear(),
    }
    let request = http::read_request(&mut seen.as_slice()).ok();
    if let Some(request) = &request {
        // A handler that panics takes its connection along, not the
        // accept thread.
        match catch_unwind(AssertUnwindSafe(|| route(shared, request, false))) {
            Ok(Some(answer)) => return respond(&mut stream, answer),
            Ok(None) => {}
            Err(_) => return,
        }
    }
    let shared = Arc::clone(shared);
    std::thread::spawn(move || {
        let _ = stream.set_read_timeout(Some(PATIENT));
        let request = match request {
            Some(whole) => Ok(whole),
            None => stream
                .try_clone()
                .map_err(|e| format!("clone: {e}"))
                .and_then(|rest| {
                    http::read_request(&mut BufReader::new(seen.as_slice().chain(rest)))
                }),
        };
        let answer = match request {
            Ok(request) => route(&shared, &request, true),
            Err(e) => Some((400, format!("{{\"error\": \"{}\"}}\n", escape(&e)), None)),
        };
        if let Some(answer) = answer {
            respond(&mut stream, answer);
        }
    });
}

/// Writes `answer`; the connection closes when the stream is dropped.
fn respond(stream: &mut TcpStream, (status, body, retry_after): Answer) {
    let _ = http::write_response(
        stream,
        status,
        "application/json",
        body.as_bytes(),
        retry_after,
    );
}

/// Dispatches one parsed request. `None` only when `may_park` is false
/// and answering means waiting (a long-poll on an unfinished job):
/// nothing has been done or counted, ask again from a thread that may.
fn route(shared: &Shared, req: &http::Request, may_park: bool) -> Option<Answer> {
    let routes = &shared.routes;
    match (req.method.as_str(), req.path.as_str()) {
        ("POST", "/jobs") => routes.post_jobs.timed(|| Some(submit(shared, req))),
        ("GET", "/healthz") => Some((200, healthz(shared), None)),
        ("GET", "/readyz") => Some(if shared.lock().draining {
            (
                503,
                "{\"ready\": false, \"reason\": \"draining\"}\n".to_string(),
                None,
            )
        } else {
            (200, "{\"ready\": true}\n".to_string(), None)
        }),
        ("POST", "/drain") => {
            shared.begin_drain();
            eprintln!("serve: drain requested");
            Some((200, "{\"draining\": true}\n".to_string(), None))
        }
        ("GET", path) => match path.strip_prefix("/jobs/") {
            Some(rest) => match rest.strip_suffix("/output") {
                Some(id) => routes.get_output.timed(|| Some(job_output(shared, id))),
                None => routes
                    .get_status
                    .timed(|| job_status(shared, rest, req, may_park)),
            },
            None => Some((404, "{\"error\": \"no such route\"}\n".to_string(), None)),
        },
        _ => Some((
            405,
            "{\"error\": \"method not allowed\"}\n".to_string(),
            None,
        )),
    }
}

/// `POST /jobs`.
fn submit(shared: &Shared, req: &http::Request) -> Answer {
    let parsed = std::str::from_utf8(&req.body)
        .map_err(|_| "body is not UTF-8".to_string())
        .and_then(json::parse_flat)
        .and_then(|map| spec_from_request(&shared.cfg, &map));
    let spec = match parsed {
        Ok(spec) => spec,
        Err(e) => {
            return (400, format!("{{\"error\": \"{}\"}}\n", escape(&e)), None);
        }
    };
    match admit(shared, spec, Instant::now()) {
        Admission::Accepted { fingerprint, warm } => (
            202,
            format!(
                "{{\"job\": \"{fingerprint:016x}\", \"warm\": {warm}, \
                 \"status_url\": \"/jobs/{fingerprint:016x}\"}}\n"
            ),
            None,
        ),
        Admission::Shed {
            reason,
            retry_after_ms,
        } => {
            let status = if reason == ShedReason::Draining {
                503
            } else {
                429
            };
            (
                status,
                format!(
                    "{{\"shed\": \"{}\", \"retry_after_ms\": {retry_after_ms}}}\n",
                    reason.tag()
                ),
                Some(retry_after_ms),
            )
        }
        Admission::Rejected(e) => (400, format!("{{\"error\": \"{}\"}}\n", escape(&e)), None),
    }
}

/// Parses a 16-hex-digit job id.
fn parse_id(id: &str) -> Option<u64> {
    (id.len() == 16)
        .then(|| u64::from_str_radix(id, 16).ok())
        .flatten()
}

/// One job's status JSON.
fn status_json(job: &Job) -> String {
    let state = JobState::of(job);
    let mut s = format!(
        "{{\"job\": \"{:016x}\", \"artifact\": \"{}\", \"state\": \"{}\", \"attempts\": {}",
        job.fingerprint(),
        escape(job.artifact()),
        state.tag(),
        job.attempts()
    );
    if let Some(outcome) = job.outcome() {
        s.push_str(&format!(", \"outcome\": \"{}\"", outcome.tag()));
        s.push_str(&format!(
            ", \"output_available\": {}",
            job.output().is_some()
        ));
    }
    if let Some(progress) = job.progress() {
        s.push_str(&format!(", \"progress\": \"{}\"", escape(progress)));
    }
    if let Some(error) = job.error() {
        s.push_str(&format!(", \"error\": \"{}\"", escape(error)));
    }
    s.push_str("}\n");
    s
}

/// `GET /jobs/<id>` with optional `wait_ms` long-poll; `None` when the
/// poll would have to wait and `may_park` forbids it.
fn job_status(shared: &Shared, id: &str, req: &http::Request, may_park: bool) -> Option<Answer> {
    let Some(fingerprint) = parse_id(id) else {
        return Some((400, "{\"error\": \"bad job id\"}\n".to_string(), None));
    };
    let wait = req
        .query_param("wait_ms")
        .and_then(|v| v.parse::<u64>().ok())
        .map(Duration::from_millis)
        .unwrap_or(Duration::ZERO)
        .min(MAX_WAIT);
    let deadline = Instant::now() + wait;
    let mut inner = shared.lock();
    loop {
        match inner.coord.job_by_fingerprint(fingerprint) {
            None => {
                // Unknown here — possibly completed and retired before a
                // restart. The client contract: resubmit (idempotent; a
                // banked result is a free warm hit).
                return Some((
                    404,
                    "{\"error\": \"unknown job (resubmit; accepted work is idempotent by fingerprint)\"}\n"
                        .to_string(),
                    None,
                ));
            }
            Some(job) if job.is_done() => return Some((200, status_json(job), None)),
            Some(job) => {
                let now = Instant::now();
                if now >= deadline {
                    return Some((200, status_json(job), None));
                }
                if !may_park {
                    return None;
                }
                let (next, _) = shared
                    .cv
                    .wait_timeout(inner, deadline - now)
                    .unwrap_or_else(std::sync::PoisonError::into_inner);
                inner = next;
            }
        }
    }
}

/// `GET /jobs/<id>/output`.
fn job_output(shared: &Shared, id: &str) -> Answer {
    let Some(fingerprint) = parse_id(id) else {
        return (400, "{\"error\": \"bad job id\"}\n".to_string(), None);
    };
    let inner = shared.lock();
    match inner.coord.job_by_fingerprint(fingerprint) {
        Some(job) => match job.output() {
            Some(bytes) => match std::str::from_utf8(bytes) {
                Ok(text) => (200, text.to_string(), None),
                Err(_) => (500, "{\"error\": \"non-UTF-8 output\"}\n".to_string(), None),
            },
            None => {
                let (status, msg) = if job.is_done() {
                    (404, "job finished without output (degraded)")
                } else {
                    (404, "job not finished")
                };
                (status, format!("{{\"error\": \"{msg}\"}}\n"), None)
            }
        },
        None => (404, "{\"error\": \"unknown job\"}\n".to_string(), None),
    }
}

/// `GET /healthz`.
fn healthz(shared: &Shared) -> String {
    let inner = shared.lock();
    let counters = inner.coord.counters();
    let counters: String = ExecCounters::NAMES
        .iter()
        .zip(counters.values())
        .map(|(name, v)| format!("\"{name}\": {v}, "))
        .collect();
    let (post_requests, post_us) = shared.routes.post_jobs.read();
    let (status_requests, status_us) = shared.routes.get_status.read();
    let (output_requests, output_us) = shared.routes.get_output.read();
    format!(
        "{{\"incarnation\": {}, \"draining\": {}, \
         \"queue_depth\": {}, \"queue_capacity\": {}, \"in_flight\": {}, \
         \"admitted\": {}, \
         \"shed_queue_full\": {}, \"shed_rate_limited\": {}, \"shed_draining\": {}, \"shed_total\": {}, \
         \"journal_lag\": {}, \"journal_quarantined\": {}, \
         {counters}\
         \"post_jobs_requests\": {post_requests}, \"post_jobs_handler_us\": {post_us}, \
         \"get_status_requests\": {status_requests}, \"get_status_handler_us\": {status_us}, \
         \"get_output_requests\": {output_requests}, \"get_output_handler_us\": {output_us}}}\n",
        inner.incarnation,
        inner.draining,
        inner.coord.backlog(),
        shared.cfg.queue_capacity,
        inner.coord.in_flight(),
        inner.admitted,
        inner.sheds.queue_full,
        inner.sheds.rate_limited,
        inner.sheds.draining,
        inner.sheds.total(),
        inner.journal.lag(),
        inner.journal.quarantined,
    )
}
