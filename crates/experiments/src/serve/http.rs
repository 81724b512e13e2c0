//! Minimal HTTP/1.1 framing over `std::net::TcpStream` — just enough
//! protocol for the `repro serve` job API and its client: request-line +
//! headers + `Content-Length` bodies, one request per connection
//! (`Connection: close`). No new dependencies; everything else in the
//! serve stack sits above this.

use std::io::{BufRead, Read, Write};
use std::net::TcpStream;

/// Upper bound on a request body (a job submission is a few hundred
/// bytes; anything bigger is garbage or abuse).
pub const MAX_BODY: usize = 64 * 1024;
/// Upper bound on a response body (a rendered paper-scale artifact).
pub const MAX_RESPONSE_BODY: usize = 16 * 1024 * 1024;
/// Upper bound on one header line.
const MAX_LINE: usize = 8 * 1024;
/// Upper bound on header count.
const MAX_HEADERS: usize = 64;

/// A parsed request.
#[derive(Debug)]
pub struct Request {
    /// `GET`, `POST`, ...
    pub method: String,
    /// Path with query string split off.
    pub path: String,
    /// Raw query string (empty when absent).
    pub query: String,
    /// Body bytes (empty when no `Content-Length`).
    pub body: Vec<u8>,
}

impl Request {
    /// Value of a `k=v` query parameter.
    pub fn query_param(&self, key: &str) -> Option<&str> {
        self.query.split('&').find_map(|kv| {
            let (k, v) = kv.split_once('=')?;
            (k == key).then_some(v)
        })
    }
}

/// Reads one CRLF- (or LF-) terminated line, bounded. A stream that ends
/// before the terminator is an error, not a short line: what was read so
/// far may be the front of a longer message.
fn read_line(r: &mut impl BufRead) -> Result<String, String> {
    let mut line = Vec::new();
    let mut byte = [0u8; 1];
    loop {
        let mut one = r.take(1);
        match one.read(&mut byte) {
            Ok(0) => return Err("stream ended mid-line".to_string()),
            Ok(_) => {
                if byte[0] == b'\n' {
                    break;
                }
                if line.len() >= MAX_LINE {
                    return Err("header line too long".to_string());
                }
                line.push(byte[0]);
            }
            Err(e) => return Err(format!("read: {e}")),
        }
    }
    if line.last() == Some(&b'\r') {
        line.pop();
    }
    String::from_utf8(line).map_err(|_| "non-UTF-8 header line".to_string())
}

/// Reads one message off `reader`: its start line, its header lines, and
/// the body its `Content-Length` announces — refused above `max_body`
/// before any of it is allocated.
fn read_message(
    reader: &mut impl BufRead,
    max_body: usize,
) -> Result<(String, Vec<String>, Vec<u8>), String> {
    let start = read_line(reader)?;
    let mut headers = Vec::new();
    let mut content_length = 0usize;
    loop {
        let line = read_line(reader)?;
        if line.is_empty() {
            break;
        }
        if headers.len() == MAX_HEADERS {
            return Err("too many headers".to_string());
        }
        if let Some(v) = header_value(&line, "content-length") {
            content_length = v
                .parse::<usize>()
                .map_err(|_| "bad Content-Length".to_string())?;
            if content_length > max_body {
                return Err("body too large".to_string());
            }
        }
        headers.push(line);
    }
    let mut body = vec![0u8; content_length];
    reader
        .read_exact(&mut body)
        .map_err(|e| format!("body read: {e}"))?;
    Ok((start, headers, body))
}

/// The trimmed value of `line` when it is a `name:` header (any case).
fn header_value<'l>(line: &'l str, name: &str) -> Option<&'l str> {
    let (k, v) = line.split_once(':')?;
    k.eq_ignore_ascii_case(name).then(|| v.trim())
}

/// Parses one request off `reader`: a connection's buffered read half, or
/// bytes already read from one (an `Err` then also means "not all here
/// yet").
///
/// # Errors
///
/// Malformed or truncated framing, over-limit sizes, or I/O trouble — the
/// caller answers 400 and closes.
pub fn read_request(reader: &mut impl BufRead) -> Result<Request, String> {
    let (start, _, body) = read_message(reader, MAX_BODY)?;
    let mut parts = start.split_ascii_whitespace();
    let method = parts.next().ok_or("empty request line")?.to_string();
    let target = parts.next().ok_or("request line missing target")?;
    let (path, query) = match target.split_once('?') {
        Some((p, q)) => (p.to_string(), q.to_string()),
        None => (target.to_string(), String::new()),
    };
    Ok(Request {
        method,
        path,
        query,
        body,
    })
}

/// Reason phrase for the status codes this API uses.
fn reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        202 => "Accepted",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        429 => "Too Many Requests",
        500 => "Internal Server Error",
        503 => "Service Unavailable",
        _ => "Unknown",
    }
}

/// Writes one response and flushes: head and body leave in one write, so
/// a small response is one segment and never waits on the peer's delayed
/// ACK of its head. `retry_after_ms` adds the `Retry-After-Ms` hint
/// header sheds carry.
pub fn write_response(
    stream: &mut TcpStream,
    status: u16,
    content_type: &str,
    body: &[u8],
    retry_after_ms: Option<u64>,
) -> std::io::Result<()> {
    let mut head = format!(
        "HTTP/1.1 {status} {}\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\nConnection: close\r\n",
        reason(status),
        body.len()
    );
    if let Some(ms) = retry_after_ms {
        head.push_str(&format!("Retry-After-Ms: {ms}\r\n"));
    }
    head.push_str("\r\n");
    let mut message = head.into_bytes();
    message.extend_from_slice(body);
    stream.write_all(&message)?;
    stream.flush()
}

/// A parsed client-side response.
#[derive(Debug)]
pub struct Response {
    /// Status code.
    pub status: u16,
    /// `Retry-After-Ms` hint, when present.
    pub retry_after_ms: Option<u64>,
    /// Body bytes.
    pub body: Vec<u8>,
}

/// Reads one response off `reader` (client side).
///
/// # Errors
///
/// Malformed or truncated framing, an over-limit body, or I/O trouble.
pub fn read_response(reader: &mut impl BufRead) -> Result<Response, String> {
    let (start, headers, body) = read_message(reader, MAX_RESPONSE_BODY)?;
    let status = start
        .split_ascii_whitespace()
        .nth(1)
        .and_then(|s| s.parse::<u16>().ok())
        .ok_or_else(|| format!("bad status line: {start}"))?;
    let retry_after_ms = headers
        .iter()
        .find_map(|line| header_value(line, "retry-after-ms"))
        .and_then(|v| v.parse::<u64>().ok());
    Ok(Response {
        status,
        retry_after_ms,
        body,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::BufReader;
    use std::net::{TcpListener, TcpStream};

    #[test]
    fn request_and_response_round_trip() {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");
        let server = std::thread::spawn(move || {
            let (mut s, _) = listener.accept().expect("accept");
            let req = read_request(&mut BufReader::new(s.try_clone().expect("clone")))
                .expect("parse request");
            assert_eq!(req.method, "POST");
            assert_eq!(req.path, "/jobs");
            assert_eq!(req.query_param("wait_ms"), Some("250"));
            assert_eq!(req.body, b"{\"artifact\":\"fig3\"}");
            write_response(
                &mut s,
                429,
                "application/json",
                b"{\"shed\":true}",
                Some(50),
            )
            .expect("write response");
        });
        let mut c = TcpStream::connect(addr).expect("connect");
        let body = b"{\"artifact\":\"fig3\"}";
        let req = format!(
            "POST /jobs?wait_ms=250 HTTP/1.1\r\nHost: x\r\nContent-Length: {}\r\n\r\n",
            body.len()
        );
        std::io::Write::write_all(&mut c, req.as_bytes()).expect("send head");
        std::io::Write::write_all(&mut c, body).expect("send body");
        let resp = read_response(&mut BufReader::new(c)).expect("parse response");
        assert_eq!(resp.status, 429);
        assert_eq!(resp.retry_after_ms, Some(50));
        assert_eq!(resp.body, b"{\"shed\":true}");
        server.join().expect("server thread");
    }

    /// Bytes that stop short of a whole request never parse as a shorter
    /// one: the server's accept thread relies on it to tell "all here"
    /// from "more to come".
    #[test]
    fn a_truncated_request_is_an_error_not_a_shorter_request() {
        let whole = b"POST /jobs HTTP/1.1\r\nHost: x\r\nContent-Length: 5\r\n\r\nhello";
        let req = read_request(&mut &whole[..]).expect("whole request parses");
        assert_eq!(
            (req.path.as_str(), req.body.as_slice()),
            ("/jobs", &b"hello"[..])
        );
        for cut in 0..whole.len() {
            assert!(
                read_request(&mut &whole[..cut]).is_err(),
                "the first {cut} bytes parsed as a request"
            );
        }
    }
}
