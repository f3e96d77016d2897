//! Hand-rolled HTTP/1.1 front end for the farm: a blocking accept loop
//! on `std::net::TcpListener` with one thread per connection. No
//! external dependencies — request parsing covers exactly the subset
//! the dashboard and scripted clients need.
//!
//! Routes:
//!
//! | Route            | Payload                                         |
//! |------------------|-------------------------------------------------|
//! | `GET /`          | embedded single-page dashboard                  |
//! | `GET /metrics`   | Prometheus text exposition (farm + done jobs)   |
//! | `GET /jobs`      | job table JSON                                  |
//! | `GET /heatmap`   | latest per-link busy snapshot JSON              |
//! | `POST /jobs`     | submit (urlencoded body) → `{"id":..,"fresh":..}` |
//! | `GET /submit?..` | submit via query string (curl-friendly)         |
//! | `GET /events`    | SSE stream: txn / window / progress / job / dropped |
//! | `POST /shutdown` | graceful stop (also accepts GET)                |

use crate::runner::Farm;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::Arc;
use std::time::Duration;
use wormdsm_sim::json::{self, ToJson};

/// Longest request head (request line + headers) we accept.
const MAX_HEAD: usize = 16 * 1024;
/// Longest request body we accept.
const MAX_BODY: usize = 64 * 1024;

/// Serve `farm` on `listener` until shutdown is requested. Each
/// connection gets its own thread; the accept loop polls the shutdown
/// flag between (non-blocking) accepts, so Ctrl-C / `POST /shutdown`
/// turns into a prompt, orderly exit.
pub fn serve(farm: &Arc<Farm>, listener: TcpListener) -> std::io::Result<()> {
    listener.set_nonblocking(true)?;
    loop {
        if farm.shutdown_requested() {
            return Ok(());
        }
        match listener.accept() {
            Ok((stream, _)) => {
                let farm = farm.clone();
                std::thread::spawn(move || {
                    let _ = handle(&farm, stream);
                });
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(20));
            }
            Err(e) => return Err(e),
        }
    }
}

/// One parsed request.
struct Request {
    method: String,
    path: String,
    query: String,
    body: String,
}

/// Read and parse one request. The head (request line plus headers)
/// is read through a budget of [`MAX_HEAD`] bytes, so a line that never
/// ends cannot grow memory past it.
fn read_request<R: Read>(stream: R) -> std::io::Result<Request> {
    let mut reader = BufReader::new(stream);
    let mut head_bytes = 0;
    let line = head_line(&mut reader, &mut head_bytes)?;
    let mut parts = line.split_whitespace();
    let method = parts.next().ok_or_else(|| bad("empty request line"))?.to_string();
    let target = parts.next().ok_or_else(|| bad("missing request target"))?;
    let (path, query) = match target.split_once('?') {
        Some((p, q)) => (p.to_string(), q.to_string()),
        None => (target.to_string(), String::new()),
    };
    let mut content_len = 0usize;
    loop {
        let h = head_line(&mut reader, &mut head_bytes)?;
        let h = h.trim_end();
        if h.is_empty() {
            break;
        }
        if let Some((k, v)) = h.split_once(':') {
            if k.trim().eq_ignore_ascii_case("content-length") {
                content_len = v.trim().parse().map_err(|_| bad("bad content-length"))?;
            }
        }
    }
    if content_len > MAX_BODY {
        return Err(bad("request body too large"));
    }
    let mut body = vec![0u8; content_len];
    reader.read_exact(&mut body)?;
    let body = String::from_utf8(body).map_err(|_| bad("body is not utf-8"))?;
    Ok(Request { method, path, query, body })
}

/// One head line, read through what is left of the head budget
/// (`used` bytes of [`MAX_HEAD`] spent so far). A line that fills the
/// budget without ending is an error; at end of input the line is
/// returned as read.
fn head_line<R: BufRead>(reader: &mut R, used: &mut usize) -> std::io::Result<String> {
    let left = MAX_HEAD - *used;
    let mut line = String::new();
    reader.take(left as u64).read_line(&mut line)?;
    *used += line.len();
    if line.len() == left && !line.ends_with('\n') {
        return Err(bad("request head too large"));
    }
    Ok(line)
}

fn bad(msg: &str) -> std::io::Error {
    std::io::Error::new(std::io::ErrorKind::InvalidData, msg.to_string())
}

fn respond(
    stream: &mut TcpStream,
    status: &str,
    content_type: &str,
    body: &str,
) -> std::io::Result<()> {
    write!(
        stream,
        "HTTP/1.1 {status}\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\nConnection: close\r\nAccess-Control-Allow-Origin: *\r\n\r\n{body}",
        body.len()
    )?;
    stream.flush()
}

fn handle(farm: &Arc<Farm>, mut stream: TcpStream) -> std::io::Result<()> {
    stream.set_read_timeout(Some(Duration::from_secs(5)))?;
    let req = match read_request(&mut stream) {
        Ok(r) => r,
        Err(e) => {
            let body = error(&e.to_string());
            return respond(&mut stream, "400 Bad Request", "application/json", &body);
        }
    };
    match (req.method.as_str(), req.path.as_str()) {
        ("GET", "/") | ("GET", "/index.html") => {
            respond(&mut stream, "200 OK", "text/html; charset=utf-8", crate::DASHBOARD_HTML)
        }
        ("GET", "/metrics") => respond(
            &mut stream,
            "200 OK",
            "text/plain; version=0.0.4; charset=utf-8",
            &farm.metrics_text(),
        ),
        ("GET", "/jobs") => respond(&mut stream, "200 OK", "application/json", &farm.jobs_json()),
        ("GET", "/heatmap") => {
            respond(&mut stream, "200 OK", "application/json", &farm.heatmap_json())
        }
        ("POST", "/jobs") => submit(farm, &mut stream, &req.body),
        ("GET", "/submit") => submit(farm, &mut stream, &req.query),
        ("GET", "/events") => stream_events(farm, stream),
        ("POST", "/shutdown") | ("GET", "/shutdown") => {
            farm.request_shutdown();
            let body = json::flat(&[("shutdown", &true)]).to_json();
            respond(&mut stream, "200 OK", "application/json", &body)
        }
        _ => respond(&mut stream, "404 Not Found", "application/json", &error("no such route")),
    }
}

/// The JSON body of an error reply.
fn error(msg: &str) -> String {
    json::flat(&[("error", &msg)]).to_json()
}

fn submit(farm: &Arc<Farm>, stream: &mut TcpStream, encoded: &str) -> std::io::Result<()> {
    let (status, body) = submit_reply(farm, encoded);
    respond(stream, status, "application/json", &body)
}

/// Status line and JSON body answering a submission.
fn submit_reply(farm: &Farm, encoded: &str) -> (&'static str, String) {
    let parsed =
        wormdsm_workloads::Scenario::parse_query(encoded).and_then(|spec| farm.submit(spec));
    match parsed {
        Ok((id, fresh)) => ("200 OK", json::flat(&[("id", &id), ("fresh", &fresh)]).to_json()),
        Err(e) => ("400 Bad Request", error(&e)),
    }
}

/// The SSE endpoint: subscribe to the bus and relay frames until the
/// client hangs up or the farm shuts down. Each drain also reports how
/// many frames this (slow) client lost to ring overflow — losses are
/// explicit, never silent, and never the simulation's problem.
fn stream_events(farm: &Arc<Farm>, mut stream: TcpStream) -> std::io::Result<()> {
    write!(
        stream,
        "HTTP/1.1 200 OK\r\nContent-Type: text/event-stream\r\nCache-Control: no-cache\r\nConnection: close\r\nAccess-Control-Allow-Origin: *\r\n\r\n"
    )?;
    stream.flush()?;
    let sub = farm.bus().subscribe(farm.config().event_ring);
    // First frame: a hello carrying the ring capacity, so clients (and
    // the smoke test) see traffic immediately.
    let hello = json::flat(&[("ring", &farm.config().event_ring)]).to_json();
    write!(stream, "event: hello\ndata: {hello}\n\n")?;
    let mut quiet = 0u32;
    loop {
        if farm.shutdown_requested() {
            let bye = json::flat(&[("reason", &"shutdown")]).to_json();
            return write!(stream, "event: bye\ndata: {bye}\n\n");
        }
        let (frames, dropped) = sub.drain(Duration::from_millis(250));
        if dropped > 0 {
            let frame = json::flat(&[("frames", &dropped)]).to_json();
            write!(stream, "event: dropped\ndata: {frame}\n\n")?;
        }
        if frames.is_empty() {
            quiet += 1;
            if quiet >= 40 {
                // ~10 s of silence: SSE comment as keep-alive.
                write!(stream, ": keepalive\n\n")?;
                stream.flush()?;
                quiet = 0;
            }
            continue;
        }
        quiet = 0;
        for frame in &frames {
            stream.write_all(frame.as_bytes())?;
        }
        stream.flush()?;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(raw: &[u8]) -> std::io::Result<Request> {
        read_request(raw)
    }

    fn error(raw: &[u8]) -> String {
        parse(raw).err().expect("request must be refused").to_string()
    }

    #[test]
    fn well_formed_requests_parse() {
        let r = parse(b"GET /submit?app=lu&k=4 HTTP/1.1\r\nHost: x\r\n\r\n").unwrap();
        assert_eq!(
            (r.method.as_str(), r.path.as_str(), r.query.as_str()),
            ("GET", "/submit", "app=lu&k=4")
        );
        let r = parse(b"POST /jobs HTTP/1.1\r\nContent-Length: 4\r\n\r\napp=").unwrap();
        assert_eq!((r.method.as_str(), r.body.as_str()), ("POST", "app="));
    }

    #[test]
    fn endless_request_line_is_refused_within_the_head_budget() {
        let raw = vec![b'a'; 1 << 20];
        assert_eq!(error(&raw), "request head too large");
    }

    #[test]
    fn header_block_over_the_head_budget_is_refused() {
        let mut raw = b"GET / HTTP/1.1\r\n".to_vec();
        while raw.len() <= MAX_HEAD {
            raw.extend_from_slice(b"X-Filler: 0123456789abcdef0123456789abcdef\r\n");
        }
        raw.extend_from_slice(b"\r\n");
        assert_eq!(error(&raw), "request head too large");
    }

    #[test]
    fn bad_bodies_are_refused() {
        let post = |len: &str, body: &[u8]| {
            let mut raw =
                format!("POST /jobs HTTP/1.1\r\nContent-Length: {len}\r\n\r\n").into_bytes();
            raw.extend_from_slice(body);
            parse(&raw).err().expect("request must be refused")
        };
        assert_eq!(post("ten", b"").to_string(), "bad content-length");
        assert_eq!(post("99999999999999999999999", b"").to_string(), "bad content-length");
        assert_eq!(post("999999999", b"").to_string(), "request body too large");
        assert_eq!(post("10", b"abc").kind(), std::io::ErrorKind::UnexpectedEof);
        assert_eq!(post("2", b"\xff\xfe").to_string(), "body is not utf-8");
    }

    /// Random bytes: 2,000 strings of 0-20 KiB, half over every byte
    /// value and half over the bytes an HTTP head is made of (so request
    /// lines, headers and bodies actually get parsed). Every one must
    /// return, `Ok` or `Err`, without a panic.
    #[test]
    fn random_bytes_never_panic_the_parser() {
        const HTTP_BYTES: &[u8] = b"GET POST /jobs?=&: \r\n\r\nContent-Length 0123456789\xff";
        let mut rng = wormdsm_sim::Rng::new(0x4854_5450);
        let mut parsed = 0;
        for i in 0..2000 {
            let len = rng.index(20 * 1024 + 1);
            let raw: Vec<u8> = (0..len)
                .map(|_| match i % 2 {
                    0 => rng.below(256) as u8,
                    _ => HTTP_BYTES[rng.index(HTTP_BYTES.len())],
                })
                .collect();
            if let Ok(r) = parse(&raw) {
                assert!(r.body.len() <= MAX_BODY);
                parsed += 1;
            }
        }
        assert!(parsed > 0, "no random input parsed: the corpus never reached the body");
    }

    /// 2,000 single-byte mutations and truncations of a valid `POST
    /// /jobs` request with a body: each returns `Ok` or `Err`, and some
    /// of each, without a panic.
    #[test]
    fn mutated_submissions_never_panic_the_parser() {
        let valid: &[u8] =
            b"POST /jobs HTTP/1.1\r\nHost: x\r\nContent-Length: 19\r\n\r\napp=lu&k=4&scheme=1";
        assert_eq!(parse(valid).unwrap().body, "app=lu&k=4&scheme=1");
        let mut rng = wormdsm_sim::Rng::new(0x4d55_5441);
        let (mut ok, mut err) = (0, 0);
        for i in 0..2000 {
            let mut raw = valid.to_vec();
            let at = rng.index(raw.len());
            match i % 2 {
                0 => raw[at] = rng.below(256) as u8,
                _ => raw.truncate(at),
            }
            match parse(&raw) {
                Ok(_) => ok += 1,
                Err(_) => err += 1,
            }
        }
        assert!(ok > 0 && err > 0, "{ok} parsed, {err} refused");
    }

    /// A refused submission echoes the offending value; the echo is
    /// escaped, so the 400 body stays valid JSON even for control
    /// characters.
    #[test]
    fn refused_submission_body_is_valid_json() {
        let farm = Farm::new(crate::FarmConfig::default());
        for query in ["app=%01", "app=%22%5C", "app=bh&pattern=%0A"] {
            let (status, body) = submit_reply(&farm, query);
            assert_eq!(status, "400 Bad Request", "{query}");
            json::validate_json(&body).unwrap_or_else(|e| panic!("{body}: {e}"));
        }
        // The error quotes the app with `{:?}`, whose `\u{1}` escape is
        // itself escaped.
        assert!(submit_reply(&farm, "app=%01").1.contains(r"\\u{1}"));
    }
}
