//! Minimal, defensive HTTP/1.1 on `std::net` — just enough protocol
//! for `dexd`'s JSON API, hand-rolled so the daemon carries no async
//! runtime or HTTP dependency.
//!
//! Parsing is deliberately strict and bounded: the request line and
//! every header line are capped, header count is capped, bodies are
//! capped ([`MAX_BODY_BYTES`]) and require an explicit
//! `Content-Length` (`Transfer-Encoding` is refused outright), and the
//! *whole* request read runs under one absolute deadline — the socket
//! read timeout is re-armed with the remaining budget before every
//! `read(2)`, so a slow-loris client trickling one byte per read
//! cannot stretch its welcome: a slow or malicious client can waste
//! one worker for at most the timeout, never wedge it.
//! Every response is `Connection: close`: one request per connection
//! keeps the state machine trivial and makes load shedding exact.

use serde_json::{json, Value as Json};
use std::io::{Read, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

/// Hard cap on request bodies. Instances bigger than this should go
/// through the CLI's file-based interface, not an HTTP body.
pub const MAX_BODY_BYTES: u64 = 16 << 20;
/// Hard cap on the request line and each header line.
const MAX_LINE_BYTES: usize = 8 << 10;
/// Hard cap on the number of header lines.
const MAX_HEADERS: usize = 64;

/// A parsed request: method, path, and the (possibly empty) body.
#[derive(Debug)]
pub struct Request {
    pub method: String,
    pub path: String,
    pub body: Vec<u8>,
}

/// Why a request could not be read. [`ReadError::Malformed`] and
/// [`ReadError::TooLarge`] get a well-formed HTTP error response;
/// [`ReadError::Io`] means the connection itself died (nothing can be
/// written back).
#[derive(Debug)]
pub enum ReadError {
    /// Syntactically broken request → 400.
    Malformed(String),
    /// Body over [`MAX_BODY_BYTES`] → 413.
    TooLarge(String),
    /// The socket failed mid-read; the connection is just dropped.
    Io(std::io::Error),
}

impl From<std::io::Error> for ReadError {
    fn from(e: std::io::Error) -> Self {
        ReadError::Io(e)
    }
}

/// Re-arm the socket's read timeout with whatever is left until
/// `deadline`, failing once the budget is spent. Called before every
/// blocking read, so the deadline bounds the *entire* request read —
/// per-`read(2)` timeouts alone would let a slow-loris client hold a
/// worker for `timeout × bytes`.
fn arm(stream: &TcpStream, deadline: Instant) -> Result<(), ReadError> {
    let remaining = deadline.saturating_duration_since(Instant::now());
    if remaining.is_zero() {
        return Err(ReadError::Malformed(
            "request read deadline exceeded".into(),
        ));
    }
    stream.set_read_timeout(Some(remaining))?;
    Ok(())
}

/// A read that ran out the armed timeout is the client's fault (400),
/// not a dead socket: keep it distinguishable from a genuine IO error
/// so the worker still writes a well-formed refusal.
fn read_err(e: std::io::Error) -> ReadError {
    match e.kind() {
        std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut => {
            ReadError::Malformed("request read timed out".into())
        }
        _ => ReadError::Io(e),
    }
}

/// Read one `\r\n`-terminated line, byte by byte, capped at
/// [`MAX_LINE_BYTES`]. Byte-at-a-time reads are fine here: request
/// lines and headers are tiny, and it avoids buffering reads past the
/// header/body boundary.
fn read_line(stream: &mut TcpStream, deadline: Instant) -> Result<String, ReadError> {
    let mut line = Vec::new();
    let mut byte = [0u8; 1];
    loop {
        arm(stream, deadline)?;
        let n = stream.read(&mut byte).map_err(read_err)?;
        if n == 0 {
            return Err(ReadError::Malformed("connection closed mid-line".into()));
        }
        if byte[0] == b'\n' {
            if line.last() == Some(&b'\r') {
                line.pop();
            }
            return String::from_utf8(line)
                .map_err(|_| ReadError::Malformed("non-UTF-8 header bytes".into()));
        }
        if line.len() >= MAX_LINE_BYTES {
            return Err(ReadError::TooLarge("header line over limit".into()));
        }
        line.push(byte[0]);
    }
}

/// Read and validate one full request from the stream. `timeout` is
/// the absolute budget for the whole read — request line, headers, and
/// body together.
pub fn read_request(stream: &mut TcpStream, timeout: Duration) -> Result<Request, ReadError> {
    let deadline = Instant::now() + timeout;
    let request_line = read_line(stream, deadline)?;
    let mut parts = request_line.split(' ');
    let (method, path, version) = match (parts.next(), parts.next(), parts.next(), parts.next()) {
        (Some(m), Some(p), Some(v), None) if !m.is_empty() && p.starts_with('/') => (m, p, v),
        _ => {
            return Err(ReadError::Malformed(format!(
                "bad request line `{request_line}`"
            )))
        }
    };
    if version != "HTTP/1.1" && version != "HTTP/1.0" {
        return Err(ReadError::Malformed(format!(
            "unsupported protocol `{version}`"
        )));
    }
    let mut content_length: u64 = 0;
    for _ in 0..MAX_HEADERS {
        let line = read_line(stream, deadline)?;
        if line.is_empty() {
            // Refuse over-cap bodies only after the full header block
            // is consumed, so the refusal closes cleanly (no unread
            // header bytes → no RST racing the response).
            if content_length > MAX_BODY_BYTES {
                return Err(ReadError::TooLarge(format!(
                    "body of {content_length} bytes exceeds the {MAX_BODY_BYTES}-byte limit"
                )));
            }
            let mut body = vec![
                0u8;
                usize::try_from(content_length)
                    .map_err(|_| ReadError::TooLarge("body over limit".into()))?
            ];
            let mut filled = 0;
            while filled < body.len() {
                arm(stream, deadline)?;
                let n = stream.read(&mut body[filled..]).map_err(read_err)?;
                if n == 0 {
                    return Err(ReadError::Malformed("connection closed mid-body".into()));
                }
                filled += n;
            }
            return Ok(Request {
                method: method.to_string(),
                path: path.to_string(),
                body,
            });
        }
        let Some((name, value)) = line.split_once(':') else {
            return Err(ReadError::Malformed(format!("bad header `{line}`")));
        };
        let name = name.trim();
        if name.eq_ignore_ascii_case("content-length") {
            content_length = value
                .trim()
                .parse::<u64>()
                .map_err(|_| ReadError::Malformed(format!("bad Content-Length `{value}`")))?;
        } else if name.eq_ignore_ascii_case("transfer-encoding") {
            // Silently ignoring this would leave the chunked payload
            // unread (RST racing the response) and run the operation
            // on an empty body the client never sent.
            return Err(ReadError::Malformed(
                "Transfer-Encoding is not supported; send a Content-Length body".into(),
            ));
        }
    }
    Err(ReadError::Malformed("too many headers".into()))
}

/// A response about to be written: status, rendered JSON body
/// (UTF-8), and the optional `Retry-After` seconds that ride
/// load-shedding 429s and draining 503s.
#[derive(Debug, Clone, PartialEq)]
pub struct Response {
    pub status: u16,
    pub body: Vec<u8>,
    pub retry_after: Option<u64>,
}

impl Response {
    /// A plain JSON response.
    pub fn json(status: u16, body: Json) -> Self {
        Response::rendered(status, body.to_string().into_bytes())
    }

    /// A response whose compact JSON body is already rendered (an
    /// instance spliced into its envelope by
    /// [`splice_instance`](crate::json::splice_instance)).
    pub fn rendered(status: u16, body: Vec<u8>) -> Self {
        Response {
            status,
            body,
            retry_after: None,
        }
    }

    /// A typed error response: `{"v": 1, "error": {"kind", "message"}}`.
    pub fn error(status: u16, kind: &str, message: impl std::fmt::Display) -> Self {
        Response::json(
            status,
            json!({
                "v": 1,
                "error": json!({ "kind": kind, "message": message.to_string() }),
            }),
        )
    }

    /// Attach a `Retry-After` header (seconds).
    pub fn with_retry_after(mut self, seconds: u64) -> Self {
        self.retry_after = Some(seconds);
        self
    }

    /// Write the full response. Write errors are
    /// returned (the caller just drops the connection — there is no
    /// one left to tell).
    pub fn write_to(&self, stream: &mut TcpStream) -> std::io::Result<()> {
        let mut head = format!(
            "HTTP/1.1 {} {}\r\nContent-Type: application/json\r\nContent-Length: {}\r\nConnection: close\r\n",
            self.status,
            reason(self.status),
            self.body.len(),
        );
        if let Some(secs) = self.retry_after {
            head.push_str(&format!("Retry-After: {secs}\r\n"));
        }
        head.push_str("\r\n");
        stream.write_all(head.as_bytes())?;
        stream.write_all(&self.body)?;
        stream.flush()
    }
}

impl Response {
    /// Write a refusal on a connection whose request was *not* fully
    /// read (shed, drain, parse error): plain `write_to` + drop would
    /// close with unread input in the socket, making the kernel send
    /// RST — which can destroy the response before the client reads
    /// it. Instead: respond, half-close, then briefly drain the
    /// client's leftover bytes so the close is orderly. Bounded by an
    /// absolute wall-clock deadline (re-armed per read, so trickled
    /// bytes cannot reset it) plus a byte cap — a hostile client costs
    /// the caller at most ~100 ms, even from the acceptor thread.
    pub fn write_refusal(&self, stream: &mut TcpStream) {
        let _ = self.write_to(stream);
        let _ = stream.shutdown(std::net::Shutdown::Write);
        let deadline = Instant::now() + Duration::from_millis(100);
        let mut scratch = [0u8; 1024];
        let mut drained = 0usize;
        loop {
            let remaining = deadline.saturating_duration_since(Instant::now());
            if remaining.is_zero() || stream.set_read_timeout(Some(remaining)).is_err() {
                break;
            }
            match stream.read(&mut scratch) {
                Ok(0) | Err(_) => break,
                Ok(n) => {
                    drained += n;
                    if drained > 64 << 10 {
                        break;
                    }
                }
            }
        }
    }
}

/// Reason phrase for every status the daemon emits (the README status
/// table is the contract; anything else is a bug caught here in
/// debug builds).
pub fn reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        206 => "Partial Content",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        409 => "Conflict",
        413 => "Payload Too Large",
        422 => "Unprocessable Entity",
        429 => "Too Many Requests",
        500 => "Internal Server Error",
        503 => "Service Unavailable",
        _ => {
            debug_assert!(false, "unmapped status {status}");
            "Unknown"
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;

    /// A loopback pair plus a client thread that trickles one byte
    /// every `pace` for up to `bytes` bytes (stopping early once the
    /// server closes) — the slow-loris shape both deadline tests need.
    fn trickling_client(
        preamble: &'static [u8],
        pace: Duration,
        bytes: usize,
    ) -> (TcpStream, std::thread::JoinHandle<()>) {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");
        let client = std::thread::spawn(move || {
            let mut c = TcpStream::connect(addr).expect("connect");
            if c.write_all(preamble).is_err() {
                return;
            }
            for _ in 0..bytes {
                std::thread::sleep(pace);
                if c.write_all(b"x").is_err() {
                    return; // server cut us off — the point of the tests
                }
            }
        });
        let (server_side, _) = listener.accept().expect("accept");
        (server_side, client)
    }

    #[test]
    fn request_read_is_bounded_by_an_absolute_deadline() {
        // 100 bytes at 30 ms apiece = 3 s of valid-looking trickle;
        // every gap is far below the 250 ms budget, so a per-read
        // timeout alone would never trip.
        let (mut stream, client) = trickling_client(
            b"POST /v1/mappings/emp/chase HTTP/1.1\r\nX-Slow: ",
            Duration::from_millis(30),
            100,
        );
        let start = Instant::now();
        let out = read_request(&mut stream, Duration::from_millis(250));
        assert!(
            matches!(out, Err(ReadError::Malformed(_))),
            "deadline trip is the client's fault (400): {out:?}"
        );
        assert!(
            start.elapsed() < Duration::from_millis(1500),
            "read bounded by the total budget, took {:?}",
            start.elapsed()
        );
        drop(stream);
        client.join().expect("client thread");
    }

    #[test]
    fn refusal_drain_is_bounded_by_wall_clock() {
        // 50 bytes at 40 ms apiece = 2 s of trickle, each gap under
        // the old 100 ms per-read timeout that used to reset forever.
        let (mut stream, client) =
            trickling_client(b"GET /healthz HTTP/1.1\r\n", Duration::from_millis(40), 50);
        let start = Instant::now();
        Response::error(429, "overloaded", "test").write_refusal(&mut stream);
        assert!(
            start.elapsed() < Duration::from_millis(900),
            "drain bounded by its deadline, took {:?}",
            start.elapsed()
        );
        drop(stream);
        client.join().expect("client thread");
    }

    #[test]
    fn transfer_encoding_is_refused_up_front() {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");
        let client = std::thread::spawn(move || {
            let mut c = TcpStream::connect(addr).expect("connect");
            let _ = c.write_all(
                b"POST /v1/mappings/emp/chase HTTP/1.1\r\n\
                  Transfer-Encoding: chunked\r\n\r\n\
                  5\r\nhello\r\n0\r\n\r\n",
            );
            c
        });
        let (mut stream, _) = listener.accept().expect("accept");
        let out = read_request(&mut stream, Duration::from_secs(2));
        assert!(
            matches!(out, Err(ReadError::Malformed(_))),
            "chunked bodies are refused, not silently dropped: {out:?}"
        );
        drop(client.join().expect("client thread"));
    }
}
