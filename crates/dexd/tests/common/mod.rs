//! Minimal blocking HTTP client for driving a live `dexd` from
//! integration tests — the same role curl would play in a shell-based
//! CI job, kept in Rust so the `serve` CI job needs no external tools.
#![allow(dead_code)] // each test binary uses a subset of the helpers

use serde_json::Value as Json;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

#[path = "../../../../tests/common/mod.rs"]
mod temp_dir;

#[allow(unused_imports)] // not every test binary needs a scratch directory
pub use temp_dir::TempDir;

/// One parsed response.
#[derive(Debug)]
pub struct Reply {
    pub status: u16,
    pub headers: Vec<(String, String)>,
    pub body: Json,
    pub raw_body: String,
}

impl Reply {
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(n, _)| n.eq_ignore_ascii_case(name))
            .map(|(_, v)| v.as_str())
    }

    /// Dig a dotted path out of the JSON body.
    pub fn field(&self, path: &str) -> Option<&Json> {
        let mut cur = &self.body;
        for seg in path.split('.') {
            cur = cur.get(seg)?;
        }
        Some(cur)
    }
}

/// Send one request; `None` when the server closed the connection
/// without a complete response (what an injected `server.accept` fault
/// looks like from outside).
pub fn try_request(addr: SocketAddr, method: &str, path: &str, body: &str) -> Option<Reply> {
    let mut stream = TcpStream::connect(addr).ok()?;
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .ok()?;
    let head = format!(
        "{method} {path} HTTP/1.1\r\nHost: dexd-test\r\nContent-Length: {}\r\n\r\n",
        body.len()
    );
    stream.write_all(head.as_bytes()).ok()?;
    stream.write_all(body.as_bytes()).ok()?;
    let mut raw = Vec::new();
    stream.read_to_end(&mut raw).ok()?;
    parse_response(&raw)
}

/// Send one request, panicking on connection-level failure (the normal
/// path for tests that expect the daemon to be healthy).
pub fn request(addr: SocketAddr, method: &str, path: &str, body: &str) -> Reply {
    match try_request(addr, method, path, body) {
        Some(r) => r,
        None => panic!("no response from {method} {path}"),
    }
}

fn parse_response(raw: &[u8]) -> Option<Reply> {
    let text = String::from_utf8_lossy(raw);
    let (head, body) = text.split_once("\r\n\r\n")?;
    let mut lines = head.lines();
    let status_line = lines.next()?;
    let status: u16 = status_line.split(' ').nth(1)?.parse().ok()?;
    let headers = lines
        .filter_map(|l| {
            l.split_once(':')
                .map(|(n, v)| (n.trim().to_string(), v.trim().to_string()))
        })
        .collect();
    let parsed = serde_json::from_str(body).unwrap_or(Json::Null);
    Some(Reply {
        status,
        headers,
        body: parsed,
        raw_body: body.to_string(),
    })
}

/// The employees example: a two-relation join with a key — compiles,
/// lints clean, terminates.
pub const EMPLOYEES: &str = "source Emp(name, dept);\n\
     source Dept(dept, mgr);\n\
     target Worker(name, dept, mgr);\n\
     key Worker(name);\n\
     Emp(n, d) & Dept(d, m) -> Worker(n, d, m);";

/// A plain copy mapping — cheap, deterministic output.
pub const COPY: &str = "source A(x);\ntarget B(x);\nA(v) -> B(v);";

/// A non-terminating mapping (value invention feeding itself): chases
/// until whatever budget trips — the tool for exercising 206 partials
/// and deadline-bound work.
pub const RUNAWAY: &str = "source S(a);\ntarget T(a, b);\nS(x) -> T(x, y);\nT(x, y) -> T(y, z);";
