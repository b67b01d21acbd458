//! The JSON wire format both front ends read: RFC 8259 string rules,
//! the nesting limit, and the serializer/parser round trip. `dexcli`
//! reads instance files and `dexd` reads request bodies with the same
//! parser, so hostile input must come back as a typed refusal from
//! both, never as a dead process.

mod common;

use common::TempDir;
use dexd::{Catalog, ServerConfig, ServerHandle};
use proptest::prelude::*;
use serde_json::{Map, Value};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::process::Command;
use std::time::Duration;

const EMP: &str = "source Emp(name);\ntarget Manager(emp, mgr);\nEmp(x) -> Manager(x, m);\n";

fn parse(text: &str) -> Result<Value, String> {
    serde_json::from_str(text).map_err(|e| e.to_string())
}

fn nested(depth: usize) -> String {
    format!("{}{}", "[".repeat(depth), "]".repeat(depth))
}

#[test]
fn surrogate_pair_escapes_decode_to_one_character() {
    let v = parse(r#"{"Emp":[["\ud83d\ude00"]]}"#).unwrap();
    assert_eq!(v["Emp"][0][0].as_str(), Some("😀"));
    assert_eq!(parse(r#""\uD834\uDD1E""#).unwrap().as_str(), Some("𝄞"));
    // A lone surrogate is not a character, whatever follows it.
    for bad in [r#""\ud83d""#, r#""\ud83dx""#, r#""\ude00""#, r#""\ud83dA""#] {
        let err = parse(bad).unwrap_err();
        assert!(err.contains("bad \\u code point"), "{bad}: {err}");
    }
}

/// A number compares by value, whether it was parsed or serialized:
/// front ends whose bodies are compared as `Value`s must not differ by
/// integer variant.
#[test]
fn parsed_and_serialized_numbers_compare_equal() {
    assert_eq!(parse("5").unwrap(), serde_json::to_value(&5u64).unwrap());
    assert_eq!(parse("-1").unwrap(), serde_json::to_value(&-1i64).unwrap());
    let max = u64::MAX.to_string();
    assert_eq!(
        parse(&max).unwrap(),
        serde_json::to_value(&u64::MAX).unwrap()
    );
}

#[test]
fn raw_control_characters_in_strings_are_rejected() {
    for c in (0u8..0x20).map(char::from) {
        let text = format!("[\"a{c}b\"]");
        let err = parse(&text).unwrap_err();
        assert_eq!(err, "control character in string at byte 3", "{c:?}");
    }
    // Escaped, the same characters are fine, and DEL is not a control
    // character in RFC 8259's sense.
    assert_eq!(
        parse(r#"["a\nb\u0000"]"#).unwrap()[0].as_str(),
        Some("a\nb\0")
    );
    assert_eq!(
        parse("[\"a\u{7f}b\"]").unwrap()[0].as_str(),
        Some("a\u{7f}b")
    );
}

#[test]
fn nesting_is_limited_to_128_levels() {
    assert!(parse(&nested(128)).is_ok());
    assert_eq!(
        parse(&nested(129)).unwrap_err(),
        "recursion limit exceeded at byte 128"
    );
    let objects = format!("{}1{}", r#"{"a":"#.repeat(129), "}".repeat(129));
    assert!(parse(&objects)
        .unwrap_err()
        .starts_with("recursion limit exceeded"));
}

#[test]
fn dexcli_refuses_deeply_nested_input_with_bad_json() {
    let dir = TempDir::new("json_wire_deep");
    let m = dir.write("emp.dex", EMP);
    let src = dir.write("deep.json", nested(200_000));
    let out = Command::new(env!("CARGO_BIN_EXE_dexcli"))
        .arg("chase")
        .arg(&m)
        .arg(&src)
        .output()
        .unwrap();
    let err = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{err}");
    assert!(err.contains("bad JSON: recursion limit exceeded"), "{err}");
    assert!(out.stdout.is_empty());
}

#[test]
fn dexcli_reads_non_bmp_escapes() {
    let dir = TempDir::new("json_wire_emoji");
    let m = dir.write("emp.dex", EMP);
    let src = dir.write("src.json", r#"{"Emp":[["\ud83d\ude00"]]}"#);
    let out = Command::new(env!("CARGO_BIN_EXE_dexcli"))
        .arg("chase")
        .arg(&m)
        .arg(&src)
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(0), "{out:?}");
    let v = parse(&String::from_utf8(out.stdout).unwrap()).unwrap();
    assert_eq!(v["Manager"][0][0].as_str(), Some("😀"));
}

/// One request over a fresh connection; returns the status code.
fn status_of(addr: SocketAddr, method: &str, path: &str, body: &str) -> u16 {
    let mut stream = TcpStream::connect(addr).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    let head = format!(
        "{method} {path} HTTP/1.1\r\nHost: dex-test\r\nContent-Length: {}\r\n\r\n",
        body.len()
    );
    stream.write_all(head.as_bytes()).unwrap();
    stream.write_all(body.as_bytes()).unwrap();
    let mut raw = String::new();
    stream.read_to_string(&mut raw).unwrap();
    raw.split(' ').nth(1).and_then(|s| s.parse().ok()).unwrap()
}

#[test]
fn dexd_answers_400_to_deeply_nested_bodies_and_keeps_serving() {
    let catalog = Catalog::from_texts(&[("emp", EMP)]).unwrap();
    let srv = ServerHandle::spawn(ServerConfig::default(), catalog).unwrap();
    let addr = srv.addr();
    let body = format!(r#"{{"source": {}}}"#, nested(200_000));
    assert_eq!(
        status_of(addr, "POST", "/v1/mappings/emp/chase", &body),
        400
    );
    assert_eq!(status_of(addr, "GET", "/healthz", ""), 200);
    let ok = r#"{"source": {"Emp": [["ann"]]}}"#;
    assert_eq!(status_of(addr, "POST", "/v1/mappings/emp/chase", ok), 200);
    srv.shutdown();
}

/// A character from one of the classes the wire must carry: ASCII,
/// the two characters that need escaping, controls, the rest of the
/// BMP (skipping surrogates) and the supplementary planes.
fn wire_char((class, n): (u8, u32)) -> char {
    let code = match class {
        0 => 0x20 + n % 0x5f,
        1 => [u32::from(b'"'), u32::from(b'\\')][n as usize % 2],
        2 => n % 0x20,
        3 => 0x80 + n % (0xd800 - 0x80),
        4 => 0xe000 + n % (0x1_0000 - 0xe000),
        _ => 0x1_0000 + n % (0x11_0000 - 0x1_0000),
    };
    char::from_u32(code).unwrap()
}

fn wire_string() -> impl Strategy<Value = String> {
    proptest::collection::vec((0u8..6, 0u32..0x11_0000), 0..12)
        .prop_map(|cs| cs.into_iter().map(wire_char).collect())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn strings_round_trip_through_the_wire(
        s in wire_string(),
        key in wire_string(),
        rows in proptest::collection::vec(wire_string(), 0..4),
    ) {
        let mut obj = Map::new();
        obj.insert(key, Value::Array(rows.into_iter().map(Value::String).collect()));
        let v = Value::Array(vec![Value::String(s), Value::Object(obj)]);
        for text in [
            serde_json::to_string(&v).unwrap(),
            serde_json::to_string_pretty(&v).unwrap(),
        ] {
            prop_assert_eq!(parse(&text), Ok(v.clone()), "{}", text);
        }
    }
}
