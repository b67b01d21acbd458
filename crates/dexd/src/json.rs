//! Instance ⇄ JSON conversion for `dexcli` and the HTTP surface.
//!
//! One wire shape: an object of relation names to arrays of rows,
//! labeled nulls as `{"null": n}`, Skolem terms (output only) as
//! `{"skolem": f, "args": […]}`.
//!
//! Output has one writer, [`write_instance`], which streams straight
//! from the relations to an [`io::Write`] in either [`Style`]; no
//! [`Json`] tree is built. [`write_rows`] writes a bare array of rows
//! (query answers) by the same layout rules. [`splice_instance`]
//! renders a dexd response envelope with the compact bytes at the
//! instance key's place.
//! [`instance_to_json`] builds the tree form, byte-for-byte the same
//! once rendered, for callers that want a [`Json`] value.

use dex_relational::{Constant, Instance, Schema, Tuple, Value};
use serde_json::{json, Map, Value as Json};
use std::io::{self, Write};

/// Build an instance over `schema` from its JSON object form. Errors
/// are client errors (unknown relation, arity mismatch, unsupported
/// value) phrased for a 400 response body.
pub fn instance_from_json(j: &Json, schema: &Schema) -> Result<Instance, String> {
    let obj = j
        .as_object()
        .ok_or_else(|| "expected a JSON object of relations".to_string())?;
    let mut inst = Instance::empty(schema.clone());
    for (rel, rows) in obj {
        let rows = rows
            .as_array()
            .ok_or_else(|| format!("`{rel}` must be an array of rows"))?;
        for row in rows {
            let cells = row
                .as_array()
                .ok_or_else(|| format!("rows of `{rel}` must be arrays"))?;
            let tuple: Tuple = cells
                .iter()
                .map(json_to_value)
                .collect::<Result<Vec<_>, _>>()?
                .into();
            inst.insert(rel, tuple).map_err(|e| e.to_string())?;
        }
    }
    Ok(inst)
}

/// Render an instance as its JSON object form (empty relations
/// omitted, mirroring the CLI).
pub fn instance_to_json(inst: &Instance) -> Json {
    let mut obj = Map::new();
    for rel in inst.relations() {
        if rel.is_empty() {
            continue;
        }
        let rows: Vec<Json> = rel
            .iter()
            .map(|t| Json::Array(t.iter().map(value_to_json).collect()))
            .collect();
        obj.insert(rel.name().to_string(), Json::Array(rows));
    }
    Json::Object(obj)
}

/// Layout of [`write_instance`]'s output.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Style {
    /// Two spaces per level, one element per line: the bytes of
    /// `serde_json::to_string_pretty(&instance_to_json(inst))`.
    Pretty,
    /// No whitespace: the bytes of `instance_to_json(inst).to_string()`.
    Compact,
}

/// Write `inst` as its JSON object form, straight from the relations:
/// relations in name order, empty ones omitted, rows in canonical
/// order. The bytes equal the rendered [`instance_to_json`] in the
/// given style, without building that tree. No trailing newline.
pub fn write_instance<W: Write + ?Sized>(
    inst: &Instance,
    out: &mut W,
    style: Style,
) -> io::Result<()> {
    let mut w = Writer {
        out,
        pretty: style == Style::Pretty,
    };
    w.out.write_all(b"{")?;
    let mut n = 0;
    for rel in inst.relations().filter(|r| !r.is_empty()) {
        w.item(n, 1)?;
        w.key(rel.name().as_str())?;
        let arity = rel.schema().arity();
        let ids = rel.row_ids();
        let rows = ids
            .iter()
            .map(|&id| (0..arity).map(move |col| rel.value_at(id, col)));
        w.rows(rows, 1)?;
        n += 1;
    }
    w.close(n, 0, b"}")
}

/// Write `rows` as a JSON array of rows, each an array of cells, in the
/// given order: the bytes of the rendered
/// `Json::Array(rows.map(|t| Json::Array(t.map(value_to_json))))`, as
/// `dexcli query` prints its answers. No trailing newline.
pub fn write_rows<'v, W: Write + ?Sized>(
    rows: impl IntoIterator<Item = &'v Tuple>,
    out: &mut W,
    style: Style,
) -> io::Result<()> {
    let mut w = Writer {
        out,
        pretty: style == Style::Pretty,
    };
    w.rows(rows.into_iter().map(|t| t.iter()), 0)
}

/// Render a dexd response body: the compact form of `envelope` with
/// `inst` under `key`, byte-for-byte
/// `Json::Object(envelope ∪ {key: instance_to_json(inst)}).to_string()`.
/// The envelope's other values are small and render as usual; the
/// instance is written in place by [`write_instance`].
pub fn splice_instance(envelope: &Map<String, Json>, key: &str, inst: &Instance) -> Vec<u8> {
    debug_assert!(!envelope.contains_key(key), "`{key}` is already set");
    let mut out = Vec::new();
    // Writing to a `Vec` cannot fail.
    let _ = write_envelope(envelope, key, inst, &mut out);
    out
}

fn write_envelope(
    envelope: &Map<String, Json>,
    key: &str,
    inst: &Instance,
    out: &mut Vec<u8>,
) -> io::Result<()> {
    let mut entries: Vec<(&str, Option<&Json>)> = envelope
        .iter()
        .map(|(k, v)| (k.as_str(), Some(v)))
        .collect();
    entries.push((key, None));
    entries.sort_by_key(|&(k, _)| k);
    let mut w = Writer { out, pretty: false };
    w.out.write_all(b"{")?;
    for (i, (k, v)) in entries.into_iter().enumerate() {
        w.item(i, 1)?;
        w.key(k)?;
        match v {
            Some(v) => write!(w.out, "{v}")?,
            None => write_instance(inst, w.out, Style::Compact)?,
        }
    }
    w.out.write_all(b"}")
}

/// The layout rules of the vendored `serde_json` renderer, applied to
/// a byte stream.
struct Writer<'a, W: ?Sized> {
    out: &'a mut W,
    pretty: bool,
}

impl<W: Write + ?Sized> Writer<'_, W> {
    /// Before element `i` of a container whose elements sit at `level`.
    fn item(&mut self, i: usize, level: usize) -> io::Result<()> {
        if i > 0 {
            self.out.write_all(b",")?;
        }
        self.newline(level)
    }

    /// Close a container of `n` elements that opened at `level`; an
    /// empty one stays on its line (`[]`, `{}`).
    fn close(&mut self, n: usize, level: usize, bracket: &[u8]) -> io::Result<()> {
        if n > 0 {
            self.newline(level)?;
        }
        self.out.write_all(bracket)
    }

    /// Pretty only: a line break and two spaces per level.
    fn newline(&mut self, level: usize) -> io::Result<()> {
        if !self.pretty {
            return Ok(());
        }
        self.out.write_all(b"\n")?;
        (0..level).try_for_each(|_| self.out.write_all(b"  "))
    }

    /// An object key and its separator.
    fn key(&mut self, k: &str) -> io::Result<()> {
        write_str(self.out, k)?;
        self.out.write_all(if self.pretty { b": " } else { b":" })
    }

    /// An array of rows, each an array of cells, opening at `level`.
    fn rows<'v, R: IntoIterator<Item = &'v Value>>(
        &mut self,
        rows: impl IntoIterator<Item = R>,
        level: usize,
    ) -> io::Result<()> {
        self.out.write_all(b"[")?;
        let mut n = 0;
        for row in rows {
            self.item(n, level + 1)?;
            self.out.write_all(b"[")?;
            let mut k = 0;
            for v in row {
                self.item(k, level + 2)?;
                self.value(v, level + 2)?;
                k += 1;
            }
            self.close(k, level + 1, b"]")?;
            n += 1;
        }
        self.close(n, level, b"]")
    }

    /// One cell, at `level`: the layout of [`value_to_json`]'s tree.
    fn value(&mut self, v: &Value, level: usize) -> io::Result<()> {
        match v {
            Value::Const(Constant::Int(i)) => write!(self.out, "{i}"),
            Value::Const(Constant::Str(s)) => write_str(self.out, s),
            Value::Const(Constant::Bool(b)) => {
                self.out.write_all(if *b { b"true" } else { b"false" })
            }
            Value::Null(n) => {
                self.out.write_all(b"{")?;
                self.item(0, level + 1)?;
                self.key("null")?;
                write!(self.out, "{}", n.0)?;
                self.close(1, level, b"}")
            }
            // Keys in sorted order: "args" before "skolem".
            Value::Skolem(f, args) => {
                self.out.write_all(b"{")?;
                self.item(0, level + 1)?;
                self.key("args")?;
                self.out.write_all(b"[")?;
                for (i, a) in args.iter().enumerate() {
                    self.item(i, level + 2)?;
                    self.value(a, level + 2)?;
                }
                self.close(args.len(), level + 1, b"]")?;
                self.item(1, level + 1)?;
                self.key("skolem")?;
                write_str(self.out, f.as_str())?;
                self.close(2, level, b"}")
            }
        }
    }
}

/// A JSON string literal with the vendored `serde_json`'s escapes:
/// `\"`, `\\`, `\n`, `\r`, `\t`, and `\u00xx` (lowercase hex) for the
/// other control characters. Bytes below 0x20 are always whole ASCII
/// characters in UTF-8, so the scan can run over bytes.
fn write_str<W: Write + ?Sized>(out: &mut W, s: &str) -> io::Result<()> {
    out.write_all(b"\"")?;
    let bytes = s.as_bytes();
    let mut start = 0;
    for (i, &b) in bytes.iter().enumerate() {
        if b >= 0x20 && b != b'"' && b != b'\\' {
            continue;
        }
        out.write_all(&bytes[start..i])?;
        match b {
            b'"' => out.write_all(b"\\\"")?,
            b'\\' => out.write_all(b"\\\\")?,
            b'\n' => out.write_all(b"\\n")?,
            b'\r' => out.write_all(b"\\r")?,
            b'\t' => out.write_all(b"\\t")?,
            _ => write!(out, "\\u{b:04x}")?,
        }
        start = i + 1;
    }
    out.write_all(&bytes[start..])?;
    out.write_all(b"\"")
}

fn json_to_value(j: &Json) -> Result<Value, String> {
    match j {
        Json::String(s) => Ok(Value::str(s.clone())),
        Json::Number(n) => n
            .as_i64()
            .map(Value::int)
            .ok_or_else(|| format!("non-integer number {n}")),
        Json::Bool(b) => Ok(Value::bool(*b)),
        Json::Object(o) => {
            if let Some(id) = o.get("null").and_then(Json::as_u64) {
                return Ok(Value::null(id));
            }
            Err(format!("unsupported value {j}"))
        }
        other => Err(format!("unsupported value {other}")),
    }
}

/// Encode one cell: constants as JSON scalars, labeled nulls as
/// `{"null": n}`, Skolem terms as `{"skolem": f, "args": […]}`.
pub fn value_to_json(v: &Value) -> Json {
    match v {
        Value::Const(Constant::Int(i)) => json!(i),
        Value::Const(Constant::Str(s)) => json!(s),
        Value::Const(Constant::Bool(b)) => json!(b),
        Value::Null(n) => json!({ "null": n.0 }),
        Value::Skolem(f, args) => json!({
            "skolem": f.as_str(),
            "args": args.iter().map(value_to_json).collect::<Vec<_>>(),
        }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dex_logic::parse_mapping;

    #[test]
    fn instance_round_trips_through_json() {
        let m = parse_mapping("source Emp(name, dept);\ntarget T(a);\nEmp(x, d) -> T(x);").unwrap();
        let j = json!({"Emp": json!([json!(["ann", "eng"]), json!(["bob", "ops"])])});
        let inst = instance_from_json(&j, m.source()).unwrap();
        assert_eq!(inst.fact_count(), 2);
        assert_eq!(instance_to_json(&inst), j);
    }

    #[test]
    fn bad_shapes_are_client_errors() {
        let m = parse_mapping("source Emp(name);\ntarget T(a);\nEmp(x) -> T(x);").unwrap();
        for bad in [
            json!([1, 2]),
            json!({"Emp": "nope"}),
            json!({"Emp": json!([json!([1.5])])}),
            json!({"Nope": json!([json!(["x"])])}),
        ] {
            assert!(instance_from_json(&bad, m.source()).is_err(), "{bad}");
        }
    }
}
