//! Length-prefixed binary codec for the relational vocabulary.
//!
//! All integers are little-endian. Strings are a `u32` byte length
//! followed by UTF-8. Values carry a leading tag byte; labeled nulls
//! serialize their stable `NullId`, so an instance round-trips with
//! the *same* null identities — the property chase resumption depends
//! on. The decoder trusts nothing: every length is checked against the
//! remaining buffer (a fuzzed 4 GiB length must not allocate), and
//! every structural error surfaces as [`StoreError::Corrupt`] with the
//! failing offset.

use crate::error::StoreError;
use dex_relational::{
    AttrType, Constant, Fd, Instance, Name, RelSchema, Relation, RelationalError, Schema, Tuple,
    Value,
};
use std::cell::Cell;

const TAG_BOOL: u8 = 0;
const TAG_INT: u8 = 1;
const TAG_STR: u8 = 2;
const TAG_NULL: u8 = 3;
const TAG_SKOLEM: u8 = 4;

// ---------------------------------------------------------------------
// Encoding
// ---------------------------------------------------------------------

/// Append-only byte sink for the store's file payloads.
#[derive(Default)]
pub struct Encoder {
    buf: Vec<u8>,
}

impl Encoder {
    /// A fresh, empty encoder.
    pub fn new() -> Self {
        Encoder::default()
    }

    /// The encoded bytes.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    pub(crate) fn put_u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    pub(crate) fn put_u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    pub(crate) fn put_u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    pub(crate) fn put_i64(&mut self, v: i64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    pub(crate) fn put_str(&mut self, s: &str) {
        self.put_u32(s.len() as u32);
        self.buf.extend_from_slice(s.as_bytes());
    }

    pub(crate) fn put_name(&mut self, n: &Name) {
        self.put_str(n.as_str());
    }

    /// Encode one value (tag byte + payload).
    pub fn put_value(&mut self, v: &Value) {
        match v {
            Value::Const(Constant::Bool(b)) => {
                self.put_u8(TAG_BOOL);
                self.put_u8(*b as u8);
            }
            Value::Const(Constant::Int(i)) => {
                self.put_u8(TAG_INT);
                self.put_i64(*i);
            }
            Value::Const(Constant::Str(s)) => {
                self.put_u8(TAG_STR);
                self.put_str(s);
            }
            Value::Null(n) => {
                self.put_u8(TAG_NULL);
                self.put_u64(n.0);
            }
            Value::Skolem(f, args) => {
                self.put_u8(TAG_SKOLEM);
                self.put_name(f);
                self.put_u32(args.len() as u32);
                for a in args {
                    self.put_value(a);
                }
            }
        }
    }

    /// Encode one tuple (arity + values).
    pub fn put_tuple(&mut self, t: &Tuple) {
        self.put_u32(t.arity() as u32);
        for v in t.iter() {
            self.put_value(v);
        }
    }

    fn put_rel_schema(&mut self, r: &RelSchema) {
        self.put_name(r.name());
        self.put_u32(r.attrs().len() as u32);
        for (attr, ty) in r.attrs() {
            self.put_name(attr);
            self.put_u8(match ty {
                AttrType::Any => 0,
                AttrType::Int => 1,
                AttrType::Str => 2,
                AttrType::Bool => 3,
            });
        }
        let fds: Vec<&Fd> = r.fds().iter().collect();
        self.put_u32(fds.len() as u32);
        for fd in fds {
            self.put_u32(fd.lhs().len() as u32);
            for n in fd.lhs() {
                self.put_name(n);
            }
            self.put_u32(fd.rhs().len() as u32);
            for n in fd.rhs() {
                self.put_name(n);
            }
        }
    }

    /// Encode a schema (relation count + per-relation schemas).
    pub fn put_schema(&mut self, s: &Schema) {
        let rels: Vec<&RelSchema> = s.relations().collect();
        self.put_u32(rels.len() as u32);
        for r in rels {
            self.put_rel_schema(r);
        }
    }

    /// Encode a whole instance: its schema, then each relation's
    /// tuples (name order — deterministic, so identical instances
    /// encode to identical bytes).
    pub fn put_instance(&mut self, inst: &Instance) {
        self.put_schema(inst.schema());
        let rels: Vec<&Relation> = inst.relations().collect();
        self.put_u32(rels.len() as u32);
        for r in rels {
            self.put_name(r.name());
            self.put_u32(r.len() as u32);
            // Walk the column store directly, row id by row id in
            // canonical order — same bytes as `put_tuple` per row, but
            // no row materialization on the way out.
            let arity = r.schema().arity();
            for &id in r.row_ids().iter() {
                self.put_u32(arity as u32);
                for col in 0..arity {
                    self.put_value(r.value_at(id, col));
                }
            }
        }
    }
}

// ---------------------------------------------------------------------
// Decoding
// ---------------------------------------------------------------------

thread_local! {
    static INSTANCE_DECODES: Cell<u64> = const { Cell::new(0) };
}

/// Whole instances decoded on this thread so far (snapshots, source
/// files, full WAL records). Thread-local, so concurrent tests each
/// count their own decodes; read it before and after a call to see how
/// many instances the call decoded.
pub fn instance_decodes() -> u64 {
    INSTANCE_DECODES.with(Cell::get)
}

/// Column-major tuples of one relation, as decoded.
struct Rows {
    columns: Vec<Vec<Value>>,
    len: usize,
    /// Width of the first tuple that did not match the relation.
    bad_arity: Option<usize>,
}

/// Bounds-checked reader over an untrusted byte buffer. `file` labels
/// corruption errors with their origin.
pub struct Decoder<'a> {
    buf: &'a [u8],
    pos: usize,
    file: &'a str,
}

impl<'a> Decoder<'a> {
    /// Decode from `buf`, labeling errors as coming from `file`.
    pub fn new(buf: &'a [u8], file: &'a str) -> Self {
        Decoder { buf, pos: 0, file }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Current read offset.
    pub fn offset(&self) -> usize {
        self.pos
    }

    fn corrupt(&self, what: impl Into<String>) -> StoreError {
        StoreError::corrupt(self.file, self.pos, what)
    }

    fn take(&mut self, n: usize, what: &str) -> Result<&'a [u8], StoreError> {
        if self.remaining() < n {
            return Err(self.corrupt(format!(
                "truncated {what}: need {n} bytes, {} left",
                self.remaining()
            )));
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    pub(crate) fn get_u8(&mut self, what: &str) -> Result<u8, StoreError> {
        Ok(self.take(1, what)?[0])
    }

    pub(crate) fn get_u32(&mut self, what: &str) -> Result<u32, StoreError> {
        let b = self.take(4, what)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    pub(crate) fn get_u64(&mut self, what: &str) -> Result<u64, StoreError> {
        let b = self.take(8, what)?;
        Ok(u64::from_le_bytes([
            b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7],
        ]))
    }

    pub(crate) fn get_i64(&mut self, what: &str) -> Result<i64, StoreError> {
        Ok(self.get_u64(what)? as i64)
    }

    /// A count that prefixes `n` elements of at least one byte each:
    /// reject counts the remaining buffer cannot possibly hold, so
    /// fuzzed lengths never drive huge allocations.
    fn get_count(&mut self, what: &str) -> Result<usize, StoreError> {
        let n = self.get_u32(what)? as usize;
        if n > self.remaining() {
            return Err(self.corrupt(format!("implausible {what} count {n}")));
        }
        Ok(n)
    }

    pub(crate) fn get_str(&mut self, what: &str) -> Result<String, StoreError> {
        let n = self.get_count(what)?;
        let bytes = self.take(n, what)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| self.corrupt(format!("{what} is not UTF-8")))
    }

    fn get_name(&mut self, what: &str) -> Result<Name, StoreError> {
        Ok(Name::new(self.get_str(what)?))
    }

    /// Decode one value.
    pub fn get_value(&mut self) -> Result<Value, StoreError> {
        match self.get_u8("value tag")? {
            TAG_BOOL => Ok(Value::bool(self.get_u8("bool")? != 0)),
            TAG_INT => Ok(Value::int(self.get_i64("int")?)),
            TAG_STR => Ok(Value::str(self.get_str("string value")?)),
            TAG_NULL => Ok(Value::null(self.get_u64("null id")?)),
            TAG_SKOLEM => {
                let f = self.get_name("skolem name")?;
                let argc = self.get_count("skolem arg")?;
                let mut args = Vec::with_capacity(argc);
                for _ in 0..argc {
                    args.push(self.get_value()?);
                }
                Ok(Value::skolem(f, args))
            }
            t => Err(self.corrupt(format!("unknown value tag {t}"))),
        }
    }

    /// Decode one tuple.
    pub fn get_tuple(&mut self) -> Result<Tuple, StoreError> {
        let arity = self.get_count("tuple arity")?;
        let mut vals = Vec::with_capacity(arity);
        for _ in 0..arity {
            vals.push(self.get_value()?);
        }
        Ok(Tuple::new(vals))
    }

    fn get_rel_schema(&mut self) -> Result<RelSchema, StoreError> {
        let name = self.get_name("relation name")?;
        let nattrs = self.get_count("attribute")?;
        let mut attrs = Vec::with_capacity(nattrs);
        for _ in 0..nattrs {
            let attr = self.get_name("attribute name")?;
            let ty = match self.get_u8("attribute type")? {
                0 => AttrType::Any,
                1 => AttrType::Int,
                2 => AttrType::Str,
                3 => AttrType::Bool,
                t => return Err(self.corrupt(format!("unknown attribute type {t}"))),
            };
            attrs.push((attr, ty));
        }
        let mut rel = RelSchema::new(name, attrs)
            .map_err(|e| self.corrupt(format!("invalid relation schema: {e}")))?;
        let nfds = self.get_count("fd")?;
        for _ in 0..nfds {
            let nlhs = self.get_count("fd lhs")?;
            let mut lhs = Vec::with_capacity(nlhs);
            for _ in 0..nlhs {
                lhs.push(self.get_name("fd lhs attribute")?);
            }
            let nrhs = self.get_count("fd rhs")?;
            let mut rhs = Vec::with_capacity(nrhs);
            for _ in 0..nrhs {
                rhs.push(self.get_name("fd rhs attribute")?);
            }
            rel = rel
                .with_fd(Fd::new(lhs, rhs))
                .map_err(|e| self.corrupt(format!("invalid fd: {e}")))?;
        }
        Ok(rel)
    }

    /// Decode a schema.
    pub fn get_schema(&mut self) -> Result<Schema, StoreError> {
        let nrels = self.get_count("relation")?;
        let mut rels = Vec::with_capacity(nrels);
        for _ in 0..nrels {
            rels.push(self.get_rel_schema()?);
        }
        Schema::with_relations(rels).map_err(|e| self.corrupt(format!("invalid schema: {e}")))
    }

    /// Decode a whole instance, validating every tuple against the
    /// decoded schema (arity and attribute types). Rows decode straight
    /// into per-attribute columns that move into the relation's store.
    pub fn get_instance(&mut self) -> Result<Instance, StoreError> {
        INSTANCE_DECODES.with(|n| n.set(n.get() + 1));
        let schema = self.get_schema()?;
        let mut inst = Instance::empty(schema);
        let nrels = self.get_count("populated relation")?;
        for _ in 0..nrels {
            let name = self.get_name("populated relation name")?;
            let count = self.get_count("tuple")?;
            let arity = inst.schema().relation(name.as_str()).map(RelSchema::arity);
            let rows = self.get_rows(arity, count)?;
            let rel = inst
                .relation_mut(name.as_str())
                .ok_or_else(|| self.corrupt(format!("tuples for unknown relation `{name}`")))?;
            let loaded = match rows.bad_arity {
                None => rel.extend_columns(rows.len, rows.columns).map(drop),
                // The rows before the first one of the wrong width are
                // checked first, as `validate` would meet them.
                Some(actual) => rel.validate_columns(&rows.columns).and_then(|()| {
                    Err(RelationalError::ArityMismatch {
                        relation: name.clone(),
                        expected: rel.schema().arity(),
                        actual,
                    })
                }),
            };
            loaded.map_err(|e| self.corrupt(format!("invalid tuple in `{name}`: {e}")))?;
        }
        Ok(inst)
    }

    /// Decode `count` tuples into `arity` columns. Every tuple is
    /// decoded, but columns stop growing at the first tuple whose width
    /// is not `arity` (or at the first tuple at all when the relation
    /// is unknown, `arity` `None`).
    fn get_rows(&mut self, arity: Option<usize>, count: usize) -> Result<Rows, StoreError> {
        let width = arity.unwrap_or(0);
        // A tuple takes at least its 4-byte arity plus 2 bytes a value.
        let cap = count.min(self.remaining() / (4 + 2 * width));
        let mut rows = Rows {
            columns: (0..width).map(|_| Vec::with_capacity(cap)).collect(),
            len: 0,
            bad_arity: None,
        };
        for _ in 0..count {
            let n = self.get_count("tuple arity")?;
            if rows.bad_arity.is_none() && arity == Some(n) {
                for col in &mut rows.columns {
                    col.push(self.get_value()?);
                }
                rows.len += 1;
            } else {
                rows.bad_arity.get_or_insert(n);
                for _ in 0..n {
                    self.get_value()?;
                }
            }
        }
        Ok(rows)
    }

    /// Assert the buffer is fully consumed (no trailing garbage).
    pub fn finish(self) -> Result<(), StoreError> {
        if self.remaining() > 0 {
            return Err(self.corrupt(format!("{} trailing bytes", self.remaining())));
        }
        Ok(())
    }
}

/// Encode an instance to standalone bytes (snapshot payloads, tests).
pub fn encode_instance(inst: &Instance) -> Vec<u8> {
    let mut e = Encoder::new();
    e.put_instance(inst);
    e.into_bytes()
}

/// Decode an instance from standalone bytes.
pub fn decode_instance(bytes: &[u8], file: &str) -> Result<Instance, StoreError> {
    let mut d = Decoder::new(bytes, file);
    let inst = d.get_instance()?;
    d.finish()?;
    Ok(inst)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dex_relational::tuple;

    fn sample() -> Instance {
        let schema = Schema::with_relations(vec![
            RelSchema::untyped("Emp", vec!["name", "mgr"])
                .and_then(|r| r.with_key(vec!["name"]))
                .expect("schema"),
            RelSchema::new("Stats", vec![("id", AttrType::Int), ("ok", AttrType::Bool)])
                .expect("schema"),
        ])
        .expect("schema");
        let mut i = Instance::empty(schema);
        i.insert("Emp", Tuple::new(vec![Value::str("Alice"), Value::null(7)]))
            .expect("insert");
        i.insert(
            "Emp",
            Tuple::new(vec![
                Value::str("Bob"),
                Value::skolem("f", vec![Value::str("Bob"), Value::null(2)]),
            ]),
        )
        .expect("insert");
        i.insert("Stats", tuple![3i64, true]).expect("insert");
        i
    }

    #[test]
    fn instance_round_trips_bit_identically() {
        let inst = sample();
        let bytes = encode_instance(&inst);
        let back = decode_instance(&bytes, "test").expect("decode");
        assert_eq!(back, inst);
        assert_eq!(back.nulls(), inst.nulls(), "null ids are stable");
        // Deterministic: encoding the decoded instance is byte-equal.
        assert_eq!(encode_instance(&back), bytes);
    }

    #[test]
    fn truncation_at_every_prefix_is_a_typed_error() {
        let bytes = encode_instance(&sample());
        for n in 0..bytes.len() {
            match decode_instance(&bytes[..n], "test") {
                Err(StoreError::Corrupt { .. }) => {}
                Ok(_) => panic!("prefix of {n} bytes decoded successfully"),
                Err(other) => panic!("unexpected error kind: {other}"),
            }
        }
    }

    #[test]
    fn huge_counts_do_not_allocate() {
        // A count of u32::MAX with a near-empty buffer must be
        // rejected by the plausibility check, not attempted.
        let mut e = Encoder::new();
        e.put_u32(u32::MAX);
        let bytes = e.into_bytes();
        let mut d = Decoder::new(&bytes, "test");
        assert!(matches!(d.get_schema(), Err(StoreError::Corrupt { .. })));
    }

    /// An instance payload whose one relation, `R(n: Int, s: Str)`,
    /// holds `rows`, each encoded at its own width.
    fn crafted(rel: &RelSchema, rows: &[Tuple]) -> Vec<u8> {
        let mut e = Encoder::new();
        e.put_schema(&Schema::with_relations(vec![rel.clone()]).expect("schema"));
        e.put_u32(1);
        e.put_str("R");
        e.put_u32(rows.len() as u32);
        for t in rows {
            e.put_tuple(t);
        }
        e.into_bytes()
    }

    #[test]
    fn decoded_rows_are_judged_as_extend_validated_judges_them() {
        let rel =
            RelSchema::new("R", vec![("n", AttrType::Int), ("s", AttrType::Str)]).expect("schema");
        for rows in [
            // A bad type before a bad width, and the other way round.
            vec![tuple![1i64, "a"], tuple!["x", "b"], tuple![2i64]],
            vec![tuple![1i64, "a"], tuple![2i64], tuple!["x", "b"]],
            // A duplicate row is dropped, not an error.
            vec![tuple![1i64, "a"], tuple![2i64, "b"], tuple![1i64, "a"]],
        ] {
            let want = Relation::empty(rel.clone()).extend_validated(rows.clone());
            let before = instance_decodes();
            let got = decode_instance(&crafted(&rel, &rows), "test");
            assert_eq!(instance_decodes(), before + 1);
            match (want, got) {
                (Ok(n), Ok(inst)) => assert_eq!(inst.fact_count(), n),
                (Err(w), Err(StoreError::Corrupt { what, .. })) => {
                    assert_eq!(what, format!("invalid tuple in `R`: {w}"))
                }
                (want, got) => panic!("{rows:?}: want {want:?}, got {got:?}"),
            }
        }
    }

    #[test]
    fn trailing_bytes_are_rejected() {
        let mut bytes = encode_instance(&sample());
        bytes.push(0);
        assert!(matches!(
            decode_instance(&bytes, "test"),
            Err(StoreError::Corrupt { .. })
        ));
    }
}
