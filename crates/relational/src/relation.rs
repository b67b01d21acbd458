//! Relation instances: sets of tuples conforming to a relation schema.

use crate::columns::ColumnStore;
use crate::error::RelationalError;
use crate::fd::FdViolation;
use crate::index::{IndexState, Probe, TupleId};
use crate::name::Name;
use crate::schema::RelSchema;
use crate::tuple::Tuple;
use crate::value::{NullId, Value};
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;
use std::sync::Arc;

/// A relation instance: the schema of the relation plus a *set* of
/// tuples (set semantics, canonical lexicographic order).
///
/// Physically the tuples live in a [`ColumnStore`]: a tuple-id arena
/// with one column-major `Vec<Value>` per attribute position. [`Tuple`]
/// stays the value type at the API boundary — [`Relation::iter`]
/// materializes rows in canonical order, inserts take tuples — but hot
/// paths read positions directly by `(tuple_id, col)` via
/// [`Relation::value_at`] and probe the per-position hash indexes for
/// *ids* via [`Relation::probe_ids`], never touching whole rows.
///
/// Alongside the store, every relation carries an [`IndexState`]:
/// lazily built hash indexes (attribute position -> value -> tuple-id
/// postings) plus the delta log backing
/// [`insert_delta`](Relation::insert_delta). The index state is pure
/// cache: it is skipped by serialization, ignored by `PartialEq`, kept
/// warm incrementally across inserts and in-place null substitutions,
/// and invalidated by other destructive mutations, so observable
/// behavior (iteration order, serialization, equality) is exactly that
/// of a plain ordered tuple set.
#[derive(Clone, Debug)]
pub struct Relation {
    schema: RelSchema,
    store: ColumnStore,
    index: IndexState,
    /// Reused validation buffer for the bulk-insert paths: the chase
    /// calls `extend_validated_delta` every round, and collecting each
    /// batch into a fresh `Vec` showed up as allocation churn.
    scratch: Vec<Tuple>,
}

impl PartialEq for Relation {
    fn eq(&self, other: &Self) -> bool {
        if self.schema != other.schema || self.store.len() != other.store.len() {
            return false;
        }
        let a = self.store.ordered_ids();
        let b = other.store.ordered_ids();
        a.iter()
            .zip(b.iter())
            .all(|(&ia, &ib)| self.row_eq_other(ia, other, ib))
    }
}

impl Eq for Relation {}

/// Does `v` mention a null that `subst` replaces?
fn mentions(v: &Value, subst: &BTreeMap<NullId, Value>) -> bool {
    match v {
        Value::Const(_) => false,
        Value::Null(n) => subst.contains_key(n),
        Value::Skolem(_, args) => args.iter().any(|a| mentions(a, subst)),
    }
}

/// Serialization image of a relation: schema plus tuples in canonical
/// order. Field-compatible with the pre-columnar on-disk format (which
/// derived serialization from `{schema, tuples: BTreeSet<Tuple>}`).
#[derive(Serialize, Deserialize)]
struct RelationWire {
    schema: RelSchema,
    tuples: Vec<Tuple>,
}

impl Serialize for Relation {
    fn serialize<S: serde::Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
        RelationWire {
            schema: self.schema.clone(),
            tuples: self.iter().collect(),
        }
        .serialize(serializer)
    }
}

impl<'de> Deserialize<'de> for Relation {
    fn deserialize<D: serde::Deserializer<'de>>(deserializer: D) -> Result<Self, D::Error> {
        let wire = RelationWire::deserialize(deserializer)?;
        // Trust the wire data the way the derived impl did: rebuild the
        // store without re-validating against the schema.
        let mut rel = Relation::empty(wire.schema);
        for t in wire.tuples {
            rel.store.push(&t);
        }
        Ok(rel)
    }
}

impl Relation {
    /// The empty instance of `schema`.
    pub fn empty(schema: RelSchema) -> Self {
        let arity = schema.arity();
        Relation {
            schema,
            store: ColumnStore::new(arity),
            index: IndexState::default(),
            scratch: Vec::new(),
        }
    }

    /// Build an instance and insert `tuples`, validating each.
    pub fn from_tuples(
        schema: RelSchema,
        tuples: impl IntoIterator<Item = Tuple>,
    ) -> Result<Self, RelationalError> {
        let mut r = Relation::empty(schema);
        r.extend_validated(tuples)?;
        Ok(r)
    }

    /// The relation schema.
    pub fn schema(&self) -> &RelSchema {
        &self.schema
    }

    /// The relation name.
    pub fn name(&self) -> &Name {
        self.schema.name()
    }

    /// Number of tuples.
    pub fn len(&self) -> usize {
        self.store.len()
    }

    /// Is the instance empty?
    pub fn is_empty(&self) -> bool {
        self.store.is_empty()
    }

    /// Validate a tuple against arity and attribute types.
    pub fn validate(&self, t: &Tuple) -> Result<(), RelationalError> {
        if t.arity() != self.schema.arity() {
            return Err(RelationalError::ArityMismatch {
                relation: self.name().clone(),
                expected: self.schema.arity(),
                actual: t.arity(),
            });
        }
        for ((attr, ty), v) in self.schema.attrs().iter().zip(t.iter()) {
            if !ty.admits(v) {
                return Err(RelationalError::TypeMismatch {
                    relation: self.name().clone(),
                    attribute: attr.clone(),
                    value: v.to_string(),
                });
            }
        }
        Ok(())
    }

    /// Insert a tuple (validated). Returns `true` if it was new.
    pub fn insert(&mut self, t: Tuple) -> Result<bool, RelationalError> {
        self.validate(&t)?;
        if self.store.push(&t).is_some() {
            self.index.note_append(self.store.version());
            Ok(true)
        } else {
            Ok(false)
        }
    }

    /// Insert a tuple (validated) and, if it is new, record it in the
    /// delta log for a later [`drain_delta`](Relation::drain_delta).
    /// Returns `true` if it was new.
    pub fn insert_delta(&mut self, t: Tuple) -> Result<bool, RelationalError> {
        self.validate(&t)?;
        match self.store.push(&t) {
            Some(id) => {
                self.index.note_append(self.store.version());
                self.index.log_delta(id);
                Ok(true)
            }
            None => Ok(false),
        }
    }

    /// Bulk insert. The whole batch is validated before anything is
    /// inserted, so on error the relation is unchanged. Returns the
    /// number of tuples that were new.
    pub fn extend_validated(
        &mut self,
        tuples: impl IntoIterator<Item = Tuple>,
    ) -> Result<usize, RelationalError> {
        self.extend_impl(tuples, false)
    }

    /// Bulk insert with delta logging: like
    /// [`extend_validated`](Relation::extend_validated), but every new
    /// tuple is also recorded in the delta log.
    pub fn extend_validated_delta(
        &mut self,
        tuples: impl IntoIterator<Item = Tuple>,
    ) -> Result<usize, RelationalError> {
        self.extend_impl(tuples, true)
    }

    fn extend_impl(
        &mut self,
        tuples: impl IntoIterator<Item = Tuple>,
        log_delta: bool,
    ) -> Result<usize, RelationalError> {
        // The batch is staged in a scratch buffer reused across calls
        // (the chase bulk-inserts every round; a fresh allocation per
        // round was measurable churn).
        let mut batch = std::mem::take(&mut self.scratch);
        batch.clear();
        batch.extend(tuples);
        let put_back = |this: &mut Self, mut batch: Vec<Tuple>| {
            batch.clear();
            this.scratch = batch;
        };
        for t in &batch {
            if let Err(e) = self.validate(t) {
                put_back(self, batch);
                return Err(e);
            }
        }
        if log_delta {
            // Fault-injection site for the delta commit: placed after
            // validation and before any insertion, so an injected fault
            // leaves the relation unmodified.
            if let Some(e) = crate::fail::hit("relation.extend_delta") {
                put_back(self, batch);
                return Err(e);
            }
        }
        let mut added = 0;
        for t in &batch {
            if let Some(id) = self.store.push(t) {
                self.index.note_append(self.store.version());
                if log_delta {
                    self.index.log_delta(id);
                }
                added += 1;
            }
        }
        put_back(self, batch);
        Ok(added)
    }

    /// Take the tuples inserted through the delta-tracking APIs since
    /// the last drain (in insertion order; duplicates never appear
    /// because only genuinely new tuples are logged). Rows are
    /// materialized lazily from the drained ids — see
    /// [`drain_delta_ids`](Relation::drain_delta_ids) for the id form.
    pub fn drain_delta(&mut self) -> Vec<Tuple> {
        self.index
            .take_delta()
            .into_iter()
            .map(|id| self.store.materialize(id))
            .collect()
    }

    /// Take the arena ids logged through the delta-tracking APIs since
    /// the last drain (insertion order). Ids stay valid (readable via
    /// [`value_at`](Relation::value_at) / [`tuple_at`](Relation::tuple_at))
    /// even if the row is later removed.
    pub fn drain_delta_ids(&mut self) -> Vec<TupleId> {
        self.index.take_delta()
    }

    /// Number of undrained delta tuples.
    pub fn delta_len(&self) -> usize {
        self.index.delta_len()
    }

    /// The undrained delta log, without consuming it (insertion order).
    pub fn peek_delta(&self) -> Vec<Tuple> {
        self.index
            .peek_delta()
            .iter()
            .map(|&id| self.store.materialize(id))
            .collect()
    }

    /// Remove a tuple. Returns `true` if it was present.
    pub fn remove(&mut self, t: &Tuple) -> bool {
        self.store.remove(t).is_some()
    }

    /// Membership test.
    pub fn contains(&self, t: &Tuple) -> bool {
        self.store.contains(t)
    }

    /// Iterate over tuples in canonical order (rows are materialized
    /// lazily from the column arena).
    pub fn iter(&self) -> RelIter<'_> {
        RelIter {
            rel: self,
            ids: self.store.ordered_ids(),
            next: 0,
        }
    }

    /// The tuple set, materialized in canonical order.
    pub fn tuples(&self) -> BTreeSet<Tuple> {
        self.iter().collect()
    }

    /// Live tuple ids in canonical order. The `Arc` is a stable
    /// snapshot: later mutations produce a fresh permutation.
    pub fn row_ids(&self) -> Arc<Vec<TupleId>> {
        self.store.ordered_ids()
    }

    /// The value at `(tuple_id, col)` — the columnar hot-path read.
    pub fn value_at(&self, id: TupleId, col: usize) -> &Value {
        self.store.value(id, col)
    }

    /// Materialize the row with id `id`.
    pub fn tuple_at(&self, id: TupleId) -> Tuple {
        self.store.materialize(id)
    }

    /// Deterministic content hash of row `id` (stable across runs; the
    /// hash the dedup map keys rows by).
    pub fn row_hash(&self, id: TupleId) -> u64 {
        self.store.row_hash(id)
    }

    /// Remove all tuples.
    pub fn clear(&mut self) {
        self.store.clear();
    }

    /// Keep only tuples satisfying `pred`.
    pub fn retain(&mut self, pred: impl FnMut(&Tuple) -> bool) {
        self.store.retain(pred);
    }

    /// All tuples whose value at position `pos` equals `value`,
    /// answered from the lazily built hash index for that position.
    /// Results come back in canonical order.
    pub fn probe(&self, pos: usize, value: &Value) -> Probe {
        let ids = self.index.probe_ids(&self.store, pos, value);
        Probe::new(
            ids.into_iter()
                .map(|id| self.store.materialize(id))
                .collect(),
        )
    }

    /// Ids of the tuples whose value at position `pos` equals `value`,
    /// in canonical order — the non-materializing form of
    /// [`probe`](Relation::probe) used by the premise matcher.
    pub fn probe_ids(&self, pos: usize, value: &Value) -> Vec<TupleId> {
        self.index.probe_ids(&self.store, pos, value)
    }

    /// How many tuples carry `value` at position `pos` (index-backed;
    /// used to order join probes by selectivity).
    pub fn posting_len(&self, pos: usize, value: &Value) -> usize {
        self.index.posting_len(&self.store, pos, value)
    }

    /// Cumulative (index builds, index probes) served by this
    /// relation instance.
    pub fn index_stats(&self) -> (u64, u64) {
        self.index.stats()
    }

    /// Named access: the value of attribute `attr` in tuple `t`.
    pub fn value_of<'t>(&self, t: &'t Tuple, attr: &str) -> Option<&'t Value> {
        self.schema.position(attr).and_then(|i| t.get(i))
    }

    /// Collect every null id occurring in the instance (column scan,
    /// no row materialization).
    pub fn collect_nulls(&self, out: &mut BTreeSet<NullId>) {
        for id in self.store.live_ids() {
            for col in 0..self.schema.arity() {
                self.store.value(id, col).collect_nulls(out);
            }
        }
    }

    /// Apply a null substitution to every tuple (tuples may merge).
    pub fn substitute_nulls(&self, subst: &BTreeMap<NullId, Value>) -> Relation {
        let mut out = Relation::empty(self.schema.clone());
        for t in self.iter() {
            out.store.push(&t.substitute_nulls(subst));
        }
        out
    }

    /// [`substitute_nulls`](Relation::substitute_nulls) in place:
    /// rewrite only the rows that mention a substituted null (rows may
    /// merge), leaving the same tuple set. A rewrite tombstones the old
    /// row, so once dead rows outnumber live ones the arena is
    /// compacted: a chain of merges that rewrites one growing class of
    /// rows keeps memory linear in the live rows.
    pub(crate) fn substitute_nulls_in_place(&mut self, subst: &BTreeMap<NullId, Value>) {
        let hit: Vec<TupleId> = self
            .store
            .live_ids()
            .filter(|&id| {
                (0..self.schema.arity()).any(|col| mentions(self.store.value(id, col), subst))
            })
            .collect();
        let images: Vec<Tuple> = hit
            .iter()
            .map(|&id| self.store.materialize(id).substitute_nulls(subst))
            .collect();
        let version_before = self.store.version();
        for &id in &hit {
            self.store.tombstone(id);
        }
        self.index.note_removals(&self.store, version_before, &hit);
        for t in &images {
            if self.store.push(t).is_some() {
                self.index.note_append(self.store.version());
            }
        }
        if self.store.arena_len() > 2 * self.store.len() {
            let remap = self.store.compact();
            self.index.remap_delta(&remap);
        }
    }

    /// Check the relation's declared FDs, reporting every violating pair.
    ///
    /// Null semantics: two values agree only if they are identical (a
    /// labeled null agrees with itself). This is the standard semantics
    /// for egd checking over instances with nulls.
    pub fn fd_violations(&self) -> Vec<FdViolation> {
        let mut out = Vec::new();
        let tuples: Vec<Tuple> = self.iter().collect();
        for fd in self.schema.fds().iter() {
            let lhs_pos: Vec<usize> = fd
                .lhs()
                .iter()
                .filter_map(|a| self.schema.position(a.as_str()))
                .collect();
            let rhs_pos: Vec<usize> = fd
                .rhs()
                .iter()
                .filter_map(|a| self.schema.position(a.as_str()))
                .collect();
            // Group by LHS projection.
            let mut groups: BTreeMap<Tuple, Vec<&Tuple>> = BTreeMap::new();
            for t in &tuples {
                groups.entry(t.project(&lhs_pos)).or_default().push(t);
            }
            for group in groups.values() {
                for i in 0..group.len() {
                    for j in (i + 1)..group.len() {
                        if group[i].project(&rhs_pos) != group[j].project(&rhs_pos) {
                            out.push(FdViolation {
                                fd: fd.clone(),
                                tuple_a: group[i].to_string(),
                                tuple_b: group[j].to_string(),
                            });
                        }
                    }
                }
            }
        }
        out
    }

    /// Does the instance satisfy all its declared FDs?
    pub fn satisfies_fds(&self) -> bool {
        self.fd_violations().is_empty()
    }

    /// Replace the schema (used by rename/evolution operators). The new
    /// schema must have the same arity.
    pub fn with_schema(self, schema: RelSchema) -> Result<Relation, RelationalError> {
        if schema.arity() != self.schema.arity() {
            return Err(RelationalError::SchemaMismatch {
                context: format!(
                    "with_schema: arity {} -> {}",
                    self.schema.arity(),
                    schema.arity()
                ),
            });
        }
        Ok(Relation {
            schema,
            store: self.store,
            index: self.index,
            scratch: self.scratch,
        })
    }

    /// Row-level equality against a row of another relation.
    fn row_eq_other(&self, id: TupleId, other: &Relation, other_id: TupleId) -> bool {
        (0..self.schema.arity())
            .all(|col| self.store.value(id, col) == other.store.value(other_id, col))
    }
}

/// Iterator over a relation's tuples in canonical order, materializing
/// each row from the column arena on demand.
pub struct RelIter<'a> {
    rel: &'a Relation,
    ids: Arc<Vec<TupleId>>,
    next: usize,
}

impl Iterator for RelIter<'_> {
    type Item = Tuple;

    fn next(&mut self) -> Option<Tuple> {
        let id = *self.ids.get(self.next)?;
        self.next += 1;
        Some(self.rel.store.materialize(id))
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let rem = self.ids.len() - self.next;
        (rem, Some(rem))
    }
}

impl ExactSizeIterator for RelIter<'_> {}

impl fmt::Display for Relation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "{}", self.schema)?;
        for t in self.iter() {
            writeln!(f, "  {t}")?;
        }
        Ok(())
    }
}

impl<'a> IntoIterator for &'a Relation {
    type Item = Tuple;
    type IntoIter = RelIter<'a>;
    fn into_iter(self) -> Self::IntoIter {
        self.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fd::Fd;
    use crate::schema::AttrType;
    use crate::tuple;

    fn emp_schema() -> RelSchema {
        RelSchema::untyped("Emp", vec!["name"]).unwrap()
    }

    #[test]
    fn merge_chain_keeps_the_arena_linear() {
        // D(m, i) with one null per i; merging n0 into n1, n1 into n2,
        // ... rewrites the whole growing class each time.
        let k = 200u64;
        let mut r = Relation::empty(RelSchema::untyped("D", vec!["m", "i"]).unwrap());
        for i in 0..k {
            r.insert_delta(Tuple::new(vec![Value::null(i), Value::int(i as i64)]))
                .unwrap();
        }
        let mut want = r.clone();
        let mut rewritten = 0;
        for j in 0..k - 1 {
            assert!(!r.probe_ids(0, &Value::null(j)).is_empty(), "warm index");
            let s = BTreeMap::from([(NullId(j), Value::null(j + 1))]);
            rewritten += r.probe_ids(0, &Value::null(j)).len();
            r.substitute_nulls_in_place(&s);
            want = want.substitute_nulls(&s);
            assert!(r.store.arena_len() <= 2 * r.len(), "merge {j}");
        }
        assert!(
            rewritten > 10 * k as usize,
            "the chain rewrites O(k^2) rows"
        );
        assert_eq!(r, want);
        assert_eq!(r.probe_ids(0, &Value::null(k - 1)).len(), k as usize);
    }

    #[test]
    fn compaction_renumbers_the_delta_log() {
        let mut r = Relation::empty(RelSchema::untyped("D", vec!["m", "i"]).unwrap());
        for n in 0..4 {
            r.insert(Tuple::new(vec![Value::null(n), Value::int(1)]))
                .unwrap();
        }
        r.insert_delta(tuple!["b", 2i64]).unwrap();
        let s = (0..4).map(|n| (NullId(n), Value::str("a"))).collect();
        r.substitute_nulls_in_place(&s);
        assert_eq!(r.store.arena_len(), 2, "compacted to the live rows");
        assert_eq!(r.drain_delta(), [tuple!["b", 2i64]]);
        assert_eq!(r.tuples(), [tuple!["a", 1i64], tuple!["b", 2i64]].into());
    }

    #[test]
    fn insert_validates_arity() {
        let mut r = Relation::empty(emp_schema());
        assert!(r.insert(tuple!["Alice"]).unwrap());
        let err = r.insert(tuple!["Alice", "Bob"]).unwrap_err();
        assert!(matches!(err, RelationalError::ArityMismatch { .. }));
    }

    #[test]
    fn insert_validates_types() {
        let s = RelSchema::new("R", vec![("n", AttrType::Int)]).unwrap();
        let mut r = Relation::empty(s);
        assert!(r.insert(tuple![1i64]).is_ok());
        assert!(matches!(
            r.insert(tuple!["x"]).unwrap_err(),
            RelationalError::TypeMismatch { .. }
        ));
        // Nulls are always admitted.
        assert!(r.insert(Tuple::new(vec![Value::null(0)])).is_ok());
    }

    #[test]
    fn set_semantics_dedupe() {
        let mut r = Relation::empty(emp_schema());
        assert!(r.insert(tuple!["Alice"]).unwrap());
        assert!(!r.insert(tuple!["Alice"]).unwrap());
        assert_eq!(r.len(), 1);
    }

    #[test]
    fn named_access() {
        let s = RelSchema::untyped("P", vec!["id", "name"]).unwrap();
        let r = Relation::from_tuples(s, vec![tuple![1i64, "Alice"]]).unwrap();
        let t = r.iter().next().unwrap();
        assert_eq!(r.value_of(&t, "name"), Some(&Value::str("Alice")));
        assert_eq!(r.value_of(&t, "zip"), None);
    }

    #[test]
    fn iteration_is_canonical_order() {
        let s = RelSchema::untyped("P", vec!["id"]).unwrap();
        let mut r = Relation::empty(s);
        r.insert(tuple![3i64]).unwrap();
        r.insert(tuple![1i64]).unwrap();
        r.insert(tuple![2i64]).unwrap();
        let got: Vec<Tuple> = r.iter().collect();
        assert_eq!(got, vec![tuple![1i64], tuple![2i64], tuple![3i64]]);
        // Removal keeps the order canonical over the survivors.
        r.remove(&tuple![2i64]);
        let got: Vec<Tuple> = r.iter().collect();
        assert_eq!(got, vec![tuple![1i64], tuple![3i64]]);
    }

    #[test]
    fn columnar_position_reads() {
        let s = RelSchema::untyped("P", vec!["id", "name"]).unwrap();
        let mut r = Relation::empty(s);
        r.insert(tuple![2i64, "Bob"]).unwrap();
        r.insert(tuple![1i64, "Alice"]).unwrap();
        let ids = r.row_ids();
        assert_eq!(r.value_at(ids[0], 1), &Value::str("Alice"));
        assert_eq!(r.value_at(ids[1], 0), &Value::int(2));
        assert_eq!(r.tuple_at(ids[1]), tuple![2i64, "Bob"]);
    }

    #[test]
    fn probe_ids_agree_with_probe() {
        let s = RelSchema::untyped("P", vec!["k", "v"]).unwrap();
        let mut r = Relation::empty(s);
        r.insert(tuple!["x", 2i64]).unwrap();
        r.insert(tuple!["x", 1i64]).unwrap();
        r.insert(tuple!["y", 3i64]).unwrap();
        let via_ids: Vec<Tuple> = r
            .probe_ids(0, &Value::str("x"))
            .into_iter()
            .map(|id| r.tuple_at(id))
            .collect();
        let via_probe: Vec<Tuple> = r.probe(0, &Value::str("x")).iter().cloned().collect();
        assert_eq!(via_ids, via_probe);
        assert_eq!(via_ids, vec![tuple!["x", 1i64], tuple!["x", 2i64]]);
    }

    #[test]
    fn scratch_buffer_survives_failed_batches() {
        let s = RelSchema::new("R", vec![("n", AttrType::Int)]).unwrap();
        let mut r = Relation::empty(s);
        // A failing batch must leave the relation unchanged…
        assert!(r
            .extend_validated(vec![tuple![1i64], tuple!["oops"]])
            .is_err());
        assert!(r.is_empty());
        // …and the scratch buffer must still work for later batches.
        assert_eq!(
            r.extend_validated(vec![tuple![1i64], tuple![2i64]])
                .unwrap(),
            2
        );
        assert_eq!(r.extend_validated_delta(vec![tuple![3i64]]).unwrap(), 1);
        assert_eq!(r.drain_delta(), vec![tuple![3i64]]);
    }

    #[test]
    fn delta_ids_materialize_lazily() {
        let mut r = Relation::empty(emp_schema());
        r.insert_delta(tuple!["Alice"]).unwrap();
        r.insert_delta(tuple!["Bob"]).unwrap();
        assert_eq!(r.delta_len(), 2);
        assert_eq!(r.peek_delta(), vec![tuple!["Alice"], tuple!["Bob"]]);
        let ids = r.drain_delta_ids();
        assert_eq!(ids.len(), 2);
        assert_eq!(r.tuple_at(ids[0]), tuple!["Alice"]);
        assert_eq!(r.delta_len(), 0);
    }

    #[test]
    fn fd_violation_detection() {
        let s = RelSchema::untyped("P", vec!["id", "name"])
            .unwrap()
            .with_fd(Fd::new(vec!["id"], vec!["name"]))
            .unwrap();
        let mut r = Relation::empty(s);
        r.insert(tuple![1i64, "Alice"]).unwrap();
        r.insert(tuple![1i64, "Bob"]).unwrap();
        r.insert(tuple![2i64, "Carol"]).unwrap();
        let v = r.fd_violations();
        assert_eq!(v.len(), 1);
        assert!(!r.satisfies_fds());
    }

    #[test]
    fn fd_nulls_agree_only_with_themselves() {
        let s = RelSchema::untyped("P", vec!["id", "name"])
            .unwrap()
            .with_fd(Fd::new(vec!["id"], vec!["name"]))
            .unwrap();
        let mut r = Relation::empty(s);
        r.insert(Tuple::new(vec![Value::int(1), Value::null(0)]))
            .unwrap();
        r.insert(Tuple::new(vec![Value::int(1), Value::null(0)]))
            .unwrap(); // same tuple, set-deduped
        assert!(r.satisfies_fds());
        r.insert(Tuple::new(vec![Value::int(1), Value::null(1)]))
            .unwrap();
        assert!(!r.satisfies_fds(), "distinct nulls disagree");
    }

    #[test]
    fn substitution_merges_tuples() {
        let s = emp_schema();
        let mut r = Relation::empty(s);
        r.insert(Tuple::new(vec![Value::null(0)])).unwrap();
        r.insert(Tuple::new(vec![Value::null(1)])).unwrap();
        assert_eq!(r.len(), 2);
        let mut sub = BTreeMap::new();
        sub.insert(NullId(0), Value::str("x"));
        sub.insert(NullId(1), Value::str("x"));
        let r2 = r.substitute_nulls(&sub);
        assert_eq!(r2.len(), 1);
    }

    #[test]
    fn with_schema_checks_arity() {
        let r = Relation::empty(emp_schema());
        let wide = RelSchema::untyped("E2", vec!["a", "b"]).unwrap();
        assert!(r.clone().with_schema(wide).is_err());
        let same = RelSchema::untyped("E2", vec!["a"]).unwrap();
        let r2 = r.with_schema(same).unwrap();
        assert_eq!(r2.name(), "E2");
    }

    #[test]
    fn collect_nulls_over_instance() {
        let mut r = Relation::empty(emp_schema());
        r.insert(Tuple::new(vec![Value::null(3)])).unwrap();
        r.insert(Tuple::new(vec![Value::str("a")])).unwrap();
        let mut s = BTreeSet::new();
        r.collect_nulls(&mut s);
        assert_eq!(s, BTreeSet::from([NullId(3)]));
    }

    #[test]
    fn serde_wire_format_is_schema_plus_tuples() {
        let s = RelSchema::untyped("P", vec!["id"]).unwrap();
        let mut r = Relation::empty(s);
        r.insert(tuple![2i64]).unwrap();
        r.insert(tuple![1i64]).unwrap();
        let js = serde_json::to_string(&r).unwrap();
        assert!(
            js.contains("\"tuples\""),
            "wire keeps the tuples field: {js}"
        );
        let back: Relation = serde_json::from_str(&js).unwrap();
        assert_eq!(back, r);
        assert_eq!(
            back.iter().collect::<Vec<_>>(),
            vec![tuple![1i64], tuple![2i64]]
        );
    }
}
