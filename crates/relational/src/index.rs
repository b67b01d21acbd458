//! Secondary index structures for relation storage.
//!
//! Two layers live here:
//!
//! * [`IndexState`] — the per-[`Relation`](crate::Relation) cache:
//!   lazily built hash indexes from attribute position to value to
//!   tuple-id postings over the relation's [`ColumnStore`] arena,
//!   plus the delta
//!   log backing `insert_delta`/`drain_delta`. Everything in it is
//!   derived data: it is skipped by serialization, ignored by equality,
//!   and refreshed on demand after any mutation. Inserts keep a built
//!   index warm incrementally (the new arena row is folded into
//!   existing postings on the next probe via the `synced` watermark),
//!   so the chase's insert–probe–insert loop costs O(1) amortized per
//!   tuple instead of a full rebuild per insertion. An in-place null
//!   substitution drops the rows it rewrites from the postings the
//!   same way; other destructive mutations (remove, retain, clear)
//!   invalidate wholesale through the store's version counter.
//!
//! * [`TupleIndex`] — a standalone, eagerly maintained index from a
//!   key projection to the set of full tuples with that key. This is
//!   the shape incremental view-maintenance operators need (insert
//!   and remove as deltas stream through), shared by
//!   `dex_rellens::incremental` join nodes.
//!
//! [`Relation::probe_ids`](crate::Relation::probe_ids) returns ids
//! sorted in canonical (lexicographic row) order regardless of arena
//! order, so index-backed enumeration is byte-identical to a filtered
//! scan — the property the matcher's `Indexed`/`Scan` equivalence
//! rests on where enumeration order shows. Callers to whom order does
//! not show (an existence check, a collection the caller sorts
//! itself) take
//! [`Relation::probe_ids_unordered`](crate::Relation::probe_ids_unordered):
//! the same ids in posting order, without the content sort. The
//! posting lists themselves hold arena ids, not tuples: consumers on
//! the hot path read matched positions straight out of the columns by
//! `(tuple_id, col)` and only materialize rows at the API boundary.
//!
//! Interior mutability: indexes are built lazily behind an `RwLock` on
//! a shared (`&Relation`) receiver, so matching code can probe during
//! read-only traversals and a shared instance stays `Sync`. Probes
//! copy their matching ids out under a short-lived guard — no guard
//! ever escapes this module, so a recursive probe cannot deadlock, not
//! even one that builds another position of the same relation under
//! the write lock.

use crate::columns::ColumnStore;
use crate::tuple::Tuple;
use crate::value::Value;
use std::collections::{BTreeSet, HashMap, HashSet};
use std::fmt;
use std::ops::{Add, Sub};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::RwLock;

/// Tuple ids are row offsets into a relation's column arena. Stable
/// for the lifetime of the store: removal tombstones a row, it never
/// moves.
pub type TupleId = u32;

/// The result of a materializing index probe: the matching tuples, in
/// canonical order. Hot paths use
/// [`Relation::probe_ids`](crate::Relation::probe_ids) instead and
/// read columns directly.
#[derive(Clone, Debug)]
pub struct Probe {
    tuples: Vec<Tuple>,
}

impl Probe {
    pub(crate) fn new(tuples: Vec<Tuple>) -> Self {
        Probe { tuples }
    }

    /// Iterate the matching tuples in canonical order.
    pub fn iter(&self) -> impl Iterator<Item = &Tuple> + '_ {
        self.tuples.iter()
    }

    /// Number of matching tuples.
    pub fn len(&self) -> usize {
        self.tuples.len()
    }

    pub fn is_empty(&self) -> bool {
        self.tuples.is_empty()
    }
}

/// Built (derived) index data: per-position postings over the store's
/// arena at some store version. `synced` is the watermark of arena
/// rows already folded into every posting map; appends advance the
/// store and are folded in lazily on the next probe.
#[derive(Default)]
struct Built {
    /// Store version this was built at; 0 = never built (always stale,
    /// since store versions start at 1).
    version: u64,
    /// Arena rows reflected in every map of `by_pos`.
    synced: usize,
    /// position -> value -> ids of live rows with that value there.
    by_pos: HashMap<usize, HashMap<Value, Vec<TupleId>>>,
}

/// Cumulative work counters of a relation's matcher-facing reads;
/// [`Instance::index_stats`](crate::Instance::index_stats) sums them
/// over relations. Every counter is deterministic for a deterministic
/// sequence of reads.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct IndexStats {
    /// Posting-map (re)builds.
    pub builds: u64,
    /// Index probes served, posting-length queries included.
    pub probes: u64,
    /// Membership checks answered by the row hash.
    pub membership_checks: u64,
    /// Rows offered to unification, summed once per probe or scan.
    pub candidates: u64,
}

impl Add for IndexStats {
    type Output = IndexStats;
    fn add(self, o: IndexStats) -> IndexStats {
        IndexStats {
            builds: self.builds + o.builds,
            probes: self.probes + o.probes,
            membership_checks: self.membership_checks + o.membership_checks,
            candidates: self.candidates + o.candidates,
        }
    }
}

impl Sub for IndexStats {
    type Output = IndexStats;
    fn sub(self, o: IndexStats) -> IndexStats {
        IndexStats {
            builds: self.builds - o.builds,
            probes: self.probes - o.probes,
            membership_checks: self.membership_checks - o.membership_checks,
            candidates: self.candidates - o.candidates,
        }
    }
}

/// Cache + delta state carried by every `Relation`.
///
/// Compares equal to everything (it is derived data), defaults to
/// empty on deserialize, and resets its cache on clone.
pub struct IndexState {
    built: RwLock<Built>,
    /// Ids of rows inserted via `insert_delta` since the last drain
    /// (materialized lazily on drain/peek).
    delta: Vec<TupleId>,
    /// How many posting-map (re)builds happened.
    builds: AtomicU64,
    /// How many probes (including posting-length queries) were served.
    probes: AtomicU64,
    /// How many matcher membership checks were served.
    memberships: AtomicU64,
    /// Rows the matcher offered to unification.
    candidates: AtomicU64,
}

impl Default for IndexState {
    fn default() -> Self {
        IndexState {
            built: RwLock::new(Built::default()),
            delta: Vec::new(),
            builds: AtomicU64::new(0),
            probes: AtomicU64::new(0),
            memberships: AtomicU64::new(0),
            candidates: AtomicU64::new(0),
        }
    }
}

impl Clone for IndexState {
    fn clone(&self) -> Self {
        IndexState {
            delta: self.delta.clone(),
            ..IndexState::default()
        }
    }
}

impl fmt::Debug for IndexState {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("IndexState")
            .field("delta_len", &self.delta.len())
            .finish()
    }
}

impl IndexState {
    /// Keep a built index warm across an append-only store mutation:
    /// if the postings were current just before the append, mark them
    /// current at the new version; the appended rows are folded in on
    /// the next probe via the `synced` watermark.
    pub(crate) fn note_append(&mut self, version_after: u64) {
        let built = self.built.get_mut().unwrap_or_else(|p| p.into_inner());
        if built.version + 1 == version_after {
            built.version = version_after;
        }
    }

    /// Keep a built index warm across the tombstoning of the rows
    /// `dead` (ascending ids): if the postings were current at
    /// `version_before`, drop those ids from them (dead rows' values
    /// stay readable) and mark them current. Each posting the batch
    /// touches is filtered once.
    pub(crate) fn note_removals(
        &mut self,
        store: &ColumnStore,
        version_before: u64,
        dead: &[TupleId],
    ) {
        let built = self.built.get_mut().unwrap_or_else(|p| p.into_inner());
        if built.version != version_before {
            return;
        }
        built.version = store.version();
        // Rows past the watermark are not folded in yet, and the fold
        // skips dead rows.
        let folded = &dead[..dead.partition_point(|&id| (id as usize) < built.synced)];
        for (&pos, map) in &mut built.by_pos {
            let values: HashSet<&Value> = folded.iter().map(|&id| store.value(id, pos)).collect();
            for value in values {
                if let Some(ids) = map.get_mut(value) {
                    ids.retain(|i| folded.binary_search(i).is_err());
                    if ids.is_empty() {
                        map.remove(value);
                    }
                }
            }
        }
    }

    /// Follow a store compaction (`remap` maps old ids to new, `None`
    /// for dropped rows): the delta log keeps its live rows under their
    /// new ids. The postings need nothing here, since the compaction
    /// bumped the store version and the next probe rebuilds them.
    pub(crate) fn remap_delta(&mut self, remap: &[Option<TupleId>]) {
        self.delta.retain_mut(|id| match remap[*id as usize] {
            Some(new) => {
                *id = new;
                true
            }
            None => false,
        });
    }

    pub(crate) fn log_delta(&mut self, id: TupleId) {
        self.delta.push(id);
    }

    pub(crate) fn take_delta(&mut self) -> Vec<TupleId> {
        std::mem::take(&mut self.delta)
    }

    pub(crate) fn delta_len(&self) -> usize {
        self.delta.len()
    }

    pub(crate) fn peek_delta(&self) -> &[TupleId] {
        &self.delta
    }

    /// Work counters served so far by this relation.
    pub(crate) fn stats(&self) -> IndexStats {
        IndexStats {
            builds: self.builds.load(Ordering::Relaxed),
            probes: self.probes.load(Ordering::Relaxed),
            membership_checks: self.memberships.load(Ordering::Relaxed),
            candidates: self.candidates.load(Ordering::Relaxed),
        }
    }

    pub(crate) fn note_membership_check(&self) {
        self.memberships.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn note_candidates(&self, n: usize) {
        self.candidates.fetch_add(n as u64, Ordering::Relaxed);
    }

    /// Ids of rows matching `value` at `pos`, in canonical order.
    pub(crate) fn probe_ids(&self, store: &ColumnStore, pos: usize, value: &Value) -> Vec<TupleId> {
        let mut out = self.probe_ids_unordered(store, pos, value);
        // Appended ids trail the canonical prefix; restore canonical
        // order so index-backed enumeration matches a filtered scan.
        store.sort_canonical(&mut out);
        out
    }

    /// Ids of rows matching `value` at `pos`, in posting order. The ids
    /// are copied out, so no guard outlives the call.
    pub(crate) fn probe_ids_unordered(
        &self,
        store: &ColumnStore,
        pos: usize,
        value: &Value,
    ) -> Vec<TupleId> {
        self.probes.fetch_add(1, Ordering::Relaxed);
        self.with_postings(store, pos, |postings| {
            postings.get(value).cloned().unwrap_or_default()
        })
    }

    /// Posting-list length for `value` at `pos` (for join ordering).
    pub(crate) fn posting_len(&self, store: &ColumnStore, pos: usize, value: &Value) -> usize {
        self.probes.fetch_add(1, Ordering::Relaxed);
        self.with_postings(store, pos, |postings| {
            postings.get(value).map_or(0, Vec::len)
        })
    }

    /// Run `f` on an up-to-date posting map for `pos`.
    fn with_postings<R>(
        &self,
        store: &ColumnStore,
        pos: usize,
        f: impl FnOnce(&HashMap<Value, Vec<TupleId>>) -> R,
    ) -> R {
        let version = store.version();
        {
            let built = self.built.read().unwrap_or_else(|p| p.into_inner());
            if built.version == version && built.synced == store.arena_len() {
                if let Some(postings) = built.by_pos.get(&pos) {
                    return f(postings);
                }
            }
        }
        let mut built = self.built.write().unwrap_or_else(|p| p.into_inner());
        // Double-checked: a racing writer may have refreshed while we
        // waited on the lock.
        if built.version != version {
            // Fault-injection site for the index (re)build. Probing is
            // infallible by API, so an injected *error* here still
            // surfaces as a panic; the site sits before any mutation
            // of `Built`, and the poison-tolerant locks above make the
            // cache safely reusable (stale, rebuilt on the next probe)
            // after the unwind.
            if let Some(e) = crate::fail::hit("index.build") {
                drop(built);
                panic!("{e}");
            }
            self.builds.fetch_add(1, Ordering::Relaxed);
            built.by_pos.clear();
            built.synced = store.arena_len(); // vacuously: no maps yet
            built.version = version;
        }
        let Built { synced, by_pos, .. } = &mut *built;
        if *synced < store.arena_len() {
            for (p, map) in by_pos.iter_mut() {
                for id in (*synced as TupleId)..(store.arena_len() as TupleId) {
                    if store.is_live(id) {
                        map.entry(store.value(id, *p).clone()).or_default().push(id);
                    }
                }
            }
            *synced = store.arena_len();
        }
        if let std::collections::hash_map::Entry::Vacant(slot) = by_pos.entry(pos) {
            self.builds.fetch_add(1, Ordering::Relaxed);
            let mut postings: HashMap<Value, Vec<TupleId>> = HashMap::new();
            for id in store.live_ids() {
                postings
                    .entry(store.value(id, pos).clone())
                    .or_default()
                    .push(id);
            }
            slot.insert(postings);
        }
        f(&by_pos[&pos])
    }
}

/// An eagerly maintained index from a key projection to the full
/// tuples carrying that key, for incremental operators that see
/// inserts and deletes one delta at a time.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct TupleIndex {
    key_pos: Vec<usize>,
    map: HashMap<Tuple, BTreeSet<Tuple>>,
}

impl TupleIndex {
    /// An empty index keyed on the given positions of indexed tuples.
    pub fn new(key_pos: Vec<usize>) -> Self {
        TupleIndex {
            key_pos,
            map: HashMap::new(),
        }
    }

    /// The key projection this index groups by.
    pub fn key(&self, t: &Tuple) -> Tuple {
        t.project(&self.key_pos)
    }

    /// Add a tuple. Returns `true` if it was not already present.
    pub fn insert(&mut self, t: Tuple) -> bool {
        self.map.entry(self.key(&t)).or_default().insert(t)
    }

    /// Remove a tuple. Returns `true` if it was present.
    pub fn remove(&mut self, t: &Tuple) -> bool {
        let key = self.key(t);
        match self.map.get_mut(&key) {
            None => false,
            Some(group) => {
                let removed = group.remove(t);
                if group.is_empty() {
                    self.map.remove(&key);
                }
                removed
            }
        }
    }

    /// All tuples whose key projection equals `key`, in canonical order.
    pub fn get(&self, key: &Tuple) -> impl Iterator<Item = &Tuple> + '_ {
        self.map.get(key).into_iter().flatten()
    }

    /// Are there any tuples under `key`?
    pub fn contains_key(&self, key: &Tuple) -> bool {
        self.map.contains_key(key)
    }

    /// Total number of indexed tuples.
    pub fn len(&self) -> usize {
        self.map.values().map(BTreeSet::len).sum()
    }

    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Iterate all (key, group) pairs. Order is unspecified.
    pub fn groups(&self) -> impl Iterator<Item = (&Tuple, &BTreeSet<Tuple>)> + '_ {
        self.map.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tuple;

    #[test]
    fn tuple_index_insert_remove_probe() {
        let mut idx = TupleIndex::new(vec![1]);
        assert!(idx.insert(tuple![1i64, "a", 10i64]));
        assert!(idx.insert(tuple![2i64, "a", 20i64]));
        assert!(idx.insert(tuple![3i64, "b", 30i64]));
        assert!(!idx.insert(tuple![3i64, "b", 30i64]), "set semantics");
        assert_eq!(idx.len(), 3);

        let key = tuple!["a"];
        let hits: Vec<_> = idx.get(&key).cloned().collect();
        assert_eq!(
            hits,
            vec![tuple![1i64, "a", 10i64], tuple![2i64, "a", 20i64]]
        );

        assert!(idx.remove(&tuple![1i64, "a", 10i64]));
        assert!(!idx.remove(&tuple![1i64, "a", 10i64]));
        assert_eq!(idx.get(&key).count(), 1);

        // Removing the last tuple of a group drops the group.
        assert!(idx.remove(&tuple![3i64, "b", 30i64]));
        assert!(!idx.contains_key(&tuple!["b"]));
    }

    #[test]
    fn index_state_probe_and_invalidation() {
        let mut store = ColumnStore::new(2);
        store.push(&tuple!["x", 1i64]);
        store.push(&tuple!["y", 1i64]);
        store.push(&tuple!["x", 2i64]);

        let state = IndexState::default();
        let ids = state.probe_ids(&store, 0, &crate::value::Value::str("x"));
        assert_eq!(ids.len(), 2);
        assert_eq!(
            ids.iter()
                .map(|&id| store.materialize(id))
                .collect::<Vec<_>>(),
            vec![tuple!["x", 1i64], tuple!["x", 2i64]],
            "probe preserves canonical order"
        );
        assert_eq!(
            state.posting_len(&store, 1, &crate::value::Value::int(1)),
            2
        );

        // Destructive mutation: full rebuild on the next probe.
        store.remove(&tuple!["x", 1i64]);
        let ids = state.probe_ids(&store, 0, &crate::value::Value::str("x"));
        assert_eq!(ids.len(), 1);

        let stats = state.stats();
        assert!(stats.builds >= 2, "postings rebuilt after removal");
        assert_eq!(stats.probes, 3);
    }

    #[test]
    fn append_keeps_index_warm() {
        let mut store = ColumnStore::new(2);
        store.push(&tuple!["x", 1i64]);
        store.push(&tuple!["y", 1i64]);

        let mut state = IndexState::default();
        assert_eq!(
            state
                .probe_ids(&store, 0, &crate::value::Value::str("x"))
                .len(),
            1
        );
        let builds_before = state.stats().builds;

        // Insert via the append path: no full rebuild, and the probe
        // still sees the new row — in canonical order, even though
        // "a" sorts before everything already in the arena.
        store.push(&tuple!["a", 7i64]);
        state.note_append(store.version());
        store.push(&tuple!["x", 0i64]);
        state.note_append(store.version());

        let ids = state.probe_ids(&store, 0, &crate::value::Value::str("x"));
        assert_eq!(
            ids.iter()
                .map(|&id| store.materialize(id))
                .collect::<Vec<_>>(),
            vec![tuple!["x", 0i64], tuple!["x", 1i64]],
            "appended row folded in, canonical order restored"
        );
        assert_eq!(
            state
                .probe_ids(&store, 0, &crate::value::Value::str("a"))
                .len(),
            1
        );
        assert_eq!(
            state.stats().builds,
            builds_before,
            "appends avoid rebuilds"
        );
    }
}
