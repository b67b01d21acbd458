//! Column-major tuple storage.
//!
//! A [`ColumnStore`] is the physical layer behind
//! [`Relation`](crate::Relation): a tuple-id arena laid out as one
//! `Vec<Value>` per attribute position, plus the bookkeeping that keeps
//! set semantics and canonical order observable at the typed API:
//!
//! * **Arena ids are stable.** Rows are appended and never moved;
//!   removal tombstones a row (its values stay readable), so a
//!   [`TupleId`] handed out by an insert, an index posting, or a delta
//!   log stays valid for the lifetime of the store. This is what lets
//!   hot paths (index probes, premise matching, codecs) read positions
//!   by `(tuple_id, col)` without materializing rows, and lets delta
//!   logs hold ids and materialize lazily.
//! * **Set semantics** are enforced by a content-hash dedup map (row
//!   hash → candidate ids, collisions resolved by column comparison).
//!   Row hashes are computed with fixed-key [`DefaultHasher`]s, so
//!   they are deterministic across runs.
//! * **Canonical order** (the old `BTreeSet` iteration order) is a
//!   cached permutation: [`ColumnStore::ordered_ids`] sorts the live
//!   ids lexicographically by row content and caches the result behind
//!   an `RwLock` until the next mutation. Full scans are off the
//!   indexed hot path, so sorting on demand costs less than keeping a
//!   B-tree balanced on every insert of a 10⁶-row chase.
//!
//! Everything observable — iteration order, equality, serialization —
//! is defined over the *live, canonically ordered* rows; the arena
//! layout (insertion order, tombstones) is private physical detail.

use crate::index::TupleId;
use crate::tuple::Tuple;
use crate::value::Value;
use std::cmp::Ordering;
use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::sync::{Arc, RwLock};

/// Deterministic content hash of a row, the key of the dedup map.
/// `DefaultHasher::new()` uses fixed keys, so the value is stable
/// across runs.
pub fn hash_values<'a>(values: impl Iterator<Item = &'a Value>) -> u64 {
    let mut h = DefaultHasher::new();
    for v in values {
        v.hash(&mut h);
    }
    h.finish()
}

/// Cached canonical permutation of the live ids (version 0 = stale).
/// `arena` is the arena length the permutation was built at; a reset
/// cache holds no ids at arena 0, so its refresh is a full sort.
#[derive(Default)]
struct OrderCache {
    version: u64,
    arena: usize,
    ids: Arc<Vec<TupleId>>,
}

/// Column-major tuple arena with tombstoned removal and hash dedup.
pub struct ColumnStore {
    arity: usize,
    /// One column per attribute position; all columns have `rows`
    /// entries (dead rows keep their values).
    columns: Vec<Vec<Value>>,
    /// Total arena rows, including tombstones (needed when `arity == 0`).
    rows: usize,
    /// Liveness per arena row.
    live: Vec<bool>,
    /// Number of tombstoned rows.
    dead: usize,
    /// Deterministic content hash per arena row.
    hashes: Vec<u64>,
    /// Row hash → live ids with that hash (collisions compared by value).
    dedup: HashMap<u64, Vec<TupleId>>,
    /// Bumped on every mutation of the live set. Starts at 1 so the
    /// default `OrderCache` (and index caches keyed on this version)
    /// are always stale.
    version: u64,
    order: RwLock<OrderCache>,
}

impl ColumnStore {
    /// An empty store for rows of width `arity`.
    pub fn new(arity: usize) -> Self {
        ColumnStore {
            arity,
            columns: (0..arity).map(|_| Vec::new()).collect(),
            rows: 0,
            live: Vec::new(),
            dead: 0,
            hashes: Vec::new(),
            dedup: HashMap::new(),
            version: 1,
            order: RwLock::new(OrderCache::default()),
        }
    }

    /// Row width.
    pub fn arity(&self) -> usize {
        self.arity
    }

    /// Number of live rows.
    pub fn len(&self) -> usize {
        self.rows - self.dead
    }

    /// Are there no live rows?
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total arena rows including tombstones (the exclusive upper bound
    /// of valid [`TupleId`]s).
    pub fn arena_len(&self) -> usize {
        self.rows
    }

    /// Version of the live set; bumped by every mutation. Index caches
    /// key their freshness on this.
    pub fn version(&self) -> u64 {
        self.version
    }

    /// Is arena row `id` live (not tombstoned)?
    pub fn is_live(&self, id: TupleId) -> bool {
        self.live.get(id as usize).copied().unwrap_or(false)
    }

    /// The value at `(id, col)` — the columnar hot-path read. Valid for
    /// tombstoned rows too (delta logs materialize lazily).
    pub fn value(&self, id: TupleId, col: usize) -> &Value {
        &self.columns[col][id as usize]
    }

    /// Deterministic content hash of arena row `id`.
    pub fn row_hash(&self, id: TupleId) -> u64 {
        self.hashes[id as usize]
    }

    /// Materialize arena row `id` as an owned [`Tuple`].
    pub fn materialize(&self, id: TupleId) -> Tuple {
        self.columns
            .iter()
            .map(|c| c[id as usize].clone())
            .collect()
    }

    /// Lexicographic comparison of two arena rows by column values.
    pub fn row_cmp(&self, a: TupleId, b: TupleId) -> Ordering {
        for col in &self.columns {
            match col[a as usize].cmp(&col[b as usize]) {
                Ordering::Equal => {}
                other => return other,
            }
        }
        Ordering::Equal
    }

    /// Does arena row `id` hold exactly the values of `t`?
    pub fn row_eq_tuple(&self, id: TupleId, t: &Tuple) -> bool {
        self.arity == t.arity()
            && self
                .columns
                .iter()
                .zip(t.iter())
                .all(|(col, v)| &col[id as usize] == v)
    }

    /// The live row holding exactly the values of `t`, if any.
    pub fn find(&self, t: &Tuple) -> Option<TupleId> {
        if t.arity() != self.arity {
            return None;
        }
        let h = hash_values(t.iter());
        self.dedup
            .get(&h)?
            .iter()
            .copied()
            .find(|&id| self.row_eq_tuple(id, t))
    }

    /// Membership test over live rows.
    pub fn contains(&self, t: &Tuple) -> bool {
        self.find(t).is_some()
    }

    /// Insert `t` if no live row equals it. Returns the new row's id,
    /// or `None` if it was already present (set semantics).
    pub fn push(&mut self, t: &Tuple) -> Option<TupleId> {
        debug_assert_eq!(t.arity(), self.arity);
        let h = hash_values(t.iter());
        if let Some(ids) = self.dedup.get(&h) {
            if ids.iter().any(|&id| self.row_eq_tuple(id, t)) {
                return None;
            }
        }
        let id = self.rows as TupleId;
        for (col, v) in self.columns.iter_mut().zip(t.iter()) {
            col.push(v.clone());
        }
        self.rows += 1;
        self.live.push(true);
        self.hashes.push(h);
        self.dedup.entry(h).or_default().push(id);
        self.version += 1;
        Some(id)
    }

    /// Tombstone the live row equal to `t`. Returns its id if present.
    /// The row's values stay readable; its id is never reused.
    pub fn remove(&mut self, t: &Tuple) -> Option<TupleId> {
        let id = self.find(t)?;
        self.tombstone(id);
        Some(id)
    }

    /// Tombstone live row `id` (no-op on dead rows).
    pub fn tombstone(&mut self, id: TupleId) {
        if !self.is_live(id) {
            return;
        }
        self.live[id as usize] = false;
        self.dead += 1;
        let h = self.hashes[id as usize];
        if let Some(ids) = self.dedup.get_mut(&h) {
            ids.retain(|&i| i != id);
            if ids.is_empty() {
                self.dedup.remove(&h);
            }
        }
        self.version += 1;
    }

    /// Tombstone every live row failing `pred` (which sees the
    /// materialized row). Returns how many rows were removed.
    pub fn retain(&mut self, mut pred: impl FnMut(&Tuple) -> bool) -> usize {
        let mut removed = 0;
        for id in 0..self.rows as TupleId {
            if self.is_live(id) && !pred(&self.materialize(id)) {
                self.tombstone(id);
                removed += 1;
            }
        }
        removed
    }

    /// Drop all rows (arena included — ids from before `clear` are
    /// invalid afterwards).
    pub fn clear(&mut self) {
        for col in &mut self.columns {
            col.clear();
        }
        self.rows = 0;
        self.live.clear();
        self.dead = 0;
        self.hashes.clear();
        self.dedup.clear();
        self.version += 1;
        // Arena ids restart at 0: the cached order must not be merged
        // into.
        *self.order.get_mut().unwrap_or_else(|p| p.into_inner()) = OrderCache::default();
    }

    /// Drop the tombstoned rows from the arena, renumbering the live
    /// rows in arena order. Returns each old row's new id (`None` for
    /// dead rows); ids from before are invalid afterwards.
    pub fn compact(&mut self) -> Vec<Option<TupleId>> {
        let mut next: TupleId = 0;
        let remap: Vec<Option<TupleId>> = self
            .live
            .iter()
            .map(|&live| {
                let id = next;
                next += TupleId::from(live);
                live.then_some(id)
            })
            .collect();
        let live = &self.live;
        let keep_live = |i: &mut usize| {
            *i += 1;
            live[*i - 1]
        };
        for col in &mut self.columns {
            let mut i = 0;
            col.retain(|_| keep_live(&mut i));
        }
        let mut i = 0;
        self.hashes.retain(|_| keep_live(&mut i));
        // The dedup lists hold live ids only.
        for id in self.dedup.values_mut().flatten() {
            if let Some(new) = remap[*id as usize] {
                *id = new;
            }
        }
        self.rows = next as usize;
        self.live = vec![true; self.rows];
        self.dead = 0;
        self.version += 1;
        *self.order.get_mut().unwrap_or_else(|p| p.into_inner()) = OrderCache::default();
        remap
    }

    /// Live ids in arena (insertion) order.
    pub fn live_ids(&self) -> impl Iterator<Item = TupleId> + '_ {
        (0..self.rows as TupleId).filter(|&id| self.is_live(id))
    }

    /// Live ids in canonical (lexicographic row) order — the old
    /// `BTreeSet` iteration order. Cached until the next mutation; the
    /// `Arc` lets iterators hold the permutation without keeping a
    /// lock.
    pub fn ordered_ids(&self) -> Arc<Vec<TupleId>> {
        {
            let cache = self.order.read().unwrap_or_else(|p| p.into_inner());
            if cache.version == self.version {
                return Arc::clone(&cache.ids);
            }
        }
        let mut cache = self.order.write().unwrap_or_else(|p| p.into_inner());
        if cache.version != self.version {
            cache.ids = Arc::new(self.refresh_order(&cache.ids, cache.arena));
            cache.version = self.version;
            cache.arena = self.rows;
        }
        Arc::clone(&cache.ids)
    }

    /// The canonical order after mutations since `old` was built over
    /// the first `arena` rows. Rows are never rewritten, only appended
    /// or tombstoned, so the live part of `old` is still in order:
    /// drop its dead ids and place the rows appended since, which
    /// costs a merge instead of a full sort. (Compaction and clear
    /// renumber the arena, so they reset the cache.)
    fn refresh_order(&self, old: &[TupleId], arena: usize) -> Vec<TupleId> {
        let mut fresh: Vec<TupleId> = (arena as TupleId..self.rows as TupleId)
            .filter(|&id| self.is_live(id))
            .collect();
        self.sort_canonical(&mut fresh);
        let mut out = Vec::with_capacity(self.len());
        let mut rest = old;
        for id in fresh {
            let at = rest.partition_point(|&o| self.row_cmp(o, id) == Ordering::Less);
            out.extend(rest[..at].iter().copied().filter(|&o| self.is_live(o)));
            out.push(id);
            rest = &rest[at..];
        }
        out.extend(rest.iter().copied().filter(|&o| self.is_live(o)));
        out
    }

    /// Sort `ids` in place into canonical row order (used by index
    /// probes to restore `BTreeSet`-equivalent enumeration order).
    pub fn sort_canonical(&self, ids: &mut [TupleId]) {
        ids.sort_unstable_by(|&a, &b| self.row_cmp(a, b));
    }
}

impl Clone for ColumnStore {
    fn clone(&self) -> Self {
        ColumnStore {
            arity: self.arity,
            columns: self.columns.clone(),
            rows: self.rows,
            live: self.live.clone(),
            dead: self.dead,
            hashes: self.hashes.clone(),
            dedup: self.dedup.clone(),
            version: self.version,
            order: RwLock::new(OrderCache::default()),
        }
    }
}

impl std::fmt::Debug for ColumnStore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ColumnStore")
            .field("arity", &self.arity)
            .field("rows", &self.rows)
            .field("dead", &self.dead)
            .field("version", &self.version)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tuple;

    #[test]
    fn push_dedupes_and_orders() {
        let mut s = ColumnStore::new(2);
        assert_eq!(s.push(&tuple!["b", 2i64]), Some(0));
        assert_eq!(s.push(&tuple!["a", 1i64]), Some(1));
        assert_eq!(s.push(&tuple!["b", 2i64]), None, "set semantics");
        assert_eq!(s.len(), 2);
        let ids = s.ordered_ids();
        assert_eq!(&*ids, &[1, 0], "canonical order sorts (a,1) first");
        assert_eq!(s.materialize(1), tuple!["a", 1i64]);
        assert_eq!(s.value(0, 0), &Value::str("b"));
    }

    #[test]
    fn tombstone_keeps_values_readable() {
        let mut s = ColumnStore::new(1);
        let id = s.push(&tuple!["x"]).unwrap();
        assert!(s.contains(&tuple!["x"]));
        s.remove(&tuple!["x"]);
        assert!(!s.contains(&tuple!["x"]), "dead rows leave the live set");
        assert_eq!(s.len(), 0);
        assert_eq!(s.materialize(id), tuple!["x"], "values stay readable");
        // Re-insert gets a fresh id; the old one stays dead.
        let id2 = s.push(&tuple!["x"]).unwrap();
        assert_ne!(id, id2);
        assert!(s.is_live(id2) && !s.is_live(id));
    }

    #[test]
    fn order_cache_tracks_mutations() {
        let mut s = ColumnStore::new(1);
        s.push(&tuple!["b"]);
        assert_eq!(s.ordered_ids().len(), 1);
        s.push(&tuple!["a"]);
        assert_eq!(&*s.ordered_ids(), &[1, 0], "cache refreshed after push");
        s.remove(&tuple!["a"]);
        assert_eq!(&*s.ordered_ids(), &[0], "cache refreshed after remove");
    }

    #[test]
    fn refreshed_order_equals_a_full_sort() {
        let mut s = ColumnStore::new(2);
        let mut k = 7u64;
        for round in 0..40i64 {
            for _ in 0..5 {
                k = k
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                let t = tuple![(k >> 60) as i64, (k >> 58) as i64 % 3];
                if s.contains(&t) {
                    s.remove(&t);
                } else {
                    s.push(&t);
                }
            }
            let mut want: Vec<TupleId> = s.live_ids().collect();
            s.sort_canonical(&mut want);
            assert_eq!(*s.ordered_ids(), want, "round {round}");
            if round == 20 {
                s.clear();
            }
            if round == 30 {
                s.compact();
            }
        }
    }

    #[test]
    fn compact_renumbers_live_rows_and_keeps_the_set() {
        let mut s = ColumnStore::new(2);
        for i in 0..6i64 {
            s.push(&tuple![i, "x"]);
        }
        s.ordered_ids();
        s.remove(&tuple![1i64, "x"]);
        s.remove(&tuple![4i64, "x"]);
        let remap = s.compact();
        assert_eq!(remap, [Some(0), None, Some(1), Some(2), None, Some(3)]);
        assert_eq!((s.arena_len(), s.len()), (4, 4));
        let rows: Vec<Tuple> = s
            .ordered_ids()
            .iter()
            .map(|&id| s.materialize(id))
            .collect();
        assert_eq!(rows, [0i64, 2, 3, 5].map(|i| tuple![i, "x"]));
        assert_eq!(s.find(&tuple![5i64, "x"]), Some(3), "dedup renumbered");
        assert_eq!(s.push(&tuple![5i64, "x"]), None);
        assert_eq!(s.push(&tuple![1i64, "x"]), Some(4));
    }

    #[test]
    fn row_hash_is_content_based() {
        let mut s = ColumnStore::new(2);
        let a = s.push(&tuple!["x", 1i64]).unwrap();
        assert_eq!(s.row_hash(a), hash_values(tuple!["x", 1i64].iter()));
        let b = s.push(&tuple!["x", 2i64]).unwrap();
        assert_ne!(s.row_hash(a), s.row_hash(b));
    }

    #[test]
    fn retain_tombstones_by_predicate() {
        let mut s = ColumnStore::new(1);
        s.push(&tuple![1i64]);
        s.push(&tuple![2i64]);
        s.push(&tuple![3i64]);
        let removed = s.retain(|t| t[0] != Value::int(2));
        assert_eq!(removed, 1);
        assert_eq!(s.len(), 2);
        assert!(!s.contains(&tuple![2i64]));
    }
}
