//! Static chase-cost vocabulary: saturating bounds and source statistics.
//!
//! The chase on a weakly (or jointly) acyclic mapping is guaranteed to
//! terminate in polynomially many steps in the size of the source
//! instance — the termination classifier (dex-chase) proves *that* it
//! stops, and the cost analyzer (dex-analyze) computes *how big* the
//! result can get. This module holds the layer-neutral vocabulary both
//! sides share:
//!
//! * [`Bound`] — a certified upper bound: either a finite `u64` or
//!   `Unbounded`. All arithmetic is *checked*: any overflow collapses to
//!   `Unbounded` rather than wrapping, so a `Finite(n)` is always an
//!   honest claim. Every operation is monotone in its operands, which is
//!   what makes the derived bounds monotone in source cardinalities.
//! * [`ChaseBounds`] — the aggregate per-run bounds (rounds, firings,
//!   tuples, nulls, bytes) that [`Budget::from_bounds`] turns into
//!   governor caps for admission control.
//! * [`SourceStats`] — per-relation source cardinalities (measured from
//!   an [`Instance`] or assumed uniform) that parameterize the bounds.
//!
//! [`Budget::from_bounds`]: crate::governor::Budget::from_bounds

use crate::instance::Instance;
use crate::name::Name;
use crate::value::Value;
use serde::{de, Deserialize, Deserializer, Serialize, Serializer};
use std::collections::BTreeMap;
use std::fmt;

/// A certified upper bound on some chase quantity.
///
/// Ordering: `Finite(a) < Finite(b)` iff `a < b`, and every finite
/// bound is below `Unbounded` (derived variant order).
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Bound {
    /// The quantity is provably at most this many.
    Finite(u64),
    /// No finite bound could be certified (non-terminating
    /// classification, or the bound overflowed `u64` — either way the
    /// number is useless as a cap).
    Unbounded,
}

impl Bound {
    /// The zero bound.
    pub const ZERO: Bound = Bound::Finite(0);
    /// The unit bound.
    pub const ONE: Bound = Bound::Finite(1);

    /// Is this bound finite?
    pub fn is_finite(&self) -> bool {
        matches!(self, Bound::Finite(_))
    }

    /// The finite value, if any.
    pub fn finite(&self) -> Option<u64> {
        match self {
            Bound::Finite(n) => Some(*n),
            Bound::Unbounded => None,
        }
    }

    /// Checked addition: overflow collapses to `Unbounded`.
    ///
    /// Deliberately a plain method rather than `std::ops::Add` — the
    /// name doubles as a fold step (`fold(Bound::ZERO, Bound::add)`)
    /// and the saturating-to-`Unbounded` semantics should be visible
    /// at the call site, not hidden behind `+`.
    #[allow(clippy::should_implement_trait)]
    #[must_use]
    pub fn add(self, rhs: Bound) -> Bound {
        match (self, rhs) {
            (Bound::Finite(a), Bound::Finite(b)) => {
                a.checked_add(b).map_or(Bound::Unbounded, Bound::Finite)
            }
            _ => Bound::Unbounded,
        }
    }

    /// Checked multiplication: overflow collapses to `Unbounded`.
    /// Note `Finite(0) * Unbounded = Unbounded` — the analyzer never
    /// relies on annihilation, and keeping `Unbounded` absorbing makes
    /// monotonicity trivial.
    #[allow(clippy::should_implement_trait)]
    #[must_use]
    pub fn mul(self, rhs: Bound) -> Bound {
        match (self, rhs) {
            (Bound::Finite(a), Bound::Finite(b)) => {
                a.checked_mul(b).map_or(Bound::Unbounded, Bound::Finite)
            }
            _ => Bound::Unbounded,
        }
    }

    /// Checked exponentiation: overflow collapses to `Unbounded`.
    /// `pow(0)` is `Finite(1)` for any finite base.
    #[must_use]
    pub fn pow(self, exp: u32) -> Bound {
        match self {
            Bound::Finite(a) => a.checked_pow(exp).map_or(Bound::Unbounded, Bound::Finite),
            Bound::Unbounded => {
                if exp == 0 {
                    Bound::ONE
                } else {
                    Bound::Unbounded
                }
            }
        }
    }

    /// The larger of two bounds (`Unbounded` absorbs).
    #[must_use]
    pub fn max(self, rhs: Bound) -> Bound {
        std::cmp::max(self, rhs)
    }

    /// The smaller of two bounds.
    #[must_use]
    pub fn min(self, rhs: Bound) -> Bound {
        std::cmp::min(self, rhs)
    }

    /// Does this bound exceed a finite admission threshold?
    /// `Unbounded` exceeds every threshold.
    pub fn exceeds(&self, threshold: u64) -> bool {
        match self {
            Bound::Finite(n) => *n > threshold,
            Bound::Unbounded => true,
        }
    }
}

impl fmt::Display for Bound {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Bound::Finite(n) => write!(f, "{n}"),
            Bound::Unbounded => write!(f, "unbounded"),
        }
    }
}

impl From<u64> for Bound {
    fn from(n: u64) -> Self {
        Bound::Finite(n)
    }
}

impl From<usize> for Bound {
    fn from(n: usize) -> Self {
        Bound::Finite(n as u64)
    }
}

// JSON shape: a bare number, or the string "unbounded" — readable in
// `dexcli explain --format json` and stable in goldens.
impl Serialize for Bound {
    fn serialize<S: Serializer>(&self, s: S) -> Result<S::Ok, S::Error> {
        match self {
            Bound::Finite(n) => s.serialize_u64(*n),
            Bound::Unbounded => s.serialize_str("unbounded"),
        }
    }
}

impl<'de> Deserialize<'de> for Bound {
    fn deserialize<D: Deserializer<'de>>(d: D) -> Result<Self, D::Error> {
        use serde::__private::Content;
        match d.take_content()? {
            Content::U64(n) => Ok(Bound::Finite(n)),
            Content::I64(n) if n >= 0 => Ok(Bound::Finite(n as u64)),
            Content::Str(s) if s == "unbounded" => Ok(Bound::Unbounded),
            other => Err(de::Error::custom(format_args!(
                "expected bound (u64 or \"unbounded\"), got {other:?}"
            ))),
        }
    }
}

/// Aggregate static bounds for one chase run — the quantities the
/// [`Governor`](crate::governor::Governor) meters, bounded up front.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct ChaseBounds {
    /// Committed (instance-changing) target-chase rounds.
    pub rounds: Bound,
    /// Total firings as counted by `ExchangeResult::firings`: st-tgd
    /// firings + target-tgd firings + egd merges.
    pub firings: Bound,
    /// Tuples in the final target instance (hence also an upper bound
    /// on genuinely-new insertions).
    pub tuples: Bound,
    /// Fresh labeled nulls invented.
    pub nulls: Bound,
    /// Approximate bytes of target tuple data (the governor's
    /// memory-accounting model).
    pub bytes: Bound,
}

impl ChaseBounds {
    /// Bounds that certify nothing.
    pub fn unbounded() -> Self {
        ChaseBounds {
            rounds: Bound::Unbounded,
            firings: Bound::Unbounded,
            tuples: Bound::Unbounded,
            nulls: Bound::Unbounded,
            bytes: Bound::Unbounded,
        }
    }

    /// Are all five bounds finite?
    pub fn all_finite(&self) -> bool {
        self.rounds.is_finite()
            && self.firings.is_finite()
            && self.tuples.is_finite()
            && self.nulls.is_finite()
            && self.bytes.is_finite()
    }

    /// The largest single bound — the headline number `--deny-cost`
    /// compares against (bytes excluded: it is a product of tuples and
    /// row width, so it would dominate artificially).
    pub fn headline(&self) -> Bound {
        self.rounds
            .max(self.firings)
            .max(self.tuples)
            .max(self.nulls)
    }
}

/// Source-instance statistics that parameterize the static bounds.
///
/// The analyzer only needs per-relation cardinalities and a per-value
/// byte estimate. Either measure them from a concrete instance
/// ([`SourceStats::measure`]) or assume a uniform cardinality for every
/// relation ([`SourceStats::uniform`]) to get instance-independent
/// bounds as polynomials evaluated at `n`.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct SourceStats {
    /// Per-relation tuple counts. Relations absent from the map fall
    /// back to [`default_card`](Self::default_card).
    pub cards: BTreeMap<Name, u64>,
    /// Cardinality assumed for relations not listed in `cards`.
    pub default_card: u64,
    /// Largest `Value::approx_bytes` over the source (used to bound the
    /// width of derived rows; invented nulls are never wider than a
    /// `Value` slot).
    pub max_value_bytes: u64,
    /// Labeled nulls already present in the measured instance (egd
    /// enforcement can merge these too, so they enter the rounds
    /// bound). Zero for uniform stats.
    pub initial_nulls: u64,
}

impl SourceStats {
    /// Uniform statistics: every relation has `n` tuples, values are
    /// bare slots (no heap payload).
    pub fn uniform(n: u64) -> Self {
        SourceStats {
            cards: BTreeMap::new(),
            default_card: n,
            max_value_bytes: std::mem::size_of::<Value>() as u64,
            initial_nulls: 0,
        }
    }

    /// Measure statistics from a concrete source instance.
    pub fn measure(src: &Instance) -> Self {
        let mut cards = BTreeMap::new();
        let mut max_value_bytes = std::mem::size_of::<Value>() as u64;
        let mut nulls: std::collections::BTreeSet<crate::value::NullId> =
            std::collections::BTreeSet::new();
        for rel in src.relations() {
            cards.insert(rel.name().clone(), rel.len() as u64);
            for t in rel.iter() {
                for v in t.values() {
                    max_value_bytes = max_value_bytes.max(v.approx_bytes() as u64);
                    if let Value::Null(id) = v {
                        nulls.insert(*id);
                    }
                }
            }
        }
        SourceStats {
            cards,
            default_card: 0,
            max_value_bytes,
            initial_nulls: nulls.len() as u64,
        }
    }

    /// Override one relation's cardinality (builder style).
    #[must_use]
    pub fn with_card(mut self, rel: impl Into<Name>, n: u64) -> Self {
        self.cards.insert(rel.into(), n);
        self
    }

    /// The cardinality assumed for `rel`.
    pub fn card(&self, rel: &Name) -> u64 {
        self.cards.get(rel).copied().unwrap_or(self.default_card)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bound_arithmetic_saturates_to_unbounded() {
        let big = Bound::Finite(u64::MAX);
        assert_eq!(big.add(Bound::ONE), Bound::Unbounded);
        assert_eq!(big.mul(Bound::Finite(2)), Bound::Unbounded);
        assert_eq!(Bound::Finite(1 << 33).pow(2), Bound::Unbounded);
        assert_eq!(Bound::Finite(10).pow(0), Bound::ONE);
        assert_eq!(Bound::Unbounded.pow(0), Bound::ONE);
        assert_eq!(Bound::Unbounded.pow(3), Bound::Unbounded);
    }

    #[test]
    fn bound_ordering_and_threshold() {
        assert!(Bound::Finite(3) < Bound::Finite(4));
        assert!(Bound::Finite(u64::MAX) < Bound::Unbounded);
        assert!(Bound::Unbounded.exceeds(u64::MAX));
        assert!(!Bound::Finite(5).exceeds(5));
        assert!(Bound::Finite(6).exceeds(5));
    }

    #[test]
    fn bound_json_shape() {
        let fin = serde_json::to_string(&Bound::Finite(42)).expect("ser");
        assert_eq!(fin, "42");
        let unb = serde_json::to_string(&Bound::Unbounded).expect("ser");
        assert_eq!(unb, "\"unbounded\"");
        let back: Bound = serde_json::from_str("\"unbounded\"").expect("de");
        assert_eq!(back, Bound::Unbounded);
        let back: Bound = serde_json::from_str("7").expect("de");
        assert_eq!(back, Bound::Finite(7));
    }

    #[test]
    fn source_stats_card_fallback() {
        let s = SourceStats::uniform(10).with_card(Name::new("E"), 3);
        assert_eq!(s.card(&Name::new("E")), 3);
        assert_eq!(s.card(&Name::new("F")), 10);
    }
}
