//! Values: constants, labeled nulls, and Skolem terms.
//!
//! Data exchange distinguishes *constants* (ordinary data values) from
//! *labeled nulls* — placeholders invented by the chase for existentially
//! quantified positions (the `⊥₁`, `⊥₂` of the paper's Example 1). A
//! homomorphism may map a null to anything but must fix constants, which
//! is what makes the null-filled solution `J*` the *most general* one.
//!
//! Skolem terms (`f(a, b)`) appear when second-order tgds are chased:
//! composition of mappings (the paper's Example 2) requires existentials
//! to be resolved by *functions* of the source values rather than by
//! independent fresh nulls.

use crate::name::Name;
use serde::{Deserialize, Serialize};
use std::fmt;

/// An ordinary data constant.
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum Constant {
    /// Boolean constant.
    Bool(bool),
    /// 64-bit integer constant.
    Int(i64),
    /// String constant.
    Str(String),
}

impl fmt::Display for Constant {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Constant::Bool(b) => write!(f, "{b}"),
            Constant::Int(i) => write!(f, "{i}"),
            Constant::Str(s) => write!(f, "{s}"),
        }
    }
}

impl fmt::Debug for Constant {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Constant::Bool(b) => write!(f, "{b}"),
            Constant::Int(i) => write!(f, "{i}"),
            Constant::Str(s) => write!(f, "{s:?}"),
        }
    }
}

impl From<i64> for Constant {
    fn from(i: i64) -> Self {
        Constant::Int(i)
    }
}
impl From<&str> for Constant {
    fn from(s: &str) -> Self {
        Constant::Str(s.to_owned())
    }
}
impl From<String> for Constant {
    fn from(s: String) -> Self {
        Constant::Str(s)
    }
}
impl From<bool> for Constant {
    fn from(b: bool) -> Self {
        Constant::Bool(b)
    }
}

/// Identifier of a labeled null. Two nulls are *the same unknown value*
/// iff their ids are equal.
#[derive(
    Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize, Debug, Default,
)]
pub struct NullId(pub u64);

impl fmt::Display for NullId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "⊥{}", self.0)
    }
}

/// A value occurring in a tuple: a constant, a labeled null, or a Skolem
/// term over values.
///
/// Ordering places constants before nulls before Skolem terms so that
/// canonical instance printouts lead with ground data.
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum Value {
    /// A ground constant.
    Const(Constant),
    /// A labeled null, invented for an existential position.
    Null(NullId),
    /// A Skolem term `f(v₁, …, vₙ)` produced by SO-tgd chasing.
    Skolem(Name, Vec<Value>),
}

impl Value {
    /// Integer constant shorthand.
    pub fn int(i: i64) -> Self {
        Value::Const(Constant::Int(i))
    }

    /// String constant shorthand.
    pub fn str(s: impl Into<String>) -> Self {
        Value::Const(Constant::Str(s.into()))
    }

    /// Boolean constant shorthand.
    pub fn bool(b: bool) -> Self {
        Value::Const(Constant::Bool(b))
    }

    /// Labeled-null shorthand.
    pub fn null(id: u64) -> Self {
        Value::Null(NullId(id))
    }

    /// Skolem-term shorthand.
    pub fn skolem(f: impl Into<Name>, args: Vec<Value>) -> Self {
        Value::Skolem(f.into(), args)
    }

    /// Is this a ground constant?
    pub fn is_const(&self) -> bool {
        matches!(self, Value::Const(_))
    }

    /// Is this a labeled null?
    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null(_))
    }

    /// Is this a Skolem term (at the top level)?
    pub fn is_skolem(&self) -> bool {
        matches!(self, Value::Skolem(..))
    }

    /// Does this value contain no nulls and no Skolem terms anywhere?
    pub fn is_ground(&self) -> bool {
        match self {
            Value::Const(_) => true,
            Value::Null(_) => false,
            Value::Skolem(_, args) => args.iter().all(Value::is_ground),
        }
    }

    /// The integer inside, if this is an integer constant.
    pub fn as_int(&self) -> Option<i64> {
        match self {
            Value::Const(Constant::Int(i)) => Some(*i),
            _ => None,
        }
    }

    /// The string inside, if this is a string constant.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Const(Constant::Str(s)) => Some(s),
            _ => None,
        }
    }

    /// Collect every [`NullId`] occurring in this value (including inside
    /// Skolem arguments) into `out`.
    pub fn collect_nulls(&self, out: &mut std::collections::BTreeSet<NullId>) {
        match self {
            Value::Const(_) => {}
            Value::Null(n) => {
                out.insert(*n);
            }
            Value::Skolem(_, args) => {
                for a in args {
                    a.collect_nulls(out);
                }
            }
        }
    }

    /// Approximate heap footprint in bytes: the enum slot plus owned
    /// string data and Skolem arguments. Used for the governor's
    /// approximate memory budget, not for exact allocator accounting.
    pub fn approx_bytes(&self) -> usize {
        let slot = std::mem::size_of::<Value>();
        match self {
            Value::Const(Constant::Str(s)) => slot + s.len(),
            Value::Const(_) | Value::Null(_) => slot,
            Value::Skolem(f, args) => {
                slot + f.as_str().len() + args.iter().map(Value::approx_bytes).sum::<usize>()
            }
        }
    }

    /// Replace nulls according to `subst`, leaving unmapped nulls alone.
    pub fn substitute_nulls(&self, subst: &std::collections::BTreeMap<NullId, Value>) -> Value {
        match self {
            Value::Const(_) => self.clone(),
            Value::Null(n) => subst.get(n).cloned().unwrap_or_else(|| self.clone()),
            Value::Skolem(f, args) => Value::Skolem(
                f.clone(),
                args.iter().map(|a| a.substitute_nulls(subst)).collect(),
            ),
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Const(c) => write!(f, "{c}"),
            Value::Null(n) => write!(f, "{n}"),
            Value::Skolem(name, args) => {
                write!(f, "{name}(")?;
                for (i, a) in args.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{a}")?;
                }
                write!(f, ")")
            }
        }
    }
}

impl fmt::Debug for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Const(c) => write!(f, "{c:?}"),
            other => write!(f, "{other}"),
        }
    }
}

impl From<i64> for Value {
    fn from(i: i64) -> Self {
        Value::int(i)
    }
}
impl From<&str> for Value {
    fn from(s: &str) -> Self {
        Value::str(s)
    }
}
impl From<String> for Value {
    fn from(s: String) -> Self {
        Value::Const(Constant::Str(s))
    }
}
impl From<bool> for Value {
    fn from(b: bool) -> Self {
        Value::bool(b)
    }
}
impl From<Constant> for Value {
    fn from(c: Constant) -> Self {
        Value::Const(c)
    }
}

/// A generator of fresh labeled nulls.
///
/// The chase, the lens `put` policies, and test harnesses all need fresh
/// nulls; threading one generator through guarantees global freshness
/// within an exchange run.
#[derive(Debug, Default, Clone, Serialize, Deserialize)]
pub struct NullGen {
    next: u64,
}

impl NullGen {
    /// A generator starting at `⊥0`.
    pub fn new() -> Self {
        Self::default()
    }

    /// A generator whose first null will be `⊥start` — used to resume
    /// after an instance that already contains nulls.
    pub fn starting_at(start: u64) -> Self {
        NullGen { next: start }
    }

    /// A generator guaranteed to be fresh for every null in `values`.
    pub fn fresh_for<'a>(values: impl IntoIterator<Item = &'a Value>) -> Self {
        let mut nulls = std::collections::BTreeSet::new();
        for v in values {
            v.collect_nulls(&mut nulls);
        }
        let start = nulls.iter().next_back().map(|n| n.0 + 1).unwrap_or(0);
        NullGen::starting_at(start)
    }

    /// The id the next [`fresh_id`](NullGen::fresh_id) call will
    /// return, without consuming it. Lets a checkpoint record the
    /// generator's position so a resumed run allocates the exact same
    /// null ids as the uninterrupted one.
    pub fn peek_next(&self) -> u64 {
        self.next
    }

    /// Produce the next fresh null id.
    pub fn fresh_id(&mut self) -> NullId {
        let id = NullId(self.next);
        self.next += 1;
        id
    }

    /// Produce the next fresh null as a [`Value`].
    pub fn fresh(&mut self) -> Value {
        Value::Null(self.fresh_id())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::{BTreeMap, BTreeSet};

    #[test]
    fn constants_order_before_nulls_before_skolems() {
        let c = Value::int(99);
        let n = Value::null(0);
        let s = Value::skolem("f", vec![Value::int(1)]);
        assert!(c < n);
        assert!(n < s);
    }

    #[test]
    fn groundness() {
        assert!(Value::str("Alice").is_ground());
        assert!(!Value::null(3).is_ground());
        assert!(Value::skolem("f", vec![Value::int(1)]).is_ground());
        assert!(!Value::skolem("f", vec![Value::null(1)]).is_ground());
    }

    #[test]
    fn collect_nulls_descends_into_skolems() {
        let v = Value::skolem(
            "f",
            vec![Value::null(7), Value::skolem("g", vec![Value::null(2)])],
        );
        let mut out = BTreeSet::new();
        v.collect_nulls(&mut out);
        assert_eq!(out, BTreeSet::from([NullId(2), NullId(7)]));
    }

    #[test]
    fn substitution_is_capture_free_and_partial() {
        let v = Value::skolem("f", vec![Value::null(1), Value::null(2)]);
        let mut s = BTreeMap::new();
        s.insert(NullId(1), Value::str("Alice"));
        let w = v.substitute_nulls(&s);
        assert_eq!(
            w,
            Value::skolem("f", vec![Value::str("Alice"), Value::null(2)])
        );
    }

    #[test]
    fn nullgen_freshness_respects_existing_nulls() {
        let existing = [Value::null(4), Value::skolem("f", vec![Value::null(9)])];
        let mut g = NullGen::fresh_for(existing.iter());
        assert_eq!(g.fresh_id(), NullId(10));
        assert_eq!(g.fresh_id(), NullId(11));
    }

    #[test]
    fn nullgen_from_empty_starts_at_zero() {
        let mut g = NullGen::fresh_for(std::iter::empty());
        assert_eq!(g.fresh(), Value::null(0));
    }

    #[test]
    fn display_forms() {
        assert_eq!(Value::int(5).to_string(), "5");
        assert_eq!(Value::str("x").to_string(), "x");
        assert_eq!(Value::null(2).to_string(), "⊥2");
        assert_eq!(
            Value::skolem("f", vec![Value::str("a"), Value::null(1)]).to_string(),
            "f(a, ⊥1)"
        );
    }

    #[test]
    fn conversions() {
        assert_eq!(Value::from(3i64), Value::int(3));
        assert_eq!(Value::from("hi"), Value::str("hi"));
        assert_eq!(Value::from(true), Value::bool(true));
    }

    #[test]
    fn serde_round_trip() {
        let v = Value::skolem("f", vec![Value::int(1), Value::null(2)]);
        let js = serde_json::to_string(&v).unwrap();
        let back: Value = serde_json::from_str(&js).unwrap();
        assert_eq!(back, v);
    }
}
