//! Tuples: fixed-width sequences of values.

use crate::value::{NullId, Value};
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

/// A tuple of values. Width is fixed at construction; positional access
/// is paired with schema-aware (named) access at the [`crate::Relation`]
/// level.
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct Tuple(Box<[Value]>);

impl Tuple {
    /// Build a tuple from values.
    pub fn new(values: Vec<Value>) -> Self {
        Tuple(values.into_boxed_slice())
    }

    /// Tuple width.
    pub fn arity(&self) -> usize {
        self.0.len()
    }

    /// Positional access.
    pub fn get(&self, i: usize) -> Option<&Value> {
        self.0.get(i)
    }

    /// The underlying values.
    pub fn values(&self) -> &[Value] {
        &self.0
    }

    /// Iterate over values.
    pub fn iter(&self) -> impl Iterator<Item = &Value> + '_ {
        self.0.iter()
    }

    /// Is every value a ground constant?
    pub fn is_ground(&self) -> bool {
        self.0.iter().all(Value::is_ground)
    }

    /// Collect all null ids into `out`.
    pub fn collect_nulls(&self, out: &mut BTreeSet<NullId>) {
        for v in self.0.iter() {
            v.collect_nulls(out);
        }
    }

    /// Approximate heap footprint in bytes (see
    /// [`Value::approx_bytes`]).
    pub fn approx_bytes(&self) -> usize {
        std::mem::size_of::<Tuple>() + self.0.iter().map(Value::approx_bytes).sum::<usize>()
    }

    /// Apply a null substitution to every value.
    pub fn substitute_nulls(&self, subst: &BTreeMap<NullId, Value>) -> Tuple {
        Tuple(self.0.iter().map(|v| v.substitute_nulls(subst)).collect())
    }

    /// Project onto the given positions (positions may repeat or reorder).
    pub fn project(&self, positions: &[usize]) -> Tuple {
        Tuple(positions.iter().map(|&i| self.0[i].clone()).collect())
    }

    /// Concatenate two tuples.
    pub fn concat(&self, other: &Tuple) -> Tuple {
        Tuple(self.0.iter().chain(other.0.iter()).cloned().collect())
    }

    /// A new tuple with position `i` replaced by `v`.
    pub fn with_value(&self, i: usize, v: Value) -> Tuple {
        let mut vals: Vec<Value> = self.0.to_vec();
        vals[i] = v;
        Tuple::new(vals)
    }
}

impl fmt::Display for Tuple {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "(")?;
        for (i, v) in self.0.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{v}")?;
        }
        write!(f, ")")
    }
}

impl fmt::Debug for Tuple {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{self}")
    }
}

impl From<Vec<Value>> for Tuple {
    fn from(v: Vec<Value>) -> Self {
        Tuple::new(v)
    }
}

impl FromIterator<Value> for Tuple {
    fn from_iter<T: IntoIterator<Item = Value>>(iter: T) -> Self {
        Tuple(iter.into_iter().collect())
    }
}

impl std::ops::Index<usize> for Tuple {
    type Output = Value;
    fn index(&self, i: usize) -> &Value {
        &self.0[i]
    }
}

/// Convenience macro: `tuple!["Alice", 7, Value::null(0)]`.
#[macro_export]
macro_rules! tuple {
    ($($v:expr),* $(,)?) => {
        $crate::Tuple::new(vec![$($crate::Value::from($v)),*])
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn macro_builds_mixed_tuple() {
        let t = crate::tuple!["Alice", 30i64, true];
        assert_eq!(t.arity(), 3);
        assert_eq!(t[0], Value::str("Alice"));
        assert_eq!(t[1], Value::int(30));
        assert_eq!(t[2], Value::bool(true));
    }

    #[test]
    fn groundness_and_nulls() {
        let t = Tuple::new(vec![Value::str("a"), Value::null(1)]);
        assert!(!t.is_ground());
        let mut s = BTreeSet::new();
        t.collect_nulls(&mut s);
        assert_eq!(s.len(), 1);
    }

    #[test]
    fn projection_can_reorder_and_repeat() {
        let t = crate::tuple![1i64, 2i64, 3i64];
        let p = t.project(&[2, 0, 0]);
        assert_eq!(p, crate::tuple![3i64, 1i64, 1i64]);
    }

    #[test]
    fn concat_widths_add() {
        let a = crate::tuple![1i64];
        let b = crate::tuple!["x", "y"];
        let c = a.concat(&b);
        assert_eq!(c.arity(), 3);
        assert_eq!(c[2], Value::str("y"));
    }

    #[test]
    fn substitute_nulls_in_tuple() {
        let t = Tuple::new(vec![Value::null(0), Value::str("k")]);
        let mut s = BTreeMap::new();
        s.insert(NullId(0), Value::int(42));
        assert_eq!(t.substitute_nulls(&s), crate::tuple![42i64, "k"]);
    }

    #[test]
    fn with_value_replaces_one_position() {
        let t = crate::tuple![1i64, 2i64];
        let u = t.with_value(1, Value::int(9));
        assert_eq!(u, crate::tuple![1i64, 9i64]);
        assert_eq!(t[1], Value::int(2), "original untouched");
    }

    #[test]
    fn display() {
        let t = Tuple::new(vec![Value::str("Bob"), Value::null(2)]);
        assert_eq!(t.to_string(), "(Bob, ⊥2)");
    }

    #[test]
    fn ordering_is_lexicographic_on_values() {
        let a = crate::tuple![1i64, 5i64];
        let b = crate::tuple![2i64, 0i64];
        assert!(a < b);
    }
}
