//! First-order (and Skolem) terms.

use dex_relational::{Constant, Name, Value};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::fmt;

/// A term in a dependency: a variable, a constant, or a Skolem-function
/// application (`Func` only occurs inside SO-tgds).
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Debug, Serialize, Deserialize)]
pub enum Term {
    /// A first-order variable.
    Var(Name),
    /// A constant.
    Const(Constant),
    /// A Skolem function applied to terms (second-order tgds only).
    Func(Name, Vec<Term>),
}

impl Term {
    /// Variable shorthand.
    pub fn var(n: impl Into<Name>) -> Term {
        Term::Var(n.into())
    }

    /// Constant shorthand.
    pub fn cnst(c: impl Into<Constant>) -> Term {
        Term::Const(c.into())
    }

    /// Skolem-application shorthand.
    pub fn func(f: impl Into<Name>, args: Vec<Term>) -> Term {
        Term::Func(f.into(), args)
    }

    /// The variable name, if a variable.
    pub fn as_var(&self) -> Option<&Name> {
        match self {
            Term::Var(v) => Some(v),
            _ => None,
        }
    }

    /// Collect variables (in first-occurrence order) into `out`.
    pub fn collect_vars(&self, out: &mut Vec<Name>) {
        match self {
            Term::Var(v) => {
                if !out.contains(v) {
                    out.push(v.clone());
                }
            }
            Term::Const(_) => {}
            Term::Func(_, args) => args.iter().for_each(|a| a.collect_vars(out)),
        }
    }

    /// Evaluate under a valuation. Variables must be bound; Skolem
    /// applications become [`Value::Skolem`] over evaluated arguments.
    pub fn eval(&self, valuation: &BTreeMap<Name, Value>) -> Option<Value> {
        match self {
            Term::Var(v) => valuation.get(v).cloned(),
            Term::Const(c) => Some(Value::Const(c.clone())),
            Term::Func(f, args) => {
                let vals: Option<Vec<Value>> = args.iter().map(|a| a.eval(valuation)).collect();
                Some(Value::Skolem(f.clone(), vals?))
            }
        }
    }

    /// Substitute variables by terms (used by composition's unfolding).
    pub fn substitute(&self, subst: &BTreeMap<Name, Term>) -> Term {
        match self {
            Term::Var(v) => subst.get(v).cloned().unwrap_or_else(|| self.clone()),
            Term::Const(_) => self.clone(),
            Term::Func(f, args) => Term::Func(
                f.clone(),
                args.iter().map(|a| a.substitute(subst)).collect(),
            ),
        }
    }

    /// Rename variables with a prefix (freshening for composition).
    pub fn prefix_vars(&self, prefix: &str) -> Term {
        match self {
            Term::Var(v) => Term::Var(Name::new(format!("{prefix}{v}"))),
            Term::Const(_) => self.clone(),
            Term::Func(f, args) => Term::Func(
                f.clone(),
                args.iter().map(|a| a.prefix_vars(prefix)).collect(),
            ),
        }
    }

    /// Does the term mention any Skolem function application?
    pub fn has_func(&self) -> bool {
        match self {
            Term::Func(..) => true,
            Term::Var(_) | Term::Const(_) => false,
        }
    }
}

impl fmt::Display for Term {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Term::Var(v) => write!(f, "{v}"),
            Term::Const(Constant::Str(s)) => write!(f, "{s:?}"),
            Term::Const(c) => write!(f, "{c}"),
            Term::Func(g, args) => {
                write!(f, "{g}(")?;
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn eval_variable_needs_binding() {
        let t = Term::var("x");
        let mut v = BTreeMap::new();
        assert_eq!(t.eval(&v), None);
        v.insert(Name::new("x"), Value::int(3));
        assert_eq!(t.eval(&v), Some(Value::int(3)));
    }

    #[test]
    fn eval_skolem_builds_skolem_value() {
        let t = Term::func("f", vec![Term::var("x"), Term::cnst(1i64)]);
        let mut v = BTreeMap::new();
        v.insert(Name::new("x"), Value::str("a"));
        assert_eq!(
            t.eval(&v),
            Some(Value::skolem("f", vec![Value::str("a"), Value::int(1)]))
        );
    }

    #[test]
    fn collect_vars_in_order_without_dups() {
        let t = Term::func("f", vec![Term::var("y"), Term::var("x"), Term::var("y")]);
        let mut out = Vec::new();
        t.collect_vars(&mut out);
        assert_eq!(out, vec![Name::new("y"), Name::new("x")]);
    }

    #[test]
    fn substitute_into_function_args() {
        let t = Term::func("f", vec![Term::var("x")]);
        let mut s = BTreeMap::new();
        s.insert(Name::new("x"), Term::cnst("k"));
        assert_eq!(t.substitute(&s), Term::func("f", vec![Term::cnst("k")]));
    }

    #[test]
    fn prefix_vars_renames() {
        let t = Term::func("f", vec![Term::var("x"), Term::cnst(1i64)]);
        let p = t.prefix_vars("m1_");
        assert_eq!(
            p,
            Term::func("f", vec![Term::var("m1_x"), Term::cnst(1i64)])
        );
    }

    #[test]
    fn display() {
        assert_eq!(Term::var("x").to_string(), "x");
        assert_eq!(Term::cnst("Alice").to_string(), "\"Alice\"");
        assert_eq!(Term::func("f", vec![Term::var("x")]).to_string(), "f(x)");
    }
}
