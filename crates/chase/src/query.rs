//! Conjunctive queries and certain answers.
//!
//! Query answering in data exchange (paper §2, citing Fagin et al.
//! \[11\]): the *certain answers* of a query are those holding in **every**
//! solution. For (unions of) conjunctive queries they are computed by
//! naive evaluation — evaluate over a universal solution and discard any
//! answer tuple containing a labeled null.

use dex_logic::eval::{for_each_match_mode, match_conjunction, MatchMode, Valuation};
use dex_logic::Atom;
use dex_relational::{ExhaustionReport, Governor, Instance, Name, RelationalError, Schema, Tuple};
use serde::{Deserialize, Serialize};
use std::collections::BTreeSet;
use std::fmt;

/// A conjunctive query `q(x̄) :- body`.
#[derive(Clone, PartialEq, Eq, Debug, Serialize, Deserialize)]
pub struct ConjunctiveQuery {
    /// The head (answer) variables.
    pub head: Vec<Name>,
    /// The body atoms.
    pub body: Vec<Atom>,
}

impl ConjunctiveQuery {
    /// Build a query; head variables must occur in the body.
    pub fn new(head: Vec<&str>, body: Vec<Atom>) -> Result<Self, RelationalError> {
        let head: Vec<Name> = head.into_iter().map(Name::new).collect();
        let mut body_vars = Vec::new();
        for a in &body {
            a.collect_vars(&mut body_vars);
        }
        for h in &head {
            if !body_vars.contains(h) {
                return Err(RelationalError::UnboundAttribute(h.clone()));
            }
        }
        Ok(ConjunctiveQuery { head, body })
    }

    /// Validate body atoms against a schema.
    pub fn validate(&self, schema: &Schema) -> Result<(), RelationalError> {
        for a in &self.body {
            a.validate(schema)?;
        }
        Ok(())
    }

    /// Evaluate over an instance (answers may contain nulls).
    pub fn eval(&self, inst: &Instance) -> BTreeSet<Tuple> {
        match_conjunction(&self.body, inst)
            .into_iter()
            .map(|m| {
                self.head
                    .iter()
                    .map(|h| m[h.as_str()].clone())
                    .collect::<Tuple>()
            })
            .collect()
    }
}

impl fmt::Display for ConjunctiveQuery {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "q({}) :- {}",
            self.head
                .iter()
                .map(|h| h.to_string())
                .collect::<Vec<_>>()
                .join(", "),
            self.body
                .iter()
                .map(|a| a.to_string())
                .collect::<Vec<_>>()
                .join(", ")
        )
    }
}

/// A union of conjunctive queries with a shared head arity.
#[derive(Clone, PartialEq, Eq, Debug, Serialize, Deserialize)]
pub struct UnionQuery {
    /// The disjuncts.
    pub disjuncts: Vec<ConjunctiveQuery>,
}

impl UnionQuery {
    /// Build a union query; all disjuncts must agree on head arity.
    pub fn new(disjuncts: Vec<ConjunctiveQuery>) -> Result<Self, RelationalError> {
        if let Some(first) = disjuncts.first() {
            let arity = first.head.len();
            if disjuncts.iter().any(|d| d.head.len() != arity) {
                return Err(RelationalError::SchemaMismatch {
                    context: "union query disjuncts must share head arity".into(),
                });
            }
        }
        Ok(UnionQuery { disjuncts })
    }

    /// Evaluate over an instance.
    pub fn eval(&self, inst: &Instance) -> BTreeSet<Tuple> {
        self.disjuncts.iter().flat_map(|d| d.eval(inst)).collect()
    }
}

/// Certain answers by naive evaluation over a universal solution: keep
/// only the all-constant answer tuples. The streaming evaluation of
/// [`certain_answers_governed`] under an unlimited governor.
pub fn certain_answers(q: &ConjunctiveQuery, universal_solution: &Instance) -> BTreeSet<Tuple> {
    certain_answers_governed(q, universal_solution, &Governor::unlimited()).0
}

/// Certain answers of a union of conjunctive queries.
pub fn certain_answers_union(q: &UnionQuery, universal_solution: &Instance) -> BTreeSet<Tuple> {
    q.eval(universal_solution)
        .into_iter()
        .filter(Tuple::is_ground)
        .collect()
}

/// Certain answers under a resource budget: naive evaluation that
/// checks the governor between body matches (each enumerated match
/// also counts one tuple of consumption). Returns the certain answers
/// accumulated so far, plus `Some(report)` when a budget or
/// cancellation stopped the enumeration early — in which case the set
/// is a sound *subset* of the certain answers (every returned tuple is
/// certain; some may be missing). `None` means the evaluation ran to
/// completion and the set is exact.
pub fn certain_answers_governed(
    q: &ConjunctiveQuery,
    universal_solution: &Instance,
    gov: &Governor,
) -> (BTreeSet<Tuple>, Option<ExhaustionReport>) {
    let mut out = BTreeSet::new();
    let mut tripped = None;
    for_each_match_mode(
        &q.body,
        universal_solution,
        &Valuation::new(),
        MatchMode::default(),
        &mut |m| {
            if let Err(reason) = gov.check() {
                tripped = Some(gov.report(reason));
                return true; // stop the enumeration
            }
            gov.note_tuples(1);
            let t: Tuple = q
                .head
                .iter()
                .map(|h| m[h.as_str()].clone())
                .collect::<Tuple>();
            if t.is_ground() {
                out.insert(t);
            }
            false
        },
    );
    (out, tripped)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chase::exchange;
    use dex_logic::parse_mapping;
    use dex_relational::tuple;

    #[test]
    fn head_vars_must_occur_in_body() {
        let err = ConjunctiveQuery::new(vec!["x"], vec![Atom::vars("R", &["y"])]);
        assert!(err.is_err());
    }

    #[test]
    fn certain_answers_drop_null_tuples() {
        // Example 1's exchange: q(e, m) :- Manager(e, m) has NO certain
        // answers (managers are nulls); q(e) :- Manager(e, m) has both
        // employees.
        let m = parse_mapping(
            r#"
            source Emp(name);
            target Manager(emp, mgr);
            Emp(x) -> Manager(x, y);
            "#,
        )
        .unwrap();
        let src = dex_relational::Instance::with_facts(
            m.source().clone(),
            vec![("Emp", vec![tuple!["Alice"], tuple!["Bob"]])],
        )
        .unwrap();
        let j = exchange(&m, &src).unwrap().target;

        let q_pairs =
            ConjunctiveQuery::new(vec!["e", "m"], vec![Atom::vars("Manager", &["e", "m"])])
                .unwrap();
        assert!(certain_answers(&q_pairs, &j).is_empty());

        let q_emps =
            ConjunctiveQuery::new(vec!["e"], vec![Atom::vars("Manager", &["e", "m"])]).unwrap();
        let ans = certain_answers(&q_emps, &j);
        assert_eq!(ans.len(), 2);
        assert!(ans.contains(&tuple!["Alice"]));
        assert!(ans.contains(&tuple!["Bob"]));
    }

    #[test]
    fn eval_keeps_nulls_certain_answers_do_not() {
        let m = parse_mapping(
            r#"
            source Emp(name);
            target Manager(emp, mgr);
            Emp(x) -> Manager(x, y);
            "#,
        )
        .unwrap();
        let src = dex_relational::Instance::with_facts(
            m.source().clone(),
            vec![("Emp", vec![tuple!["Alice"]])],
        )
        .unwrap();
        let j = exchange(&m, &src).unwrap().target;
        let q = ConjunctiveQuery::new(vec!["m"], vec![Atom::vars("Manager", &["e", "m"])]).unwrap();
        assert_eq!(q.eval(&j).len(), 1, "naive eval sees the null");
        assert!(certain_answers(&q, &j).is_empty());
    }

    #[test]
    fn join_query_over_universal_solution() {
        let m = parse_mapping(
            r#"
            source Takes(name, course);
            target Student(id, name);
            target Assgn(name, course);
            Takes(x, y) -> Student(z, x) & Assgn(x, y);
            "#,
        )
        .unwrap();
        let src = dex_relational::Instance::with_facts(
            m.source().clone(),
            vec![("Takes", vec![tuple!["Alice", "DB"]])],
        )
        .unwrap();
        let j = exchange(&m, &src).unwrap().target;
        // q(n, c) :- Student(i, n), Assgn(n, c): the join goes through
        // the shared constant name, so (Alice, DB) is certain.
        let q = ConjunctiveQuery::new(
            vec!["n", "c"],
            vec![
                Atom::vars("Student", &["i", "n"]),
                Atom::vars("Assgn", &["n", "c"]),
            ],
        )
        .unwrap();
        let ans = certain_answers(&q, &j);
        assert_eq!(ans.len(), 1);
        assert!(ans.contains(&tuple!["Alice", "DB"]));
    }

    #[test]
    fn union_query_arity_checked_and_evaluated() {
        let q1 = ConjunctiveQuery::new(vec!["x"], vec![Atom::vars("Father", &["x", "y"])]).unwrap();
        let q2 = ConjunctiveQuery::new(vec!["x"], vec![Atom::vars("Mother", &["x", "y"])]).unwrap();
        let u = UnionQuery::new(vec![q1.clone(), q2]).unwrap();
        let schema = dex_relational::Schema::with_relations(vec![
            dex_relational::RelSchema::untyped("Father", vec!["p", "c"]).unwrap(),
            dex_relational::RelSchema::untyped("Mother", vec!["p", "c"]).unwrap(),
        ])
        .unwrap();
        let inst = dex_relational::Instance::with_facts(
            schema,
            vec![
                ("Father", vec![tuple!["Leslie", "Alice"]]),
                ("Mother", vec![tuple!["Robin", "Sam"]]),
            ],
        )
        .unwrap();
        let ans = certain_answers_union(&u, &inst);
        assert_eq!(ans.len(), 2);

        let bad = UnionQuery::new(vec![
            q1,
            ConjunctiveQuery::new(vec!["x", "y"], vec![Atom::vars("Mother", &["x", "y"])]).unwrap(),
        ]);
        assert!(bad.is_err());
    }

    #[test]
    fn display() {
        let q = ConjunctiveQuery::new(vec!["e"], vec![Atom::vars("Manager", &["e", "m"])]).unwrap();
        assert_eq!(q.to_string(), "q(e) :- Manager(e, m)");
    }
}
