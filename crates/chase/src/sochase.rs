//! Chasing with second-order tgds.
//!
//! Executing a *composed* mapping (paper Example 2) requires chasing an
//! SO-tgd directly: existential functions are interpreted as **Skolem
//! terms** (`Value::Skolem`), making the canonical target instance
//! computable in one pass. Equalities on the left-hand side are
//! evaluated syntactically over these terms — `f(Alice)` equals only
//! `f(Alice)` — which yields the canonical (most-general) solution.

use crate::chase::{ChaseStats, Exhausted};
use crate::error::ChaseError;
use dex_logic::eval::match_conjunction;
use dex_logic::SoTgd;
use dex_relational::{Governor, Instance, Schema};

/// The outcome of a governed SO-tgd chase.
#[derive(Clone, Debug)]
#[allow(clippy::large_enum_variant)]
pub enum SoOutcome {
    /// The single-pass SO chase ran to completion.
    Complete(Instance),
    /// A budget or cancellation stopped the pass early; the partial
    /// holds the facts of a prefix of whole clause-match firings.
    Exhausted(Exhausted),
}

impl SoOutcome {
    /// Collapse into a plain `Result`, turning exhaustion into
    /// [`ChaseError::Exhausted`].
    pub fn into_result(self) -> Result<Instance, ChaseError> {
        match self {
            SoOutcome::Complete(inst) => Ok(inst),
            SoOutcome::Exhausted(e) => Err(ChaseError::Exhausted(Box::new(e))),
        }
    }
}

/// Materialize the canonical target instance of `src` under an SO-tgd.
///
/// For SO-tgds obtained by composing st-tgd mappings this is the
/// canonical universal solution of the composition: existential
/// functions become Skolem-term values over the matched source values.
///
/// The governor is checked between clause-match firings: a trip hands
/// back the facts inserted so far (each firing inserts all rhs atoms of
/// one matched clause before the next check, so the partial is a prefix
/// of whole firings).
pub fn so_exchange(
    sotgd: &SoTgd,
    target_schema: &Schema,
    src: &Instance,
    gov: &Governor,
) -> Result<SoOutcome, ChaseError> {
    let mut target = Instance::empty(target_schema.clone());
    for clause in &sotgd.clauses {
        for m in match_conjunction(&clause.lhs_atoms, src) {
            if let Err(reason) = gov.check() {
                return Ok(SoOutcome::Exhausted(Exhausted {
                    partial: target,
                    report: gov.report(reason),
                    stats: ChaseStats::default(),
                }));
            }
            // Left-hand equalities: evaluate with Skolem-term semantics.
            let mut eqs_hold = true;
            for (a, b) in &clause.lhs_eqs {
                let va = a.eval(&m);
                let vb = b.eval(&m);
                if va.is_none() || vb.is_none() || va != vb {
                    eqs_hold = false;
                    break;
                }
            }
            if !eqs_hold {
                continue;
            }
            let mut inserted = 0usize;
            for atom in &clause.rhs_atoms {
                let t = atom.instantiate(&m).ok_or_else(|| {
                    ChaseError::Relational(dex_relational::RelationalError::EvalError(format!(
                        "SO-tgd rhs atom {atom} has variables not bound by the clause body"
                    )))
                })?;
                if target.insert(atom.relation.as_str(), t)? {
                    inserted += 1;
                }
            }
            gov.note_tuples(inserted);
        }
    }
    Ok(SoOutcome::Complete(target))
}

#[cfg(test)]
mod tests {
    use super::*;
    use dex_logic::{parse_tgd, Atom, SoClause, Term};
    use dex_relational::{tuple, Name, RelSchema, Tuple, Value};

    fn emp_schema() -> Schema {
        Schema::with_relations(vec![RelSchema::untyped("Emp", vec!["name"]).unwrap()]).unwrap()
    }

    fn boss_schema() -> Schema {
        Schema::with_relations(vec![
            RelSchema::untyped("Boss", vec!["emp", "mgr"]).unwrap(),
            RelSchema::untyped("SelfMngr", vec!["emp"]).unwrap(),
        ])
        .unwrap()
    }

    /// The paper's Example 2 SO-tgd, chased over I = {Emp(Alice),
    /// Emp(Bob)}: Boss gets Skolem-term managers, SelfMngr stays empty
    /// (x = f(x) never holds syntactically for a fresh Skolem term).
    #[test]
    fn example2_canonical_solution() {
        let so = SoTgd::new(
            vec![(Name::new("f"), 1)],
            vec![
                SoClause::new(
                    vec![Atom::vars("Emp", &["x"])],
                    vec![],
                    vec![Atom::new(
                        "Boss",
                        vec![Term::var("x"), Term::func("f", vec![Term::var("x")])],
                    )],
                ),
                SoClause::new(
                    vec![Atom::vars("Emp", &["x"])],
                    vec![(Term::var("x"), Term::func("f", vec![Term::var("x")]))],
                    vec![Atom::vars("SelfMngr", &["x"])],
                ),
            ],
        );
        let src = Instance::with_facts(
            emp_schema(),
            vec![("Emp", vec![tuple!["Alice"], tuple!["Bob"]])],
        )
        .unwrap();
        let j = so_exchange(&so, &boss_schema(), &src, &Governor::unlimited())
            .unwrap()
            .into_result()
            .unwrap();
        assert_eq!(j.relation("Boss").unwrap().len(), 2);
        assert!(j.relation("SelfMngr").unwrap().is_empty());
        assert!(j.contains(
            "Boss",
            &Tuple::new(vec![
                Value::str("Alice"),
                Value::skolem("f", vec![Value::str("Alice")]),
            ])
        ));
        // The canonical solution satisfies the SO-tgd (bounded check).
        assert!(so.satisfied_by_bounded(&src, &j));
    }

    #[test]
    fn function_free_so_chase_agrees_with_plain_semantics() {
        let tgd = parse_tgd("Manager(x, y) -> Boss(x, y)").unwrap();
        let so = SoTgd::from_st_tgds(std::slice::from_ref(&tgd));
        let mgr_schema =
            Schema::with_relations(vec![RelSchema::untyped("Manager", vec!["e", "m"]).unwrap()])
                .unwrap();
        let src = Instance::with_facts(mgr_schema, vec![("Manager", vec![tuple!["Alice", "Ted"]])])
            .unwrap();
        let j = so_exchange(&so, &boss_schema(), &src, &Governor::unlimited())
            .unwrap()
            .into_result()
            .unwrap();
        assert!(j.contains("Boss", &tuple!["Alice", "Ted"]));
        assert_eq!(j.fact_count(), 1);
        assert!(tgd.satisfied_by(&src, &j));
    }

    #[test]
    fn skolemized_existential_becomes_skolem_value() {
        let tgd = parse_tgd("Emp(x) -> Manager2(x, y)").unwrap();
        let so = SoTgd::from_st_tgds(&[tgd]);
        let t_schema =
            Schema::with_relations(vec![RelSchema::untyped("Manager2", vec!["e", "m"]).unwrap()])
                .unwrap();
        let src = Instance::with_facts(emp_schema(), vec![("Emp", vec![tuple!["Alice"]])]).unwrap();
        let j = so_exchange(&so, &t_schema, &src, &Governor::unlimited())
            .unwrap()
            .into_result()
            .unwrap();
        let t = j.relation("Manager2").unwrap().iter().next().unwrap();
        assert_eq!(t[0], Value::str("Alice"));
        assert!(t[1].is_skolem());
    }

    #[test]
    fn equality_between_constants_filters_matches() {
        // Clause: P(x, y) ∧ x = y → Q(x). Only the diagonal fires.
        let so = SoTgd::new(
            vec![],
            vec![SoClause::new(
                vec![Atom::vars("P", &["x", "y"])],
                vec![(Term::var("x"), Term::var("y"))],
                vec![Atom::vars("Q", &["x"])],
            )],
        );
        let p_schema =
            Schema::with_relations(vec![RelSchema::untyped("P", vec!["a", "b"]).unwrap()]).unwrap();
        let q_schema =
            Schema::with_relations(vec![RelSchema::untyped("Q", vec!["a"]).unwrap()]).unwrap();
        let src = Instance::with_facts(
            p_schema,
            vec![("P", vec![tuple!["a", "a"], tuple!["a", "b"]])],
        )
        .unwrap();
        let j = so_exchange(&so, &q_schema, &src, &Governor::unlimited())
            .unwrap()
            .into_result()
            .unwrap();
        assert_eq!(j.fact_count(), 1);
        assert!(j.contains("Q", &tuple!["a"]));
    }

    #[test]
    fn tuple_cap_stops_between_whole_clause_firings() {
        // Each firing inserts two facts; a cap of 2 trips after the
        // second firing, before the third.
        let so = SoTgd::new(
            vec![(Name::new("f"), 1)],
            vec![SoClause::new(
                vec![Atom::vars("Emp", &["x"])],
                vec![],
                vec![
                    Atom::new(
                        "Boss",
                        vec![Term::var("x"), Term::func("f", vec![Term::var("x")])],
                    ),
                    Atom::vars("SelfMngr", &["x"]),
                ],
            )],
        );
        let src = Instance::with_facts(
            emp_schema(),
            vec![("Emp", vec![tuple!["a"], tuple!["b"], tuple!["c"]])],
        )
        .unwrap();
        let gov = Governor::new(dex_relational::Budget::unlimited().with_max_tuples(2));
        let SoOutcome::Exhausted(e) = so_exchange(&so, &boss_schema(), &src, &gov).unwrap() else {
            panic!("the tuple cap trips");
        };
        assert_eq!(e.report.reason, dex_relational::TripReason::Tuples);
        let bosses = e.partial.relation("Boss").unwrap();
        let selfs = e.partial.relation("SelfMngr").unwrap();
        assert_eq!((bosses.len(), selfs.len()), (2, 2));
        for t in selfs.iter() {
            let f_x = Value::skolem("f", vec![t[0].clone()]);
            assert!(e
                .partial
                .contains("Boss", &Tuple::new(vec![t[0].clone(), f_x])));
        }
    }
}
