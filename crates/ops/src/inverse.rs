//! Inversion of schema mappings: recoveries, maximum recoveries, and
//! Fagin-invertibility witnesses.
//!
//! The paper's Example 3: inverting `Father(x,y) → Parent(x,y)` and
//! `Mother(x,y) → Parent(x,y)` requires a **disjunction** —
//! `Parent(x,y) → Father(x,y) ∨ Mother(x,y)` — and even then the
//! inverse “loses information”. This module makes those statements
//! executable:
//!
//! * [`maximum_recovery`] builds the disjunctive recovery for the
//!   supported fragment (each tgd's right-hand side a single atom with
//!   distinct variables),
//! * [`is_recovery_witness`] checks the recovery property on concrete
//!   source instances (via the canonical universal solution),
//! * [`not_invertible_witness`] exhibits Fagin-non-invertibility: two
//!   different sources with homomorphically equivalent solution spaces.

use crate::error::OpsError;
use dex_chase::{chase, ChaseOutcome, RunContext, Start};
use dex_logic::{Atom, DisjTgd, Mapping, Term};
use dex_relational::homomorphism::homomorphically_equivalent;
use dex_relational::{ExhaustionReport, Governor, Instance, Name};
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

/// A recovery mapping from the target schema back to the source
/// schema, expressed as disjunctive tgds.
#[derive(Clone, Debug)]
pub struct MaxRecovery {
    /// One rule per produced target relation.
    pub rules: Vec<DisjTgd>,
    /// The recovery's source schema (= the original mapping's target).
    pub source: dex_relational::Schema,
    /// The recovery's target schema (= the original mapping's source).
    pub target: dex_relational::Schema,
}

impl MaxRecovery {
    /// Does the pair `(J, I)` satisfy every recovery rule?
    pub fn satisfied_by(&self, j: &Instance, i: &Instance) -> bool {
        self.rules.iter().all(|r| r.satisfied_by(j, i))
    }
}

impl fmt::Display for MaxRecovery {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (i, r) in self.rules.iter().enumerate() {
            if i > 0 {
                writeln!(f)?;
            }
            write!(f, "{r}")?;
        }
        Ok(())
    }
}

/// Why an st-tgd falls outside [`maximum_recovery`]'s fragment.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum RecoveryObstacle {
    /// The conclusion does not have exactly one atom.
    MultiAtom {
        /// Index into `mapping.st_tgds()`.
        tgd: usize,
        /// How many conclusion atoms it has.
        atoms: usize,
    },
    /// The conclusion atom repeats a variable (the recovery would need
    /// per-disjunct equality guards).
    RepeatedVar {
        /// Index into `mapping.st_tgds()`.
        tgd: usize,
        /// Argument position of the repeat.
        position: usize,
        /// The repeated variable.
        var: Name,
    },
    /// A conclusion argument is a constant or a function term.
    NonVariable {
        /// Index into `mapping.st_tgds()`.
        tgd: usize,
        /// Argument position of the non-variable term.
        position: usize,
    },
}

impl RecoveryObstacle {
    /// The offending st-tgd's index.
    pub fn tgd(&self) -> usize {
        match self {
            RecoveryObstacle::MultiAtom { tgd, .. }
            | RecoveryObstacle::RepeatedVar { tgd, .. }
            | RecoveryObstacle::NonVariable { tgd, .. } => *tgd,
        }
    }
}

/// [`maximum_recovery`]'s fragment check as data: every obstacle, in
/// tgd order and then argument order. A multi-atom conclusion is one
/// obstacle (its arguments are not scanned). Empty iff the mapping is
/// in the fragment.
pub fn recovery_obstacles(m: &Mapping) -> Vec<RecoveryObstacle> {
    let mut out = Vec::new();
    for (i, tgd) in m.st_tgds().iter().enumerate() {
        let [atom] = tgd.rhs.as_slice() else {
            out.push(RecoveryObstacle::MultiAtom {
                tgd: i,
                atoms: tgd.rhs.len(),
            });
            continue;
        };
        let mut seen = BTreeSet::new();
        for (position, t) in atom.args.iter().enumerate() {
            match t {
                Term::Var(v) if seen.insert(v) => {}
                Term::Var(v) => out.push(RecoveryObstacle::RepeatedVar {
                    tgd: i,
                    position,
                    var: v.clone(),
                }),
                _ => out.push(RecoveryObstacle::NonVariable { tgd: i, position }),
            }
        }
    }
    out
}

/// Build the maximum recovery of `m` for the supported fragment.
///
/// Fragment: every st-tgd's right-hand side is a **single atom whose
/// arguments are distinct variables** (LAV-with-existentials and
/// GAV-to-one-atom shapes; covers the paper's Examples 1 and 3).
/// Mappings outside the fragment are rejected with
/// [`OpsError::UnsupportedFragment`] rather than silently
/// mis-inverted.
///
/// Construction (Arenas–Pérez–Riveros-style): for each target relation
/// `R(v₁ … vₖ)`, collect every tgd producing `R`; rewrite each tgd's
/// source premise over the canonical variables `v̄`; the rule is
/// `R(v̄) → premise₁ ∨ premise₂ ∨ …`. Existential variables of the
/// original tgd simply do not occur in the rewritten premise (they are
/// projected away — this is where the inverse “loses information”);
/// source-only variables become existential in the disjunct.
/// ```
/// use dex_logic::parse_mapping;
/// use dex_ops::maximum_recovery;
///
/// let m = parse_mapping(
///     "source Father(p, c);\nsource Mother(p, c);\ntarget Parent(p, c);\n\
///      Father(x, y) -> Parent(x, y);\nMother(x, y) -> Parent(x, y);",
/// ).unwrap();
/// let rec = maximum_recovery(&m).unwrap();
/// // The paper's Example 3: the disjunction is unavoidable.
/// assert_eq!(
///     rec.rules[0].to_string(),
///     "Parent(v0, v1) → Father(v0, v1) ∨ Mother(v0, v1)"
/// );
/// ```
pub fn maximum_recovery(m: &Mapping) -> Result<MaxRecovery, OpsError> {
    if let Some(o) = recovery_obstacles(m).first() {
        let tgd = &m.st_tgds()[o.tgd()];
        return Err(OpsError::UnsupportedFragment {
            operator: "maximum_recovery",
            reason: match o {
                RecoveryObstacle::MultiAtom { .. } => format!(
                    "tgd `{tgd}` has a multi-atom right-hand side; \
                     the implemented fragment requires a single target atom"
                ),
                RecoveryObstacle::RepeatedVar { var, .. } => format!(
                    "tgd `{tgd}` repeats variable `{var}` in its target atom; \
                     repeated variables need per-disjunct equality guards"
                ),
                RecoveryObstacle::NonVariable { .. } => {
                    format!("tgd `{tgd}` uses a non-variable target argument")
                }
            },
        });
    }

    // Group tgds by produced relation.
    let mut by_rel: BTreeMap<Name, Vec<usize>> = BTreeMap::new();
    for (i, tgd) in m.st_tgds().iter().enumerate() {
        for atom in &tgd.rhs {
            by_rel.entry(atom.relation.clone()).or_default().push(i);
        }
    }

    let mut rules = Vec::new();
    for (rel, tgd_idxs) in by_rel {
        let arity = m
            .target()
            .expect_relation(rel.as_str())
            .map_err(OpsError::Relational)?
            .arity();
        let head_vars: Vec<Name> = (0..arity).map(|i| Name::new(format!("v{i}"))).collect();
        let head = Atom::new(
            rel.clone(),
            head_vars.iter().map(|v| Term::Var(v.clone())).collect(),
        );
        let mut disjuncts = Vec::new();
        for (k, &ti) in tgd_idxs.iter().enumerate() {
            let tgd = &m.st_tgds()[ti];
            let atom = &tgd.rhs[0];
            // Canonicalize: tgd var at position i ↦ v_i; every other
            // source variable gets a disjunct-local fresh name.
            let mut subst: BTreeMap<Name, Term> = BTreeMap::new();
            for (i, t) in atom.args.iter().enumerate() {
                if let Term::Var(v) = t {
                    subst.insert(v.clone(), Term::Var(head_vars[i].clone()));
                }
            }
            let mut premise = Vec::new();
            for a in &tgd.lhs {
                // Freshen source-only variables with a disjunct prefix.
                let mut vars = Vec::new();
                a.collect_vars(&mut vars);
                let mut local = subst.clone();
                for v in vars {
                    local
                        .entry(v.clone())
                        .or_insert_with(|| Term::Var(Name::new(format!("w{k}_{v}"))));
                }
                premise.push(a.substitute(&local));
            }
            disjuncts.push(premise);
        }
        rules.push(DisjTgd::new(vec![head], disjuncts));
    }

    Ok(MaxRecovery {
        rules,
        source: m.target().clone(),
        target: m.source().clone(),
    })
}

/// Bounded recovery check: is `(chase(m, i), i)` accepted by the
/// candidate recovery for each sample source instance `i`?
///
/// `M'` is a *recovery* of `M` when every source instance is a
/// possible way back from its own exchange — operationally, the
/// canonical universal solution of `i` composed with `M'` must admit
/// `i`. `Ok(false)` is a definite counterexample; `Ok(true)` over the
/// samples is evidence (the property is ∀-quantified over instances).
/// The nested chases share `gov`. When a budget or cancellation trips
/// one of them the property is *undecided* — the partial solution says
/// nothing about recovery — so the report is surfaced as `Err` instead
/// of guessing either way.
pub fn is_recovery_witness(
    m: &Mapping,
    candidate: &MaxRecovery,
    samples: &[Instance],
    gov: &Governor,
) -> Result<bool, ExhaustionReport> {
    for i in samples {
        match chase(m, Start::Fresh(i), RunContext::new(gov)) {
            Ok(ChaseOutcome::Complete(res)) => {
                if !candidate.satisfied_by(&res.target, i) {
                    return Ok(false);
                }
            }
            Ok(ChaseOutcome::Exhausted(e)) => return Err(e.report),
            Err(_) => {} // failed exchanges have no solutions to recover
        }
    }
    Ok(true)
}

/// Fagin-non-invertibility witness: two *different* source instances
/// whose canonical universal solutions are homomorphically equivalent
/// (hence with identical solution spaces). If this returns `Ok(true)`,
/// no exact inverse of `m` exists. The two nested chases share `gov`;
/// `Err` carries the exhaustion report when a budget tripped before
/// both canonical solutions were materialized (the witness is then
/// undecided).
pub fn not_invertible_witness(
    m: &Mapping,
    i1: &Instance,
    i2: &Instance,
    gov: &Governor,
) -> Result<bool, ExhaustionReport> {
    if i1 == i2 {
        return Ok(false);
    }
    let mut solutions = Vec::with_capacity(2);
    for i in [i1, i2] {
        match chase(m, Start::Fresh(i), RunContext::new(gov)) {
            Ok(ChaseOutcome::Complete(res)) => solutions.push(res.target),
            Ok(ChaseOutcome::Exhausted(e)) => return Err(e.report),
            Err(_) => return Ok(false),
        }
    }
    Ok(homomorphically_equivalent(&solutions[0], &solutions[1]))
}

#[cfg(test)]
mod tests {
    use super::*;
    use dex_chase::DEFAULT_MAX_ROUNDS;
    use dex_logic::parse_mapping;
    use dex_relational::{tuple, Budget, CancelToken, TripReason};

    /// The round ceiling an unbudgeted [`dex_chase::exchange`] applies.
    fn ceiling() -> Governor {
        Governor::new(Budget::unlimited().with_max_rounds(DEFAULT_MAX_ROUNDS))
    }

    /// A governor whose cancellation has already fired.
    fn cancelled() -> Governor {
        let token = CancelToken::new();
        token.cancel();
        Governor::new(Budget::unlimited()).with_cancel(token)
    }

    fn parents_mapping() -> Mapping {
        parse_mapping(
            r#"
            source Father(p, c);
            source Mother(p, c);
            target Parent(p, c);
            Father(x, y) -> Parent(x, y);
            Mother(x, y) -> Parent(x, y);
            "#,
        )
        .unwrap()
    }

    fn emp_mapping() -> Mapping {
        parse_mapping(
            r#"
            source Emp(name);
            target Manager(emp, mgr);
            Emp(x) -> Manager(x, y);
            "#,
        )
        .unwrap()
    }

    /// Paper Example 3: the maximum recovery is the disjunctive tgd
    /// `Parent(x, y) → Father(x, y) ∨ Mother(x, y)`.
    #[test]
    fn example3_disjunctive_recovery() {
        let rec = maximum_recovery(&parents_mapping()).unwrap();
        assert_eq!(rec.rules.len(), 1);
        assert_eq!(
            rec.rules[0].to_string(),
            "Parent(v0, v1) → Father(v0, v1) ∨ Mother(v0, v1)"
        );
    }

    /// Both I₁ = {Father(Leslie, Alice)} and I₂ = {Mother(Leslie,
    /// Alice)} are equally good solutions under the recovery (paper:
    /// “equally good as solutions for J”).
    #[test]
    fn example3_both_sources_admissible() {
        let m = parents_mapping();
        let rec = maximum_recovery(&m).unwrap();
        let j = Instance::with_facts(
            m.target().clone(),
            vec![("Parent", vec![tuple!["Leslie", "Alice"]])],
        )
        .unwrap();
        let i1 = Instance::with_facts(
            m.source().clone(),
            vec![("Father", vec![tuple!["Leslie", "Alice"]])],
        )
        .unwrap();
        let i2 = Instance::with_facts(
            m.source().clone(),
            vec![("Mother", vec![tuple!["Leslie", "Alice"]])],
        )
        .unwrap();
        assert!(rec.satisfied_by(&j, &i1));
        assert!(rec.satisfied_by(&j, &i2));
        let neither = Instance::empty(m.source().clone());
        assert!(!rec.satisfied_by(&j, &neither));
    }

    /// The recovery property holds on sampled sources.
    #[test]
    fn recovery_property_on_samples() {
        let m = parents_mapping();
        let rec = maximum_recovery(&m).unwrap();
        let samples = vec![
            Instance::empty(m.source().clone()),
            Instance::with_facts(
                m.source().clone(),
                vec![("Father", vec![tuple!["Leslie", "Alice"]])],
            )
            .unwrap(),
            Instance::with_facts(
                m.source().clone(),
                vec![
                    ("Father", vec![tuple!["Leslie", "Alice"]]),
                    (
                        "Mother",
                        vec![tuple!["Robin", "Sam"], tuple!["Robin", "Alex"]],
                    ),
                ],
            )
            .unwrap(),
        ];
        assert_eq!(
            is_recovery_witness(&m, &rec, &samples, &ceiling()),
            Ok(true)
        );
    }

    /// The naive flip (requiring BOTH Father and Mother) is *not* a
    /// recovery — the direction the paper warns against.
    #[test]
    fn naive_flip_is_not_a_recovery() {
        let m = parents_mapping();
        // Flip: Parent(x,y) -> Father(x,y); Parent(x,y) -> Mother(x,y).
        let flip = MaxRecovery {
            rules: vec![
                DisjTgd::new(
                    vec![Atom::vars("Parent", &["x", "y"])],
                    vec![vec![Atom::vars("Father", &["x", "y"])]],
                ),
                DisjTgd::new(
                    vec![Atom::vars("Parent", &["x", "y"])],
                    vec![vec![Atom::vars("Mother", &["x", "y"])]],
                ),
            ],
            source: m.target().clone(),
            target: m.source().clone(),
        };
        let samples = vec![Instance::with_facts(
            m.source().clone(),
            vec![("Father", vec![tuple!["Leslie", "Alice"]])],
        )
        .unwrap()];
        assert_eq!(
            is_recovery_witness(&m, &flip, &samples, &ceiling()),
            Ok(false)
        );
    }

    /// Example 3's mapping is not Fagin-invertible: Father-only and
    /// Mother-only sources are indistinguishable from the target side.
    #[test]
    fn example3_not_invertible() {
        let m = parents_mapping();
        let i1 = Instance::with_facts(
            m.source().clone(),
            vec![("Father", vec![tuple!["Leslie", "Alice"]])],
        )
        .unwrap();
        let i2 = Instance::with_facts(
            m.source().clone(),
            vec![("Mother", vec![tuple!["Leslie", "Alice"]])],
        )
        .unwrap();
        assert_eq!(not_invertible_witness(&m, &i1, &i2, &ceiling()), Ok(true));
    }

    /// Example 1's recovery: `Manager(v0, v1) → Emp(v0)` — the
    /// existential manager is projected away (information loss made
    /// visible).
    #[test]
    fn example1_recovery_projects_existential() {
        let m = emp_mapping();
        let rec = maximum_recovery(&m).unwrap();
        assert_eq!(rec.rules.len(), 1);
        assert_eq!(rec.rules[0].to_string(), "Manager(v0, v1) → Emp(v0)");
        let samples = vec![Instance::with_facts(
            m.source().clone(),
            vec![("Emp", vec![tuple!["Alice"], tuple!["Bob"]])],
        )
        .unwrap()];
        assert_eq!(
            is_recovery_witness(&m, &rec, &samples, &ceiling()),
            Ok(true)
        );
    }

    /// A lossless renaming mapping *is* invertible: the witness test
    /// cannot find equivalent solutions for different sources.
    #[test]
    fn lossless_mapping_distinguishes_sources() {
        let m = parse_mapping(
            r#"
            source A(x, y);
            target B(x, y);
            A(u, v) -> B(u, v);
            "#,
        )
        .unwrap();
        let i1 = Instance::with_facts(m.source().clone(), vec![("A", vec![tuple![1i64, 2i64]])])
            .unwrap();
        let i2 = Instance::with_facts(m.source().clone(), vec![("A", vec![tuple![3i64, 4i64]])])
            .unwrap();
        assert_eq!(not_invertible_witness(&m, &i1, &i2, &ceiling()), Ok(false));
        assert_eq!(
            not_invertible_witness(&m, &i1, &i1, &ceiling()),
            Ok(false),
            "equal instances"
        );
    }

    /// Source-only variables stay existential in the recovery
    /// disjunct.
    #[test]
    fn source_only_vars_become_existential() {
        let m = parse_mapping(
            r#"
            source Person(id, name, age);
            target Names(name);
            Person(i, n, a) -> Names(n);
            "#,
        )
        .unwrap();
        let rec = maximum_recovery(&m).unwrap();
        assert_eq!(
            rec.rules[0].to_string(),
            "Names(v0) → Person(w0_i, v0, w0_a)"
        );
        // Behaviour: any person with that name is an acceptable
        // recovery.
        let j = Instance::with_facts(m.target().clone(), vec![("Names", vec![tuple!["Alice"]])])
            .unwrap();
        let i = Instance::with_facts(
            m.source().clone(),
            vec![("Person", vec![tuple![7i64, "Alice", 30i64]])],
        )
        .unwrap();
        assert!(rec.satisfied_by(&j, &i));
    }

    /// Fragment boundaries are reported, not mis-handled.
    #[test]
    fn unsupported_fragments_rejected() {
        let multi = parse_mapping(
            r#"
            source Takes(name, course);
            target Student(id, name);
            target Assgn(name, course);
            Takes(x, y) -> Student(z, x) & Assgn(x, y);
            "#,
        )
        .unwrap();
        assert!(matches!(
            maximum_recovery(&multi).unwrap_err(),
            OpsError::UnsupportedFragment { .. }
        ));
        let repeated = parse_mapping(
            r#"
            source R(a);
            target S(a, b);
            R(x) -> S(x, x);
            "#,
        )
        .unwrap();
        assert!(matches!(
            maximum_recovery(&repeated).unwrap_err(),
            OpsError::UnsupportedFragment { .. }
        ));
    }

    /// A stopped chase decides nothing: both witnesses answer
    /// "undecided" with the report, never a guessed `false`.
    #[test]
    fn tripped_budget_leaves_witnesses_undecided() {
        let m = parents_mapping();
        let rec = maximum_recovery(&m).unwrap();
        let i1 = Instance::with_facts(
            m.source().clone(),
            vec![("Father", vec![tuple!["Leslie", "Alice"]])],
        )
        .unwrap();
        let i2 = Instance::with_facts(
            m.source().clone(),
            vec![("Mother", vec![tuple!["Leslie", "Alice"]])],
        )
        .unwrap();
        let samples = [i1.clone()];
        let report = is_recovery_witness(&m, &rec, &samples, &cancelled()).unwrap_err();
        assert_eq!(report.reason, TripReason::Cancelled);
        let report = not_invertible_witness(&m, &i1, &i2, &cancelled()).unwrap_err();
        assert_eq!(report.reason, TripReason::Cancelled);
    }
}
