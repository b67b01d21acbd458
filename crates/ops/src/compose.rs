//! Composition of schema mappings (Fagin, Kolaitis, Popa, Tan —
//! “Composing schema mappings: second-order dependencies to the
//! rescue”, the paper's \[12\]).

use crate::error::OpsError;
use dex_logic::{Atom, Mapping, SoClause, SoTgd, StTgd, Term};
use dex_relational::Name;
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

/// The result of composing two mappings `M₁₂ : A → B` and
/// `M₂₃ : B → C`.
#[derive(Clone, Debug)]
pub struct Composition {
    /// The composed dependency, as an SO-tgd from A to C.
    pub sotgd: SoTgd,
    /// If the composition is expressible by plain st-tgds (no function
    /// symbols, no equalities — always the case when `M₁₂` is full),
    /// they are recovered here.
    pub st_tgds: Option<Vec<StTgd>>,
    /// The source (A) schema.
    pub source: dex_relational::Schema,
    /// The target (C) schema.
    pub target: dex_relational::Schema,
}

impl Composition {
    /// Wrap back into a [`Mapping`] when first-order expressible.
    pub fn into_mapping(self) -> Option<Mapping> {
        let tgds = self.st_tgds?;
        Mapping::new(self.source, self.target, tgds).ok()
    }
}

impl fmt::Display for Composition {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.sotgd)
    }
}

/// Compose `m12 : A → B` with `m23 : B → C`.
///
/// Algorithm:
/// 1. Skolemize both mappings into SO-tgds (existential variables
///    become function terms over the frontier).
/// 2. For every clause of the second SO-tgd, replace each premise atom
///    `R(t̄)` (over B) by the body of each first-SO-tgd clause that can
///    produce `R`, adding equalities between `t̄` and the producing
///    atom's arguments. All combinations of producers yield one clause
///    each.
/// 3. Simplify: unify variable–variable equalities; inline
///    `y = f(x̄)` when `y` no longer occurs in premise atoms. What
///    remains are the genuinely second-order constraints — exactly the
///    `x = f(x)` of the paper's Example 2.
/// 4. If the result is function- and equality-free, de-skolemize back
///    to st-tgds (full st-tgds are closed under composition).
/// ```
/// use dex_logic::parse_mapping;
/// use dex_ops::compose;
///
/// let m12 = parse_mapping(
///     "source Emp(name);\ntarget Manager(emp, mgr);\nEmp(x) -> Manager(x, y);",
/// ).unwrap();
/// let m23 = parse_mapping(
///     "source Manager(emp, mgr);\ntarget Boss(emp, mgr);\ntarget SelfMngr(emp);\n\
///      Manager(x, y) -> Boss(x, y);\nManager(x, x) -> SelfMngr(x);",
/// ).unwrap();
/// let comp = compose(&m12, &m23).unwrap();
/// // The paper's Example 2, verbatim:
/// assert_eq!(
///     comp.to_string(),
///     "∃f [ ∀x (Emp(x) → Boss(x, f(x))) ∧ ∀x (Emp(x) ∧ x = f(x) → SelfMngr(x)) ]"
/// );
/// assert!(comp.st_tgds.is_none()); // not first-order expressible
/// ```
pub fn compose(m12: &Mapping, m23: &Mapping) -> Result<Composition, OpsError> {
    if m12.target() != m23.source() {
        return Err(OpsError::SchemaChainMismatch {
            detail: format!(
                "first mapping's target and second mapping's source differ:\n{}\nvs\n{}",
                m12.target(),
                m23.source()
            ),
        });
    }
    if m12.has_target_deps() || m23.has_target_deps() {
        return Err(OpsError::UnsupportedFragment {
            operator: "compose",
            reason: "composition is defined here for st-tgd-only mappings \
                     (no target dependencies)"
                .into(),
        });
    }

    let so12 = m12.to_sotgd();
    let mut so23 = m23.to_sotgd();

    // Avoid function-symbol collisions: rename σ23's functions.
    let taken: BTreeSet<Name> = so12.functions.iter().map(|(n, _)| n.clone()).collect();
    let renames: BTreeMap<Name, Name> = so23
        .functions
        .iter()
        .filter(|(n, _)| taken.contains(n))
        .map(|(n, _)| (n.clone(), Name::new(format!("{n}_2"))))
        .collect();
    if !renames.is_empty() {
        so23 = rename_functions(&so23, &renames);
    }

    let mut out_clauses: Vec<SoClause> = Vec::new();
    for clause in &so23.clauses {
        // Producers for each premise atom.
        let mut producer_sets: Vec<Vec<(usize, usize)>> = Vec::new();
        let mut feasible = true;
        for atom in &clause.lhs_atoms {
            let mut producers = Vec::new();
            for (ci, c12) in so12.clauses.iter().enumerate() {
                for (ai, ratom) in c12.rhs_atoms.iter().enumerate() {
                    if ratom.relation == atom.relation {
                        producers.push((ci, ai));
                    }
                }
            }
            if producers.is_empty() {
                feasible = false;
                break;
            }
            producer_sets.push(producers);
        }
        if !feasible {
            continue; // premise can never be satisfied; clause vacuous
        }
        // Cartesian product of producer choices.
        let mut choices: Vec<Vec<(usize, usize)>> = vec![vec![]];
        for ps in &producer_sets {
            let mut next = Vec::with_capacity(choices.len() * ps.len());
            for ch in &choices {
                for p in ps {
                    let mut c2 = ch.clone();
                    c2.push(*p);
                    next.push(c2);
                }
            }
            choices = next;
        }
        for choice in choices {
            let mut lhs_atoms: Vec<Atom> = Vec::new();
            let mut eqs: Vec<(Term, Term)> = clause.lhs_eqs.clone();
            for (bi, (ci, ai)) in choice.iter().enumerate() {
                let prefix = format!("u{bi}_");
                let c12 = &so12.clauses[*ci];
                for a in &c12.lhs_atoms {
                    lhs_atoms.push(a.prefix_vars(&prefix));
                }
                for (l, r) in &c12.lhs_eqs {
                    eqs.push((l.prefix_vars(&prefix), r.prefix_vars(&prefix)));
                }
                let produced = c12.rhs_atoms[*ai].prefix_vars(&prefix);
                let consumer = &clause.lhs_atoms[bi];
                for (t, s) in consumer.args.iter().zip(produced.args.iter()) {
                    if t != s {
                        eqs.push((t.clone(), s.clone()));
                    }
                }
            }
            let mut new_clause = SoClause::new(lhs_atoms, eqs, clause.rhs_atoms.clone());
            simplify_clause(&mut new_clause);
            out_clauses.push(new_clause);
        }
    }

    // Deduplicate identical clauses.
    let mut seen = BTreeSet::new();
    out_clauses.retain(|c| seen.insert(format!("{c}")));

    // Function symbols actually used.
    let mut used: BTreeSet<Name> = BTreeSet::new();
    for c in &out_clauses {
        for a in c.lhs_atoms.iter().chain(c.rhs_atoms.iter()) {
            for t in &a.args {
                collect_fn_names(t, &mut used);
            }
        }
        for (l, r) in &c.lhs_eqs {
            collect_fn_names(l, &mut used);
            collect_fn_names(r, &mut used);
        }
    }
    let functions: Vec<(Name, usize)> = so12
        .functions
        .iter()
        .chain(so23.functions.iter())
        .filter(|(n, _)| used.contains(n))
        .cloned()
        .collect();

    let sotgd = SoTgd::new(functions, out_clauses);
    let st_tgds = sotgd.try_into_st_tgds();
    Ok(Composition {
        sotgd,
        st_tgds,
        source: m12.source().clone(),
        target: m23.target().clone(),
    })
}

fn collect_fn_names(t: &Term, out: &mut BTreeSet<Name>) {
    if let Term::Func(f, args) = t {
        out.insert(f.clone());
        for a in args {
            collect_fn_names(a, out);
        }
    }
}

fn rename_functions(so: &SoTgd, renames: &BTreeMap<Name, Name>) -> SoTgd {
    fn go(t: &Term, renames: &BTreeMap<Name, Name>) -> Term {
        match t {
            Term::Func(f, args) => Term::Func(
                renames.get(f).cloned().unwrap_or_else(|| f.clone()),
                args.iter().map(|a| go(a, renames)).collect(),
            ),
            other => other.clone(),
        }
    }
    SoTgd::new(
        so.functions
            .iter()
            .map(|(n, k)| (renames.get(n).cloned().unwrap_or_else(|| n.clone()), *k))
            .collect(),
        so.clauses
            .iter()
            .map(|c| {
                SoClause::new(
                    c.lhs_atoms
                        .iter()
                        .map(|a| {
                            Atom::new(
                                a.relation.clone(),
                                a.args.iter().map(|t| go(t, renames)).collect(),
                            )
                        })
                        .collect(),
                    c.lhs_eqs
                        .iter()
                        .map(|(l, r)| (go(l, renames), go(r, renames)))
                        .collect(),
                    c.rhs_atoms
                        .iter()
                        .map(|a| {
                            Atom::new(
                                a.relation.clone(),
                                a.args.iter().map(|t| go(t, renames)).collect(),
                            )
                        })
                        .collect(),
                )
            })
            .collect(),
    )
}

/// In-place logical simplification of one clause (see [`compose`] step
/// 3).
fn simplify_clause(clause: &mut SoClause) {
    loop {
        let mut changed = false;

        // Drop trivial equalities.
        let before = clause.lhs_eqs.len();
        clause.lhs_eqs.retain(|(l, r)| l != r);
        if clause.lhs_eqs.len() != before {
            changed = true;
        }

        // Find a variable–variable equality to unify, preferring to
        // keep the non-prefixed (consumer-side) variable.
        let mut subst: Option<(Name, Term)> = None;
        for (l, r) in &clause.lhs_eqs {
            match (l, r) {
                (Term::Var(a), Term::Var(b)) => {
                    // Replace the "fresher" one (heuristic: longer name
                    // from prefixing) by the other.
                    if b.as_str().len() >= a.as_str().len() {
                        subst = Some((b.clone(), Term::Var(a.clone())));
                    } else {
                        subst = Some((a.clone(), Term::Var(b.clone())));
                    }
                    break;
                }
                _ => continue,
            }
        }
        // Otherwise: inline var = term when the var no longer occurs in
        // premise atoms (so matching semantics are unaffected).
        if subst.is_none() {
            let lhs_vars: BTreeSet<Name> = {
                let mut vs = Vec::new();
                for a in &clause.lhs_atoms {
                    a.collect_vars(&mut vs);
                }
                vs.into_iter().collect()
            };
            for (l, r) in &clause.lhs_eqs {
                match (l, r) {
                    (Term::Var(y), t)
                        if !lhs_vars.contains(y.as_str()) && !term_mentions_var(t, y) =>
                    {
                        subst = Some((y.clone(), t.clone()));
                        break;
                    }
                    (t, Term::Var(y))
                        if !lhs_vars.contains(y.as_str()) && !term_mentions_var(t, y) =>
                    {
                        subst = Some((y.clone(), t.clone()));
                        break;
                    }
                    _ => continue,
                }
            }
        }

        if let Some((var, replacement)) = subst {
            let mut map = BTreeMap::new();
            map.insert(var, replacement);
            for a in clause.lhs_atoms.iter_mut() {
                *a = a.substitute(&map);
            }
            for a in clause.rhs_atoms.iter_mut() {
                *a = a.substitute(&map);
            }
            for (l, r) in clause.lhs_eqs.iter_mut() {
                *l = l.substitute(&map);
                *r = r.substitute(&map);
            }
            changed = true;
        }

        if !changed {
            break;
        }
    }
    // Deduplicate premise atoms and equalities.
    let mut seen = BTreeSet::new();
    clause.lhs_atoms.retain(|a| seen.insert(a.clone()));
    let mut seen_eq = BTreeSet::new();
    clause.lhs_eqs.retain(|e| seen_eq.insert(e.clone()));
}

fn term_mentions_var(t: &Term, v: &Name) -> bool {
    match t {
        Term::Var(x) => x == v,
        Term::Const(_) => false,
        Term::Func(_, args) => args.iter().any(|a| term_mentions_var(a, v)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dex_chase::{exchange, so_exchange, Governor};
    use dex_logic::parse_mapping;
    use dex_relational::homomorphism::homomorphically_equivalent;
    use dex_relational::{tuple, Instance};

    fn m12() -> Mapping {
        parse_mapping(
            r#"
            source Emp(name);
            target Manager(emp, mgr);
            Emp(x) -> Manager(x, y);
            "#,
        )
        .unwrap()
    }

    fn m23() -> Mapping {
        parse_mapping(
            r#"
            source Manager(emp, mgr);
            target Boss(emp, mgr);
            target SelfMngr(emp);
            Manager(x, y) -> Boss(x, y);
            Manager(x, x) -> SelfMngr(x);
            "#,
        )
        .unwrap()
    }

    /// Paper Example 2, verbatim: the composition is the SO-tgd
    /// `∃f [ ∀x (Emp(x) → Boss(x, f(x))) ∧ ∀x (Emp(x) ∧ x = f(x) → SelfMngr(x)) ]`.
    #[test]
    fn example2_composition_matches_paper() {
        let comp = compose(&m12(), &m23()).unwrap();
        assert_eq!(
            comp.to_string(),
            "∃f [ ∀x (Emp(x) → Boss(x, f(x))) ∧ ∀x (Emp(x) ∧ x = f(x) → SelfMngr(x)) ]"
        );
        assert!(
            comp.st_tgds.is_none(),
            "Example 2's composition is not first-order (paper: “not even in first-order logic”)"
        );
    }

    /// Operational correctness: chasing the composed SO-tgd equals
    /// chasing the two mappings in sequence (up to homomorphic
    /// equivalence).
    #[test]
    fn composition_chase_agrees_with_sequential_chase() {
        let comp = compose(&m12(), &m23()).unwrap();
        let src = Instance::with_facts(
            m12().source().clone(),
            vec![("Emp", vec![tuple!["Alice"], tuple!["Bob"]])],
        )
        .unwrap();
        // Sequential: chase m12, then m23 (its source facts are the
        // intermediate instance).
        let j = exchange(&m12(), &src).unwrap().target;
        let k_seq = exchange(&m23(), &j).unwrap().target;
        // Direct: chase the composed SO-tgd.
        let k_direct = so_exchange(&comp.sotgd, m23().target(), &src, &Governor::unlimited())
            .unwrap()
            .into_result()
            .unwrap();
        assert!(
            homomorphically_equivalent(&k_seq, &k_direct),
            "sequential:\n{k_seq}\ndirect:\n{k_direct}"
        );
    }

    /// Semantic correctness on concrete pairs: the bounded checker
    /// accepts (I, K) pairs that admit an intermediate J, and rejects
    /// pairs that do not.
    #[test]
    fn composition_semantics_bounded() {
        let comp = compose(&m12(), &m23()).unwrap();
        let src =
            Instance::with_facts(m12().source().clone(), vec![("Emp", vec![tuple!["Alice"]])])
                .unwrap();
        let c_schema = m23().target().clone();
        // Alice gets some boss (Ted): fine without SelfMngr.
        let ok = Instance::with_facts(
            c_schema.clone(),
            vec![("Boss", vec![tuple!["Alice", "Ted"]])],
        )
        .unwrap();
        assert!(comp.sotgd.satisfied_by_bounded(&src, &ok));
        // Alice bosses herself but SelfMngr missing: rejected.
        let bad = Instance::with_facts(
            c_schema.clone(),
            vec![("Boss", vec![tuple!["Alice", "Alice"]])],
        )
        .unwrap();
        assert!(!comp.sotgd.satisfied_by_bounded(&src, &bad));
        // Empty target: clause 1 unsatisfiable.
        assert!(!comp
            .sotgd
            .satisfied_by_bounded(&src, &Instance::empty(c_schema)));
    }

    /// Full st-tgds are closed under composition (Fagin et al., cited
    /// in paper §2): composing two full mappings yields st-tgds again.
    #[test]
    fn full_mappings_compose_to_st_tgds() {
        let a2b = parse_mapping(
            r#"
            source Father(p, c);
            source Mother(p, c);
            target Parent(p, c);
            Father(x, y) -> Parent(x, y);
            Mother(x, y) -> Parent(x, y);
            "#,
        )
        .unwrap();
        let b2c = parse_mapping(
            r#"
            source Parent(p, c);
            target Ancestor(a, d);
            Parent(x, y) -> Ancestor(x, y);
            "#,
        )
        .unwrap();
        let comp = compose(&a2b, &b2c).unwrap();
        let tgds = comp
            .st_tgds
            .clone()
            .expect("full mappings stay first-order");
        assert_eq!(tgds.len(), 2);
        let m = comp.into_mapping().unwrap();
        // Behaviour check.
        let src = Instance::with_facts(
            a2b.source().clone(),
            vec![
                ("Father", vec![tuple!["Leslie", "Alice"]]),
                ("Mother", vec![tuple!["Robin", "Sam"]]),
            ],
        )
        .unwrap();
        let k = exchange(&m, &src).unwrap().target;
        assert!(k.contains("Ancestor", &tuple!["Leslie", "Alice"]));
        assert!(k.contains("Ancestor", &tuple!["Robin", "Sam"]));
        assert_eq!(k.fact_count(), 2);
    }

    /// Composition with a joining second mapping: premises with two
    /// atoms take all producer combinations.
    #[test]
    fn composition_with_join_premise() {
        let a2b = parse_mapping(
            r#"
            source R(a, b);
            target S(a, b);
            R(x, y) -> S(x, y);
            "#,
        )
        .unwrap();
        let b2c = parse_mapping(
            r#"
            source S(a, b);
            target T(a, c);
            S(x, y) & S(y, z) -> T(x, z);
            "#,
        )
        .unwrap();
        let comp = compose(&a2b, &b2c).unwrap();
        let m = comp.into_mapping().expect("full, stays first-order");
        let src = Instance::with_facts(
            a2b.source().clone(),
            vec![("R", vec![tuple![1i64, 2i64], tuple![2i64, 3i64]])],
        )
        .unwrap();
        let k = exchange(&m, &src).unwrap().target;
        assert!(k.contains("T", &tuple![1i64, 3i64]));
        assert!(!k.contains("T", &tuple![2i64, 2i64]));
    }

    #[test]
    fn schema_chain_mismatch_rejected() {
        let err = compose(&m23(), &m12()).unwrap_err();
        assert!(matches!(err, OpsError::SchemaChainMismatch { .. }));
    }

    /// A premise relation never produced by the first mapping makes the
    /// clause vacuous — it is dropped rather than miscompiled.
    #[test]
    fn unproducible_premise_clause_dropped() {
        let a2b = parse_mapping(
            r#"
            source R(a);
            target S(a);
            target Unused(a);
            R(x) -> S(x);
            "#,
        )
        .unwrap();
        let b2c = parse_mapping(
            r#"
            source S(a);
            source Unused(a);
            target T(a);
            target W(a);
            S(x) -> T(x);
            Unused(x) -> W(x);
            "#,
        )
        .unwrap();
        let comp = compose(&a2b, &b2c).unwrap();
        let tgds = comp.st_tgds.unwrap();
        assert_eq!(tgds.len(), 1, "the Unused→W clause is vacuous");
        assert_eq!(tgds[0].rhs[0].relation, "T");
    }

    /// Triple chain: compose twice (associativity smoke test at the
    /// behavioural level).
    #[test]
    fn triple_chain_composes() {
        let ab = parse_mapping("source A(x);\ntarget B(x);\nA(v) -> B(v);").unwrap();
        let bc = parse_mapping("source B(x);\ntarget C(x);\nB(v) -> C(v);").unwrap();
        let cd = parse_mapping("source C(x);\ntarget D(x);\nC(v) -> D(v);").unwrap();
        let ab_bc = compose(&ab, &bc).unwrap().into_mapping().unwrap();
        let abc_cd = compose(&ab_bc, &cd).unwrap().into_mapping().unwrap();
        let src =
            Instance::with_facts(ab.source().clone(), vec![("A", vec![tuple!["v"]])]).unwrap();
        let out = exchange(&abc_cd, &src).unwrap().target;
        assert!(out.contains("D", &tuple!["v"]));
    }
}
