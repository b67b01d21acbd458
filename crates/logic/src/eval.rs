//! Conjunctive-formula matching over instances.
//!
//! This is the workhorse shared by satisfaction checking and the chase:
//! find every valuation of the variables of a conjunction of atoms that
//! makes all atoms facts of the instance.
//!
//! Two matching modes are supported. [`MatchMode::Indexed`] (the
//! default) probes each relation's lazily built per-position hash
//! indexes on whichever bound position has the shortest posting list,
//! so a tuple is only visited if it agrees with the valuation on that
//! position. [`MatchMode::Scan`] visits every tuple of the relation.
//! Both modes pick atoms in the same greedy order and enumerate
//! candidates in canonical tuple order, so they produce identical
//! match lists; `Scan` is kept as a correctness oracle.
//!
//! Backtracking binds and unbinds variables in a single valuation
//! (with an undo log) instead of cloning the valuation per candidate
//! tuple.

use crate::atom::Atom;
use crate::term::Term;
use dex_relational::{Instance, Name, Relation, Tuple, TupleId, Value};
use std::collections::BTreeMap;

/// A variable assignment.
pub type Valuation = BTreeMap<Name, Value>;

/// How candidate tuples are located during matching.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum MatchMode {
    /// Probe per-position hash indexes on bound positions.
    #[default]
    Indexed,
    /// Scan every tuple of the candidate relation (oracle).
    Scan,
}

/// All valuations satisfying the conjunction in `inst`.
pub fn match_conjunction(atoms: &[Atom], inst: &Instance) -> Vec<Valuation> {
    match_conjunction_mode(atoms, inst, MatchMode::default())
}

/// [`match_conjunction`] with an explicit matching mode.
pub fn match_conjunction_mode(atoms: &[Atom], inst: &Instance, mode: MatchMode) -> Vec<Valuation> {
    extend_matches_mode(atoms, inst, &Valuation::new(), mode)
}

/// All extensions of `partial` satisfying the conjunction in `inst`.
///
/// Atoms are matched in an order chosen greedily: at each step the atom
/// with the most already-bound variables (ties broken by smaller
/// candidate relation) is matched next, which keeps the join tree
/// selective.
pub fn extend_matches(atoms: &[Atom], inst: &Instance, partial: &Valuation) -> Vec<Valuation> {
    extend_matches_mode(atoms, inst, partial, MatchMode::default())
}

/// [`extend_matches`] with an explicit matching mode.
pub fn extend_matches_mode(
    atoms: &[Atom],
    inst: &Instance,
    partial: &Valuation,
    mode: MatchMode,
) -> Vec<Valuation> {
    let mut out = Vec::new();
    let mut remaining: Vec<&Atom> = atoms.iter().collect();
    let mut v = partial.clone();
    let mut undo = Vec::new();
    search(&mut remaining, inst, &mut v, &mut undo, mode, &mut |m| {
        out.push(m.clone());
        false
    });
    out
}

/// Stream every extension of `partial` satisfying the conjunction to
/// `emit`; returning `true` from `emit` stops the enumeration early.
/// Returns whether the enumeration was stopped.
///
/// This is the streaming primitive behind [`extend_matches_mode`] and
/// [`has_match_mode`]. Governed callers use it to check resource
/// budgets between matches without materializing the full match set
/// first.
pub fn for_each_match_mode(
    atoms: &[Atom],
    inst: &Instance,
    partial: &Valuation,
    mode: MatchMode,
    emit: &mut dyn FnMut(&Valuation) -> bool,
) -> bool {
    let mut remaining: Vec<&Atom> = atoms.iter().collect();
    let mut v = partial.clone();
    let mut undo = Vec::new();
    search(&mut remaining, inst, &mut v, &mut undo, mode, emit)
}

/// Does at least one extension of `partial` satisfy the conjunction?
/// Stops at the first witness.
pub fn has_match(atoms: &[Atom], inst: &Instance, partial: &Valuation) -> bool {
    has_match_mode(atoms, inst, partial, MatchMode::default())
}

/// [`has_match`] with an explicit matching mode.
pub fn has_match_mode(
    atoms: &[Atom],
    inst: &Instance,
    partial: &Valuation,
    mode: MatchMode,
) -> bool {
    let mut remaining: Vec<&Atom> = atoms.iter().collect();
    let mut v = partial.clone();
    let mut undo = Vec::new();
    search(&mut remaining, inst, &mut v, &mut undo, mode, &mut |_| true)
}

/// Extend `partial` so that `atom` matches `tuple` exactly. Returns
/// the extended valuation, or `None` on mismatch. This is the seeding
/// step of semi-naive (delta-driven) evaluation: pin one atom to a
/// delta tuple, then [`extend_matches_mode`] the rest.
pub fn unify_with_tuple(atom: &Atom, tuple: &Tuple, partial: &Valuation) -> Option<Valuation> {
    if atom.arity() != tuple.arity() {
        return None;
    }
    let mut v = partial.clone();
    let mut undo = Vec::new();
    if unify_atom(atom, tuple, &mut v, &mut undo) {
        Some(v)
    } else {
        None
    }
}

/// One step of a static premise-matching plan: which atom the greedy
/// optimizer matches next, which of its positions are index-probable at
/// that point, and which variables it newly binds.
#[derive(Clone, Debug, PartialEq, Eq, serde::Serialize)]
pub struct PremiseStep {
    /// Index of the atom in the original conjunction.
    pub atom: usize,
    /// Positions whose term is already determined when this atom is
    /// matched (a constant, a bound variable, or a function term over
    /// bound variables). The runtime probes whichever of these has the
    /// shortest posting list; an empty list means a full relation scan.
    pub probe_positions: Vec<usize>,
    /// Variables first bound by matching this atom, in argument order.
    pub binds: Vec<Name>,
}

/// A static premise plan: the greedy atom order of [`extend_matches`]
/// replayed without instance statistics.
#[derive(Clone, Debug, Default, PartialEq, Eq, serde::Serialize)]
pub struct PremisePlan {
    /// Planned matching steps, one per atom of the conjunction.
    pub steps: Vec<PremiseStep>,
}

impl PremiseStep {
    /// Does this step fall back to a full relation scan?
    pub fn is_scan(&self) -> bool {
        self.probe_positions.is_empty()
    }
}

/// Compute the static premise plan for `atoms`: the atom order the
/// greedy optimizer in [`extend_matches`] would choose when every
/// relation has the same size (fewest unbound variables first, earlier
/// atom on ties), and for each step the positions that are
/// index-probable given the variables bound so far. `pre_bound` lists
/// variables bound before matching starts — e.g. by semi-naive delta
/// seeding ([`unify_with_tuple`]) or an `extend_matches` partial
/// valuation.
///
/// This is a size-agnostic approximation of the runtime order: at run
/// time ties (and near-ties) are broken by live relation cardinality,
/// so two atoms with equally many unbound variables may swap. The probe
/// positions are exact — determinedness depends only on the binding
/// order, not on the data.
pub fn premise_plan(atoms: &[Atom], pre_bound: &[Name]) -> PremisePlan {
    let mut bound: Vec<Name> = pre_bound.to_vec();
    // Mirror `search`: `remaining` shrinks by swap_remove, and the
    // greedy score is (unbound-vars, relation-size) with strict `<`,
    // so with sizes unknown the earliest minimum wins.
    let mut remaining: Vec<(usize, &Atom)> = atoms.iter().enumerate().collect();
    let mut steps = Vec::with_capacity(atoms.len());
    while !remaining.is_empty() {
        let unbound_count = |a: &Atom| a.variables().iter().filter(|x| !bound.contains(x)).count();
        let mut best = 0;
        let mut best_score = unbound_count(remaining[0].1);
        for (i, (_, a)) in remaining.iter().enumerate().skip(1) {
            let s = unbound_count(a);
            if s < best_score {
                best = i;
                best_score = s;
            }
        }
        let (atom_idx, atom) = remaining.swap_remove(best);
        let determined = |t: &Term| {
            let mut vars = Vec::new();
            t.collect_vars(&mut vars);
            match t {
                Term::Var(v) => bound.contains(v),
                Term::Const(_) => true,
                Term::Func(..) => vars.iter().all(|v| bound.contains(v)),
            }
        };
        let probe_positions = atom
            .args
            .iter()
            .enumerate()
            .filter(|(_, t)| determined(t))
            .map(|(pos, _)| pos)
            .collect();
        let mut binds = Vec::new();
        for v in atom.variables() {
            if !bound.contains(&v) && !binds.contains(&v) {
                binds.push(v);
            }
        }
        bound.extend(binds.iter().cloned());
        steps.push(PremiseStep {
            atom: atom_idx,
            probe_positions,
            binds,
        });
    }
    PremisePlan { steps }
}

fn pick_next(remaining: &[&Atom], inst: &Instance, v: &Valuation) -> Option<usize> {
    if remaining.is_empty() {
        return None;
    }
    let score = |a: &Atom| -> (usize, usize) {
        let bound = a
            .variables()
            .iter()
            .filter(|x| v.contains_key(x.as_str()))
            .count();
        let unbound = a.variables().len() - bound;
        let size = inst
            .relation(a.relation.as_str())
            .map(|r| r.len())
            .unwrap_or(0);
        (unbound, size)
    };
    let mut best = 0;
    let mut best_score = score(remaining[0]);
    for (i, a) in remaining.iter().enumerate().skip(1) {
        let s = score(a);
        if s < best_score {
            best = i;
            best_score = s;
        }
    }
    Some(best)
}

/// The shortest index probe available for `atom` under `v`: among the
/// positions whose term is already determined (a constant, a bound
/// variable, or an evaluable function term), probe the one with the
/// fewest matching tuples. `None` if no position is determined. The
/// probe yields tuple *ids*; candidates are unified by reading the
/// relation's columns in place.
fn best_probe(atom: &Atom, rel: &Relation, v: &Valuation) -> Option<Vec<TupleId>> {
    let bound: Vec<(usize, Value)> = atom
        .args
        .iter()
        .enumerate()
        .filter_map(|(pos, term)| term.eval(v).map(|val| (pos, val)))
        .collect();
    let (pos, val) = bound
        .iter()
        .min_by_key(|(pos, val)| rel.posting_len(*pos, val))?;
    Some(rel.probe_ids(*pos, val))
}

/// Depth-first join search. `emit` is called on every complete match;
/// returning `true` stops the search (used by `has_match`). Returns
/// whether the search was stopped.
fn search(
    remaining: &mut Vec<&Atom>,
    inst: &Instance,
    v: &mut Valuation,
    undo: &mut Vec<Name>,
    mode: MatchMode,
    emit: &mut dyn FnMut(&Valuation) -> bool,
) -> bool {
    let Some(idx) = pick_next(remaining, inst, v) else {
        return emit(v);
    };
    let atom = remaining.swap_remove(idx);
    let stopped = match inst.relation(atom.relation.as_str()) {
        None => false,
        Some(rel) => {
            let probe = match mode {
                MatchMode::Indexed => best_probe(atom, rel, v),
                MatchMode::Scan => None,
            };
            match probe {
                Some(ids) => try_candidates(rel, &ids, atom, remaining, inst, v, undo, mode, emit),
                None => {
                    // Full scan (no determined position, or oracle
                    // mode): all live rows in canonical order.
                    let ids = rel.row_ids();
                    try_candidates(rel, &ids, atom, remaining, inst, v, undo, mode, emit)
                }
            }
        }
    };
    remaining.push(atom);
    stopped
}

#[allow(clippy::too_many_arguments)]
fn try_candidates(
    rel: &Relation,
    candidates: &[TupleId],
    atom: &Atom,
    remaining: &mut Vec<&Atom>,
    inst: &Instance,
    v: &mut Valuation,
    undo: &mut Vec<Name>,
    mode: MatchMode,
    emit: &mut dyn FnMut(&Valuation) -> bool,
) -> bool {
    for &id in candidates {
        let mark = undo.len();
        if unify_row(atom, rel, id, v, undo) && search(remaining, inst, v, undo, mode, emit) {
            rollback(v, undo, mark);
            return true;
        }
        rollback(v, undo, mark);
    }
    false
}

/// Unbind every variable bound after `mark`.
fn rollback(v: &mut Valuation, undo: &mut Vec<Name>, mark: usize) {
    for name in undo.drain(mark..) {
        v.remove(name.as_str());
    }
}

/// Unify one atom's terms against a tuple, extending `v` and recording
/// fresh bindings in `undo`. Returns `false` on mismatch; the caller
/// rolls back to its mark either way.
fn unify_atom(atom: &Atom, tuple: &Tuple, v: &mut Valuation, undo: &mut Vec<Name>) -> bool {
    debug_assert_eq!(atom.arity(), tuple.arity());
    for (term, val) in atom.args.iter().zip(tuple.iter()) {
        if !unify_term(term, val, v, undo) {
            return false;
        }
    }
    true
}

/// Like [`unify_atom`] against the arena row `id` of `rel`, reading
/// each position straight out of the column store — the matcher's hot
/// path never materializes candidate rows.
fn unify_row(
    atom: &Atom,
    rel: &Relation,
    id: TupleId,
    v: &mut Valuation,
    undo: &mut Vec<Name>,
) -> bool {
    for (col, term) in atom.args.iter().enumerate() {
        if !unify_term(term, rel.value_at(id, col), v, undo) {
            return false;
        }
    }
    true
}

fn unify_term(term: &Term, val: &Value, v: &mut Valuation, undo: &mut Vec<Name>) -> bool {
    match term {
        Term::Var(x) => match v.get(x.as_str()) {
            Some(bound) => bound == val,
            None => {
                v.insert(x.clone(), val.clone());
                undo.push(x.clone());
                true
            }
        },
        Term::Const(c) => matches!(val, Value::Const(vc) if vc == c),
        Term::Func(_, _) => {
            // Function terms match only if fully evaluable under the
            // current valuation, by syntactic equality.
            match term.eval(v) {
                Some(ev) => &ev == val,
                None => false,
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dex_relational::{tuple, RelSchema, Schema};

    fn db() -> Instance {
        let schema = Schema::with_relations(vec![
            RelSchema::untyped("Student", vec!["id", "name"]).unwrap(),
            RelSchema::untyped("Assgn", vec!["name", "course"]).unwrap(),
        ])
        .unwrap();
        Instance::with_facts(
            schema,
            vec![
                ("Student", vec![tuple![1i64, "Alice"], tuple![2i64, "Bob"]]),
                (
                    "Assgn",
                    vec![
                        tuple!["Alice", "DB"],
                        tuple!["Alice", "PL"],
                        tuple!["Bob", "DB"],
                    ],
                ),
            ],
        )
        .unwrap()
    }

    #[test]
    fn single_atom_all_matches() {
        let ms = match_conjunction(&[Atom::vars("Student", &["i", "n"])], &db());
        assert_eq!(ms.len(), 2);
    }

    #[test]
    fn join_via_shared_variable() {
        // Student(i, n) ∧ Assgn(n, c): 3 joined rows.
        let atoms = vec![
            Atom::vars("Student", &["i", "n"]),
            Atom::vars("Assgn", &["n", "c"]),
        ];
        let ms = match_conjunction(&atoms, &db());
        assert_eq!(ms.len(), 3);
        assert!(ms.iter().all(|m| m.len() == 3));
    }

    #[test]
    fn constants_filter() {
        let atoms = vec![Atom::new("Assgn", vec![Term::var("n"), Term::cnst("DB")])];
        let ms = match_conjunction(&atoms, &db());
        assert_eq!(ms.len(), 2);
    }

    #[test]
    fn repeated_variable_requires_equal_values() {
        // Assgn(x, x): no row has name == course.
        let atoms = vec![Atom::vars("Assgn", &["x", "x"])];
        assert!(match_conjunction(&atoms, &db()).is_empty());
    }

    #[test]
    fn partial_valuation_restricts() {
        let mut partial = Valuation::new();
        partial.insert(Name::new("n"), Value::str("Alice"));
        let ms = extend_matches(&[Atom::vars("Assgn", &["n", "c"])], &db(), &partial);
        assert_eq!(ms.len(), 2);
        assert!(ms.iter().all(|m| m["n"] == Value::str("Alice")));
    }

    #[test]
    fn has_match_early_exit_agrees() {
        let atoms = vec![
            Atom::vars("Student", &["i", "n"]),
            Atom::vars("Assgn", &["n", "c"]),
        ];
        assert!(has_match(&atoms, &db(), &Valuation::new()));
        let none = vec![Atom::new(
            "Student",
            vec![Term::var("i"), Term::cnst("Zed")],
        )];
        assert!(!has_match(&none, &db(), &Valuation::new()));
    }

    #[test]
    fn indexed_and_scan_agree_exactly() {
        // Same matches in the same order, across shapes: single atom,
        // join, constants, repeated vars, cartesian.
        let cases: Vec<Vec<Atom>> = vec![
            vec![Atom::vars("Student", &["i", "n"])],
            vec![
                Atom::vars("Student", &["i", "n"]),
                Atom::vars("Assgn", &["n", "c"]),
            ],
            vec![Atom::new("Assgn", vec![Term::var("n"), Term::cnst("DB")])],
            vec![Atom::vars("Assgn", &["x", "x"])],
            vec![
                Atom::vars("Student", &["i", "n"]),
                Atom::vars("Assgn", &["m", "c"]),
            ],
        ];
        for atoms in cases {
            let indexed = match_conjunction_mode(&atoms, &db(), MatchMode::Indexed);
            let scan = match_conjunction_mode(&atoms, &db(), MatchMode::Scan);
            assert_eq!(indexed, scan, "atoms: {atoms:?}");
            assert_eq!(
                has_match_mode(&atoms, &db(), &Valuation::new(), MatchMode::Indexed),
                has_match_mode(&atoms, &db(), &Valuation::new(), MatchMode::Scan),
            );
        }
    }

    #[test]
    fn empty_conjunction_matches_once() {
        let ms = match_conjunction(&[], &db());
        assert_eq!(ms.len(), 1);
        assert!(ms[0].is_empty());
    }

    #[test]
    fn unknown_relation_no_match() {
        let ms = match_conjunction(&[Atom::vars("Nope", &["x"])], &db());
        assert!(ms.is_empty());
    }

    #[test]
    fn cartesian_when_no_shared_vars() {
        let atoms = vec![
            Atom::vars("Student", &["i", "n"]),
            Atom::vars("Assgn", &["m", "c"]),
        ];
        let ms = match_conjunction(&atoms, &db());
        assert_eq!(ms.len(), 6);
    }

    #[test]
    fn premise_plan_orders_by_unbound_vars() {
        // Emp(x) has one unbound var, Manager(x, y) two: Emp first,
        // after which Manager's first position is probable.
        let atoms = vec![
            Atom::vars("Manager", &["x", "y"]),
            Atom::vars("Emp", &["x"]),
        ];
        let plan = premise_plan(&atoms, &[]);
        assert_eq!(plan.steps.len(), 2);
        assert_eq!(plan.steps[0].atom, 1);
        assert!(plan.steps[0].is_scan());
        assert_eq!(plan.steps[0].binds, vec![Name::new("x")]);
        assert_eq!(plan.steps[1].atom, 0);
        assert_eq!(plan.steps[1].probe_positions, vec![0]);
        assert_eq!(plan.steps[1].binds, vec![Name::new("y")]);
    }

    #[test]
    fn premise_plan_constants_and_prebound_probe() {
        // Assgn(n, "DB") with n pre-bound: both positions determined.
        let atoms = vec![Atom::new("Assgn", vec![Term::var("n"), Term::cnst("DB")])];
        let plan = premise_plan(&atoms, &[Name::new("n")]);
        assert_eq!(plan.steps[0].probe_positions, vec![0, 1]);
        assert!(plan.steps[0].binds.is_empty());
        // Without the pre-binding only the constant is determined.
        let cold = premise_plan(&atoms, &[]);
        assert_eq!(cold.steps[0].probe_positions, vec![1]);
        assert_eq!(cold.steps[0].binds, vec![Name::new("n")]);
    }

    #[test]
    fn premise_plan_function_term_determined_when_args_bound() {
        let atoms = vec![
            Atom::vars("Emp", &["x"]),
            Atom::new(
                "Boss",
                vec![Term::var("x"), Term::func("f", vec![Term::var("x")])],
            ),
        ];
        let plan = premise_plan(&atoms, &[]);
        assert_eq!(plan.steps[1].atom, 1);
        // x bound by Emp, so both Boss positions (var + skolem) probe.
        assert_eq!(plan.steps[1].probe_positions, vec![0, 1]);
    }

    #[test]
    fn function_term_matches_by_evaluation() {
        use dex_relational::Tuple;
        let schema =
            Schema::with_relations(vec![RelSchema::untyped("Boss", vec!["emp", "mgr"]).unwrap()])
                .unwrap();
        let mut inst = Instance::empty(schema);
        inst.insert(
            "Boss",
            Tuple::new(vec![
                Value::str("Alice"),
                Value::skolem("f", vec![Value::str("Alice")]),
            ]),
        )
        .unwrap();
        // Boss(x, f(x)) should match with x = Alice.
        let atoms = vec![Atom::new(
            "Boss",
            vec![Term::var("x"), Term::func("f", vec![Term::var("x")])],
        )];
        let ms = match_conjunction(&atoms, &inst);
        assert_eq!(ms.len(), 1);
        assert_eq!(ms[0]["x"], Value::str("Alice"));
    }
}
