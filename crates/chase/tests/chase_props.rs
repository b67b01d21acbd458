//! Property-based tests for the chase: soundness (the output is always
//! a solution), universality against sampled solutions, and the
//! standard/oblivious relationship.

use dex_chase::{
    certain_answers, core_of, exchange, exchange_with, ChaseOptions, ChaseVariant,
    ConjunctiveQuery, Matcher,
};
use dex_logic::{parse_mapping, Atom, Mapping};
use dex_relational::homomorphism::{homomorphically_equivalent, is_homomorphic_to};
use dex_relational::{tuple, Instance};
use proptest::prelude::*;

fn mappings() -> Vec<Mapping> {
    vec![
        parse_mapping(
            r#"
            source Emp(name);
            target Manager(emp, mgr);
            Emp(x) -> Manager(x, y);
            "#,
        )
        .unwrap(),
        parse_mapping(
            r#"
            source Takes(name, course);
            target Student(id, name);
            target Assgn(name, course);
            Takes(x, y) -> Student(z, x) & Assgn(x, y);
            "#,
        )
        .unwrap(),
        parse_mapping(
            r#"
            source Father(p, c);
            source Mother(p, c);
            target Parent(p, c);
            Father(x, y) -> Parent(x, y);
            Mother(x, y) -> Parent(x, y);
            "#,
        )
        .unwrap(),
    ]
}

/// Mappings that exercise the phase-2 target chase: chained target
/// tgds, a target join premise, egds interleaved with tgds, and target
/// tgds whose conclusions are fully bound when re-checked (so the
/// indexed chase answers them by membership) — with a constant, with a
/// repeated variable, and over a relation that has no facts until the
/// tgd fires. The parser accepts no function terms; the membership
/// check on one is covered by `dex-logic`'s eval tests.
fn target_dep_mappings() -> Vec<Mapping> {
    vec![
        parse_mapping(
            r#"
            source R(a);
            target S(a);
            target T(a, b);
            target U(b);
            R(x) -> S(x);
            S(x) -> T(x, y);
            T(x, y) -> U(y);
            "#,
        )
        .unwrap(),
        parse_mapping(
            r#"
            source E(p, c);
            target P(p, c);
            target G(a, c);
            E(x, y) -> P(x, y);
            P(x, y) & P(y, z) -> G(x, z);
            "#,
        )
        .unwrap(),
        parse_mapping(
            r#"
            source E1(name);
            source E2(name);
            target Manager(emp, mgr);
            target Peer(mgr);
            key Manager(emp);
            E1(x) -> Manager(x, y);
            E2(x) -> Manager(x, y);
            Manager(x, y) -> Peer(y);
            "#,
        )
        .unwrap(),
        parse_mapping(
            r#"
            source E(p, c);
            target P(p, c);
            target Q(a, b);
            target Lone(a);
            E(x, y) -> P(x, y);
            P(x, y) -> Q(x, "k");
            P(x, y) -> Q(y, y);
            Q(x, x) -> Lone(x);
            "#,
        )
        .unwrap(),
        parse_mapping(
            r#"
            source E(p, c);
            target P(p, c);
            target R(a, b);
            target Empty(a);
            E(x, y) -> P(x, y);
            P(x, y) & P(y, z) -> R(x, z);
            R(x, z) -> R(z, x);
            P(x, y) & Empty(x) -> R(x, x);
            P(x, y) -> R(x, y) & R(y, y);
            "#,
        )
        .unwrap(),
    ]
}

/// Populate every source relation of `m` from a pool of generated
/// pairs (unary relations use the first component).
fn populate(m: &Mapping, rows: &[(u8, u8)]) -> Instance {
    let mut inst = Instance::empty(m.source().clone());
    for rel in m.source().relations() {
        for (i, (a, b)) in rows.iter().enumerate() {
            let vals: Vec<dex_relational::Value> = match rel.arity() {
                1 => vec![dex_relational::Value::str(format!("v{a}"))],
                2 => vec![
                    dex_relational::Value::str(format!("v{a}")),
                    dex_relational::Value::str(format!("w{b}")),
                ],
                n => (0..n)
                    .map(|k| dex_relational::Value::str(format!("x{i}_{k}")))
                    .collect(),
            };
            inst.insert(rel.name().as_str(), dex_relational::Tuple::new(vals))
                .unwrap();
        }
    }
    inst
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Soundness: the chase output is a solution, for every mapping in
    /// the family and every generated source.
    #[test]
    fn chase_output_is_always_a_solution(rows in proptest::collection::vec((0u8..5, 0u8..5), 0..8)) {
        for m in mappings() {
            let src = populate(&m, &rows);
            let res = exchange(&m, &src).unwrap();
            prop_assert!(m.is_solution(&src, &res.target), "mapping failed:\n{}", m);
        }
    }

    /// Universality against a constructed family of other solutions:
    /// the canonical solution maps into (chase output ∪ extra ground
    /// facts resolved from its nulls).
    #[test]
    fn chase_output_maps_into_extended_solutions(rows in proptest::collection::vec((0u8..4, 0u8..4), 1..6)) {
        for m in mappings() {
            let src = populate(&m, &rows);
            let res = exchange(&m, &src).unwrap();
            // Resolve every null to a fixed constant: still a solution
            // (tgd rhs are positive), and the canonical maps into it.
            let nulls = res.target.nulls();
            let subst: std::collections::BTreeMap<_, _> = nulls
                .into_iter()
                .map(|n| (n, dex_relational::Value::str("resolved")))
                .collect();
            let ground = res.target.substitute_nulls(&subst);
            prop_assert!(m.is_solution(&src, &ground));
            prop_assert!(is_homomorphic_to(&res.target, &ground));
        }
    }

    /// The standard and oblivious chases are homomorphically
    /// equivalent, and the standard one never produces more facts.
    #[test]
    fn standard_vs_oblivious(rows in proptest::collection::vec((0u8..4, 0u8..4), 0..8)) {
        for m in mappings() {
            let src = populate(&m, &rows);
            let std = exchange_with(&m, &src, ChaseOptions::default()).unwrap();
            let obl = exchange_with(&m, &src, ChaseOptions {
                variant: ChaseVariant::Oblivious,
                ..Default::default()
            }).unwrap();
            prop_assert!(std.target.fact_count() <= obl.target.fact_count());
            prop_assert!(homomorphically_equivalent(&std.target, &obl.target));
        }
    }

    /// Monotonicity of certain answers: adding source facts never
    /// removes certain answers (for the positive queries used here).
    #[test]
    fn certain_answers_monotone(
        rows in proptest::collection::btree_set((0u8..4, 0u8..4), 1..6),
        extra in (0u8..4, 0u8..4),
    ) {
        let m = &mappings()[2]; // Father/Mother → Parent
        let rows: Vec<(u8, u8)> = rows.into_iter().collect();
        let small = populate(m, &rows);
        let mut big = small.clone();
        big.insert("Father", tuple![
            format!("v{}", extra.0).as_str(),
            format!("w{}", extra.1).as_str()
        ]).unwrap();
        let q = ConjunctiveQuery::new(vec!["p"], vec![Atom::vars("Parent", &["p", "c"])]).unwrap();
        let small_ans = certain_answers(&q, &exchange(m, &small).unwrap().target);
        let big_ans = certain_answers(&q, &exchange(m, &big).unwrap().target);
        prop_assert!(small_ans.is_subset(&big_ans));
    }

    /// The indexed semi-naive chase is *literally* equal to the
    /// full-scan oracle — same tuples, same null allocation order, same
    /// firing count — on random instances, for both chase variants,
    /// across plain st-tgd mappings and mappings with target tgds/egds.
    #[test]
    fn indexed_semi_naive_literally_equals_scan_oracle(
        rows in proptest::collection::vec((0u8..5, 0u8..5), 0..8)
    ) {
        for m in mappings().into_iter().chain(target_dep_mappings()) {
            let src = populate(&m, &rows);
            for variant in [ChaseVariant::Standard, ChaseVariant::Oblivious] {
                let indexed = exchange_with(&m, &src, ChaseOptions {
                    variant,
                    matcher: Matcher::Indexed,
                }).unwrap();
                let scan = exchange_with(&m, &src, ChaseOptions {
                    variant,
                    matcher: Matcher::Scan,
                }).unwrap();
                prop_assert_eq!(
                    &indexed.target, &scan.target,
                    "divergence under {:?} for:\n{}", variant, m
                );
                prop_assert_eq!(indexed.nulls_created, scan.nulls_created);
                prop_assert_eq!(indexed.firings, scan.firings);
            }
        }
    }

    /// The core of the chase output is still a solution and still
    /// universal (maps into the original output).
    #[test]
    fn core_preserves_solutionhood(rows in proptest::collection::vec((0u8..3, 0u8..3), 0..6)) {
        for m in mappings() {
            let src = populate(&m, &rows);
            let res = exchange_with(&m, &src, ChaseOptions {
                variant: ChaseVariant::Oblivious,
                ..Default::default()
            }).unwrap();
            let core = core_of(&res.target);
            prop_assert!(m.is_solution(&src, &core), "core lost solutionhood");
            prop_assert!(homomorphically_equivalent(&core, &res.target));
            prop_assert!(core.fact_count() <= res.target.fact_count());
        }
    }
}
