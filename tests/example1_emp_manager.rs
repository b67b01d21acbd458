//! E1 — paper §2 Example 1: the Emp → Manager exchange.
//!
//! Verifies every claim the paper makes about the example: J1 and J2
//! are solutions, J* (labeled nulls) is a solution, J* is *preferred*
//! because it is most general (maps homomorphically into every
//! solution), and the chase materializes exactly such a J*.

use dex::chase::{chase, exchange, ChaseOptions, ChaseVariant, Governor, RunContext, Start};
use dex::logic::parse_mapping;
use dex::relational::homomorphism::{homomorphically_equivalent, is_homomorphic_to};
use dex::relational::{tuple, Instance, Tuple, Value};

fn mapping() -> dex::logic::Mapping {
    parse_mapping(
        r#"
        source Emp(name);
        target Manager(emp, mgr);
        Emp(x) -> Manager(x, y);
        "#,
    )
    .unwrap()
}

fn source() -> Instance {
    Instance::with_facts(
        mapping().source().clone(),
        vec![("Emp", vec![tuple!["Alice"], tuple!["Bob"]])],
    )
    .unwrap()
}

fn j1() -> Instance {
    Instance::with_facts(
        mapping().target().clone(),
        vec![(
            "Manager",
            vec![tuple!["Alice", "Alice"], tuple!["Bob", "Alice"]],
        )],
    )
    .unwrap()
}

fn j2() -> Instance {
    Instance::with_facts(
        mapping().target().clone(),
        vec![(
            "Manager",
            vec![tuple!["Alice", "Bob"], tuple!["Bob", "Ted"]],
        )],
    )
    .unwrap()
}

fn j_star() -> Instance {
    Instance::with_facts(
        mapping().target().clone(),
        vec![(
            "Manager",
            vec![
                Tuple::new(vec![Value::str("Alice"), Value::null(1)]),
                Tuple::new(vec![Value::str("Bob"), Value::null(2)]),
            ],
        )],
    )
    .unwrap()
}

#[test]
fn paper_solutions_are_solutions() {
    let m = mapping();
    let i = source();
    assert!(m.is_solution(&i, &j1()));
    assert!(m.is_solution(&i, &j2()));
    assert!(m.is_solution(&i, &j_star()));
}

#[test]
fn non_solutions_rejected() {
    let m = mapping();
    let i = source();
    // Bob has no manager.
    let partial = Instance::with_facts(
        m.target().clone(),
        vec![("Manager", vec![tuple!["Alice", "Ted"]])],
    )
    .unwrap();
    assert!(!m.is_solution(&i, &partial));
    assert!(!m.is_solution(&i, &Instance::empty(m.target().clone())));
}

#[test]
fn j_star_is_most_general() {
    // “J* is considered as the preferred solution for the exchange as
    // it is the most general among all the possible solutions.”
    assert!(is_homomorphic_to(&j_star(), &j1()));
    assert!(is_homomorphic_to(&j_star(), &j2()));
    // The ground solutions do not map back (constants are rigid).
    assert!(!is_homomorphic_to(&j1(), &j_star()));
    assert!(!is_homomorphic_to(&j2(), &j_star()));
    // And they are mutually incomparable.
    assert!(!is_homomorphic_to(&j1(), &j2()));
    assert!(!is_homomorphic_to(&j2(), &j1()));
}

#[test]
fn chase_materializes_j_star_up_to_renaming() {
    let res = exchange(&mapping(), &source()).unwrap();
    assert_eq!(res.target.fact_count(), 2);
    assert_eq!(res.nulls_created, 2);
    assert!(homomorphically_equivalent(&res.target, &j_star()));
    // Distinct employees get distinct nulls (no accidental sharing).
    let rel = res.target.relation("Manager").unwrap();
    let mgrs: Vec<Value> = rel.iter().map(|t| t[1].clone()).collect();
    assert_ne!(mgrs[0], mgrs[1]);
}

#[test]
fn standard_and_oblivious_chase_agree_semantically() {
    let std = exchange(&mapping(), &source()).unwrap();
    let opts = ChaseOptions {
        variant: ChaseVariant::Oblivious,
        ..Default::default()
    };
    let gov = Governor::unlimited();
    let ctx = RunContext {
        opts,
        ..RunContext::new(&gov)
    };
    let obl = chase(&mapping(), Start::Fresh(&source()), ctx)
        .unwrap()
        .into_result()
        .unwrap();
    assert!(homomorphically_equivalent(&std.target, &obl.target));
}

#[test]
fn exchange_scales_linearly_in_facts() {
    // Not a benchmark — a correctness check at a non-toy size.
    let m = mapping();
    let names: Vec<String> = (0..500).map(|i| format!("emp{i}")).collect();
    let src = Instance::with_facts(
        m.source().clone(),
        vec![("Emp", names.iter().map(|n| tuple![n.as_str()]).collect())],
    )
    .unwrap();
    let res = exchange(&m, &src).unwrap();
    assert_eq!(res.target.fact_count(), 500);
    assert_eq!(res.nulls_created, 500);
    assert!(m.is_solution(&src, &res.target));
}
