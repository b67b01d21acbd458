//! E4 — paper §2 Example 3: inversion loses information; the maximum
//! recovery is disjunctive.

use dex::chase::{exchange, Budget, Governor, DEFAULT_MAX_ROUNDS};
use dex::logic::{parse_mapping, Mapping};
use dex::ops::{is_recovery_witness, maximum_recovery, not_invertible_witness};
use dex::relational::{tuple, Instance};

/// The round ceiling an unbudgeted [`exchange`] applies.
fn ceiling() -> Governor {
    Governor::new(Budget::unlimited().with_max_rounds(DEFAULT_MAX_ROUNDS))
}

fn parents() -> Mapping {
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

#[test]
fn best_solution_merges_father_and_mother() {
    // “let I = {Father(Leslie, Alice)}. Then the best solution for I is
    // the instance J = {Parent(Leslie, Alice)}.”
    let m = parents();
    let i = Instance::with_facts(
        m.source().clone(),
        vec![("Father", vec![tuple!["Leslie", "Alice"]])],
    )
    .unwrap();
    let j = exchange(&m, &i).unwrap().target;
    assert_eq!(j.fact_count(), 1);
    assert!(j.contains("Parent", &tuple!["Leslie", "Alice"]));
}

#[test]
fn mapping_is_not_fagin_invertible() {
    // “according to Fagin's initial definition of inverse, the above
    // mapping is not invertible” — witnessed by two sources with the
    // same solutions.
    let m = parents();
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

#[test]
fn maximum_recovery_is_the_papers_disjunction() {
    // “the best possible inverse for the above mapping is given by the
    // sentence ∀x∀y (Parent(x, y) → Father(x, y) ∨ Mother(x, y))”
    let rec = maximum_recovery(&parents()).unwrap();
    assert_eq!(rec.rules.len(), 1);
    assert_eq!(
        rec.rules[0].to_string(),
        "Parent(v0, v1) → Father(v0, v1) ∨ Mother(v0, v1)"
    );
}

#[test]
fn both_origins_equally_good() {
    // “both instances I1 … and I2 … are equally good as solutions for
    // J = {Parent(Leslie, Alice)}.”
    let m = parents();
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
    // But an empty source explains nothing.
    assert!(!rec.satisfied_by(&j, &Instance::empty(m.source().clone())));
}

#[test]
fn recovery_property_holds_across_generated_sources() {
    let m = parents();
    let rec = maximum_recovery(&m).unwrap();
    let mut samples = vec![Instance::empty(m.source().clone())];
    // A small combinatorial family of sources.
    let people = ["Leslie", "Robin", "Pat"];
    for f in 0..3usize {
        for mo in 0..3usize {
            let mut inst = Instance::empty(m.source().clone());
            for (k, p) in people.iter().take(f).enumerate() {
                inst.insert("Father", tuple![*p, format!("c{k}").as_str()])
                    .unwrap();
            }
            for (k, p) in people.iter().take(mo).enumerate() {
                inst.insert("Mother", tuple![*p, format!("d{k}").as_str()])
                    .unwrap();
            }
            samples.push(inst);
        }
    }
    assert_eq!(
        is_recovery_witness(&m, &rec, &samples, &ceiling()),
        Ok(true)
    );
}

#[test]
fn projection_recovery_for_lossy_mapping() {
    // Example 1's mapping: the recovery forgets the invented manager.
    let m = parse_mapping(
        r#"
        source Emp(name);
        target Manager(emp, mgr);
        Emp(x) -> Manager(x, y);
        "#,
    )
    .unwrap();
    let rec = maximum_recovery(&m).unwrap();
    assert_eq!(rec.rules[0].to_string(), "Manager(v0, v1) → Emp(v0)");
    let samples = vec![
        Instance::empty(m.source().clone()),
        Instance::with_facts(
            m.source().clone(),
            vec![("Emp", vec![tuple!["Alice"], tuple!["Bob"]])],
        )
        .unwrap(),
    ];
    assert_eq!(
        is_recovery_witness(&m, &rec, &samples, &ceiling()),
        Ok(true)
    );
}

#[test]
fn information_loss_is_real() {
    // Round-tripping I through M then the recovery does NOT pin down I:
    // the recovery also accepts a strictly different origin. This is
    // the “inverses in general may lose information” sentence as a
    // test.
    let m = parents();
    let rec = maximum_recovery(&m).unwrap();
    let i_father = Instance::with_facts(
        m.source().clone(),
        vec![("Father", vec![tuple!["Leslie", "Alice"]])],
    )
    .unwrap();
    let j = exchange(&m, &i_father).unwrap().target;
    let i_mother = Instance::with_facts(
        m.source().clone(),
        vec![("Mother", vec![tuple!["Leslie", "Alice"]])],
    )
    .unwrap();
    assert!(
        rec.satisfied_by(&j, &i_mother),
        "a different origin fits too"
    );
}
