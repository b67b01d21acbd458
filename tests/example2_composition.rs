//! E3 — paper §2 Example 2: composing Emp→Manager with
//! Manager→Boss/SelfMngr requires second-order tgds.

use dex::chase::{exchange, so_exchange, Governor};
use dex::logic::{parse_mapping, Mapping};
use dex::ops::compose;
use dex::relational::homomorphism::homomorphically_equivalent;
use dex::relational::{tuple, Instance};

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

/// The composition is the exact SO-tgd the paper prints, with the
/// second-order `∃f` and the left-hand equality.
#[test]
fn composition_is_the_papers_sotgd() {
    let comp = compose(&m12(), &m23()).unwrap();
    assert_eq!(
        comp.to_string(),
        "∃f [ ∀x (Emp(x) → Boss(x, f(x))) ∧ ∀x (Emp(x) ∧ x = f(x) → SelfMngr(x)) ]"
    );
    assert!(comp.st_tgds.is_none(), "provably not first-order here");
}

/// “This sentence essentially states that there exists a function f(·)
/// that assigns a manager/boss to every employee, and moreover, if the
/// manager/boss assigned to an employee e equals f(e), then e should
/// be in the table SelfMngr.” — checked semantically on instances.
#[test]
fn composition_semantics_on_instances() {
    let comp = compose(&m12(), &m23()).unwrap();
    let src = Instance::with_facts(
        m12().source().clone(),
        vec![("Emp", vec![tuple!["Alice"], tuple!["Bob"]])],
    )
    .unwrap();
    let c_schema = m23().target().clone();

    // Distinct bosses: no SelfMngr needed.
    let plain = Instance::with_facts(
        c_schema.clone(),
        vec![("Boss", vec![tuple!["Alice", "Ted"], tuple!["Bob", "Ted"]])],
    )
    .unwrap();
    assert!(comp.sotgd.satisfied_by_bounded(&src, &plain));

    // Alice bosses herself: SelfMngr(Alice) becomes mandatory.
    let self_boss_missing = Instance::with_facts(
        c_schema.clone(),
        vec![("Boss", vec![tuple!["Alice", "Alice"], tuple!["Bob", "Ted"]])],
    )
    .unwrap();
    assert!(!comp.sotgd.satisfied_by_bounded(&src, &self_boss_missing));

    let self_boss_present = Instance::with_facts(
        c_schema,
        vec![
            ("Boss", vec![tuple!["Alice", "Alice"], tuple!["Bob", "Ted"]]),
            ("SelfMngr", vec![tuple!["Alice"]]),
        ],
    )
    .unwrap();
    assert!(comp.sotgd.satisfied_by_bounded(&src, &self_boss_present));
}

/// Executing the composition in one step agrees with executing the two
/// mappings in sequence.
#[test]
fn one_step_equals_two_step() {
    let comp = compose(&m12(), &m23()).unwrap();
    for n in [1usize, 3, 10] {
        let names: Vec<String> = (0..n).map(|i| format!("e{i}")).collect();
        let src = Instance::with_facts(
            m12().source().clone(),
            vec![("Emp", names.iter().map(|s| tuple![s.as_str()]).collect())],
        )
        .unwrap();
        let two_step = {
            let j = exchange(&m12(), &src).unwrap().target;
            exchange(&m23(), &j).unwrap().target
        };
        let one_step = so_exchange(&comp.sotgd, m23().target(), &src, &Governor::unlimited())
            .unwrap()
            .into_result()
            .unwrap();
        assert!(
            homomorphically_equivalent(&two_step, &one_step),
            "n={n}: two-step and one-step disagree"
        );
    }
}

/// Full st-tgds are closed under composition; long chains stay
/// first-order and behave like iterated chasing.
#[test]
fn full_chain_closure() {
    let hops = [("A", "B"), ("B", "C"), ("C", "D"), ("D", "E")];
    let mappings: Vec<Mapping> = hops
        .iter()
        .map(|(s, t)| {
            parse_mapping(&format!(
                "source {s}(v);\ntarget {t}(v);\n{s}(x) -> {t}(x);"
            ))
            .unwrap()
        })
        .collect();
    let mut acc = mappings[0].clone();
    for next in &mappings[1..] {
        acc = compose(&acc, next)
            .unwrap()
            .into_mapping()
            .expect("full tgds stay first-order under composition");
    }
    let src = Instance::with_facts(
        acc.source().clone(),
        vec![("A", vec![tuple!["v1"], tuple!["v2"]])],
    )
    .unwrap();
    let out = exchange(&acc, &src).unwrap().target;
    assert_eq!(out.relation("E").unwrap().len(), 2);
}

/// The classical counterexample direction: the composition of the two
/// mappings cannot be captured by the naive syntactic splice
/// (Emp(x) → Boss(x, y) alone misses the SelfMngr constraint).
#[test]
fn naive_first_order_splice_is_wrong() {
    let naive = parse_mapping(
        r#"
        source Emp(name);
        target Boss(emp, mgr);
        target SelfMngr(emp);
        Emp(x) -> Boss(x, y);
        "#,
    )
    .unwrap();
    let comp = compose(&m12(), &m23()).unwrap();
    let src =
        Instance::with_facts(m12().source().clone(), vec![("Emp", vec![tuple!["Alice"]])]).unwrap();
    // The witnessing pair: Boss(Alice, Alice) without SelfMngr.
    let k = Instance::with_facts(
        m23().target().clone(),
        vec![("Boss", vec![tuple!["Alice", "Alice"]])],
    )
    .unwrap();
    assert!(naive.is_solution(&src, &k), "naive splice accepts the pair");
    assert!(
        !comp.sotgd.satisfied_by_bounded(&src, &k),
        "true composition rejects it"
    );
}
