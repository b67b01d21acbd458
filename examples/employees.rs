//! The paper's worked Examples 1–3 end to end: exchange with labeled
//! nulls, composition into an SO-tgd, and the disjunctive maximum
//! recovery.
//!
//! Run with `cargo run --example employees`.

use dex::chase::{core_of, exchange, so_exchange, Budget, Governor, DEFAULT_MAX_ROUNDS};
use dex::logic::parse_mapping;
use dex::ops::{compose, maximum_recovery, not_invertible_witness};
use dex::relational::homomorphism::is_homomorphic_to;
use dex::relational::{tuple, Instance};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // ------------------------------------------------------ Example 1
    println!("== Example 1: Emp -> Manager ==");
    let m = parse_mapping(
        r#"
        source Emp(name);
        target Manager(emp, mgr);
        Emp(x) -> Manager(x, y);
        "#,
    )?;
    let i = Instance::with_facts(
        m.source().clone(),
        vec![("Emp", vec![tuple!["Alice"], tuple!["Bob"]])],
    )?;
    let j_star = exchange(&m, &i)?.target;
    println!("universal solution J*:\n{j_star}");

    // J* maps homomorphically into every other solution.
    let j1 = Instance::with_facts(
        m.target().clone(),
        vec![(
            "Manager",
            vec![tuple!["Alice", "Alice"], tuple!["Bob", "Alice"]],
        )],
    )?;
    assert!(is_homomorphic_to(&j_star, &j1));
    println!("J* -> J1 homomorphism exists: the null solution is most general");
    let (core, _) = core_of(&j_star, &Governor::unlimited());
    assert_eq!(core, j_star, "J* is already a core");

    // ------------------------------------------------------ Example 2
    println!("\n== Example 2: composition needs second-order tgds ==");
    let m23 = parse_mapping(
        r#"
        source Manager(emp, mgr);
        target Boss(emp, mgr);
        target SelfMngr(emp);
        Manager(x, y) -> Boss(x, y);
        Manager(x, x) -> SelfMngr(x);
        "#,
    )?;
    let comp = compose(&m, &m23)?;
    println!("composed dependency:\n  {comp}");
    assert!(
        comp.st_tgds.is_none(),
        "not expressible by st-tgds (second-order quantification is unavoidable)"
    );
    let k = so_exchange(&comp.sotgd, m23.target(), &i, &Governor::unlimited())?.into_result()?;
    println!("chasing the SO-tgd over I yields Skolem-term bosses:\n{k}");

    // ------------------------------------------------------ Example 3
    println!("== Example 3: inverses lose information ==");
    let parents = parse_mapping(
        r#"
        source Father(p, c);
        source Mother(p, c);
        target Parent(p, c);
        Father(x, y) -> Parent(x, y);
        Mother(x, y) -> Parent(x, y);
        "#,
    )?;
    let i1 = Instance::with_facts(
        parents.source().clone(),
        vec![("Father", vec![tuple!["Leslie", "Alice"]])],
    )?;
    let i2 = Instance::with_facts(
        parents.source().clone(),
        vec![("Mother", vec![tuple!["Leslie", "Alice"]])],
    )?;
    let gov = Governor::new(Budget::unlimited().with_max_rounds(DEFAULT_MAX_ROUNDS));
    assert_eq!(not_invertible_witness(&parents, &i1, &i2, &gov), Ok(true));
    println!("Father-only and Mother-only sources are indistinguishable: no exact inverse");

    let recovery = maximum_recovery(&parents)?;
    println!("maximum recovery (note the disjunction):\n  {recovery}");
    let j = exchange(&parents, &i1)?.target;
    assert!(recovery.satisfied_by(&j, &i1));
    assert!(recovery.satisfied_by(&j, &i2));
    println!("both I1 and I2 are equally good recoveries of J — exactly the paper's point");
    Ok(())
}
