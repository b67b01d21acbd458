//! E10 — paper §2 (the “preferred solution”): core computation.
//! J* is its own core; redundancy-producing mappings get minimized;
//! cores stay homomorphically equivalent to their inputs.

use dex::chase::{
    chase, core_of, exchange, ChaseOptions, ChaseVariant, ExchangeResult, Governor, RunContext,
    Start,
};
use dex::logic::{parse_mapping, Mapping};
use dex::relational::homomorphism::homomorphically_equivalent;
use dex::relational::{tuple, Instance, Tuple, Value};
use proptest::prelude::*;

/// The oblivious chase of `src`, which leaves redundant null blocks.
fn oblivious(m: &Mapping, src: &Instance) -> ExchangeResult {
    let opts = ChaseOptions {
        variant: ChaseVariant::Oblivious,
        ..Default::default()
    };
    let gov = Governor::unlimited();
    chase(
        m,
        Start::Fresh(src),
        RunContext {
            opts,
            ..RunContext::new(&gov)
        },
    )
    .unwrap()
    .into_result()
    .unwrap()
}

#[test]
fn example1_chase_result_is_core() {
    let m = parse_mapping(
        r#"
        source Emp(name);
        target Manager(emp, mgr);
        Emp(x) -> Manager(x, y);
        "#,
    )
    .unwrap();
    let src = Instance::with_facts(
        m.source().clone(),
        vec![("Emp", vec![tuple!["Alice"], tuple!["Bob"]])],
    )
    .unwrap();
    let j = exchange(&m, &src).unwrap().target;
    assert_eq!(core_of(&j, &Governor::unlimited()).0, j);
}

#[test]
fn oblivious_redundancy_folds_away() {
    // Two tgds produce the same shape of fact; the oblivious chase
    // fires both, the core removes the duplicate block.
    let m = parse_mapping(
        r#"
        source E1(name);
        source E2(name);
        target T(name, info);
        E1(x) -> T(x, y);
        E2(x) -> T(x, y);
        "#,
    )
    .unwrap();
    let mut src = Instance::empty(m.source().clone());
    src.insert("E1", tuple!["a"]).unwrap();
    src.insert("E2", tuple!["a"]).unwrap();
    let obl = oblivious(&m, &src);
    assert_eq!(obl.target.fact_count(), 2, "oblivious chase is redundant");
    let c = core_of(&obl.target, &Governor::unlimited()).0;
    assert_eq!(c.fact_count(), 1, "core folds the duplicate null block");
    assert!(homomorphically_equivalent(&c, &obl.target));
}

#[test]
fn ground_facts_dominate_null_facts() {
    // A mapping that produces both a ground fact and a null-padded
    // version of it.
    let m = parse_mapping(
        r#"
        source Pair(a, b);
        source Single(a);
        target Out(a, b);
        Pair(x, y) -> Out(x, y);
        Single(x) -> Out(x, y);
        "#,
    )
    .unwrap();
    let mut src = Instance::empty(m.source().clone());
    src.insert("Pair", tuple!["k", "v"]).unwrap();
    src.insert("Single", tuple!["k"]).unwrap();
    let obl = oblivious(&m, &src);
    assert_eq!(obl.target.fact_count(), 2);
    let c = core_of(&obl.target, &Governor::unlimited()).0;
    assert_eq!(c.fact_count(), 1);
    assert!(c.contains("Out", &tuple!["k", "v"]));
}

#[test]
fn core_of_chains_preserves_reachability_structure() {
    // Chain facts over nulls that cannot fold (each null carries
    // distinct constants around it).
    let m = parse_mapping(
        r#"
        source E(a, b);
        target P(a, mid);
        target Q(mid, b);
        E(x, y) -> P(x, z) & Q(z, y);
        "#,
    )
    .unwrap();
    let src = Instance::with_facts(
        m.source().clone(),
        vec![("E", vec![tuple!["s", "t"], tuple!["u", "v"]])],
    )
    .unwrap();
    let j = exchange(&m, &src).unwrap().target;
    assert_eq!(j.fact_count(), 4);
    let c = core_of(&j, &Governor::unlimited()).0;
    assert_eq!(c.fact_count(), 4, "nothing folds: constants differ");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Core is idempotent and homomorphically equivalent to the input,
    /// over randomized instances mixing constants and nulls.
    #[test]
    fn core_idempotent_and_equivalent(
        rows in proptest::collection::btree_set((0u8..4, 0u8..6), 1..8)
    ) {
        let schema = dex::relational::Schema::with_relations(vec![
            dex::relational::RelSchema::untyped("R", vec!["a", "b"]).unwrap()
        ]).unwrap();
        let mut inst = Instance::empty(schema);
        for (a, b) in rows {
            // Even b: constant; odd b: null id b.
            let bval = if b % 2 == 0 {
                Value::str(format!("c{b}"))
            } else {
                Value::null(b as u64)
            };
            inst.insert("R", Tuple::new(vec![Value::str(format!("k{a}")), bval])).unwrap();
        }
        let c = core_of(&inst, &Governor::unlimited()).0;
        prop_assert!(homomorphically_equivalent(&c, &inst));
        prop_assert_eq!(core_of(&c, &Governor::unlimited()).0, c.clone(), "idempotent");
        prop_assert!(c.fact_count() <= inst.fact_count());
    }
}

#[test]
fn null_density_controls_folding() {
    // The E10 bench's shape in miniature: hub facts with k null spokes
    // plus one ground spoke fold to a single fact; with no ground spoke
    // they fold to one null spoke.
    let schema =
        dex::relational::Schema::with_relations(vec![dex::relational::RelSchema::untyped(
            "R",
            vec!["a", "b"],
        )
        .unwrap()])
        .unwrap();
    for k in [1u64, 3, 6] {
        let mut with_ground = Instance::empty(schema.clone());
        let mut nulls_only = Instance::empty(schema.clone());
        for i in 0..k {
            let t = Tuple::new(vec![Value::str("hub"), Value::null(i)]);
            with_ground.insert("R", t.clone()).unwrap();
            nulls_only.insert("R", t).unwrap();
        }
        with_ground.insert("R", tuple!["hub", "spoke"]).unwrap();
        assert_eq!(
            core_of(&with_ground, &Governor::unlimited()).0.fact_count(),
            1
        );
        assert_eq!(
            core_of(&nulls_only, &Governor::unlimited()).0.fact_count(),
            1
        );
        assert!(core_of(&nulls_only, &Governor::unlimited()).0.nulls().len() == 1);
    }
}
