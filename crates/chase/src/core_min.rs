//! Core computation: minimizing a universal solution.
//!
//! Among universal solutions the **core** is the smallest — the unique
//! (up to isomorphism) solution with no proper endomorphism. The paper's
//! `J*` in Example 1 is already a core; chases of messier mappings leave
//! redundant null-blocks that this module folds away.
//!
//! Algorithm: repeatedly search for a *proper* endomorphism — a
//! homomorphism `h : J → J` whose image has strictly fewer facts — by
//! seeding the homomorphism search with `n ↦ v` for each null `n` and
//! candidate value `v`. Worst-case exponential (core identification is
//! NP-hard), but the per-null seeding folds the common block structure
//! of chase results efficiently.

use dex_relational::homomorphism::Homomorphism;
use dex_relational::{ExhaustionReport, Governor, Instance, TripReason, Tuple, Value};
use std::collections::BTreeSet;

/// Compute the core of `inst` under a resource budget. Returns the
/// minimized instance plus `Some(report)` when a budget or cancellation
/// stopped minimization early.
///
/// Every intermediate state is the image of the input under an
/// endomorphism, so a tripped run still hands back an instance
/// homomorphically equivalent to the input — a universal solution that
/// is merely not yet minimal (an "anytime" result). Checks happen
/// between endomorphism probes; each accepted fold counts as one
/// committed round against the budget's `max_rounds`.
pub fn core_of(inst: &Instance, gov: &Governor) -> (Instance, Option<ExhaustionReport>) {
    let mut current = inst.clone();
    loop {
        match find_proper_endomorphism_governed(&current, gov) {
            Ok(Some(image)) => {
                current = image;
                gov.note_round();
                if gov.round_limit_hit() {
                    return (current, Some(gov.report(TripReason::Rounds)));
                }
            }
            Ok(None) => return (current, None),
            Err(reason) => return (current, Some(gov.report(reason))),
        }
    }
}

/// The image instance of `inst` under `h`.
///
/// `apply_tuple` preserves arity, so re-inserting into a copy of the
/// same schema cannot fail; a miss is a bug, not a recoverable state.
#[allow(clippy::expect_used)]
fn image_of(inst: &Instance, h: &Homomorphism) -> Instance {
    let mut out = Instance::empty(inst.schema().clone());
    for (rel, t) in inst.facts() {
        let mapped = h.apply_tuple(&t);
        out.insert(rel.as_str(), mapped)
            .expect("image tuple has same arity");
    }
    out
}

/// Search for an endomorphism whose image has strictly fewer facts,
/// checking the governor between seeded probes (each probe is a
/// worst-case exponential backtracking search, but an atomic read-only
/// step — trips between probes leave the instance untouched).
fn find_proper_endomorphism_governed(
    inst: &Instance,
    gov: &Governor,
) -> Result<Option<Instance>, TripReason> {
    let nulls = inst.nulls();
    if nulls.is_empty() {
        return Ok(None); // ground instances are their own core
    }
    // Candidate images for a null: every value of the instance.
    let mut values: BTreeSet<Value> = BTreeSet::new();
    for (_, t) in inst.facts() {
        for v in t.iter() {
            values.insert(v.clone());
        }
    }
    let total = inst.fact_count();
    for n in &nulls {
        let nv = Value::Null(*n);
        for v in &values {
            if v == &nv {
                continue;
            }
            gov.check()?;
            let mut seed = Homomorphism::new();
            seed.bind(&nv, v);
            if let Some(h) = extend_endomorphism(inst, seed) {
                let img = image_of(inst, &h);
                if img.fact_count() < total {
                    return Ok(Some(img));
                }
            }
        }
    }
    Ok(None)
}

/// Extend a seeded partial mapping to a full endomorphism `inst → inst`,
/// if possible.
fn extend_endomorphism(inst: &Instance, seed: Homomorphism) -> Option<Homomorphism> {
    let facts: Vec<(&dex_relational::Name, Tuple)> = inst.facts().collect();
    fn search(
        facts: &[(&dex_relational::Name, Tuple)],
        idx: usize,
        inst: &Instance,
        h: &mut Homomorphism,
    ) -> bool {
        if idx == facts.len() {
            return true;
        }
        let (rel, t) = &facts[idx];
        // `facts` was enumerated from `inst` itself, so every relation
        // name resolves; an endomorphism search never crosses schemas.
        let Some(target) = inst.relation(rel.as_str()) else {
            return false;
        };
        // Bind against candidate rows by reading columns in place.
        for &cand in target.row_ids().iter() {
            let saved = h.clone();
            let mut ok = true;
            for (col, v) in t.iter().enumerate() {
                if !h.bind(v, target.value_at(cand, col)) {
                    ok = false;
                    break;
                }
            }
            if ok && search(facts, idx + 1, inst, h) {
                return true;
            }
            *h = saved;
        }
        false
    }
    let mut h = seed;
    if search(&facts, 0, inst, &mut h) {
        Some(h)
    } else {
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dex_relational::homomorphism::homomorphically_equivalent;
    use dex_relational::{tuple, RelSchema, Schema};

    fn mgr_schema() -> Schema {
        Schema::with_relations(vec![
            RelSchema::untyped("Manager", vec!["emp", "mgr"]).unwrap()
        ])
        .unwrap()
    }

    #[test]
    fn ground_instance_is_its_own_core() {
        let i = Instance::with_facts(
            mgr_schema(),
            vec![("Manager", vec![tuple!["a", "b"], tuple!["b", "c"]])],
        )
        .unwrap();
        assert_eq!(core_of(&i, &Governor::unlimited()).0, i);
    }

    #[test]
    fn j_star_is_its_own_core() {
        // Example 1's J*: distinct nulls in distinct facts — no folding
        // possible (folding ⊥1 into ⊥2 does not reduce fact count
        // because the employee constants differ).
        let mut i = Instance::empty(mgr_schema());
        i.insert(
            "Manager",
            Tuple::new(vec![Value::str("Alice"), Value::null(1)]),
        )
        .unwrap();
        i.insert(
            "Manager",
            Tuple::new(vec![Value::str("Bob"), Value::null(2)]),
        )
        .unwrap();
        let c = core_of(&i, &Governor::unlimited()).0;
        assert_eq!(c.fact_count(), 2);
    }

    #[test]
    fn redundant_null_fact_folds_into_ground_fact() {
        // {Manager(Alice, Ted), Manager(Alice, ⊥0)}: the null fact is
        // dominated — core is the ground fact alone.
        let mut i = Instance::empty(mgr_schema());
        i.insert("Manager", tuple!["Alice", "Ted"]).unwrap();
        i.insert(
            "Manager",
            Tuple::new(vec![Value::str("Alice"), Value::null(0)]),
        )
        .unwrap();
        let c = core_of(&i, &Governor::unlimited()).0;
        assert_eq!(c.fact_count(), 1);
        assert!(c.contains("Manager", &tuple!["Alice", "Ted"]));
        assert!(homomorphically_equivalent(&c, &i));
    }

    #[test]
    fn null_block_folds_into_another_block() {
        // Two parallel null chains over the same constant: one folds
        // into the other.
        let mut i = Instance::empty(mgr_schema());
        i.insert("Manager", Tuple::new(vec![Value::str("a"), Value::null(0)]))
            .unwrap();
        i.insert("Manager", Tuple::new(vec![Value::null(0), Value::null(1)]))
            .unwrap();
        i.insert("Manager", Tuple::new(vec![Value::str("a"), Value::null(2)]))
            .unwrap();
        i.insert("Manager", Tuple::new(vec![Value::null(2), Value::null(3)]))
            .unwrap();
        let c = core_of(&i, &Governor::unlimited()).0;
        assert_eq!(c.fact_count(), 2, "one chain folds onto the other");
        assert!(homomorphically_equivalent(&c, &i));
    }

    #[test]
    fn connected_nulls_fold_consistently() {
        // {R(⊥0, ⊥0), R(a, a)}: ⊥0 can map to a, folding to one fact.
        let mut i = Instance::empty(mgr_schema());
        i.insert("Manager", Tuple::new(vec![Value::null(0), Value::null(0)]))
            .unwrap();
        i.insert("Manager", tuple!["a", "a"]).unwrap();
        let c = core_of(&i, &Governor::unlimited()).0;
        assert_eq!(c.fact_count(), 1);
    }

    #[test]
    fn non_foldable_null_kept() {
        // {R(⊥0, ⊥0)} alone: ⊥0 has nowhere to go (only value is
        // itself); core unchanged.
        let mut i = Instance::empty(mgr_schema());
        i.insert("Manager", Tuple::new(vec![Value::null(0), Value::null(0)]))
            .unwrap();
        let c = core_of(&i, &Governor::unlimited()).0;
        assert_eq!(c.fact_count(), 1);
        assert!(!c.is_ground());
    }

    #[test]
    fn core_is_homomorphically_equivalent_to_input() {
        let mut i = Instance::empty(mgr_schema());
        for k in 0..4 {
            i.insert(
                "Manager",
                Tuple::new(vec![Value::str("hub"), Value::null(k)]),
            )
            .unwrap();
        }
        i.insert("Manager", tuple!["hub", "spoke"]).unwrap();
        let c = core_of(&i, &Governor::unlimited()).0;
        assert_eq!(
            c.fact_count(),
            1,
            "all null spokes fold into the ground one"
        );
        assert!(homomorphically_equivalent(&c, &i));
    }

    #[test]
    fn round_cap_stops_folding_with_an_equivalent_instance() {
        // Three parallel null chains over one constant: two of them are
        // foldable, one fold per committed round, so a cap of 1 trips on
        // the second fold.
        let mut i = Instance::empty(mgr_schema());
        for k in [0, 2, 4] {
            i.insert("Manager", Tuple::new(vec![Value::str("a"), Value::null(k)]))
                .unwrap();
            i.insert(
                "Manager",
                Tuple::new(vec![Value::null(k), Value::null(k + 1)]),
            )
            .unwrap();
        }
        let gov = Governor::new(dex_relational::Budget::unlimited().with_max_rounds(1));
        let (c, report) = core_of(&i, &gov);
        let report = report.expect("the round cap trips");
        assert_eq!(report.reason, TripReason::Rounds);
        assert_eq!(report.rounds_committed, 2);
        assert!(homomorphically_equivalent(&c, &i));
    }
}
