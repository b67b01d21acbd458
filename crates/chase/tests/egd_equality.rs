//! Literal equality of egd enforcement against the rebuild it replaced.
//!
//! The reference below is the egd step as it used to run: materialize
//! every premise match, take the first violation, and substitute the
//! merged null across a rebuilt instance, once per merge. The library
//! now stops at the first violation and rewrites only the affected
//! rows in place. On generated null–null, null–constant and
//! constant-clash cases, both paths must give the same instance bytes,
//! the same merge count and the same `EgdFailure` text, through
//! `exchange` phase 2 (both matchers) and through `enforce_egds`.

use dex_chase::{
    chase, enforce_egds, exchange, Budget, ChaseError, ChaseOptions, EgdOutcome, ExchangeResult,
    Governor, Matcher, RunContext, Start, DEFAULT_MAX_ROUNDS,
};
use dex_logic::eval::match_conjunction;
use dex_logic::{parse_mapping, Egd, Mapping};
use dex_relational::{Instance, NullId, Tuple, Value};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeMap;

/// A fresh chase with `opts` under the default round ceiling.
fn exchange_opts(
    m: &Mapping,
    src: &Instance,
    opts: ChaseOptions,
) -> Result<ExchangeResult, ChaseError> {
    let gov = Governor::new(Budget::unlimited().with_max_rounds(DEFAULT_MAX_ROUNDS));
    chase(
        m,
        Start::Fresh(src),
        RunContext {
            opts,
            ..RunContext::new(&gov)
        },
    )?
    .into_result()
}

/// Which kinds of merge and failure the reference saw, so the suite
/// can check its generators reach all three.
#[derive(Default)]
struct Seen {
    null_null: usize,
    null_const: usize,
    clash: usize,
}

/// One egd to its local fixpoint, the old way.
fn reference_chase_one_egd(
    egd: &Egd,
    mut target: Instance,
    seen: &mut Seen,
) -> Result<(Instance, usize), ChaseError> {
    let mut merges = 0;
    loop {
        let mut subst: BTreeMap<NullId, Value> = BTreeMap::new();
        'find: for m in match_conjunction(&egd.lhs, &target) {
            for (a, b) in &egd.equalities {
                let va = a.eval(&m).expect("premise binds every equality variable");
                let vb = b.eval(&m).expect("premise binds every equality variable");
                if va == vb {
                    continue;
                }
                match (&va, &vb) {
                    (Value::Null(n), _) => {
                        subst.insert(*n, vb.clone());
                    }
                    (_, Value::Null(n)) => {
                        subst.insert(*n, va.clone());
                    }
                    _ => {
                        seen.clash += 1;
                        return Err(ChaseError::EgdFailure {
                            egd: egd.to_string(),
                            left: va.to_string(),
                            right: vb.to_string(),
                        });
                    }
                }
                if va.is_null() && vb.is_null() {
                    seen.null_null += 1;
                } else {
                    seen.null_const += 1;
                }
                break 'find;
            }
        }
        if subst.is_empty() {
            return Ok((target, merges));
        }
        target = target.substitute_nulls(&subst);
        merges += 1;
    }
}

/// Every egd to fixpoint, the old way: (instance, merges, rounds).
fn reference_enforce(
    inst: &Instance,
    egds: &[Egd],
    seen: &mut Seen,
) -> Result<(Instance, usize, usize), ChaseError> {
    let mut target = inst.clone();
    let (mut merges, mut rounds) = (0, 0);
    loop {
        rounds += 1;
        let mut changed = false;
        for egd in egds {
            let (next, k) = reference_chase_one_egd(egd, target, seen)?;
            target = next;
            merges += k;
            changed |= k > 0;
        }
        if !changed {
            return Ok((target, merges, rounds));
        }
    }
}

fn bytes(inst: &Instance) -> String {
    serde_json::to_string(inst).unwrap()
}

/// Mappings whose only target dependencies are egds, so phase 2 is
/// pure egd enforcement and the reference can replay it on the
/// phase-1 output.
fn mappings() -> Vec<Mapping> {
    [
        // Null–constant merges; two bosses for one name clash.
        "source Emp(name);
         source Boss(emp, boss);
         target Manager(emp, mgr);
         key Manager(emp);
         Emp(x) -> Manager(x, m);
         Boss(x, b) -> Manager(x, b);",
        // Null–null merges that cascade into a second key.
        "source E1(name);
         source E2(name);
         source Fixed(name, boss, floor);
         target Manager(emp, mgr);
         target Desk(mgr, floor);
         key Manager(emp);
         key Desk(mgr);
         E1(x) -> Manager(x, m) & Desk(m, f);
         E2(x) -> Manager(x, n) & Desk(n, g);
         Fixed(x, b, l) -> Manager(x, b) & Desk(b, l);",
        // Two equalities per egd, nulls in the key position, and an
        // egd that is not a key.
        "source A(k, v);
         source B(k);
         source C(k, v);
         target T(k, a, b);
         target S(k, v);
         T(k, a, b) & T(k, c, d) -> a = c & b = d;
         S(k, v) & S(k, w) -> w = v;
         A(x, y) -> T(x, y, z);
         B(x) -> T(x, u, w) & S(w, x);
         C(x, y) -> T(n, x, y) & S(n, y);",
    ]
    .iter()
    .map(|text| parse_mapping(text).unwrap())
    .collect()
}

/// A source instance with a handful of rows per relation drawn from
/// small domains, so keys collide often.
fn source(m: &Mapping, rng: &mut StdRng) -> Instance {
    let mut inst = Instance::empty(m.source().clone());
    for rel in m.source().relations() {
        for _ in 0..rng.gen_range(0..8usize) {
            let t: Tuple = (0..rel.arity())
                .map(|col| Value::str(format!("{}{}", col, rng.gen_range(0..5u8))))
                .collect();
            inst.insert(rel.name().as_str(), t).unwrap();
        }
    }
    inst
}

/// A target instance mixing labeled nulls and constants everywhere.
fn target(m: &Mapping, rng: &mut StdRng) -> Instance {
    let mut inst = Instance::empty(m.target().clone());
    for rel in m.target().relations() {
        for _ in 0..rng.gen_range(0..10usize) {
            let t: Tuple = (0..rel.arity())
                .map(|_| match rng.gen_range(0..3u8) {
                    0 => Value::str(format!("c{}", rng.gen_range(0..3u8))),
                    _ => Value::null(rng.gen_range(0..8u64)),
                })
                .collect();
            inst.insert(rel.name().as_str(), t).unwrap();
        }
    }
    inst
}

#[test]
fn exchange_phase2_equals_the_rebuild_reference() {
    let mut seen = Seen::default();
    let mut rng = StdRng::seed_from_u64(0xe9d);
    for m in mappings() {
        let phase1 =
            Mapping::new(m.source().clone(), m.target().clone(), m.st_tgds().to_vec()).unwrap();
        for case in 0..150 {
            let src = source(&m, &mut rng);
            let base = exchange(&phase1, &src).unwrap();
            let want = reference_enforce(&base.target, m.target_egds(), &mut seen);
            for matcher in [Matcher::Indexed, Matcher::Scan] {
                let opts = ChaseOptions {
                    matcher,
                    ..ChaseOptions::default()
                };
                let got = exchange_opts(&m, &src, opts);
                match (&got, &want) {
                    (Ok(got), Ok((inst, merges, _))) => {
                        assert_eq!(bytes(&got.target), bytes(inst), "case {case} {matcher:?}");
                        assert_eq!(got.firings - got.stats.st_firings, *merges, "case {case}");
                    }
                    (Err(e), Err(w)) => assert_eq!(e.to_string(), w.to_string()),
                    _ => panic!("case {case} {matcher:?}: {got:?} vs {want:?}"),
                }
            }
        }
    }
    assert!(seen.null_null > 0 && seen.null_const > 0 && seen.clash > 0);
}

#[test]
fn enforce_egds_equals_the_rebuild_reference() {
    let mut seen = Seen::default();
    let mut rng = StdRng::seed_from_u64(0xe9e);
    for m in mappings() {
        for case in 0..150 {
            let inst = target(&m, &mut rng);
            let want = reference_enforce(&inst, m.target_egds(), &mut seen);
            let got = enforce_egds(&inst, m.target_egds(), &Governor::unlimited())
                .and_then(EgdOutcome::into_result);
            match (&got, &want) {
                (Ok((got, stats)), Ok((inst, merges, rounds))) => {
                    assert_eq!(bytes(got), bytes(inst), "case {case}");
                    assert_eq!(stats.merges, *merges, "case {case}");
                    assert_eq!(stats.rounds, *rounds, "case {case}");
                }
                (Err(e), Err(w)) => assert_eq!(e.to_string(), w.to_string()),
                _ => panic!("case {case}: {got:?} vs {want:?}"),
            }
        }
    }
    assert!(seen.null_null > 0 && seen.null_const > 0 && seen.clash > 0);
}

#[test]
fn merge_chain_equals_the_rebuild_reference() {
    // Each merge folds one more null into a growing class, so the
    // class's D rows are rewritten over and over: the in-place path
    // compacts its arenas along the way.
    let m = parse_mapping(
        "source E(name, i);
         target M(emp, mgr);
         target D(mgr, i);
         key M(emp);
         E(x, i) -> M(x, m) & D(m, i);",
    )
    .unwrap();
    let mut src = Instance::empty(m.source().clone());
    for i in 0..60 {
        src.insert("E", Tuple::new(vec![Value::str("a"), Value::int(i)]))
            .unwrap();
    }
    for i in 0..5 {
        src.insert("E", Tuple::new(vec![Value::str("b"), Value::int(i)]))
            .unwrap();
    }
    let phase1 =
        Mapping::new(m.source().clone(), m.target().clone(), m.st_tgds().to_vec()).unwrap();
    let base = exchange(&phase1, &src).unwrap();
    let mut seen = Seen::default();
    let (want, merges, rounds) =
        reference_enforce(&base.target, m.target_egds(), &mut seen).unwrap();
    assert_eq!(merges, 59 + 4);
    for matcher in [Matcher::Indexed, Matcher::Scan] {
        let opts = ChaseOptions {
            matcher,
            ..ChaseOptions::default()
        };
        let got = exchange_opts(&m, &src, opts).unwrap();
        assert_eq!(bytes(&got.target), bytes(&want), "{matcher:?}");
        assert_eq!(got.firings - got.stats.st_firings, merges);
    }
    let (got, stats) = enforce_egds(&base.target, m.target_egds(), &Governor::unlimited())
        .and_then(EgdOutcome::into_result)
        .unwrap();
    assert_eq!(bytes(&got), bytes(&want));
    assert_eq!((stats.merges, stats.rounds), (merges, rounds));
}
