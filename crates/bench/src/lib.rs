//! Workload generators shared by the Criterion benchmarks.
//!
//! One bench target per experiment of DESIGN.md §4. All generators are
//! deterministic (seeded `StdRng`), so bench runs are reproducible.

use dex_chase::{
    Budget, ChaseError, ChaseOptions, ChaseOutcome, Governor, RunContext, Start, DEFAULT_MAX_ROUNDS,
};
use dex_logic::{parse_mapping, Mapping};
use dex_relational::{tuple, Instance, Tuple, Value};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Fixed seed for every generator.
pub const SEED: u64 = 0x0DEC_0DE5;

/// The governor an unbudgeted [`dex_chase::exchange`] runs under: no
/// cap but the default round ceiling.
pub fn ceiling() -> Governor {
    Governor::new(Budget::unlimited().with_max_rounds(DEFAULT_MAX_ROUNDS))
}

/// A fresh chase of `src` with `opts` under `gov`.
pub fn chase_fresh(
    m: &Mapping,
    src: &Instance,
    opts: ChaseOptions,
    gov: &Governor,
) -> Result<ChaseOutcome, ChaseError> {
    dex_chase::chase(
        m,
        Start::Fresh(src),
        RunContext {
            opts,
            ..RunContext::new(gov)
        },
    )
}

/// The Example 1 mapping: `Emp(x) → ∃y Manager(x, y)`.
pub fn emp_mapping() -> Mapping {
    parse_mapping(
        r#"
        source Emp(name);
        target Manager(emp, mgr);
        Emp(x) -> Manager(x, y);
        "#,
    )
    .unwrap()
}

/// A source instance with `n` employees.
pub fn emps(n: usize) -> Instance {
    let m = emp_mapping();
    let mut inst = Instance::empty(m.source().clone());
    for i in 0..n {
        inst.insert("Emp", tuple![format!("emp{i}").as_str()])
            .unwrap();
    }
    inst
}

/// The Figure 1 (upper diagram) mapping.
pub fn university_mapping() -> Mapping {
    parse_mapping(
        r#"
        source Takes(name, course);
        target Student(id, name);
        target Assgn(name, course);
        Takes(x, y) -> Student(z, x) & Assgn(x, y);
        "#,
    )
    .unwrap()
}

/// `n` Takes facts over `n/4 + 1` students and 17 courses.
pub fn takes(n: usize) -> Instance {
    let m = university_mapping();
    let mut rng = StdRng::seed_from_u64(SEED);
    let students = n / 4 + 1;
    let mut inst = Instance::empty(m.source().clone());
    while inst.fact_count() < n {
        let s = rng.gen_range(0..students);
        let c = rng.gen_range(0..17);
        inst.insert(
            "Takes",
            tuple![format!("s{s}").as_str(), format!("course{c}").as_str()],
        )
        .unwrap();
    }
    inst
}

/// The Example 2 pair of mappings (Emp→Manager, Manager→Boss/SelfMngr).
pub fn example2_mappings() -> (Mapping, Mapping) {
    let m23 = parse_mapping(
        r#"
        source Manager(emp, mgr);
        target Boss(emp, mgr);
        target SelfMngr(emp);
        Manager(x, y) -> Boss(x, y);
        Manager(x, x) -> SelfMngr(x);
        "#,
    )
    .unwrap();
    (emp_mapping(), m23)
}

/// A pair of full copy-chains of length `k` relations each, for
/// composition-scaling benches: A0→A1→…→Ak.
pub fn chain_mappings(k: usize) -> Vec<Mapping> {
    (0..k)
        .map(|i| {
            parse_mapping(&format!(
                "source A{i}(v, w);\ntarget A{}(v, w);\nA{i}(x, y) -> A{}(x, y);",
                i + 1,
                i + 1
            ))
            .unwrap()
        })
        .collect()
}

/// The Example 3 mapping (Father/Mother → Parent).
pub fn parents_mapping() -> Mapping {
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

/// `n` parentage facts split between Father and Mother.
pub fn parents(n: usize) -> Instance {
    let m = parents_mapping();
    let mut rng = StdRng::seed_from_u64(SEED);
    let mut inst = Instance::empty(m.source().clone());
    for i in 0..n {
        let rel = if rng.gen_bool(0.5) {
            "Father"
        } else {
            "Mother"
        };
        inst.insert(
            rel,
            tuple![format!("p{i}").as_str(), format!("c{i}").as_str()],
        )
        .unwrap();
    }
    inst
}

/// The Person1/Person2 mapping from the paper's introduction.
pub fn persons_mapping() -> Mapping {
    parse_mapping(
        r#"
        source Person1(id, name, age, city);
        target Person2(id, name, salary, zipcode);
        Person1(i, n, a, c) -> Person2(i, n, s, z);
        "#,
    )
    .unwrap()
}

/// `n` Person1 rows over 31 cities.
pub fn persons(n: usize) -> Instance {
    let m = persons_mapping();
    let mut rng = StdRng::seed_from_u64(SEED);
    let mut inst = Instance::empty(m.source().clone());
    for i in 0..n {
        let city = rng.gen_range(0..31);
        inst.insert(
            "Person1",
            Tuple::new(vec![
                Value::int(i as i64),
                Value::str(format!("name{i}")),
                Value::int(rng.gen_range(18..80)),
                Value::str(format!("city{city}")),
            ]),
        )
        .unwrap();
    }
    inst
}

/// An instance whose Manager relation has `n` hub facts with the given
/// fraction of null spokes (the rest ground) — the E10 core workload.
pub fn null_spokes(n: usize, null_fraction: f64) -> Instance {
    let m = emp_mapping();
    let mut rng = StdRng::seed_from_u64(SEED);
    let mut inst = Instance::empty(m.target().clone());
    let mut null_id = 0u64;
    for i in 0..n {
        let hub = format!("hub{}", i / 8);
        let spoke = if rng.gen_bool(null_fraction) {
            null_id += 1;
            Value::Null(dex_relational::NullId(null_id))
        } else {
            Value::str(format!("spoke{i}"))
        };
        inst.insert("Manager", Tuple::new(vec![Value::str(hub), spoke]))
            .unwrap();
    }
    inst
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generators_are_deterministic() {
        assert_eq!(takes(100), takes(100));
        assert_eq!(persons(50), persons(50));
        assert_eq!(parents(40), parents(40));
        assert_eq!(null_spokes(30, 0.5), null_spokes(30, 0.5));
    }

    #[test]
    fn generators_hit_requested_sizes() {
        assert_eq!(emps(123).fact_count(), 123);
        assert_eq!(takes(100).fact_count(), 100);
        assert_eq!(persons(50).fact_count(), 50);
        assert_eq!(parents(40).fact_count(), 40);
        assert_eq!(null_spokes(30, 0.3).fact_count(), 30);
    }

    #[test]
    fn chain_mappings_compose_structurally() {
        let ms = chain_mappings(3);
        assert_eq!(ms.len(), 3);
        for pair in ms.windows(2) {
            assert_eq!(pair[0].target(), pair[1].source());
        }
    }
}
