//! Property test pinning the static cost bounds to the dynamic chase:
//! for every generated weakly-acyclic mapping, the bounds predicted by
//! [`dex_analyze::cost_section`] at the *measured* source statistics
//! must dominate what an actual exchange consumes — committed rounds,
//! rule firings (including egd merges), invented nulls, and final
//! tuple count.
//!
//! The same scenarios also pin the `--auto-budget` contract: a chase
//! governed by [`Budget::from_bounds`] with safety factor 1 (the
//! tightest admissible caps) must never trip.
//!
//! The generator stratifies the target relations — a target tgd reads
//! `T_i` and writes `T_j` only for `i < j` — so every special edge in
//! the dependency graph ascends the stratification and the mapping is
//! weakly acyclic *by construction*, while still covering key egds
//! (null-merging), multi-atom premises, constants, and existentials
//! shared between conclusion atoms.

use dex_analyze::{cost_pass, cost_section};
use dex_chase::TerminationClass;
use dex_chase::{chase, exchange, Budget, ChaseOutcome, Governor, RunContext, Start};
use dex_logic::parse_mapping;
use dex_relational::{Bound, Instance, SourceStats, Value};
use proptest::prelude::*;
use std::fmt::Write as _;

/// splitmix64 — deterministic stream from the strategy-drawn seed.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> usize {
        (self.next() % n) as usize
    }
}

struct Scenario {
    text: String,
    facts: Vec<Vec<Vec<String>>>,
}

/// A conclusion term for an st-tgd: constant (rarely) or a variable
/// from a pool wider than the premise's, so some come out existential —
/// and, drawn twice, *shared* between conclusion atoms.
fn conclusion_term(rng: &mut Rng) -> String {
    if rng.below(6) == 0 {
        format!("'k{}'", rng.below(3))
    } else {
        format!("v{}", rng.below(8))
    }
}

fn build_scenario(seed: u64) -> Scenario {
    build_scenario_with(seed, true)
}

/// With `stratified` the target tgds only ascend the relation order
/// (weakly acyclic by construction); without it they may point
/// anywhere — including at themselves — so the fuzz corpus covers
/// existential cycles, non-JA mappings, and every in-between.
fn build_scenario_with(seed: u64, stratified: bool) -> Scenario {
    let mut rng = Rng(seed);
    let src_arities: Vec<usize> = (0..1 + rng.below(2)).map(|_| 1 + rng.below(3)).collect();
    let tgt_arities: Vec<usize> = (0..2 + rng.below(2)).map(|_| 1 + rng.below(3)).collect();

    let mut text = String::new();
    for (i, a) in src_arities.iter().enumerate() {
        let attrs: Vec<String> = (0..*a).map(|p| format!("a{p}")).collect();
        let _ = writeln!(text, "source S{i}({});", attrs.join(", "));
    }
    for (i, a) in tgt_arities.iter().enumerate() {
        let attrs: Vec<String> = (0..*a).map(|p| format!("b{p}")).collect();
        let _ = writeln!(text, "target T{i}({});", attrs.join(", "));
    }
    // Key egds: merges consume invented nulls; the rounds/firings
    // bounds must absorb them.
    for (i, a) in tgt_arities.iter().enumerate() {
        if *a >= 2 && rng.below(2) == 0 {
            let _ = writeln!(text, "key T{i}(b0);");
        }
    }

    // st-tgds: multi-atom premises, frontier/existential/const
    // conclusion terms, occasionally shared existentials across atoms.
    for _ in 0..1 + rng.below(3) {
        let lhs: Vec<String> = (0..1 + rng.below(2))
            .map(|_| {
                let rel = rng.below(src_arities.len() as u64);
                let args: Vec<String> = (0..src_arities[rel])
                    .map(|_| format!("v{}", rng.below(6)))
                    .collect();
                format!("S{rel}({})", args.join(", "))
            })
            .collect();
        let rhs: Vec<String> = (0..1 + rng.below(2))
            .map(|_| {
                let rel = rng.below(tgt_arities.len() as u64);
                let args: Vec<String> = (0..tgt_arities[rel])
                    .map(|_| conclusion_term(&mut rng))
                    .collect();
                format!("T{rel}({})", args.join(", "))
            })
            .collect();
        let _ = writeln!(text, "{} -> {};", lhs.join(" & "), rhs.join(" & "));
    }

    // Target tgds, stratified: premise reads T_i, conclusion writes
    // T_j with i < j only, so the dependency graph cannot cycle and
    // the mapping is weakly acyclic whatever else was generated.
    for _ in 0..rng.below(3) {
        let (lhs_rel, rhs_rel) = if stratified {
            let l = rng.below((tgt_arities.len() - 1) as u64);
            (l, l + 1 + rng.below((tgt_arities.len() - l - 1) as u64))
        } else {
            // Anything goes: self-loops and descending edges included.
            (
                rng.below(tgt_arities.len() as u64),
                rng.below(tgt_arities.len() as u64),
            )
        };
        let lhs_arity = tgt_arities[lhs_rel];
        let lhs_args: Vec<String> = (0..lhs_arity).map(|p| format!("u{p}")).collect();
        let rhs_args: Vec<String> = (0..tgt_arities[rhs_rel])
            .map(|_| match rng.below(6) {
                0 => format!("'k{}'", rng.below(3)),
                // Fresh variables come out existential.
                1 | 2 => format!("w{}", rng.below(3)),
                _ => format!("u{}", rng.below(lhs_arity as u64)),
            })
            .collect();
        let _ = writeln!(
            text,
            "T{lhs_rel}({}) -> T{rhs_rel}({});",
            lhs_args.join(", "),
            rhs_args.join(", ")
        );
    }

    let facts = src_arities
        .iter()
        .map(|arity| {
            (0..rng.below(5))
                .map(|_| (0..*arity).map(|_| format!("d{}", rng.below(40))).collect())
                .collect()
        })
        .collect();

    Scenario { text, facts }
}

fn build_source(scenario: &Scenario, m: &dex_logic::Mapping) -> Instance {
    let mut src = Instance::empty(m.source().clone());
    for (i, rows) in scenario.facts.iter().enumerate() {
        for row in rows {
            let tuple: dex_relational::Tuple = row
                .iter()
                .map(|s| Value::str(s.clone()))
                .collect::<Vec<_>>()
                .into();
            src.insert(&format!("S{i}"), tuple).unwrap();
        }
    }
    src
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn predicted_bounds_dominate_actual_chase(seed in 0u64..u64::MAX) {
        let scenario = build_scenario(seed);
        let text = &scenario.text;
        let m = parse_mapping(text).expect(text);
        let src = build_source(&scenario, &m);

        let stats = SourceStats::measure(&src);
        let section = cost_section(&m, &stats);
        prop_assert!(
            section.bounds.all_finite(),
            "stratified mapping predicted unbounded:\n{}",
            text
        );

        // Key egds can clash two constants — then there is no solution
        // and nothing to bound.
        let r = match exchange(&m, &src) {
            Ok(r) => r,
            Err(_) => return,
        };
        for (name, actual, bound) in [
            ("rounds", r.stats.rounds as u64, section.bounds.rounds),
            ("firings", r.firings as u64, section.bounds.firings),
            ("nulls", r.nulls_created as u64, section.bounds.nulls),
            ("tuples", r.target.fact_count() as u64, section.bounds.tuples),
        ] {
            prop_assert!(
                Bound::Finite(actual) <= bound,
                "{name}: actual {} exceeds predicted {}\nmapping:\n{}",
                actual, bound, text
            );
        }

        // `--auto-budget` contract: caps synthesized from the bounds at
        // the *tightest* admissible safety factor never trip.
        let budget = Budget::from_bounds(&section.bounds, 1);
        prop_assert!(!budget.is_unlimited(), "finite bounds must yield caps");
        let gov = Governor::new(budget);
        let outcome = chase(&m, Start::Fresh(&src), RunContext::new(&gov)).expect(text);
        prop_assert!(
            matches!(outcome, ChaseOutcome::Complete(_)),
            "auto-budget tripped on an admitted mapping:\n{}",
            text
        );
    }

    /// Fuzz contract for the cost pass itself: on *arbitrary* mappings
    /// — cyclic target tgds, self-loops, non-JA recursion included —
    /// the pass is total (never panics, at any cardinality up to ones
    /// where every product overflows u64), unterminating mappings
    /// degrade to `Unbounded` rather than wrapping, and every bound is
    /// monotone in the assumed source cardinalities.
    #[test]
    fn cost_pass_is_total_and_monotone_on_arbitrary_mappings(seed in 0u64..u64::MAX) {
        let scenario = build_scenario_with(seed, false);
        let m = match parse_mapping(&scenario.text) {
            Ok(m) => m,
            Err(_) => return,
        };

        for n in [0u64, 1, 1_000, u64::MAX / 2] {
            let stats = SourceStats::uniform(n);
            let section = cost_section(&m, &stats);
            // The lint wrapper must be as total as the section builder,
            // with and without an admission threshold.
            let _ = cost_pass(&m, None, &stats, None);
            let _ = cost_pass(&m, None, &stats, Some(0));
            if section.class == TerminationClass::Unknown {
                prop_assert!(
                    !section.bounds.all_finite(),
                    "non-terminating mapping produced finite bounds at card {}:\n{}",
                    n, scenario.text
                );
                prop_assert_eq!(
                    section.bounds.headline(),
                    Bound::Unbounded,
                    "non-terminating headline must be unbounded, not overflowed:\n{}",
                    &scenario.text
                );
            }
        }

        // Monotonicity: growing every assumed cardinality can only
        // grow (or preserve) each bound; `Unbounded` is the top.
        let small = cost_section(&m, &SourceStats::uniform(3)).bounds;
        let large = cost_section(&m, &SourceStats::uniform(30)).bounds;
        for (name, s, l) in [
            ("rounds", small.rounds, large.rounds),
            ("firings", small.firings, large.firings),
            ("tuples", small.tuples, large.tuples),
            ("nulls", small.nulls, large.nulls),
            ("bytes", small.bytes, large.bytes),
        ] {
            prop_assert!(
                s <= l,
                "{name} not monotone: {} at card 3 vs {} at card 30\n{}",
                s, l, scenario.text
            );
        }
    }
}
