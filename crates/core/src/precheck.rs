//! Static prediction of [`crate::compile`]'s verdict — the compiler's
//! refusal reasons exposed as inspectable data, without building any
//! lens machinery.
//!
//! [`precheck`] reports the compiler's own first pass
//! ([`crate::compiler`]), so it answers by construction the two
//! questions the compiler otherwise only answers by running:
//!
//! 1. **Will [`crate::compile`] accept?** Every fragment restriction
//!    is a structured [`PrecheckReason`] carrying the offending tgd
//!    index, so diagnostics can point at source spans.
//! 2. **With what fidelity?** Each st-tgd is classified
//!    [`Fidelity::Exact`] or [`Fidelity::Approximate`] — the very
//!    values the compiler's [`crate::CompileReport`] carries.
//!
//! `compile` ends with a lens-validation pass, kept as a safety check.
//! Its one *reachable* failure — a base relation appearing twice in a
//! folded union lens — is predicted here as
//! [`PrecheckReason::DuplicateBase`]; a property test in `dex-analyze`
//! guards that prediction over generated mappings. The tail's other
//! failure modes indicate compiler bugs, not fragment violations, and
//! are not modeled.

use crate::compiler::classify;
use crate::template::Fidelity;
use dex_logic::Mapping;
use dex_relational::Name;
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, BTreeSet};

/// One structured reason why [`crate::compile`] will refuse a mapping.
#[derive(Clone, PartialEq, Eq, Debug, Serialize, Deserialize)]
pub enum PrecheckReason {
    /// The mapping has target tgds, which are outside the compilable
    /// fragment (target *egds* are fine).
    TargetTgds {
        /// How many target tgds there are.
        count: usize,
    },
    /// A tgd joins a relation with itself in the premise.
    SelfJoin {
        /// Index into `mapping.st_tgds()`.
        tgd: usize,
        /// The relation joined with itself.
        relation: Name,
    },
    /// A tgd contains a function (Skolem) term.
    FunctionTerm {
        /// Index into `mapping.st_tgds()`.
        tgd: usize,
        /// Rendered atom containing the term.
        atom: String,
    },
    /// Two tgds produce the same target relation but disagree on which
    /// columns are determined / constant / existential.
    ShapeDisagreement {
        /// The target relation produced with conflicting shapes.
        relation: Name,
        /// Indices of the tgds involved (first the reference shape,
        /// then each dissenter).
        tgds: Vec<usize>,
    },
    /// A source relation feeds the same target relation through more
    /// than one rule (or twice from one rule producing the relation in
    /// two conjuncts). The per-relation union lens would then mention
    /// the base table twice, making `put` ambiguous.
    DuplicateBase {
        /// The target relation whose union lens would be ambiguous.
        relation: Name,
        /// The source relation appearing more than once.
        source: Name,
        /// Tgd index of every contribution whose premise uses `source`,
        /// in rule order (repeated when one rule contributes twice).
        tgds: Vec<usize>,
    },
}

impl PrecheckReason {
    /// The primary offending st-tgd index, when the reason is tied to
    /// one (`ShapeDisagreement` points at the first dissenting tgd).
    pub fn tgd_index(&self) -> Option<usize> {
        match self {
            PrecheckReason::TargetTgds { .. } => None,
            PrecheckReason::SelfJoin { tgd, .. } | PrecheckReason::FunctionTerm { tgd, .. } => {
                Some(*tgd)
            }
            PrecheckReason::ShapeDisagreement { tgds, .. } => tgds.get(1).copied(),
            PrecheckReason::DuplicateBase { tgds, .. } => tgds.last().copied(),
        }
    }
}

/// The precheck's full verdict.
#[derive(Clone, PartialEq, Eq, Debug, Serialize, Deserialize)]
pub struct PrecheckReport {
    /// Every predicted refusal reason (empty iff `compile` accepts).
    pub reasons: Vec<PrecheckReason>,
    /// Fidelity of each st-tgd, aligned with `mapping.st_tgds()`: the
    /// values the compiler's report carries.
    pub fidelity: Vec<Fidelity>,
}

impl PrecheckReport {
    /// Will [`crate::compile`] accept this mapping?
    pub fn accepts(&self) -> bool {
        self.reasons.is_empty()
    }
}

/// Statically predict [`crate::compile`]'s verdict on a mapping.
pub fn precheck(mapping: &Mapping) -> PrecheckReport {
    let pass = classify(mapping);
    let mut reasons = Vec::new();
    if pass.target_tgds > 0 {
        reasons.push(PrecheckReason::TargetTgds {
            count: pass.target_tgds,
        });
    }

    for (ti, (tgd, class)) in mapping.st_tgds().iter().zip(&pass.tgds).enumerate() {
        reasons.extend(class.self_joins.iter().map(|rel| PrecheckReason::SelfJoin {
            tgd: ti,
            relation: rel.clone(),
        }));
        let premise = class.premise_funcs.iter().map(|&k| &tgd.lhs[k]);
        let conclusion = tgd
            .rhs
            .iter()
            .zip(&class.conclusions)
            .filter(|(_, c)| c.is_err())
            .map(|(atom, _)| atom);
        reasons.extend(
            premise
                .chain(conclusion)
                .map(|atom| PrecheckReason::FunctionTerm {
                    tgd: ti,
                    atom: atom.to_string(),
                }),
        );
    }

    reasons.extend(pass.conflicts.iter().map(|c| {
        PrecheckReason::ShapeDisagreement {
            relation: c.relation.clone(),
            tgds: std::iter::once(c.reference_tgd)
                .chain(c.dissenters.iter().copied())
                .collect(),
        }
    }));

    // (target rel, source rel) → tgd index of each contribution whose
    // premise reads the source relation: each conjunct producing a
    // relation contributes a lens tree over every premise relation of
    // its rule. More than one entry means the folded union lens
    // mentions the base table twice.
    let mut base_uses: BTreeMap<(Name, Name), Vec<usize>> = BTreeMap::new();
    for (ti, (tgd, class)) in mapping.st_tgds().iter().zip(&pass.tgds).enumerate() {
        let lhs_rels: BTreeSet<&Name> = tgd.lhs.iter().map(|a| &a.relation).collect();
        for shape in class.shapes().unwrap_or_default() {
            for src in &lhs_rels {
                base_uses
                    .entry((shape.rel.clone(), (*src).clone()))
                    .or_default()
                    .push(ti);
            }
        }
    }
    for ((rel, source), tgds) in base_uses {
        if tgds.len() > 1 {
            reasons.push(PrecheckReason::DuplicateBase {
                relation: rel,
                source,
                tgds,
            });
        }
    }

    PrecheckReport {
        reasons,
        fidelity: pass.tgds.into_iter().map(|c| c.fidelity).collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compile;
    use dex_logic::parse_mapping;

    fn agree(src: &str) {
        let m = parse_mapping(src).unwrap();
        let pre = precheck(&m);
        match compile(&m) {
            Ok(t) => {
                assert!(pre.accepts(), "precheck refused, compile accepted: {pre:?}");
                for (i, (_, fid)) in t.report.entries.iter().enumerate() {
                    assert_eq!(
                        matches!(fid, Fidelity::Exact),
                        matches!(pre.fidelity[i], Fidelity::Exact),
                        "fidelity class disagrees on tgd {i}"
                    );
                }
            }
            Err(e) => assert!(!pre.accepts(), "precheck accepted, compile refused: {e}"),
        }
    }

    #[test]
    fn accepts_what_compile_accepts() {
        agree(
            r#"
            source Emp(name);
            target Manager(emp, mgr);
            Emp(x) -> Manager(x, y);
            "#,
        );
        agree(
            r#"
            source Father(p, c);
            source Mother(p, c);
            target Parent(p, c);
            Father(x, y) -> Parent(x, y);
            Mother(x, y) -> Parent(x, y);
            "#,
        );
    }

    #[test]
    fn predicts_self_join_refusal() {
        let m = parse_mapping(
            r#"
            source S(a, b);
            target T(a, c);
            S(x, y) & S(y, z) -> T(x, z);
            "#,
        )
        .unwrap();
        let pre = precheck(&m);
        assert!(!pre.accepts());
        assert_eq!(
            pre.reasons[0],
            PrecheckReason::SelfJoin {
                tgd: 0,
                relation: dex_relational::Name::new("S"),
            }
        );
        assert_eq!(pre.reasons[0].tgd_index(), Some(0));
        assert!(compile(&m).is_err());
    }

    #[test]
    fn predicts_target_tgd_refusal() {
        let m = parse_mapping(
            r#"
            source S(a);
            target T(a);
            target U(a);
            S(x) -> T(x);
            T(x) -> U(x);
            "#,
        )
        .unwrap();
        let pre = precheck(&m);
        assert_eq!(pre.reasons, vec![PrecheckReason::TargetTgds { count: 1 }]);
        assert!(compile(&m).is_err());
    }

    #[test]
    fn predicts_shape_disagreement() {
        let m = parse_mapping(
            r#"
            source R1(a, b);
            source R2(a);
            target S(a, b);
            R1(x, y) -> S(x, y);
            R2(x) -> S(x, y);
            "#,
        )
        .unwrap();
        let pre = precheck(&m);
        assert!(!pre.accepts());
        match &pre.reasons[0] {
            PrecheckReason::ShapeDisagreement { relation, tgds } => {
                assert_eq!(relation.as_str(), "S");
                assert_eq!(tgds, &vec![0, 1]);
            }
            other => panic!("{other:?}"),
        }
        assert_eq!(pre.reasons[0].tgd_index(), Some(1));
        assert!(compile(&m).is_err());
    }

    #[test]
    fn predicts_duplicate_base_across_tgds() {
        // Two rules with the same premise relation feed `T`: same
        // shape, but the union lens would mention `S` twice.
        let m = parse_mapping(
            r#"
            source S(a, b);
            target T(c, d);
            S(x, y) -> T(x, y);
            S(x, y) -> T(y, x);
            "#,
        )
        .unwrap();
        let pre = precheck(&m);
        assert_eq!(
            pre.reasons,
            vec![PrecheckReason::DuplicateBase {
                relation: dex_relational::Name::new("T"),
                source: dex_relational::Name::new("S"),
                tgds: vec![0, 1],
            }]
        );
        assert_eq!(pre.reasons[0].tgd_index(), Some(1));
        assert!(compile(&m).is_err());
    }

    #[test]
    fn predicts_duplicate_base_within_one_tgd() {
        // One rule producing `T` in two conjuncts duplicates its own
        // premise relation in the folded union.
        agree(
            r#"
            source S(a, b);
            target T(c, d);
            S(x, y) -> T(x, z) & T(y, z);
            "#,
        );
        let m = parse_mapping(
            r#"
            source S(a, b);
            target T(c, d);
            S(x, y) -> T(x, z) & T(y, z);
            "#,
        )
        .unwrap();
        let pre = precheck(&m);
        assert!(pre.reasons.iter().any(
            |r| matches!(r, PrecheckReason::DuplicateBase { tgds, .. } if tgds == &vec![0, 0])
        ));
    }

    #[test]
    fn distinct_premises_feeding_one_target_stay_accepted() {
        // The classic Father/Mother union is fine: different base
        // tables, one view lens. (Also covered by agree() above, but
        // pinned here against the new DuplicateBase rule.)
        let m = parse_mapping(
            r#"
            source Father(p, c);
            source Mother(p, c);
            target Parent(p, c);
            Father(x, y) -> Parent(x, y);
            Mother(x, y) -> Parent(x, y);
            "#,
        )
        .unwrap();
        assert!(precheck(&m).accepts());
        assert!(compile(&m).is_ok());
    }

    #[test]
    fn predicts_approximate_fidelity() {
        let m = parse_mapping(
            r#"
            source Takes(name, course);
            target Student(id, name);
            target StudentCard(id);
            Takes(x, y) -> Student(z, x) & StudentCard(z);
            "#,
        )
        .unwrap();
        let pre = precheck(&m);
        assert!(pre.accepts());
        assert!(matches!(pre.fidelity[0], Fidelity::Approximate(_)));
        let t = compile(&m).unwrap();
        assert!(matches!(t.report.entries[0].1, Fidelity::Approximate(_)));
    }

    #[test]
    fn repeated_existential_within_one_atom_stays_exact() {
        // R(x) -> S(x, z, z): z repeats inside a single atom — the
        // compiler counts it once per atom, so the tgd is Exact.
        let m = parse_mapping(
            r#"
            source R(a);
            target S(a, b, c);
            R(x) -> S(x, z, z);
            "#,
        )
        .unwrap();
        agree(
            r#"
            source R(a);
            target S(a, b, c);
            R(x) -> S(x, z, z);
            "#,
        );
        let pre = precheck(&m);
        assert!(matches!(pre.fidelity[0], Fidelity::Exact));
    }

    #[test]
    fn report_serde_round_trip() {
        let m = parse_mapping(
            r#"
            source S(a, b);
            target T(a, c);
            S(x, y) & S(y, z) -> T(x, z);
            "#,
        )
        .unwrap();
        let pre = precheck(&m);
        let json = serde_json::to_string(&pre).unwrap();
        let back: PrecheckReport = serde_json::from_str(&json).unwrap();
        assert_eq!(pre, back);
    }
}
