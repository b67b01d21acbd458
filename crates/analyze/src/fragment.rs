//! Compiler-fragment pass: `DEX201`–`DEX206`.
//!
//! Surfaces [`dex_core::precheck()`]'s static prediction of the lens
//! compiler's verdict as diagnostics, so `dexcli lint` can say *before
//! compiling* whether `compile()` will accept the mapping and with what
//! per-tgd fidelity. The prediction is the compiler's own first pass; a
//! property test in this crate guards the one refusal it predicts from
//! outside that pass (DEX206, the lens-validation tail).

use crate::diagnostic::{Code, Diagnostic, Witness};
use dex_core::{precheck, Fidelity, PrecheckReason};
use dex_logic::{Mapping, SourceMap};

/// Run the compiler-fragment pass.
pub fn fragment_pass(mapping: &Mapping, spans: Option<&SourceMap>) -> Vec<Diagnostic> {
    let report = precheck(mapping);
    let mut out = Vec::new();

    let st_span = |i: usize| spans.and_then(|s| s.st_tgds.get(i).copied());

    for reason in &report.reasons {
        let span = match reason {
            PrecheckReason::TargetTgds { .. } => spans.and_then(|s| s.target_tgds.first().copied()),
            _ => reason.tgd_index().and_then(st_span),
        };
        let d = match reason {
            PrecheckReason::SelfJoin { tgd, relation } => Diagnostic::new(
                Code::Dex201,
                format!(
                    "st-tgd #{tgd} joins `{relation}` with itself; compile() will \
                         refuse it (self-joins need aliasing)"
                ),
            )
            .with_witness(Witness::Relation(relation.clone())),
            PrecheckReason::FunctionTerm { tgd, atom } => Diagnostic::new(
                Code::Dex202,
                format!(
                    "st-tgd #{tgd} has a function term in `{atom}`; compile() will \
                     refuse it (SO-tgds run under the chase, not lenses)"
                ),
            ),
            PrecheckReason::ShapeDisagreement { relation, tgds } => Diagnostic::new(
                Code::Dex203,
                format!(
                    "tgds {} producing `{relation}` disagree on which columns are \
                         determined; compile() will refuse the mapping",
                    tgds.iter()
                        .map(|i| format!("#{i}"))
                        .collect::<Vec<_>>()
                        .join(", ")
                ),
            )
            .with_witness(Witness::TgdIndices(tgds.clone())),
            PrecheckReason::TargetTgds { count } => Diagnostic::new(
                Code::Dex204,
                format!(
                    "{count} target tgd(s) put the mapping outside the compilable \
                     fragment; compile() will refuse it (enforce them with the chase)"
                ),
            ),
            PrecheckReason::DuplicateBase {
                relation,
                source,
                tgds,
            } => Diagnostic::new(
                Code::Dex206,
                format!(
                    "`{source}` feeds `{relation}` through several conjuncts (tgds {}); \
                     compile() will refuse the mapping (the union lens would mention \
                     the base table twice, making put ambiguous)",
                    tgds.iter()
                        .map(|i| format!("#{i}"))
                        .collect::<Vec<_>>()
                        .join(", ")
                ),
            )
            .with_witness(Witness::TgdIndices(tgds.clone())),
        };
        out.push(d.with_span(span));
    }

    for (i, fid) in report.fidelity.iter().enumerate() {
        if let Fidelity::Approximate(reasons) = fid {
            let mut d = Diagnostic::new(
                Code::Dex205,
                format!(
                    "st-tgd #{i} compiles only approximately: the lens pair deviates \
                     from chase semantics"
                ),
            )
            .with_span(st_span(i));
            for r in reasons {
                d = d.with_note(r.clone());
            }
            out.push(d);
        }
    }

    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use dex_core::compile;
    use dex_logic::parse_mapping_with_spans;

    fn lint(src: &str) -> Vec<Diagnostic> {
        let (m, sm) = parse_mapping_with_spans(src).unwrap();
        fragment_pass(&m, Some(&sm))
    }

    #[test]
    fn compilable_mapping_is_silent() {
        let ds = lint("source Emp(name);\ntarget Manager(emp, mgr);\nEmp(x) -> Manager(x, y);");
        assert!(ds.is_empty(), "{ds:?}");
    }

    #[test]
    fn self_join_raises_dex201_at_the_tgd() {
        let ds = lint("source S(a, b);\ntarget T(a, c);\nS(x, y) & S(y, z) -> T(x, z);");
        assert_eq!(ds.len(), 1);
        assert_eq!(ds[0].code, Code::Dex201);
        assert_eq!(ds[0].span.unwrap().line, 3);
    }

    #[test]
    fn shape_disagreement_raises_dex203_at_the_dissenter() {
        let ds = lint(
            "source R1(a, b);\nsource R2(a);\ntarget S(a, b);\n\
             R1(x, y) -> S(x, y);\nR2(x) -> S(x, y);",
        );
        assert_eq!(ds.len(), 1);
        assert_eq!(ds[0].code, Code::Dex203);
        assert_eq!(ds[0].span.unwrap().line, 5);
        assert_eq!(ds[0].witness, Some(Witness::TgdIndices(vec![0, 1])));
    }

    #[test]
    fn target_tgds_raise_dex204_at_first_target_tgd() {
        let src = "source S(a);\ntarget T(a);\ntarget U(a);\nS(x) -> T(x);\nT(x) -> U(x);";
        let ds = lint(src);
        assert_eq!(ds.len(), 1);
        assert_eq!(ds[0].code, Code::Dex204);
        assert_eq!(ds[0].span.unwrap().line, 5);
        let (m, _) = parse_mapping_with_spans(src).unwrap();
        assert!(compile(&m).is_err());
    }

    #[test]
    fn duplicate_base_raises_dex206_at_the_second_rule() {
        let src = "source S(a, b);\ntarget T(c, d);\nS(x, y) -> T(x, y);\nS(x, y) -> T(y, x);";
        let ds = lint(src);
        assert_eq!(ds.len(), 1);
        assert_eq!(ds[0].code, Code::Dex206);
        assert_eq!(ds[0].span.unwrap().line, 4);
        assert_eq!(ds[0].witness, Some(Witness::TgdIndices(vec![0, 1])));
        let (m, _) = parse_mapping_with_spans(src).unwrap();
        assert!(compile(&m).is_err());
    }

    #[test]
    fn shared_existential_raises_dex205_info() {
        let ds = lint(
            "source Takes(name, course);\ntarget Student(id, name);\ntarget StudentCard(id);\n\
             Takes(x, y) -> Student(z, x) & StudentCard(z);",
        );
        assert_eq!(ds.len(), 1);
        assert_eq!(ds[0].code, Code::Dex205);
        assert_eq!(ds[0].span.unwrap().line, 4);
        assert!(ds[0].notes[0].contains("`z`"));
    }
}
