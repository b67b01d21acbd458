//! Operator-precheck pass: `DEX301` / `DEX302`.
//!
//! Static predictors of whether the mapping-management operators in
//! `dex-ops` would accept this mapping as an operand:
//!
//! * `DEX301` — [`dex_ops::compose()`] refuses operands with target
//!   dependencies;
//! * `DEX302` — [`dex_ops::maximum_recovery`] requires every st-tgd to
//!   have a single-atom, repeat-free, all-variable right-hand side; the
//!   pass renders [`dex_ops::recovery_obstacles`], the check
//!   `maximum_recovery` itself refuses through.
//!
//! Both are informational: a mapping need not be composable or
//! invertible to be useful for exchange.

use crate::diagnostic::{Code, Diagnostic, Witness};
use dex_logic::{Mapping, SourceMap};
use dex_ops::{recovery_obstacles, RecoveryObstacle};

/// Run the operator prechecks.
pub fn ops_pass(mapping: &Mapping, spans: Option<&SourceMap>) -> Vec<Diagnostic> {
    let mut out = Vec::new();

    if mapping.has_target_deps() {
        out.push(
            Diagnostic::new(
                Code::Dex301,
                "the mapping has target dependencies; compose() refuses such \
                 operands (composition is defined for st-tgd-only mappings here)",
            )
            .with_span(
                spans.and_then(|s| s.target_tgds.first().or(s.target_egds.first()).copied()),
            ),
        );
    }

    let obstacles = recovery_obstacles(mapping);
    for group in obstacles.chunk_by(|a, b| a.tgd() == b.tgd()) {
        let i = group[0].tgd();
        let span = spans.and_then(|s| s.st_tgds.get(i).copied());
        let mut repeated: Vec<dex_relational::Name> = Vec::new();
        let mut non_var = false;
        for o in group {
            match o {
                RecoveryObstacle::MultiAtom { atoms, .. } => out.push(
                    Diagnostic::new(
                        Code::Dex302,
                        format!(
                            "st-tgd #{i} has a {atoms}-atom right-hand side; maximum_recovery() \
                             supports only single-atom conclusions"
                        ),
                    )
                    .with_span(span),
                ),
                RecoveryObstacle::RepeatedVar { var, .. } => {
                    if !repeated.contains(var) {
                        repeated.push(var.clone());
                    }
                }
                RecoveryObstacle::NonVariable { .. } => non_var = true,
            }
        }
        if !repeated.is_empty() {
            out.push(
                Diagnostic::new(
                    Code::Dex302,
                    format!(
                        "st-tgd #{i} repeats variable(s) {} in its target atom; \
                         maximum_recovery() needs per-disjunct equality guards it \
                         does not implement",
                        repeated
                            .iter()
                            .map(|v| format!("`{v}`"))
                            .collect::<Vec<_>>()
                            .join(", ")
                    ),
                )
                .with_span(span)
                .with_witness(Witness::Variables(repeated)),
            );
        }
        if non_var {
            out.push(
                Diagnostic::new(
                    Code::Dex302,
                    format!(
                        "st-tgd #{i} uses a non-variable argument in its target atom; \
                         maximum_recovery() supports only variable arguments"
                    ),
                )
                .with_span(span),
            );
        }
    }

    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use dex_logic::parse_mapping_with_spans;
    use dex_ops::maximum_recovery;

    fn lint(src: &str) -> Vec<Diagnostic> {
        let (m, sm) = parse_mapping_with_spans(src).unwrap();
        ops_pass(&m, Some(&sm))
    }

    #[test]
    fn plain_gav_mapping_is_silent() {
        let ds = lint("source Father(p, c);\ntarget Parent(p, c);\nFather(x, y) -> Parent(x, y);");
        assert!(ds.is_empty(), "{ds:?}");
    }

    #[test]
    fn target_deps_raise_dex301() {
        let ds = lint("source R(a);\ntarget S(a);\ntarget T(a);\nS(x) -> T(x);\nR(x) -> S(x);");
        assert!(ds.iter().any(|d| d.code == Code::Dex301));
    }

    #[test]
    fn precheck_agrees_with_maximum_recovery() {
        for src in [
            "source R(a);\ntarget S(a, b);\nR(x) -> S(x, x);",
            "source R(a);\ntarget S(a);\ntarget T(a);\nR(x) -> S(x) & T(x);",
            "source R(a);\ntarget S(a, t);\nR(x) -> S(x, 'tag');",
            "source Father(p, c);\ntarget Parent(p, c);\nFather(x, y) -> Parent(x, y);",
        ] {
            let (m, sm) = parse_mapping_with_spans(src).unwrap();
            let predicted_refusal = ops_pass(&m, Some(&sm))
                .iter()
                .any(|d| d.code == Code::Dex302);
            assert_eq!(
                predicted_refusal,
                maximum_recovery(&m).is_err(),
                "disagreement on {src}"
            );
        }
    }
}
