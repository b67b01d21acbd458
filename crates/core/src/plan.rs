//! The mapping-plan IR — the paper's "show plan" made structural.
//!
//! [`plan`] lowers a [`Mapping`] into a [`MappingPlan`]: a serializable
//! description of how the exchange pipeline would execute it, instead
//! of the opaque closures the engine runs. Per dependency it records
//! the static premise-matching strategy ([`dex_logic::premise_plan`]:
//! greedy atom order plus index-probe positions), the matcher phase
//! (st-tgds fire in a full pass over the source; target tgds re-fire
//! delta-driven, semi-naive), and how many nulls each firing invents.
//! The lens section embeds the compiled [`MappingTemplate`]'s per-
//! relation trees — flattened via
//! [`dex_rellens::RelLensExpr::summarize_nodes`] so update policies are
//! visible per node — or, when the mapping is outside the compilable
//! fragment, the compiler's refusal reasons.
//!
//! `dexcli explain` renders this IR (annotated with spans and the
//! dataflow graph from `dex-analyze`) as a tree, JSON, or DOT.

use crate::compiler::compile;
use crate::error::CoreError;
use crate::template::{Fidelity, MappingTemplate};
use dex_chase::TerminationClass;
use dex_logic::{premise_plan, Mapping, PremisePlan, StTgd};
use dex_relational::{Bound, ChaseBounds, Name};
use dex_rellens::NodeSummary;
use serde::Serialize;
use std::collections::BTreeMap;

/// Which matcher phase executes a dependency (see `dex-chase`).
#[derive(Clone, Copy, PartialEq, Eq, Debug, Serialize)]
pub enum MatcherChoice {
    /// Matched once in a full indexed pass over the source instance
    /// (st-tgds: their premises never change during the chase).
    FullPass,
    /// Re-matched each round, seeded from the previous round's delta
    /// (semi-naive evaluation of target tgds and egds).
    DeltaDriven,
}

impl MatcherChoice {
    /// Stable display form.
    pub fn as_str(&self) -> &'static str {
        match self {
            MatcherChoice::FullPass => "indexed full pass",
            MatcherChoice::DeltaDriven => "indexed, delta-driven (semi-naive)",
        }
    }
}

/// The plan for one tgd.
#[derive(Clone, PartialEq, Eq, Debug, Serialize)]
pub struct TgdPlan {
    /// Index into the mapping's st-tgd (or target-tgd) list.
    pub index: usize,
    /// Paper-style display of the dependency.
    pub display: String,
    /// Display form of each premise atom (aligned with
    /// `premise.steps[*].atom` indices).
    pub premise_atoms: Vec<String>,
    /// Static premise-matching plan: greedy atom order and per-step
    /// index-probe positions.
    pub premise: PremisePlan,
    /// Which matcher phase runs this dependency.
    pub matcher: MatcherChoice,
    /// Existential variables — each firing invents one labeled null
    /// per entry.
    pub existentials: Vec<Name>,
    /// Nulls invented per firing (`existentials.len()`).
    pub nulls_per_firing: usize,
    /// Compiler fidelity for this tgd (`None` when the lens section is
    /// unavailable or the dependency is not an st-tgd).
    pub fidelity: Option<String>,
}

/// The plan for one egd (premise matching + enforced equalities).
#[derive(Clone, PartialEq, Eq, Debug, Serialize)]
pub struct EgdPlan {
    /// Index into the mapping's target-egd list.
    pub index: usize,
    /// Display of the egd.
    pub display: String,
    /// Static premise-matching plan for the body.
    pub premise: PremisePlan,
}

/// One compiled relation lens, flattened for rendering.
#[derive(Clone, PartialEq, Eq, Debug, Serialize)]
pub struct RelationPlan {
    /// The produced target relation.
    pub target_rel: Name,
    /// The determined view's attribute names.
    pub view: Vec<Name>,
    /// Pre-order node summaries of the source lens (source → view).
    pub source_nodes: Vec<NodeSummary>,
    /// Pre-order node summaries of the target lens (target → view).
    pub target_nodes: Vec<NodeSummary>,
}

/// An open policy hole, flattened for rendering.
#[derive(Clone, PartialEq, Eq, Debug, Serialize)]
pub struct HolePlan {
    /// Stable hole id.
    pub id: usize,
    /// The user-facing question.
    pub question: String,
    /// Display of the current (default) binding.
    pub current: String,
    /// The target relation whose lens the hole configures.
    pub target_rel: Name,
}

/// The bidirectional (lens) section of a plan.
#[derive(Clone, PartialEq, Eq, Debug, Serialize)]
pub enum LensSection {
    /// The mapping compiled; per-relation lens trees and holes follow.
    Available {
        /// One entry per produced target relation, in name order.
        relations: Vec<RelationPlan>,
        /// The template's open policy holes.
        holes: Vec<HolePlan>,
    },
    /// The mapping is outside the compilable fragment.
    Unavailable {
        /// The compiler's refusal reasons.
        reasons: Vec<String>,
    },
}

/// Static chase-cost section of the plan: per-dependency and per-
/// relation upper bounds derived from acyclicity structure, evaluated
/// at assumed source cardinalities. Pure data — the analysis lives in
/// `dex-analyze`'s cost pass, which fills this in for `dexcli explain`;
/// [`plan`] itself leaves the field `None`.
#[derive(Clone, PartialEq, Eq, Debug, Serialize)]
pub struct CostSection {
    /// The termination certificate the bounds rest on. `Unknown` makes
    /// every chase-side bound `unbounded`.
    pub class: TerminationClass,
    /// Null "generations" the chase can cascade through: the maximum
    /// position rank (weakly acyclic) or the existential-dependency
    /// depth (jointly acyclic).
    pub strata: Bound,
    /// Upper bound on the number of distinct values (constants +
    /// invented nulls) ever live in the target instance.
    pub value_universe: Bound,
    /// Per-relation cardinalities the bounds were evaluated at.
    pub assumed_cards: BTreeMap<Name, u64>,
    /// Cardinality assumed for relations absent from `assumed_cards`.
    pub default_card: u64,
    /// Per-st-tgd firing bounds, in mapping order.
    pub st_tgd_firings: Vec<Bound>,
    /// Per-target-tgd firing bounds, in mapping order.
    pub target_tgd_firings: Vec<Bound>,
    /// Invented-null bounds per existential position (`"T.1"`-style
    /// keys, 0-based).
    pub nulls_per_position: BTreeMap<String, Bound>,
    /// Tuple bounds per target relation.
    pub tuples_per_relation: BTreeMap<Name, Bound>,
    /// The aggregate bounds (`Budget::from_bounds` consumes these).
    pub bounds: ChaseBounds,
}

/// Verified-optimizer section of the plan: what `dexcli optimize`
/// would do to this mapping. Pure data — the semantic analysis lives
/// in `dex-analyze`'s containment checker, which fills this in for
/// `dexcli explain`; [`plan`] itself leaves the field `None`.
#[derive(Clone, PartialEq, Eq, Debug, Serialize)]
pub struct OptimizedSection {
    /// Descriptions of the verified rewrites, in application order;
    /// empty when the mapping is already minimal.
    pub rewrites: Vec<String>,
    /// `(total atoms, dependencies)` before optimization.
    pub original_size: (usize, usize),
    /// `(total atoms, dependencies)` after optimization.
    pub optimized_size: (usize, usize),
    /// Why the optimizer refused to run, when it did (non-terminating
    /// target tgds); the sizes are then equal and `rewrites` empty.
    pub refused: Option<String>,
}

/// A complete, serializable execution plan for a mapping.
#[derive(Clone, PartialEq, Eq, Debug, Serialize)]
pub struct MappingPlan {
    /// St-tgd plans, in mapping order.
    pub st_tgds: Vec<TgdPlan>,
    /// Target-tgd plans, in mapping order.
    pub target_tgds: Vec<TgdPlan>,
    /// Target-egd plans, in mapping order.
    pub target_egds: Vec<EgdPlan>,
    /// The lens section (compiled template or refusal reasons).
    pub lens: LensSection,
    /// Static cost bounds (filled by the analyzer's cost pass; `None`
    /// straight out of [`plan`]).
    pub cost: Option<CostSection>,
    /// Verified-optimizer summary (filled by the analyzer's semantic
    /// pass; `None` straight out of [`plan`]).
    pub optimized: Option<OptimizedSection>,
}

fn tgd_plan(
    index: usize,
    tgd: &StTgd,
    matcher: MatcherChoice,
    fidelity: Option<String>,
) -> TgdPlan {
    let existentials = tgd.existential_vars();
    TgdPlan {
        index,
        display: tgd.to_string(),
        premise_atoms: tgd.lhs.iter().map(|a| a.to_string()).collect(),
        premise: premise_plan(&tgd.lhs, &[]),
        matcher,
        nulls_per_firing: existentials.len(),
        existentials,
        fidelity,
    }
}

fn lens_section(
    template: Result<MappingTemplate, CoreError>,
) -> (LensSection, Vec<Option<String>>) {
    match template {
        Ok(t) => {
            let fidelities = t
                .report
                .entries
                .iter()
                .map(|(_, f)| {
                    Some(match f {
                        Fidelity::Exact => "exact".to_string(),
                        Fidelity::Approximate(rs) => format!("approximate: {}", rs.join("; ")),
                    })
                })
                .collect();
            let relations = t
                .lenses
                .iter()
                .map(|l| RelationPlan {
                    target_rel: l.target_rel.clone(),
                    view: l.view.attrs().iter().map(|(a, _)| a.clone()).collect(),
                    source_nodes: l.source_expr.summarize_nodes(),
                    target_nodes: l.target_expr.summarize_nodes(),
                })
                .collect();
            let holes = t
                .holes
                .iter()
                .map(|h| HolePlan {
                    id: h.id,
                    question: h.question.clone(),
                    current: h.current.to_string(),
                    target_rel: match &h.site {
                        crate::template::HoleSite::SourceColumn { target_rel, .. }
                        | crate::template::HoleSite::TargetColumn { target_rel, .. }
                        | crate::template::HoleSite::Join { target_rel, .. }
                        | crate::template::HoleSite::Union { target_rel, .. } => target_rel.clone(),
                    },
                })
                .collect();
            (LensSection::Available { relations, holes }, fidelities)
        }
        Err(CoreError::Unsupported { reasons }) => (LensSection::Unavailable { reasons }, vec![]),
        Err(e) => (
            LensSection::Unavailable {
                reasons: vec![e.to_string()],
            },
            vec![],
        ),
    }
}

/// Lower `mapping` into its execution plan. Always succeeds: when the
/// mapping is outside the compilable fragment the lens section carries
/// the refusal reasons and the chase-side plans are still produced.
pub fn plan(mapping: &Mapping) -> MappingPlan {
    let (lens, mut fidelities) = lens_section(compile(mapping));
    fidelities.resize(mapping.st_tgds().len(), None);
    let st_tgds = mapping
        .st_tgds()
        .iter()
        .enumerate()
        .map(|(i, t)| tgd_plan(i, t, MatcherChoice::FullPass, fidelities[i].clone()))
        .collect();
    let target_tgds = mapping
        .target_tgds()
        .iter()
        .enumerate()
        .map(|(i, t)| tgd_plan(i, t, MatcherChoice::DeltaDriven, None))
        .collect();
    let target_egds = mapping
        .target_egds()
        .iter()
        .enumerate()
        .map(|(i, e)| EgdPlan {
            index: i,
            display: e.to_string(),
            premise: premise_plan(&e.lhs, &[]),
        })
        .collect();
    MappingPlan {
        st_tgds,
        target_tgds,
        target_egds,
        lens,
        cost: None,
        optimized: None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dex_logic::parse_mapping;

    #[test]
    fn plan_for_compilable_mapping() {
        let m = parse_mapping(
            "source Emp(name, dept);\nsource Dept(dept, mgr);\n\
             target Worker(name, dept, mgr);\n\
             Emp(n, d) & Dept(d, m) -> Worker(n, d, m);",
        )
        .unwrap();
        let p = plan(&m);
        assert_eq!(p.st_tgds.len(), 1);
        let t = &p.st_tgds[0];
        assert_eq!(t.matcher, MatcherChoice::FullPass);
        assert_eq!(t.nulls_per_firing, 0);
        assert_eq!(t.fidelity.as_deref(), Some("exact"));
        // Two premise steps; the second probes the join column.
        assert_eq!(t.premise.steps.len(), 2);
        assert!(!t.premise.steps[1].probe_positions.is_empty());
        match &p.lens {
            LensSection::Available { relations, .. } => {
                assert_eq!(relations.len(), 1);
                assert_eq!(relations[0].target_rel, Name::new("Worker"));
                assert!(!relations[0].source_nodes.is_empty());
            }
            other => panic!("expected available lens: {other:?}"),
        }
    }

    #[test]
    fn plan_survives_uncompilable_mapping() {
        let m = parse_mapping("source S(a, b);\ntarget T(a, c);\nS(x, y) & S(y, z) -> T(x, z);")
            .unwrap();
        let p = plan(&m);
        assert_eq!(p.st_tgds.len(), 1);
        assert_eq!(p.st_tgds[0].fidelity, None);
        match &p.lens {
            LensSection::Unavailable { reasons } => {
                assert!(reasons[0].contains("self-join"), "{reasons:?}");
            }
            other => panic!("expected unavailable lens: {other:?}"),
        }
    }

    #[test]
    fn plan_covers_target_dependencies() {
        let m = parse_mapping(
            "source R(a);\ntarget S(a);\ntarget T(a, b);\n\
             key T(a);\nR(x) -> S(x);\nS(x) -> T(x, y);",
        )
        .unwrap();
        let p = plan(&m);
        assert_eq!(p.target_tgds.len(), 1);
        assert_eq!(p.target_tgds[0].matcher, MatcherChoice::DeltaDriven);
        assert_eq!(p.target_tgds[0].nulls_per_firing, 1);
        assert_eq!(p.target_egds.len(), 1);
        assert_eq!(p.target_egds[0].premise.steps.len(), 2);
    }

    #[test]
    fn plan_serializes() {
        let m = parse_mapping("source R(a);\ntarget T(a);\nR(x) -> T(x);").unwrap();
        let json = serde_json::to_value(&plan(&m)).unwrap();
        assert!(json["st_tgds"][0]["premise"]["steps"].as_array().is_some());
    }
}
