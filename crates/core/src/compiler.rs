//! The st-tgd → lens-template compiler (paper §4, step “The collection
//! of st-tgds is translated statically to a relational lens template”).
//!
//! For every target atom `R(t̄)` of every st-tgd the compiler builds a
//! **cospan of relational lenses** sharing the *determined view* `V_R`
//! — the columns of `R` bound to universal (frontier) variables:
//!
//! ```text
//!   source instance --source lens--> V_R <--target lens-- target R
//! ```
//!
//! * the **source lens** renames/joins/filters the source relations so
//!   that `get` computes `V_R` (and `put` translates view changes back
//!   onto the source tables);
//! * the **target lens** projects `R` onto `V_R`; its dropped columns
//!   are exactly the tgd's existential positions — each becomes a
//!   policy **hole** defaulting to fresh nulls, so the engine's
//!   forward direction with defaults coincides with the chase.
//!
//! Multiple tgds producing the same relation fold into a union lens
//! (with an insertion-routing hole). The compiler REFUSES (with
//! reasons) anything it cannot translate faithfully, and reports
//! per-tgd fidelity — the executable form of the paper's requested
//! “completeness proof of that compiler”. Both come from one first
//! pass (`classify`) that [`crate::precheck()`] reports as data, so
//! lint's prediction and the compiler's verdict cannot drift apart.

use crate::error::CoreError;
use crate::template::{
    CompileReport, Fidelity, Hole, HoleBinding, HoleSite, MappingTemplate, RelationLens, Step,
};
use dex_logic::{Mapping, StTgd, Term};
use dex_relational::{Constant, Expr, Name, RelSchema};
use dex_rellens::{JoinPolicy, RelLensExpr, UnionPolicy, UpdatePolicy};
use std::collections::{BTreeMap, BTreeSet};

/// A hole not yet assigned a global id, with a path relative to the
/// contribution root.
struct PendingHole {
    question: String,
    column: Option<Name>,
    kind: PendingKind,
    path: Vec<Step>,
}

enum PendingKind {
    SourceColumn,
    TargetColumn,
    Join,
    Union,
}

fn prepend(holes: &mut [PendingHole], step: Step) {
    for h in holes.iter_mut() {
        h.path.insert(0, step);
    }
}

/// The shape of one target atom: which positions are determined,
/// constant, or existential.
#[derive(PartialEq, Eq, Debug, Clone)]
pub(crate) struct TargetShape {
    pub(crate) rel: Name,
    /// `(position, attr)` for frontier-variable positions.
    frontier: Vec<(usize, Name)>,
    /// `(position, attr, constant)` positions.
    consts: Vec<(usize, Name, Constant)>,
    /// `(position, attr)` existential positions.
    existentials: Vec<(usize, Name)>,
    /// `(position, attr, first-occurrence attr)` for repeated variables:
    /// the column provably equals an earlier column of the same atom.
    copies: Vec<(usize, Name, Name)>,
}

/// The first pass's verdict on one st-tgd.
pub(crate) struct TgdClass {
    /// The relation of every premise atom that repeats an earlier one
    /// (self-joins need aliasing, which the lens trees lack: they
    /// address base tables by name).
    pub(crate) self_joins: Vec<Name>,
    /// Indices of the premise atoms that carry a function term.
    pub(crate) premise_funcs: Vec<usize>,
    /// Per conclusion atom: its shape, or `Err(n)` when it carries `n`
    /// function terms (SO-tgds run under the chase, not lenses).
    pub(crate) conclusions: Vec<Result<TargetShape, usize>>,
    /// `Approximate` when an existential is shared between conclusion
    /// atoms: the compiled lenses lose the correlation.
    pub(crate) fidelity: Fidelity,
}

impl TgdClass {
    /// The conclusion shapes, when no atom of the tgd carries a
    /// function term.
    pub(crate) fn shapes(&self) -> Option<Vec<&TargetShape>> {
        if !self.premise_funcs.is_empty() {
            return None;
        }
        self.conclusions.iter().map(|c| c.as_ref().ok()).collect()
    }
}

/// Tgds producing one relation with different shapes: a single view
/// lens cannot serve both.
pub(crate) struct ShapeConflict {
    pub(crate) relation: Name,
    /// The tgd that first produces the relation.
    pub(crate) reference_tgd: usize,
    /// Every tgd with a dissenting conclusion, once each, in order.
    pub(crate) dissenters: Vec<usize>,
    reference: TargetShape,
    /// The first dissenting shape.
    dissent: TargetShape,
}

/// The compiler's first pass over a mapping: the fragment rules
/// applied once, as data. [`compile`] renders it into refusal reasons
/// and lenses; [`crate::precheck()`] reports it as structured reasons.
pub(crate) struct Classified {
    /// How many target tgds the mapping has (none compile).
    pub(crate) target_tgds: usize,
    /// Aligned with `mapping.st_tgds()`.
    pub(crate) tgds: Vec<TgdClass>,
    /// Shape conflicts among tgds free of function terms, by relation.
    pub(crate) conflicts: Vec<ShapeConflict>,
}

/// Run the first pass. Assumes the tgds fit their schemas, as every
/// [`Mapping`] constructor checks; it never panics when they do not.
pub(crate) fn classify(mapping: &Mapping) -> Classified {
    let tgds: Vec<TgdClass> = mapping
        .st_tgds()
        .iter()
        .map(|tgd| classify_tgd(mapping, tgd))
        .collect();

    let mut reference: BTreeMap<&Name, (usize, &TargetShape)> = BTreeMap::new();
    let mut conflicts: BTreeMap<Name, ShapeConflict> = BTreeMap::new();
    for (ti, class) in tgds.iter().enumerate() {
        for shape in class.shapes().unwrap_or_default() {
            let &mut (first, ref_shape) = reference.entry(&shape.rel).or_insert((ti, shape));
            if ref_shape == shape {
                continue;
            }
            let c = conflicts
                .entry(shape.rel.clone())
                .or_insert_with(|| ShapeConflict {
                    relation: shape.rel.clone(),
                    reference_tgd: first,
                    dissenters: vec![],
                    reference: ref_shape.clone(),
                    dissent: shape.clone(),
                });
            if c.dissenters.last() != Some(&ti) {
                c.dissenters.push(ti);
            }
        }
    }

    Classified {
        target_tgds: mapping.target_tgds().len(),
        tgds,
        conflicts: conflicts.into_values().collect(),
    }
}

fn classify_tgd(mapping: &Mapping, tgd: &StTgd) -> TgdClass {
    let mut lhs_rels = BTreeSet::new();
    let self_joins = tgd
        .lhs
        .iter()
        .filter(|a| !lhs_rels.insert(&a.relation))
        .map(|a| a.relation.clone())
        .collect();
    let premise_funcs = (0..tgd.lhs.len())
        .filter(|&k| tgd.lhs[k].has_func())
        .collect();

    let lhs_vars: BTreeSet<Name> = tgd.lhs_vars().into_iter().collect();
    let conclusions = tgd
        .rhs
        .iter()
        .map(|atom| classify_conclusion(mapping, &lhs_vars, atom))
        .collect();

    // Counting each variable once per atom: a repeat inside one atom is
    // a copy, not a lost correlation.
    let mut shared: BTreeMap<Name, usize> = BTreeMap::new();
    if tgd.rhs.len() > 1 {
        for atom in &tgd.rhs {
            for v in atom.variables() {
                if !lhs_vars.contains(&v) {
                    *shared.entry(v).or_default() += 1;
                }
            }
        }
    }
    let shared: Vec<String> = shared
        .into_iter()
        .filter(|(_, n)| *n > 1)
        .map(|(v, _)| {
            format!(
                "existential variable `{v}` is shared between target atoms; the \
                 compiled lenses invent its value independently per relation"
            )
        })
        .collect();

    TgdClass {
        self_joins,
        premise_funcs,
        conclusions,
        fidelity: if shared.is_empty() {
            Fidelity::Exact
        } else {
            Fidelity::Approximate(shared)
        },
    }
}

/// Classify a conclusion atom's positions against its target schema.
fn classify_conclusion(
    mapping: &Mapping,
    lhs_vars: &BTreeSet<Name>,
    atom: &dex_logic::Atom,
) -> Result<TargetShape, usize> {
    let funcs = atom.args.iter().filter(|t| t.has_func()).count();
    if funcs > 0 {
        return Err(funcs);
    }
    let mut shape = TargetShape {
        rel: atom.relation.clone(),
        frontier: vec![],
        consts: vec![],
        existentials: vec![],
        copies: vec![],
    };
    let attrs = mapping
        .target()
        .relation(atom.relation.as_str())
        .into_iter()
        .flat_map(|s| s.attr_names());
    // First-occurrence attribute per variable: a repeated variable
    // (frontier or existential) makes its column a copy.
    let mut first_attr: BTreeMap<&Name, &Name> = BTreeMap::new();
    for (i, (t, attr)) in atom.args.iter().zip(attrs).enumerate() {
        match t {
            Term::Var(v) => {
                if let Some(fa) = first_attr.get(v) {
                    shape.copies.push((i, attr.clone(), (*fa).clone()));
                } else {
                    first_attr.insert(v, attr);
                    if lhs_vars.contains(v) {
                        shape.frontier.push((i, attr.clone()));
                    } else {
                        shape.existentials.push((i, attr.clone()));
                    }
                }
            }
            Term::Const(c) => shape.consts.push((i, attr.clone(), c.clone())),
            // Counted above.
            Term::Func(..) => {}
        }
    }
    Ok(shape)
}

/// Compile a mapping's st-tgds into a lens template.
///
/// ```
/// use dex_core::{compile, Engine};
/// use dex_logic::parse_mapping;
/// use dex_rellens::Environment;
/// use dex_relational::{tuple, Instance};
///
/// let m = parse_mapping(r#"
///     source Emp(name);
///     target Manager(emp, mgr);
///     Emp(x) -> Manager(x, y);
/// "#).unwrap();
/// let template = compile(&m).unwrap();
/// // One policy question: what to do with the undetermined column.
/// assert_eq!(template.holes.len(), 1);
/// assert!(template.holes[0].question.contains("Manager.mgr"));
///
/// let engine = Engine::new(template, Environment::new()).unwrap();
/// let src = Instance::with_facts(
///     m.source().clone(),
///     vec![("Emp", vec![tuple!["Alice"]])],
/// ).unwrap();
/// let tgt = engine.forward(&src, None).unwrap();
/// assert!(m.is_solution(&src, &tgt));
/// ```
pub fn compile(mapping: &Mapping) -> Result<MappingTemplate, CoreError> {
    for tgd in mapping.st_tgds() {
        tgd.validate(mapping.source(), mapping.target())
            .map_err(CoreError::Relational)?;
    }
    let pass = classify(mapping);

    // Render the first pass's refusals, rule by rule.
    let mut reasons: Vec<String> = Vec::new();
    if pass.target_tgds > 0 {
        reasons.push(
            "target tgds (within-target implications) are not part of the compilable \
             fragment; enforce them with the chase instead. Target egds (keys) ARE \
             supported — the engine chases them after each forward pass"
                .into(),
        );
    }
    for (tgd, class) in mapping.st_tgds().iter().zip(&pass.tgds) {
        for rel in &class.self_joins {
            reasons.push(format!(
                "tgd `{tgd}` joins relation `{rel}` with itself; self-joins need aliasing, \
                 which the lens fragment does not support"
            ));
        }
        for (atom, conclusion) in tgd.rhs.iter().zip(&class.conclusions) {
            match (conclusion, class.premise_funcs.first()) {
                (Err(funcs), _) => reasons.extend((0..*funcs).map(|_| {
                    format!(
                        "tgd `{tgd}` has a function term in `{atom}`; SO-tgds are executed \
                         by the chase, not compiled to lenses"
                    )
                })),
                (Ok(_), Some(&k)) => reasons.push(format!(
                    "function term in premise atom `{}` of `{tgd}`",
                    tgd.lhs[k]
                )),
                (Ok(_), None) => {}
            }
        }
    }
    if !reasons.is_empty() {
        return Err(CoreError::Unsupported { reasons });
    }
    if let Some(c) = pass.conflicts.first() {
        return Err(CoreError::Unsupported {
            reasons: vec![format!(
                "tgds producing `{}` disagree on which columns are determined \
                 ({:?} vs {:?}); a single view lens cannot serve both",
                c.relation, c.reference, c.dissent
            )],
        });
    }

    // One source lens per (tgd, conclusion atom), grouped by relation;
    // the shapes of a group agree (no conflicts above).
    let mut by_rel: BTreeMap<&Name, (&TargetShape, Vec<SourceLens>)> = BTreeMap::new();
    for (tgd, class) in mapping.st_tgds().iter().zip(&pass.tgds) {
        for (atom, shape) in tgd.rhs.iter().zip(class.shapes().unwrap_or_default()) {
            let lens = source_lens(mapping, tgd, atom, shape)?;
            by_rel
                .entry(&shape.rel)
                .or_insert((shape, vec![]))
                .1
                .push(lens);
        }
    }

    let mut lenses = Vec::new();
    let mut holes: Vec<Hole> = Vec::new();
    for (rel, (shape, contribs)) in by_rel {
        let rel = rel.clone();
        // Fold source expressions with Union (insertion-routing holes).
        let mut iter = contribs.into_iter();
        let Some((mut source_expr, mut pending)) = iter.next() else {
            continue;
        };
        for (k, (expr, mut right_holes)) in iter.enumerate() {
            prepend(&mut pending, Step::Left);
            prepend(&mut right_holes, Step::Right);
            pending.extend(right_holes);
            source_expr = source_expr.union(expr, UnionPolicy::InsertLeft);
            pending.push(PendingHole {
                question: format!(
                    "relation `{rel}` is produced by several rules (union #{k}); which \
                     branch should receive rows inserted into `{rel}`?"
                ),
                column: None,
                kind: PendingKind::Union,
                path: vec![],
            });
        }

        // Target lens: select the constant and copy positions, project
        // onto the frontier.
        let mut target_expr = RelLensExpr::base(rel.clone());
        let mut pred: Option<Expr> = None;
        for (_, attr, c) in &shape.consts {
            let e = Expr::attr(attr.clone()).eq(Expr::Lit(c.clone()));
            pred = Some(match pred {
                None => e,
                Some(p) => p.and(e),
            });
        }
        for (_, attr, of) in &shape.copies {
            let e = Expr::attr(attr.clone()).eq(Expr::attr(of.clone()));
            pred = Some(match pred {
                None => e,
                Some(p) => p.and(e),
            });
        }
        if let Some(p) = pred {
            target_expr = target_expr.select(p);
        }
        let mut target_holes: Vec<PendingHole> = Vec::new();
        if !shape.consts.is_empty() || !shape.existentials.is_empty() || !shape.copies.is_empty() {
            let kept: Vec<&str> = shape.frontier.iter().map(|(_, a)| a.as_str()).collect();
            let mut policies: Vec<(&str, UpdatePolicy)> = Vec::new();
            for (_, attr, c) in &shape.consts {
                policies.push((attr.as_str(), UpdatePolicy::Const(c.clone())));
            }
            for (_, attr, of) in &shape.copies {
                // Copies of frontier columns restore from the kept copy;
                // copies of existential columns can only be re-invented
                // alongside their original — CopyOf works when the
                // original is kept, otherwise fall back to Null (the
                // pair is regenerated consistently only on the forward
                // path, which fills both from the same policy source).
                let kept_has_of = shape.frontier.iter().any(|(_, a)| a == of);
                if kept_has_of {
                    policies.push((attr.as_str(), UpdatePolicy::CopyOf(of.clone())));
                } else {
                    policies.push((attr.as_str(), UpdatePolicy::Null));
                }
            }
            for (_, attr) in &shape.existentials {
                policies.push((attr.as_str(), UpdatePolicy::Null));
                target_holes.push(PendingHole {
                    question: format!("how does one populate the `{rel}.{attr}` field?"),
                    column: Some(attr.clone()),
                    kind: PendingKind::TargetColumn,
                    path: vec![],
                });
            }
            target_expr = target_expr.project(kept, policies);
        }

        // Assign global hole ids.
        for ph in pending {
            let (site, current) = match (&ph.kind, ph.column.clone()) {
                (PendingKind::SourceColumn, Some(column)) => (
                    HoleSite::SourceColumn {
                        target_rel: rel.clone(),
                        column,
                        path: ph.path.clone(),
                    },
                    HoleBinding::Column(UpdatePolicy::Null),
                ),
                (PendingKind::Join, _) => (
                    HoleSite::Join {
                        target_rel: rel.clone(),
                        path: ph.path.clone(),
                    },
                    HoleBinding::Join(JoinPolicy::DeleteBoth),
                ),
                (PendingKind::Union, _) => (
                    HoleSite::Union {
                        target_rel: rel.clone(),
                        path: ph.path.clone(),
                    },
                    HoleBinding::Union(UnionPolicy::InsertLeft),
                ),
                // Source-side pending holes always carry their column and
                // never the target-column kind.
                (PendingKind::SourceColumn, None) | (PendingKind::TargetColumn, _) => continue,
            };
            let id = holes.len();
            holes.push(Hole {
                id,
                question: ph.question,
                site,
                current,
            });
        }
        for ph in target_holes {
            // Target-column pending holes always carry their column.
            let Some(column) = ph.column.clone() else {
                continue;
            };
            let id = holes.len();
            holes.push(Hole {
                id,
                question: ph.question,
                site: HoleSite::TargetColumn {
                    target_rel: rel.clone(),
                    column,
                    path: ph.path.clone(),
                },
                current: HoleBinding::Column(UpdatePolicy::Null),
            });
        }

        // The shared view header.
        let view = RelSchema::untyped(
            rel.clone(),
            shape
                .frontier
                .iter()
                .map(|(_, a)| a.clone())
                .collect::<Vec<Name>>(),
        )
        .map_err(CoreError::Relational)?;

        lenses.push(RelationLens {
            target_rel: rel,
            view,
            source_expr,
            target_expr,
        });
    }

    let report = CompileReport {
        entries: mapping
            .st_tgds()
            .iter()
            .zip(pass.tgds)
            .map(|(tgd, class)| (tgd.to_string(), class.fidelity))
            .collect(),
    };
    let template = MappingTemplate {
        source: mapping.source().clone(),
        target: mapping.target().clone(),
        lenses,
        holes,
        target_egds: mapping.target_egds().to_vec(),
        report,
    };

    // Sanity: every lens pair validates and the headers agree.
    for lens in &template.lenses {
        let sv = lens
            .source_expr
            .view_schema(&template.source)
            .map_err(|e| CoreError::Unsupported {
                reasons: vec![format!(
                    "internal: source lens for `{}` failed validation: {e}",
                    lens.target_rel
                )],
            })?;
        let tv = lens
            .target_expr
            .view_schema(&template.target)
            .map_err(|e| CoreError::Unsupported {
                reasons: vec![format!(
                    "internal: target lens for `{}` failed validation: {e}",
                    lens.target_rel
                )],
            })?;
        let sa: Vec<&Name> = sv.attr_names().collect();
        let ta: Vec<&Name> = tv.attr_names().collect();
        if sa != ta {
            return Err(CoreError::Unsupported {
                reasons: vec![format!(
                    "internal: view headers disagree for `{}`: {sv} vs {tv}",
                    lens.target_rel
                )],
            });
        }
    }

    Ok(template)
}

/// A source lens with its policy holes.
type SourceLens = (RelLensExpr, Vec<PendingHole>);

/// The source lens of one `(tgd, conclusion atom)` pair, computing
/// the atom's determined view.
fn source_lens(
    mapping: &Mapping,
    tgd: &StTgd,
    atom: &dex_logic::Atom,
    shape: &TargetShape,
) -> Result<SourceLens, CoreError> {
    // The variables behind the frontier columns, in target-atom order.
    let frontier_vars: Vec<Name> = shape
        .frontier
        .iter()
        .filter_map(|(i, _)| atom.args.get(*i).and_then(Term::as_var).cloned())
        .collect();

    // Per-premise-atom lens: Base → (Select) → (Project) → (Rename).
    let mut atom_exprs: Vec<RelLensExpr> = Vec::new();
    for latom in &tgd.lhs {
        let src_schema = mapping
            .source()
            .expect_relation(latom.relation.as_str())
            .map_err(CoreError::Relational)?;
        let mut expr = RelLensExpr::base(latom.relation.clone());
        let mut pred: Option<Expr> = None;
        // first occurrence attr per variable
        let mut first_attr: BTreeMap<Name, Name> = BTreeMap::new();
        let mut kept: Vec<Name> = Vec::new(); // original attr names to keep
        let mut dropped: Vec<(Name, UpdatePolicy)> = Vec::new();
        for (t, attr) in latom.args.iter().zip(src_schema.attr_names()) {
            let attr = attr.clone();
            match t {
                Term::Var(v) => {
                    if let Some(fa) = first_attr.get(v.as_str()) {
                        // Duplicate variable: equality select + CopyOf.
                        let e = Expr::attr(fa.clone()).eq(Expr::attr(attr.clone()));
                        pred = Some(match pred {
                            None => e,
                            Some(p) => p.and(e),
                        });
                        dropped.push((attr, UpdatePolicy::CopyOf(fa.clone())));
                    } else {
                        first_attr.insert(v.clone(), attr.clone());
                        kept.push(attr);
                    }
                }
                Term::Const(c) => {
                    let e = Expr::attr(attr.clone()).eq(Expr::Lit(c.clone()));
                    pred = Some(match pred {
                        None => e,
                        Some(p) => p.and(e),
                    });
                    dropped.push((attr, UpdatePolicy::Const(c.clone())));
                }
                // The first pass refuses function terms before any lens
                // is built.
                Term::Func(..) => {}
            }
        }
        if let Some(p) = pred {
            expr = expr.select(p);
        }
        if !dropped.is_empty() {
            expr = expr.project(
                kept.iter().map(Name::as_str).collect(),
                dropped
                    .iter()
                    .map(|(a, p)| (a.as_str(), p.clone()))
                    .collect(),
            );
        }
        // Rename kept attrs to their variable names (skipping
        // identities).
        let renames: Vec<(Name, Name)> = first_attr
            .iter()
            .filter(|(v, a)| v != a)
            .map(|(v, a)| (a.clone(), v.clone()))
            .collect();
        if !renames.is_empty() {
            expr = RelLensExpr::Rename {
                input: Box::new(expr),
                renaming: renames.into_iter().collect(),
            };
        }
        atom_exprs.push(expr);
    }

    // Join the premise atoms (tgd joins = natural joins on variable
    // columns).
    let mut iter = atom_exprs.into_iter();
    let Some(mut source_expr) = iter.next() else {
        return Err(CoreError::Unsupported {
            reasons: vec![format!("tgd `{tgd}` has an empty premise")],
        });
    };
    let mut holes: Vec<PendingHole> = Vec::new();
    for (k, e) in iter.enumerate() {
        prepend(&mut holes, Step::Left);
        source_expr = source_expr.join(e, JoinPolicy::DeleteBoth);
        holes.push(PendingHole {
            question: format!(
                "a row deleted from `{}`'s view joins source relations (join #{k} in \
                 `{tgd}`); through which input should the deletion propagate?",
                atom.relation
            ),
            column: None,
            kind: PendingKind::Join,
            path: vec![],
        });
    }

    // Final projection to the frontier variables (in target-atom
    // order); dropped source variables get policy holes.
    let all_vars: Vec<Name> = tgd.lhs_vars();
    let dropped_vars: Vec<Name> = all_vars
        .iter()
        .filter(|v| !frontier_vars.contains(v))
        .cloned()
        .collect();
    if !dropped_vars.is_empty() || needs_reorder(&all_vars, &frontier_vars) {
        prepend(&mut holes, Step::Left);
        let mut policies: Vec<(&str, UpdatePolicy)> = Vec::new();
        for v in &dropped_vars {
            policies.push((v.as_str(), UpdatePolicy::Null));
            holes.push(PendingHole {
                question: format!(
                    "source variable `{v}` (of `{tgd}`) is not represented in `{}`; \
                     how should it be filled when rows flow back from the target?",
                    atom.relation
                ),
                column: Some(v.clone()),
                kind: PendingKind::SourceColumn,
                path: vec![],
            });
        }
        source_expr =
            source_expr.project(frontier_vars.iter().map(Name::as_str).collect(), policies);
    }

    // Rename variables to the target attribute names.
    let renames: Vec<(Name, Name)> = frontier_vars
        .iter()
        .zip(shape.frontier.iter())
        .filter(|(v, (_, a))| v != &a)
        .map(|(v, (_, a))| (v.clone(), a.clone()))
        .collect();
    if !renames.is_empty() {
        prepend(&mut holes, Step::Left);
        source_expr = RelLensExpr::Rename {
            input: Box::new(source_expr),
            renaming: renames.into_iter().collect(),
        };
    }

    Ok((source_expr, holes))
}

fn needs_reorder(all_vars: &[Name], frontier: &[Name]) -> bool {
    // Projection is also needed when the frontier is a strict prefix
    // permutation; cheap check: identical sequences?
    all_vars != frontier
}

#[cfg(test)]
mod tests {
    use super::*;
    use dex_logic::parse_mapping;

    #[test]
    fn example1_compiles_with_one_target_hole() {
        let m = parse_mapping(
            r#"
            source Emp(name);
            target Manager(emp, mgr);
            Emp(x) -> Manager(x, y);
            "#,
        )
        .unwrap();
        let t = compile(&m).unwrap();
        assert_eq!(t.lenses.len(), 1);
        assert_eq!(t.holes.len(), 1);
        assert!(t.holes[0].question.contains("Manager.mgr"));
        assert!(matches!(t.holes[0].site, HoleSite::TargetColumn { .. }));
        assert!(t.report.all_exact());
        // The source lens renames name→emp; the target lens projects
        // away mgr with a null default.
        let lens = t.lens_for("Manager").unwrap();
        // name → x (variable naming) then x → emp (target naming).
        let plan = lens.source_expr.plan_string();
        assert!(plan.contains("Rename[x→emp]"), "{plan}");
        assert!(plan.contains("Rename[name→x]"), "{plan}");
        assert!(lens
            .target_expr
            .plan_string()
            .contains("Project[emp | mgr := null]"));
    }

    #[test]
    fn persons_example_has_holes_both_directions() {
        // The introduction's Person1/Person2 scenario.
        let m = parse_mapping(
            r#"
            source Person1(id, name, age, city);
            target Person2(id, name, salary, zipcode);
            Person1(i, n, a, c) -> Person2(i, n, s, z);
            "#,
        )
        .unwrap();
        let t = compile(&m).unwrap();
        // Target holes: salary, zipcode. Source holes: age, city.
        assert_eq!(t.holes.len(), 4);
        let questions: Vec<&str> = t.holes.iter().map(|h| h.question.as_str()).collect();
        assert!(questions.iter().any(|q| q.contains("Person2.salary")));
        assert!(questions.iter().any(|q| q.contains("Person2.zipcode")));
        assert!(questions.iter().any(|q| q.contains("`a`")));
        assert!(questions.iter().any(|q| q.contains("`c`")));
        assert!(t.report.all_exact());
    }

    #[test]
    fn union_of_two_tgds_gets_union_hole() {
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
        let t = compile(&m).unwrap();
        assert_eq!(t.lenses.len(), 1);
        let union_holes: Vec<&Hole> = t
            .holes
            .iter()
            .filter(|h| matches!(h.site, HoleSite::Union { .. }))
            .collect();
        assert_eq!(union_holes.len(), 1);
        assert!(union_holes[0].question.contains("which"));
        let lens = t.lens_for("Parent").unwrap();
        assert!(lens
            .source_expr
            .plan_string()
            .contains("Union[insert-left]"));
    }

    #[test]
    fn join_premise_gets_join_hole() {
        let m = parse_mapping(
            r#"
            source Student(id, name);
            source Assgn(name, course);
            target Enrollment(id, course);
            Student(x, y) & Assgn(y, w) -> Enrollment(x, w);
            "#,
        )
        .unwrap();
        let t = compile(&m).unwrap();
        let join_holes: Vec<&Hole> = t
            .holes
            .iter()
            .filter(|h| matches!(h.site, HoleSite::Join { .. }))
            .collect();
        assert_eq!(join_holes.len(), 1);
        // The shared variable y is dropped by the final projection →
        // one source-column hole.
        let src_holes: Vec<&Hole> = t
            .holes
            .iter()
            .filter(|h| matches!(h.site, HoleSite::SourceColumn { .. }))
            .collect();
        assert_eq!(src_holes.len(), 1);
        assert!(src_holes[0].question.contains("`y`"));
    }

    #[test]
    fn figure1_upper_is_approximate_when_existential_shared() {
        // Student(z, x) & StudentCard(z): z shared → approximate.
        let m = parse_mapping(
            r#"
            source Takes(name, course);
            target Student(id, name);
            target StudentCard(id);
            Takes(x, y) -> Student(z, x) & StudentCard(z);
            "#,
        )
        .unwrap();
        let t = compile(&m).unwrap();
        assert!(!t.report.all_exact());
        let (_, fid) = &t.report.entries[0];
        match fid {
            Fidelity::Approximate(rs) => {
                assert!(rs[0].contains("`z`"));
            }
            Fidelity::Exact => panic!("expected approximate"),
        }
    }

    #[test]
    fn figure1_upper_unshared_existentials_exact() {
        let m = parse_mapping(
            r#"
            source Takes(name, course);
            target Student(id, name);
            target Assgn(name, course);
            Takes(x, y) -> Student(z, x) & Assgn(x, y);
            "#,
        )
        .unwrap();
        let t = compile(&m).unwrap();
        assert!(t.report.all_exact());
        assert_eq!(t.lenses.len(), 2);
        // Student: one target hole (id); Assgn: none.
        let student = t.lens_for("Student").unwrap();
        assert!(student
            .target_expr
            .plan_string()
            .contains("Project[name | id := null]"));
        let assgn = t.lens_for("Assgn").unwrap();
        assert_eq!(assgn.target_expr, RelLensExpr::base("Assgn"));
    }

    #[test]
    fn constants_compile_to_selects_and_const_policies() {
        let m = parse_mapping(
            r#"
            source R(a);
            target S(a, tag);
            R(x) -> S(x, 'imported');
            "#,
        )
        .unwrap();
        let t = compile(&m).unwrap();
        let lens = t.lens_for("S").unwrap();
        let plan = lens.target_expr.plan_string();
        assert!(plan.contains("Select[tag = \"imported\"]"), "{plan}");
        assert!(plan.contains("tag := const \"imported\""), "{plan}");
        assert!(t.holes.is_empty(), "constants are exact, no holes");
    }

    #[test]
    fn self_join_rejected_with_reason() {
        let m = parse_mapping(
            r#"
            source S(a, b);
            target T(a, c);
            S(x, y) & S(y, z) -> T(x, z);
            "#,
        )
        .unwrap();
        let err = compile(&m).unwrap_err();
        match err {
            CoreError::Unsupported { reasons } => {
                assert!(reasons[0].contains("self-join"), "{reasons:?}");
            }
            other => panic!("{other}"),
        }
    }

    #[test]
    fn repeated_target_variable_compiles_as_copy() {
        let m = parse_mapping(
            r#"
            source R(a);
            target S(a, b);
            R(x) -> S(x, x);
            "#,
        )
        .unwrap();
        let t = compile(&m).unwrap();
        assert!(t.report.all_exact());
        assert!(t.holes.is_empty(), "the copy is determined — no hole");
        let lens = t.lens_for("S").unwrap();
        let plan = lens.target_expr.plan_string();
        assert!(plan.contains("Select[b = a]"), "{plan}");
        assert!(plan.contains("b := copy of a"), "{plan}");
    }

    #[test]
    fn repeated_existential_compiles_with_diagonal_select() {
        // R(x) -> S(x, z, z): both z-columns must agree; the target
        // lens selects the diagonal.
        let m = parse_mapping(
            r#"
            source R(a);
            target S(a, b, c);
            R(x) -> S(x, z, z);
            "#,
        )
        .unwrap();
        let t = compile(&m).unwrap();
        let lens = t.lens_for("S").unwrap();
        let plan = lens.target_expr.plan_string();
        assert!(plan.contains("Select[c = b]"), "{plan}");
        assert_eq!(t.holes.len(), 1, "one hole for the existential b");
    }

    #[test]
    fn duplicate_source_variable_compiles_with_copyof() {
        // Manager(x, x) -> SelfMngr(x): the duplicate premise variable
        // becomes an equality select plus a CopyOf policy.
        let m = parse_mapping(
            r#"
            source Manager(emp, mgr);
            target SelfMngr(emp);
            Manager(x, x) -> SelfMngr(x);
            "#,
        )
        .unwrap();
        let t = compile(&m).unwrap();
        let lens = t.lens_for("SelfMngr").unwrap();
        let plan = lens.source_expr.plan_string();
        assert!(plan.contains("Select[emp = mgr]"), "{plan}");
        assert!(plan.contains("mgr := copy of emp"), "{plan}");
        assert!(t.report.all_exact());
    }

    #[test]
    fn hole_paths_bind_after_union_folding() {
        // Two joining tgds into one relation: join holes sit under the
        // union; binding through the recorded paths must land on the
        // right nodes.
        let m = parse_mapping(
            r#"
            source A(k, v);
            source B(k, w);
            source C(k, v);
            source D(k, w);
            target Out(v, w);
            A(k, x) & B(k, y) -> Out(x, y);
            C(k, x) & D(k, y) -> Out(x, y);
            "#,
        )
        .unwrap();
        let mut t = compile(&m).unwrap();
        let join_holes: Vec<usize> = t
            .holes
            .iter()
            .filter(|h| matches!(h.site, HoleSite::Join { .. }))
            .map(|h| h.id)
            .collect();
        assert_eq!(join_holes.len(), 2);
        for id in join_holes {
            t.bind(id, HoleBinding::Join(JoinPolicy::DeleteLeft))
                .unwrap();
        }
        let plan = t.lens_for("Out").unwrap().source_expr.plan_string();
        assert_eq!(plan.matches("Join[delete-left]").count(), 2, "{plan}");
        assert!(!plan.contains("Join[delete-both]"), "{plan}");
    }

    #[test]
    fn shape_mismatch_between_tgds_rejected() {
        // tgd1 determines S.b, tgd2 leaves it existential.
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
        let err = compile(&m).unwrap_err();
        match err {
            CoreError::Unsupported { reasons } => {
                assert!(reasons[0].contains("disagree"), "{reasons:?}");
            }
            other => panic!("{other}"),
        }
    }
}
