//! Compile an SMO sequence into one migration [`Mapping`].
//!
//! Each step k becomes a mapping from the `v{k}__`-prefixed schema to
//! the `v{k+1}__`-prefixed one (the prefix satisfies the mapping
//! language's disjoint-vocabulary rule and makes consecutive steps
//! chain exactly), the steps are folded through [`dex_ops::compose()`]
//! (Fagin–Kolaitis–Popa–Tan), and the result is **de-skolemized** back
//! to plain st-tgds: a Skolem term produced by an earlier step's
//! existential and threaded through later copies appears only in
//! conclusions, where it is a fresh existential again. Sequences that
//! genuinely leave the first-order fragment (a Skolem term shared
//! across clauses or constrained in a premise) are refused with a
//! typed [`EvolutionError::NotFirstOrder`] — the caller gets a clean
//! 422-style refusal instead of a silently wrong migration.
//!
//! The final mapping's target is the *plain* new schema (prefix
//! stripped), with the new schema's key dependencies attached as
//! target egds: the migration chase itself enforces the evolved keys.

use crate::error::EvolutionError;
use crate::smo::{ColumnDefault, Smo};
use dex_logic::{Atom, Mapping, SoTgd, StTgd, Term};
use dex_ops::compose;
use dex_relational::{Instance, Name, RelSchema, Schema};
use std::collections::{BTreeMap, BTreeSet};

/// The relation-name prefix marking version `k` of an evolving schema.
pub fn version_prefix(k: usize) -> String {
    format!("v{k}__")
}

fn prefixed_name(name: &Name, k: usize) -> Name {
    Name::new(format!("{}{}", version_prefix(k), name))
}

/// Rename every relation of `schema` to its version-`k` name,
/// preserving attributes and functional dependencies.
pub fn prefix_schema(schema: &Schema, k: usize) -> Result<Schema, EvolutionError> {
    let rels: Vec<RelSchema> = schema
        .relations()
        .map(|r| r.clone().renamed(prefixed_name(r.name(), k)))
        .collect();
    Schema::with_relations(rels).map_err(EvolutionError::Relational)
}

/// Copy `inst` onto the version-`k` renaming of its schema (tuples,
/// nulls and all) — the form the migration mapping's source expects.
/// [`into_prefixed`] of a clone.
pub fn prefix_instance(inst: &Instance, k: usize) -> Result<Instance, EvolutionError> {
    into_prefixed(inst.clone(), k)
}

/// [`prefix_instance`] by value: each relation moves onto its
/// version-`k` name with its rows in place, so nothing is copied or
/// re-inserted.
pub fn into_prefixed(inst: Instance, k: usize) -> Result<Instance, EvolutionError> {
    let schema = prefix_schema(inst.schema(), k)?;
    let rels = inst
        .into_relations()
        .map(|r| {
            let name = prefixed_name(r.name(), k);
            let decl = r.schema().clone().renamed(name);
            r.with_schema(decl)
        })
        .collect::<Result<Vec<_>, _>>()
        .map_err(EvolutionError::Relational)?;
    Instance::from_relations(schema, rels).map_err(EvolutionError::Relational)
}

/// Variables `x0..x{n-1}`.
fn row_vars(n: usize) -> Vec<Term> {
    (0..n).map(|i| Term::var(format!("x{i}"))).collect()
}

/// `R(x0..xn) -> S(x0..xn)`-style copy rule between two versions of
/// one relation (same arity, possibly different names).
fn copy_rule(from: &Name, from_k: usize, to: &Name, to_k: usize, arity: usize) -> StTgd {
    let vars = row_vars(arity);
    StTgd::new(
        vec![Atom::new(prefixed_name(from, from_k), vars.clone())],
        vec![Atom::new(prefixed_name(to, to_k), vars)],
    )
}

/// Compile one SMO into the mapping from version `k` (the schema
/// `before` the operator) to version `k+1`.
fn step_mapping(before: &Schema, smo: &Smo, k: usize) -> Result<Mapping, EvolutionError> {
    let after = smo.apply_schema(before)?;
    let source = prefix_schema(before, k)?;
    let target = prefix_schema(&after, k + 1)?;

    let arity_of =
        |s: &Schema, n: &Name| -> usize { s.relation(n.as_str()).map(|r| r.arity()).unwrap_or(0) };
    // Copy rules for every relation untouched by the operator.
    let mut tgds: Vec<StTgd> = Vec::new();
    let touched: Vec<&Name> = match smo {
        Smo::CreateTable(rs) => vec![rs.name()],
        Smo::DropTable(n) => vec![n],
        Smo::RenameTable { from, to } => vec![from, to],
        Smo::AddColumn { table, .. }
        | Smo::DropColumn { table, .. }
        | Smo::RenameColumn { table, .. } => vec![table],
        Smo::SplitHorizontal {
            table,
            true_table,
            false_table,
            ..
        } => vec![table, true_table, false_table],
        Smo::MergeHorizontal { left, right, out } => vec![left, right, out],
        Smo::PartitionVertical { table, left, right } => vec![table, &left.0, &right.0],
        Smo::JoinVertical { left, right, out } => vec![left, right, out],
    };
    for rel in before.relations() {
        if touched.iter().any(|t| *t == rel.name()) {
            continue;
        }
        tgds.push(copy_rule(rel.name(), k, rel.name(), k + 1, rel.arity()));
    }

    // Operator-specific rules.
    match smo {
        Smo::CreateTable(_) => {} // new table starts empty
        Smo::DropTable(_) => {}   // its rows simply have no conclusion
        Smo::RenameTable { from, to } => {
            tgds.push(copy_rule(from, k, to, k + 1, arity_of(before, from)));
        }
        Smo::AddColumn { table, default, .. } => {
            let n = arity_of(before, table);
            let mut rhs = row_vars(n);
            match default {
                ColumnDefault::Null => rhs.push(Term::var("y")),
                ColumnDefault::Const(c) => rhs.push(Term::Const(c.clone())),
            }
            tgds.push(StTgd::new(
                vec![Atom::new(prefixed_name(table, k), row_vars(n))],
                vec![Atom::new(prefixed_name(table, k + 1), rhs)],
            ));
        }
        Smo::DropColumn { table, column, .. } => {
            let rel = before
                .relation(table.as_str())
                .ok_or_else(|| EvolutionError::UnknownTable(table.clone()))?;
            let keep: Vec<Term> = rel
                .attrs()
                .iter()
                .enumerate()
                .filter(|(_, (a, _))| a != column)
                .map(|(i, _)| Term::var(format!("x{i}")))
                .collect();
            tgds.push(StTgd::new(
                vec![Atom::new(prefixed_name(table, k), row_vars(rel.arity()))],
                vec![Atom::new(prefixed_name(table, k + 1), keep)],
            ));
        }
        Smo::RenameColumn { table, .. } => {
            // Positions are unchanged; only the schema header differs.
            tgds.push(copy_rule(table, k, table, k + 1, arity_of(before, table)));
        }
        Smo::SplitHorizontal { pred, .. } => {
            return Err(EvolutionError::NotCompilable {
                smo: smo.to_string(),
                reason: format!(
                    "the split predicate `{pred}` is not expressible in the \
                     tgd language; split the data explicitly and migrate the \
                     two halves as created tables"
                ),
            });
        }
        Smo::MergeHorizontal { left, right, out } => {
            tgds.push(copy_rule(left, k, out, k + 1, arity_of(before, left)));
            tgds.push(copy_rule(right, k, out, k + 1, arity_of(before, right)));
        }
        Smo::PartitionVertical { table, left, right } => {
            let rel = before
                .relation(table.as_str())
                .ok_or_else(|| EvolutionError::UnknownTable(table.clone()))?;
            for (name, cols) in [left, right] {
                let sel: Vec<Term> = cols
                    .iter()
                    .map(|c| {
                        rel.position(c.as_str())
                            .map(|i| Term::var(format!("x{i}")))
                            .ok_or_else(|| EvolutionError::UnknownColumn {
                                table: table.clone(),
                                column: c.clone(),
                            })
                    })
                    .collect::<Result<_, _>>()?;
                tgds.push(StTgd::new(
                    vec![Atom::new(prefixed_name(table, k), row_vars(rel.arity()))],
                    vec![Atom::new(prefixed_name(name, k + 1), sel)],
                ));
            }
        }
        Smo::JoinVertical { left, right, out } => {
            let l = before
                .relation(left.as_str())
                .ok_or_else(|| EvolutionError::UnknownTable(left.clone()))?;
            let r = before
                .relation(right.as_str())
                .ok_or_else(|| EvolutionError::UnknownTable(right.clone()))?;
            // Shared attribute names join; the out row is l's columns
            // then r's non-shared ones (matching `apply_schema`).
            let var_for = |a: &Name, side: char, i: usize, shared: bool| -> Term {
                if shared {
                    Term::var(format!("s_{a}"))
                } else {
                    Term::var(format!("{side}{i}"))
                }
            };
            let l_vars: Vec<Term> = l
                .attrs()
                .iter()
                .enumerate()
                .map(|(i, (a, _))| var_for(a, 'l', i, r.position(a.as_str()).is_some()))
                .collect();
            let r_vars: Vec<Term> = r
                .attrs()
                .iter()
                .enumerate()
                .map(|(i, (a, _))| var_for(a, 'r', i, l.position(a.as_str()).is_some()))
                .collect();
            let mut out_vars = l_vars.clone();
            for (i, (a, _)) in r.attrs().iter().enumerate() {
                if l.position(a.as_str()).is_none() {
                    out_vars.push(r_vars[i].clone());
                }
            }
            tgds.push(StTgd::new(
                vec![
                    Atom::new(prefixed_name(left, k), l_vars),
                    Atom::new(prefixed_name(right, k), r_vars),
                ],
                vec![Atom::new(prefixed_name(out, k + 1), out_vars)],
            ));
        }
    }

    Mapping::new(source, target, tgds).map_err(EvolutionError::Relational)
}

/// De-skolemize an SO-tgd whose function terms occur only in
/// conclusions: each distinct application becomes a fresh existential
/// variable of its clause. Refused (typed) when a function term is
/// constrained by a premise/equality or shared across clauses — those
/// compositions are genuinely second-order (the paper's Example 2).
fn deskolemize(so: &SoTgd) -> Result<Vec<StTgd>, EvolutionError> {
    let mut seen_apps: BTreeMap<String, usize> = BTreeMap::new();
    let mut out = Vec::with_capacity(so.clauses.len());
    for (ci, clause) in so.clauses.iter().enumerate() {
        if !clause.lhs_eqs.is_empty() {
            return Err(EvolutionError::NotFirstOrder {
                detail: format!(
                    "clause {} constrains a Skolem term in its premise ({})",
                    ci,
                    clause
                        .lhs_eqs
                        .iter()
                        .map(|(l, r)| format!("{l} = {r}"))
                        .collect::<Vec<_>>()
                        .join(", ")
                ),
            });
        }
        if clause.lhs_atoms.iter().any(Atom::has_func) {
            return Err(EvolutionError::NotFirstOrder {
                detail: format!("clause {ci} has a function term in a premise atom"),
            });
        }
        let mut rhs = clause.rhs_atoms.clone();
        let mut taken: BTreeSet<String> = BTreeSet::new();
        for a in clause.lhs_atoms.iter().chain(rhs.iter()) {
            for v in a.variables() {
                taken.insert(v.to_string());
            }
        }
        let mut fresh = 0usize;
        // Innermost-first: repeatedly replace a function application
        // with no function subterms, so nested Skolems (AddColumn
        // after AddColumn) unwind to independent existentials.
        while let Some(app) = rhs
            .iter()
            .flat_map(|a| a.args.iter())
            .find_map(innermost_app)
        {
            let key = app.to_string();
            if let Some(&other) = seen_apps.get(&key) {
                if other != ci {
                    return Err(EvolutionError::NotFirstOrder {
                        detail: format!(
                            "Skolem term {key} is shared by clauses {other} and {ci}; \
                             its witness cannot be split into per-clause existentials"
                        ),
                    });
                }
            }
            seen_apps.insert(key, ci);
            let mut name = format!("e{fresh}");
            while taken.contains(&name) {
                fresh += 1;
                name = format!("e{fresh}");
            }
            taken.insert(name.clone());
            fresh += 1;
            let replacement = Term::var(name);
            for a in rhs.iter_mut() {
                for t in a.args.iter_mut() {
                    *t = replace_term(t, &app, &replacement);
                }
            }
        }
        out.push(StTgd::new(clause.lhs_atoms.clone(), rhs));
    }
    Ok(out)
}

/// First function application in `t` that itself contains no function
/// subterm.
fn innermost_app(t: &Term) -> Option<Term> {
    match t {
        Term::Func(_, args) => args
            .iter()
            .find_map(innermost_app)
            .or_else(|| Some(t.clone())),
        _ => None,
    }
}

/// Replace every occurrence of `from` (an exact term) in `t`.
fn replace_term(t: &Term, from: &Term, to: &Term) -> Term {
    if t == from {
        return to.clone();
    }
    match t {
        Term::Func(f, args) => Term::Func(
            f.clone(),
            args.iter().map(|a| replace_term(a, from, to)).collect(),
        ),
        other => other.clone(),
    }
}

/// A compiled migration: the single chaseable mapping plus what it was
/// compiled from.
#[derive(Clone, Debug)]
pub struct Migration {
    /// `v0__`-prefixed old schema → plain new schema, with the new
    /// schema's keys as target egds. Chasing the (prefixed) stored
    /// instance through this mapping *is* the migration.
    pub mapping: Mapping,
    /// The SMO sequence the mapping was compiled from.
    pub smos: Vec<Smo>,
}

impl Migration {
    /// The backward mapping (paper §2's inverse direction): the
    /// maximum recovery of the forward migration, when the fragment
    /// supports it. Shown by `dexcli migrate --dry-run`.
    pub fn backward(&self) -> Option<dex_ops::MaxRecovery> {
        // Strip egds: maximum_recovery is defined for st-tgd mappings.
        let plain = Mapping::new(
            self.mapping.source().clone(),
            self.mapping.target().clone(),
            self.mapping.st_tgds().to_vec(),
        )
        .ok()?;
        dex_ops::maximum_recovery(&plain).ok()
    }
}

/// Compile `smos` (evolving `old` into `new`) to one migration
/// mapping via pairwise composition and de-skolemization.
///
/// `new` must be the schema the sequence actually reaches (the caller
/// obtained `smos` from [`crate::diff()`] or built them alongside the
/// schema); its keys become target egds, so the migration chase
/// enforces the evolved schema's constraints as it copies.
pub fn compile_migration(
    old: &Schema,
    new: &Schema,
    smos: &[Smo],
) -> Result<Migration, EvolutionError> {
    compile_migration_checked(old, new, smos, false)
}

/// [`compile_migration`] with an opt-in chase-agreement self-check.
///
/// With `self_check` set, every pairwise composition in the fold is
/// refereed by [`dex_ops::verify_composition`]: the critical instances
/// of both operands are chased through the two-step pipeline and
/// through the composed mapping, and the results must be
/// homomorphically equivalent. A disagreement aborts compilation with
/// [`EvolutionError::SelfCheck`] (`DEX604`) *before* any migration
/// plan is built — a miscompiled fold never reaches the store. Steps
/// outside the decidable fragment (second-order intermediate, later
/// de-skolemized) are skipped, not failed: refusal to certify is not a
/// counterexample. `dexcli migrate --dry-run` runs with the check on.
pub fn compile_migration_checked(
    old: &Schema,
    new: &Schema,
    smos: &[Smo],
    self_check: bool,
) -> Result<Migration, EvolutionError> {
    // Fold the steps into one v0 → vN mapping.
    let mut acc: Option<Mapping> = None;
    let mut schema_k = old.clone();
    for (k, smo) in smos.iter().enumerate() {
        let step = step_mapping(&schema_k, smo, k)?;
        schema_k = smo.apply_schema(&schema_k)?;
        acc = Some(match acc {
            None => step,
            Some(prev) => {
                let comp = compose(&prev, &step).map_err(|e| EvolutionError::Compose {
                    detail: e.to_string(),
                })?;
                if self_check {
                    if let Some(chk) = dex_ops::verify_composition(&prev, &step, &comp) {
                        if !chk.agreed {
                            return Err(EvolutionError::SelfCheck {
                                detail: format!(
                                    "step {k} (`{smo}`): counterexample found after \
                                     {} critical instance(s)",
                                    chk.checked
                                ),
                            });
                        }
                    }
                }
                let tgds = match comp.st_tgds {
                    Some(tgds) => tgds,
                    None => deskolemize(&comp.sotgd)?,
                };
                Mapping::new(comp.source, comp.target, tgds).map_err(EvolutionError::Relational)?
            }
        });
    }
    let steps = smos.len();
    let (folded_tgds, source) = match acc {
        Some(m) => (m.st_tgds().to_vec(), m.source().clone()),
        None => {
            // Empty sequence: the identity migration v0 → new.
            let source = prefix_schema(old, 0)?;
            let tgds = old
                .relations()
                .map(|r| copy_rule(r.name(), 0, r.name(), 0, r.arity()))
                .collect();
            (tgds, source)
        }
    };

    // Retarget: strip the `v{N}__` prefix off every conclusion so the
    // final mapping lands on the plain new schema (with its keys).
    let vn = version_prefix(steps);
    let retargeted: Vec<StTgd> = folded_tgds
        .into_iter()
        .map(|t| {
            let rhs = t
                .rhs
                .iter()
                .map(|a| {
                    let plain = a
                        .relation
                        .as_str()
                        .strip_prefix(&vn)
                        .unwrap_or(a.relation.as_str());
                    Atom::new(Name::new(plain), a.args.clone())
                })
                .collect();
            StTgd::new(t.lhs.clone(), rhs)
        })
        .collect();

    let egds = dex_logic::schema_key_egds(new);
    let mapping = Mapping::with_target_deps(source, new.clone(), retargeted, vec![], egds)
        .map_err(EvolutionError::Relational)?;
    Ok(Migration {
        mapping,
        smos: smos.to_vec(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::Catalog;
    use crate::diff::diff;
    use dex_chase::exchange;
    use dex_logic::{parse_mapping, render_mapping_dex};
    use dex_relational::{tuple, AttrType, Value};

    fn schema(decls: &[(&str, &[&str])]) -> Schema {
        Schema::with_relations(
            decls
                .iter()
                .map(|(n, attrs)| {
                    RelSchema::untyped(*n, attrs.iter().map(|a| a.to_string()).collect::<Vec<_>>())
                        .unwrap()
                })
                .collect(),
        )
        .unwrap()
    }

    fn migrate_instance(old: &Schema, new: &Schema, inst: &Instance) -> Instance {
        let smos = diff(&Catalog::from_schema(old), &Catalog::from_schema(new)).unwrap();
        let mig = compile_migration(old, new, &smos).unwrap();
        let src = prefix_instance(inst, 0).unwrap();
        exchange(&mig.mapping, &src).unwrap().target
    }

    #[test]
    fn rename_add_drop_pipeline_preserves_data() {
        // A rename combined with a column add is not shape-inferable
        // (diff would refuse); spelled as explicit SMOs it compiles
        // and chases end to end.
        let old = schema(&[("Emp", &["name", "dept"]), ("Legacy", &["junk"])]);
        let new = schema(&[("Employee", &["name", "dept", "office"])]);
        let smos = vec![
            Smo::RenameTable {
                from: Name::new("Emp"),
                to: Name::new("Employee"),
            },
            Smo::AddColumn {
                table: Name::new("Employee"),
                column: Name::new("office"),
                ty: AttrType::Any,
                default: ColumnDefault::Null,
            },
            Smo::DropTable(Name::new("Legacy")),
        ];
        let mig = compile_migration(&old, &new, &smos).unwrap();
        let mut inst = Instance::empty(old.clone());
        inst.insert("Emp", tuple!["ann", "eng"]).unwrap();
        inst.insert("Emp", tuple!["bob", "ops"]).unwrap();
        inst.insert("Legacy", tuple!["junk0"]).unwrap();
        let out = exchange(&mig.mapping, &prefix_instance(&inst, 0).unwrap())
            .unwrap()
            .target;
        let rows: Vec<_> = out.facts().collect();
        assert_eq!(rows.len(), 2, "{out}");
        for (rel, t) in rows {
            assert_eq!(rel.as_str(), "Employee");
            assert_eq!(t.arity(), 3);
            assert!(t[2].is_null(), "office column is a fresh null: {t:?}");
        }
    }

    #[test]
    fn chained_add_columns_deskolemize_to_independent_nulls() {
        let old = schema(&[("R", &["a"])]);
        let smos = vec![
            Smo::AddColumn {
                table: Name::new("R"),
                column: Name::new("b"),
                ty: AttrType::Any,
                default: ColumnDefault::Null,
            },
            Smo::AddColumn {
                table: Name::new("R"),
                column: Name::new("c"),
                ty: AttrType::Any,
                default: ColumnDefault::Null,
            },
        ];
        let new = schema(&[("R", &["a", "b", "c"])]);
        let mig = compile_migration(&old, &new, &smos).unwrap();
        assert_eq!(mig.mapping.st_tgds().len(), 1);
        let tgd = &mig.mapping.st_tgds()[0];
        assert_eq!(tgd.existential_vars().len(), 2, "{tgd}");
        // And it chases: each row gets two distinct fresh nulls.
        let mut inst = Instance::empty(old.clone());
        inst.insert("R", tuple!["k"]).unwrap();
        let out = exchange(&mig.mapping, &prefix_instance(&inst, 0).unwrap())
            .unwrap()
            .target;
        let (_, row) = out.facts().next().unwrap();
        assert!(row[1].is_null() && row[2].is_null() && row[1] != row[2]);
    }

    #[test]
    fn self_check_passes_on_a_multi_step_fold() {
        // Two folded compositions (rename then add-column), with the
        // chase-agreement referee watching each one.
        let old = schema(&[("R", &["a"])]);
        let smos = vec![
            Smo::RenameTable {
                from: Name::new("R"),
                to: Name::new("S"),
            },
            Smo::AddColumn {
                table: Name::new("S"),
                column: Name::new("b"),
                ty: AttrType::Any,
                default: ColumnDefault::Null,
            },
        ];
        let new = schema(&[("S", &["a", "b"])]);
        let checked = compile_migration_checked(&old, &new, &smos, true).unwrap();
        let unchecked = compile_migration(&old, &new, &smos).unwrap();
        assert_eq!(
            checked.mapping.st_tgds().len(),
            unchecked.mapping.st_tgds().len(),
            "the self-check observes, it must not rewrite"
        );
    }

    #[test]
    fn const_default_fills_existing_rows() {
        let old = schema(&[("R", &["a"])]);
        let new = schema(&[("R", &["a", "tag"])]);
        let smos = vec![Smo::AddColumn {
            table: Name::new("R"),
            column: Name::new("tag"),
            ty: AttrType::Str,
            default: ColumnDefault::Const("migrated".into()),
        }];
        let mig = compile_migration(&old, &new, &smos).unwrap();
        let mut inst = Instance::empty(old.clone());
        inst.insert("R", tuple!["k"]).unwrap();
        let out = exchange(&mig.mapping, &prefix_instance(&inst, 0).unwrap())
            .unwrap()
            .target;
        let (_, row) = out.facts().next().unwrap();
        assert_eq!(row[1], Value::str("migrated"));
    }

    #[test]
    fn partition_vertical_splits_rows() {
        let old = schema(&[("Emp", &["name", "dept", "office"])]);
        let new = schema(&[
            ("Names", &["name", "dept"]),
            ("Offices", &["dept", "office"]),
        ]);
        let mut inst = Instance::empty(old.clone());
        inst.insert("Emp", tuple!["ann", "eng", "e41"]).unwrap();
        let out = migrate_instance(&old, &new, &inst);
        assert_eq!(out.fact_count(), 2);
        let names: Vec<_> = out.facts().map(|(r, _)| r.as_str()).collect();
        assert!(names.contains(&"Names") && names.contains(&"Offices"));
    }

    #[test]
    fn rendered_mapping_reparses_to_the_same_semantics() {
        let old = schema(&[("Emp", &["name", "dept"])]);
        let new = schema(&[("Employee", &["name", "dept", "office"])]);
        let smos = diff(&Catalog::from_schema(&old), &Catalog::from_schema(&new)).unwrap();
        let mig = compile_migration(&old, &new, &smos).unwrap();
        let text = render_mapping_dex(&mig.mapping);
        let reparsed = parse_mapping(&text).unwrap_or_else(|e| panic!("{text}\n{e}"));
        assert_eq!(reparsed.st_tgds().len(), mig.mapping.st_tgds().len());
        let mut inst = Instance::empty(old.clone());
        inst.insert("Emp", tuple!["ann", "eng"]).unwrap();
        let src = prefix_instance(&inst, 0).unwrap();
        let a = exchange(&mig.mapping, &src).unwrap().target;
        let b = exchange(&reparsed, &src).unwrap().target;
        assert_eq!(a, b);
    }

    #[test]
    fn new_schema_keys_become_target_egds() {
        let old = schema(&[("Emp", &["name", "dept"])]);
        let mut rel = RelSchema::untyped("Emp", vec!["name", "dept"]).unwrap();
        rel.fds_mut()
            .insert(dex_relational::Fd::new(vec!["name"], vec!["dept"]));
        let new = Schema::with_relations(vec![rel]).unwrap();
        let mig = compile_migration(&old, &new, &[]).unwrap();
        assert!(!mig.mapping.target_egds().is_empty());
    }

    #[test]
    fn split_horizontal_is_a_typed_refusal() {
        let old = schema(&[("R", &["a", "b"])]);
        let smo = Smo::SplitHorizontal {
            table: Name::new("R"),
            pred: dex_relational::Expr::attr("a").ge(dex_relational::Expr::lit(0i64)),
            true_table: Name::new("T"),
            false_table: Name::new("F"),
        };
        let err = compile_migration(&old, &schema(&[("T", &["a", "b"])]), &[smo]).unwrap_err();
        assert!(matches!(err, EvolutionError::NotCompilable { .. }), "{err}");
    }

    #[test]
    fn backward_recovery_exists_for_copy_style_migrations() {
        let old = schema(&[("Emp", &["name", "dept"])]);
        let new = schema(&[("Employee", &["name", "dept"])]);
        let smos = diff(&Catalog::from_schema(&old), &Catalog::from_schema(&new)).unwrap();
        let mig = compile_migration(&old, &new, &smos).unwrap();
        assert!(mig.backward().is_some());
    }
}
