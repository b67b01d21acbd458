//! Evaluating relational-lens expressions: `get`, `put`, `create`.

use crate::ast::RelLensExpr;
use crate::error::RellensError;
use crate::policy::{Environment, JoinPolicy, UnionPolicy};
use crate::revision::revise_all;
use dex_relational::algebra;
use dex_relational::{Instance, Name, NullGen, RelSchema, Relation, Schema, Tuple, Value};
use std::collections::BTreeMap;

impl RelLensExpr {
    /// The forward direction: evaluate like relational algebra.
    pub fn get(&self, inst: &Instance) -> Result<Relation, RellensError> {
        match self {
            RelLensExpr::Base(n) => Ok(inst.expect_relation(n.as_str())?.clone()),
            RelLensExpr::Select { input, pred } => {
                let r = input.get(inst)?;
                Ok(algebra::select(&r, pred, r.name().as_str())?)
            }
            RelLensExpr::Project { input, attrs, .. } => {
                let r = input.get(inst)?;
                let cols: Vec<&str> = attrs.iter().map(Name::as_str).collect();
                Ok(algebra::project(&r, &cols, r.name().as_str())?)
            }
            RelLensExpr::Rename { input, renaming } => {
                let r = input.get(inst)?;
                Ok(algebra::rename_attrs(&r, renaming, r.name().as_str())?)
            }
            RelLensExpr::Join { left, right, .. } => {
                let l = left.get(inst)?;
                let r = right.get(inst)?;
                Ok(algebra::natural_join(&l, &r, l.name().as_str())?)
            }
            RelLensExpr::Union { left, right, .. } => {
                let l = left.get(inst)?;
                let r = right.get(inst)?;
                Ok(algebra::union(&l, &r, l.name().as_str())?)
            }
        }
    }

    /// The backward direction: translate an updated view into an
    /// updated instance, using the node policies where information is
    /// missing.
    pub fn put(
        &self,
        view: &Relation,
        inst: &Instance,
        env: &Environment,
    ) -> Result<Instance, RellensError> {
        // Fresh nulls must dodge every null in the instance AND the view.
        let mut max = 0u64;
        let mut track = |t: &Tuple| {
            let mut s = std::collections::BTreeSet::new();
            t.collect_nulls(&mut s);
            if let Some(n) = s.iter().next_back() {
                max = max.max(n.0 + 1);
            }
        };
        for (_, t) in inst.facts() {
            track(&t);
        }
        for t in view.iter() {
            track(&t);
        }
        let mut gen = NullGen::starting_at(max);
        self.put_rec(view, inst, env, &mut gen)
    }

    /// `put` against the empty instance — the lens `create`.
    pub fn create(
        &self,
        view: &Relation,
        schema: &Schema,
        env: &Environment,
    ) -> Result<Instance, RellensError> {
        self.put(view, &Instance::empty(schema.clone()), env)
    }

    fn put_rec(
        &self,
        view: &Relation,
        inst: &Instance,
        env: &Environment,
        gen: &mut NullGen,
    ) -> Result<Instance, RellensError> {
        match self {
            RelLensExpr::Base(n) => {
                let base = inst.expect_relation(n.as_str())?;
                if base.schema().arity() != view.schema().arity() {
                    return Err(RellensError::ViewSchemaMismatch {
                        expected: base.schema().to_string(),
                        actual: view.schema().to_string(),
                    });
                }
                let mut out = inst.clone();
                // `expect_relation` above already proved the relation
                // exists in this instance.
                #[allow(clippy::expect_used)]
                let rel = out.relation_mut(n.as_str()).expect("checked above");
                rel.clear();
                for t in view.iter() {
                    rel.insert(t.clone())?;
                }
                Ok(out)
            }
            RelLensExpr::Select { input, pred } => {
                let old_in = input.get(inst)?;
                // Every view row must satisfy the predicate.
                for t in view.iter() {
                    let ok = pred
                        .eval_bool(old_in.schema(), &t)
                        .map_err(RellensError::Relational)?;
                    if !ok {
                        return Err(RellensError::PredicateViolation {
                            predicate: pred.to_string(),
                            row: t.to_string(),
                        });
                    }
                }
                // Keep the rows the view never saw, then revise them by
                // the view rows (FD conflicts resolve in the view's
                // favour — the relational revision operator).
                let not_p = algebra::select(&old_in, &pred.clone().not(), old_in.name().as_str())?;
                let vrows: Vec<Tuple> = view.iter().collect();
                let new_in = revise_all(&not_p, vrows.iter())?;
                input.put_rec(&new_in, inst, env, gen)
            }
            RelLensExpr::Project {
                input,
                attrs,
                policies,
            } => {
                let old_in = input.get(inst)?;
                let kept_pos: Vec<usize> = attrs
                    .iter()
                    .map(|a| {
                        old_in.schema().position(a.as_str()).ok_or_else(|| {
                            RellensError::Structural(format!(
                                "projection keeps `{a}` which {} lacks",
                                old_in.schema()
                            ))
                        })
                    })
                    .collect::<Result<_, _>>()?;
                // Index old rows by their kept projection.
                let mut index: BTreeMap<Tuple, Vec<Tuple>> = BTreeMap::new();
                for t in old_in.iter() {
                    let key = t.project(&kept_pos);
                    index.entry(key).or_default().push(t);
                }
                let mut new_in = Relation::empty(old_in.schema().clone());
                for vrow in view.iter() {
                    if vrow.arity() != kept_pos.len() {
                        return Err(RellensError::ViewSchemaMismatch {
                            expected: format!("{} columns", kept_pos.len()),
                            actual: format!("{} columns", vrow.arity()),
                        });
                    }
                    match index.get(&vrow) {
                        Some(matches) => {
                            // Surviving row(s): restore the dropped
                            // columns from the source.
                            for m in matches {
                                new_in.insert(m.clone())?;
                            }
                        }
                        None => {
                            // New row: fill dropped columns by policy.
                            let kept_vals: BTreeMap<Name, Value> =
                                attrs.iter().cloned().zip(vrow.iter().cloned()).collect();
                            let mut full = Vec::with_capacity(old_in.schema().arity());
                            for (a, _) in old_in.schema().attrs() {
                                if let Some(i) = attrs.iter().position(|k| k == a) {
                                    full.push(vrow[i].clone());
                                } else {
                                    let policy = policies.get(a).ok_or_else(|| {
                                        RellensError::Structural(format!(
                                            "no update policy for dropped column `{a}`"
                                        ))
                                    })?;
                                    full.push(policy.fill(a, &kept_vals, &old_in, env, gen)?);
                                }
                            }
                            new_in.insert(Tuple::new(full))?;
                        }
                    }
                }
                input.put_rec(&new_in, inst, env, gen)
            }
            RelLensExpr::Rename { input, renaming } => {
                let inverse: BTreeMap<Name, Name> = renaming
                    .iter()
                    .map(|(a, b)| (b.clone(), a.clone()))
                    .collect();
                let unrenamed = algebra::rename_attrs(view, &inverse, view.name().as_str())?;
                input.put_rec(&unrenamed, inst, env, gen)
            }
            RelLensExpr::Join {
                left,
                right,
                policy,
            } => {
                let old_l = left.get(inst)?;
                let old_r = right.get(inst)?;
                let old_join = algebra::natural_join(&old_l, &old_r, old_l.name().as_str())?;

                // Column positions of each side within the join header.
                let jschema = old_join.schema().clone();
                // `natural_join` headers the output with every attribute
                // of both inputs, so position() cannot miss; filter_map
                // keeps that invariant panic-free.
                let l_pos: Vec<usize> = old_l
                    .schema()
                    .attr_names()
                    .filter_map(|a| jschema.position(a.as_str()))
                    .collect();
                let r_pos: Vec<usize> = old_r
                    .schema()
                    .attr_names()
                    .filter_map(|a| jschema.position(a.as_str()))
                    .collect();

                let mut new_l = old_l.clone();
                let mut new_r = old_r.clone();
                // Deletions: remove component rows per policy.
                for t in old_join.iter() {
                    if !view.contains(&t) {
                        match policy {
                            JoinPolicy::DeleteLeft => {
                                new_l.remove(&t.project(&l_pos));
                            }
                            JoinPolicy::DeleteRight => {
                                new_r.remove(&t.project(&r_pos));
                            }
                            JoinPolicy::DeleteBoth => {
                                new_l.remove(&t.project(&l_pos));
                                new_r.remove(&t.project(&r_pos));
                            }
                        }
                    }
                }
                // Insertions: split and revise into both sides.
                let mut l_inserts = Vec::new();
                let mut r_inserts = Vec::new();
                for t in view.iter() {
                    if !old_join.contains(&t) {
                        l_inserts.push(t.project(&l_pos));
                        r_inserts.push(t.project(&r_pos));
                    }
                }
                let new_l = revise_all(&new_l, l_inserts.iter())?;
                let new_r = revise_all(&new_r, r_inserts.iter())?;

                let mid = left.put_rec(&new_l, inst, env, gen)?;
                right.put_rec(&new_r, &mid, env, gen)
            }
            RelLensExpr::Union {
                left,
                right,
                policy,
            } => {
                let old_l = left.get(inst)?;
                let old_r = right.get(inst)?;
                let mut new_l = old_l.clone();
                let mut new_r = old_r.clone();
                // Deletions disappear from both sides.
                for t in old_l.iter() {
                    if !view.contains(&t) {
                        new_l.remove(&t);
                    }
                }
                for t in old_r.iter() {
                    if !view.contains(&t) {
                        new_r.remove(&t);
                    }
                }
                // Insertions are routed by policy.
                for t in view.iter() {
                    if !old_l.contains(&t) && !old_r.contains(&t) {
                        match policy {
                            UnionPolicy::InsertLeft => {
                                new_l = revise_all(&new_l, [&t])?;
                            }
                            UnionPolicy::InsertRight => {
                                new_r = revise_all(&new_r, [&t])?;
                            }
                        }
                    }
                }
                let mid = left.put_rec(&new_l, inst, env, gen)?;
                right.put_rec(&new_r, &mid, env, gen)
            }
        }
    }
}

/// A validated relational lens over a fixed database [`Schema`]:
/// couples a [`RelLensExpr`] with its environment and caches the view
/// schema.
///
/// Implements [`dex_lens::Lens`] with `Source = Instance` and
/// `View = Relation`, so the generic law harness and the symmetric
/// combinators apply. The trait methods **panic** on evaluation errors
/// (missing environment values, predicate violations); use
/// [`InstanceLens::try_get`] / [`InstanceLens::try_put`] where errors
/// must be handled.
#[derive(Clone, Debug)]
pub struct InstanceLens {
    expr: RelLensExpr,
    schema: Schema,
    view_schema: RelSchema,
    env: Environment,
}

impl InstanceLens {
    /// Validate `expr` against `schema` and build the lens.
    pub fn new(expr: RelLensExpr, schema: Schema, env: Environment) -> Result<Self, RellensError> {
        let view_schema = expr.view_schema(&schema)?;
        Ok(InstanceLens {
            expr,
            schema,
            view_schema,
            env,
        })
    }

    /// The underlying expression (the plan).
    pub fn expr(&self) -> &RelLensExpr {
        &self.expr
    }

    /// The source database schema.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// The derived view schema.
    pub fn view_schema(&self) -> &RelSchema {
        &self.view_schema
    }

    /// Fallible `get`.
    pub fn try_get(&self, inst: &Instance) -> Result<Relation, RellensError> {
        self.expr.get(inst)
    }

    /// Fallible `put`.
    pub fn try_put(&self, view: &Relation, inst: &Instance) -> Result<Instance, RellensError> {
        self.expr.put(view, inst, &self.env)
    }

    /// Fallible `create`.
    pub fn try_create(&self, view: &Relation) -> Result<Instance, RellensError> {
        self.expr.create(view, &self.schema, &self.env)
    }
}

// The infallible `Lens` trait surface adapts the fallible try_* API
// for lenses that passed validation at construction; a failure here is
// a validator bug, not a recoverable state.
#[allow(clippy::expect_used)]
impl dex_lens::Lens for InstanceLens {
    type Source = Instance;
    type View = Relation;

    fn get(&self, s: &Instance) -> Relation {
        self.try_get(s).expect("validated lens get failed")
    }

    fn put(&self, v: &Relation, s: &Instance) -> Instance {
        self.try_put(v, s).expect("validated lens put failed")
    }

    fn create(&self, v: &Relation) -> Instance {
        self.try_create(v).expect("validated lens create failed")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::UpdatePolicy;
    use dex_lens::laws;
    use dex_lens::Lens as _;
    use dex_relational::{tuple, Expr, Fd};

    fn schema() -> Schema {
        Schema::with_relations(vec![
            RelSchema::untyped("Person", vec!["id", "name", "age", "city"])
                .unwrap()
                .with_fd(Fd::new(vec!["id"], vec!["name", "age", "city"]))
                .unwrap(),
            RelSchema::untyped("CityZip", vec!["city", "zip"])
                .unwrap()
                .with_fd(Fd::new(vec!["city"], vec!["zip"]))
                .unwrap(),
        ])
        .unwrap()
    }

    fn db() -> Instance {
        Instance::with_facts(
            schema(),
            vec![
                (
                    "Person",
                    vec![
                        tuple![1i64, "Alice", 30i64, "Sydney"],
                        tuple![2i64, "Bob", 40i64, "Santiago"],
                        tuple![3i64, "Carol", 25i64, "Sydney"],
                    ],
                ),
                (
                    "CityZip",
                    vec![tuple!["Sydney", 2000i64], tuple!["Santiago", 8320000i64]],
                ),
            ],
        )
        .unwrap()
    }

    fn lens(expr: RelLensExpr) -> InstanceLens {
        InstanceLens::new(expr, schema(), Environment::new()).unwrap()
    }

    #[test]
    fn base_lens_roundtrip() {
        let l = lens(RelLensExpr::base("Person"));
        let v = l.get(&db());
        assert_eq!(v.len(), 3);
        assert!(laws::check_get_put(&l, &db()).is_ok());
        // Edit: delete Bob.
        let mut v2 = v.clone();
        v2.remove(&tuple![2i64, "Bob", 40i64, "Santiago"]);
        let db2 = l.put(&v2, &db());
        assert_eq!(db2.relation("Person").unwrap().len(), 2);
        assert!(laws::check_put_get(&l, &v2, &db()).is_ok());
    }

    #[test]
    fn select_lens_laws_and_behaviour() {
        let l =
            lens(RelLensExpr::base("Person").select(Expr::attr("city").eq(Expr::lit("Sydney"))));
        let v = l.get(&db());
        assert_eq!(v.len(), 2);
        assert!(laws::check_get_put(&l, &db()).is_ok());
        // Delete Carol from the view: she disappears from the base.
        let mut v2 = v.clone();
        v2.remove(&tuple![3i64, "Carol", 25i64, "Sydney"]);
        let db2 = l.put(&v2, &db());
        assert_eq!(db2.relation("Person").unwrap().len(), 2);
        assert!(db2.contains("Person", &tuple![2i64, "Bob", 40i64, "Santiago"]));
        assert!(laws::check_put_get(&l, &v2, &db()).is_ok());
    }

    #[test]
    fn select_put_rejects_out_of_view_rows() {
        let l =
            lens(RelLensExpr::base("Person").select(Expr::attr("city").eq(Expr::lit("Sydney"))));
        let mut v = l.get(&db());
        v.insert(tuple![9i64, "Zed", 1i64, "Quito"]).unwrap();
        let err = l.try_put(&v, &db()).unwrap_err();
        assert!(matches!(err, RellensError::PredicateViolation { .. }));
    }

    #[test]
    fn select_put_revises_fd_conflicts() {
        // Move Alice out of Sydney *via the view*? Not possible (view
        // rows must satisfy the predicate) — but editing her age in the
        // view must replace, not duplicate, her base row (key id).
        let l =
            lens(RelLensExpr::base("Person").select(Expr::attr("city").eq(Expr::lit("Sydney"))));
        let mut v = l.get(&db());
        v.remove(&tuple![1i64, "Alice", 30i64, "Sydney"]);
        v.insert(tuple![1i64, "Alice", 31i64, "Sydney"]).unwrap();
        let db2 = l.put(&v, &db());
        let p = db2.relation("Person").unwrap();
        assert_eq!(p.len(), 3, "no duplicate Alice");
        assert!(p.contains(&tuple![1i64, "Alice", 31i64, "Sydney"]));
        assert!(p.satisfies_fds());
    }

    #[test]
    fn project_lens_restores_surviving_rows() {
        let l = lens(RelLensExpr::base("Person").project(
            vec!["id", "name"],
            vec![("age", UpdatePolicy::Null), ("city", UpdatePolicy::Null)],
        ));
        // GetPut: untouched view restores ages and cities exactly.
        assert!(laws::check_get_put(&l, &db()).is_ok());
        // Renaming Alice in the view: her row is *new* (no kept-match),
        // so age and city become nulls — the Null policy cost.
        let mut v = l.get(&db());
        v.remove(&tuple![1i64, "Alice"]);
        v.insert(tuple![1i64, "Alicia"]).unwrap();
        let db2 = l.put(&v, &db());
        let p = db2.relation("Person").unwrap();
        let alicia = p
            .iter()
            .find(|t| t[1] == Value::str("Alicia"))
            .expect("alicia present");
        assert!(alicia[2].is_null() && alicia[3].is_null());
        assert!(laws::check_put_get(&l, &v, &db()).is_ok());
    }

    #[test]
    fn project_lens_policy_comparison() {
        // The paper's four policies, applied to the same new row.
        let mk = |age_policy: UpdatePolicy| {
            let mut env = Environment::new();
            env.insert(Name::new("default_age"), Value::int(21));
            InstanceLens::new(
                RelLensExpr::base("Person")
                    .project(vec!["id", "name", "city"], vec![("age", age_policy)]),
                schema(),
                env,
            )
            .unwrap()
        };
        let new_row = tuple![4i64, "Dan", "Sydney"];
        let mut base_view = mk(UpdatePolicy::Null).get(&db());
        base_view.insert(new_row.clone()).unwrap();

        // Null.
        let db_null = mk(UpdatePolicy::Null).put(&base_view, &db());
        let dan = |i: &Instance| {
            i.relation("Person")
                .unwrap()
                .iter()
                .find(|t| t[1] == Value::str("Dan"))
                .unwrap()
                .clone()
        };
        assert!(dan(&db_null)[2].is_null());
        // Const.
        let db_const = mk(UpdatePolicy::Const(0i64.into())).put(&base_view, &db());
        assert_eq!(dan(&db_const)[2], Value::int(0));
        // Env.
        let db_env = mk(UpdatePolicy::Env(Name::new("default_age"))).put(&base_view, &db());
        assert_eq!(dan(&db_env)[2], Value::int(21));
        // FD via city: Dan is in Sydney; Alice (30) sorts before Carol
        // (25)? Canonical order: (1, Alice, ...) first → age 30.
        let db_fd = mk(UpdatePolicy::fd_or_null(vec!["city"])).put(&base_view, &db());
        let got = dan(&db_fd)[2].clone();
        assert!(got == Value::int(30) || got == Value::int(25));
    }

    #[test]
    fn rename_lens_roundtrip() {
        let l = lens(RelLensExpr::base("CityZip").rename(vec![("zip", "postcode")]));
        let v = l.get(&db());
        assert_eq!(v.schema().position("postcode"), Some(1));
        assert!(laws::check_get_put(&l, &db()).is_ok());
        let mut v2 = v.clone();
        v2.insert(tuple!["Quito", 170101i64]).unwrap();
        let db2 = l.put(&v2, &db());
        assert!(db2.contains("CityZip", &tuple!["Quito", 170101i64]));
        assert!(laws::check_put_get(&l, &v2, &db()).is_ok());
    }

    #[test]
    fn join_lens_insert_splits_row() {
        let l = lens(
            RelLensExpr::base("Person").join(RelLensExpr::base("CityZip"), JoinPolicy::DeleteLeft),
        );
        let v = l.get(&db());
        assert_eq!(v.len(), 3);
        let mut v2 = v.clone();
        v2.insert(tuple![4i64, "Dan", 35i64, "Quito", 170101i64])
            .unwrap();
        let db2 = l.put(&v2, &db());
        assert!(db2.contains("Person", &tuple![4i64, "Dan", 35i64, "Quito"]));
        assert!(db2.contains("CityZip", &tuple!["Quito", 170101i64]));
        assert!(laws::check_put_get(&l, &v2, &db()).is_ok());
        assert!(laws::check_get_put(&l, &db()).is_ok());
    }

    #[test]
    fn join_lens_delete_left_vs_both() {
        let deleted_row = tuple![2i64, "Bob", 40i64, "Santiago", 8320000i64];
        // DeleteLeft: Bob's Person row goes; Santiago's zip stays.
        let l = lens(
            RelLensExpr::base("Person").join(RelLensExpr::base("CityZip"), JoinPolicy::DeleteLeft),
        );
        let mut v = l.get(&db());
        v.remove(&deleted_row);
        let db2 = l.put(&v, &db());
        assert!(!db2.contains("Person", &tuple![2i64, "Bob", 40i64, "Santiago"]));
        assert!(db2.contains("CityZip", &tuple!["Santiago", 8320000i64]));
        // DeleteBoth: the zip row goes too.
        let l2 = lens(
            RelLensExpr::base("Person").join(RelLensExpr::base("CityZip"), JoinPolicy::DeleteBoth),
        );
        let db3 = l2.put(&v, &db());
        assert!(!db3.contains("CityZip", &tuple!["Santiago", 8320000i64]));
    }

    #[test]
    fn join_delete_right_can_cascade() {
        // Deleting (Alice, …, Sydney, 2000) with DeleteRight removes
        // Sydney's zip row — which also removes Carol's join row: the
        // documented side-channel of join update policies (PutGet
        // violation the user must opt into).
        let l = lens(
            RelLensExpr::base("Person").join(RelLensExpr::base("CityZip"), JoinPolicy::DeleteRight),
        );
        let mut v = l.get(&db());
        v.remove(&tuple![1i64, "Alice", 30i64, "Sydney", 2000i64]);
        let db2 = l.put(&v, &db());
        let v2 = l.get(&db2);
        assert!(
            !v2.contains(&tuple![3i64, "Carol", 25i64, "Sydney", 2000i64]),
            "Carol's row cascaded away with the shared zip row"
        );
    }

    #[test]
    fn union_lens_routes_inserts() {
        let s = Schema::with_relations(vec![
            RelSchema::untyped("Father", vec!["p", "c"]).unwrap(),
            RelSchema::untyped("Mother", vec!["p", "c"]).unwrap(),
        ])
        .unwrap();
        let i = Instance::with_facts(
            s.clone(),
            vec![
                ("Father", vec![tuple!["Leslie", "Alice"]]),
                ("Mother", vec![tuple!["Robin", "Sam"]]),
            ],
        )
        .unwrap();
        let mk = |p: UnionPolicy| {
            InstanceLens::new(
                RelLensExpr::base("Father").union(RelLensExpr::base("Mother"), p),
                s.clone(),
                Environment::new(),
            )
            .unwrap()
        };
        let l = mk(UnionPolicy::InsertLeft);
        let mut v = l.get(&i);
        assert_eq!(v.len(), 2);
        v.insert(tuple!["Pat", "Kim"]).unwrap();
        let i2 = l.put(&v, &i);
        assert!(i2.contains("Father", &tuple!["Pat", "Kim"]));
        assert!(!i2.contains("Mother", &tuple!["Pat", "Kim"]));
        let r = mk(UnionPolicy::InsertRight);
        let i3 = r.put(&v, &i);
        assert!(i3.contains("Mother", &tuple!["Pat", "Kim"]));
        // Deletion removes from the side that has it.
        let mut v2 = l.get(&i);
        v2.remove(&tuple!["Robin", "Sam"]);
        let i4 = l.put(&v2, &i);
        assert!(i4.relation("Mother").unwrap().is_empty());
        assert!(laws::check_get_put(&l, &i).is_ok());
        assert!(laws::check_put_get(&l, &v2, &i).is_ok());
    }

    #[test]
    fn composed_pipeline_select_project() {
        // π_{id,name}(σ_{city=Sydney}(Person)) with FD policies.
        let l = lens(
            RelLensExpr::base("Person")
                .select(Expr::attr("city").eq(Expr::lit("Sydney")))
                .project(
                    vec!["id", "name"],
                    vec![
                        ("age", UpdatePolicy::Const(0i64.into())),
                        ("city", UpdatePolicy::Const("Sydney".into())),
                    ],
                ),
        );
        let v = l.get(&db());
        assert_eq!(v.len(), 2);
        assert!(laws::check_get_put(&l, &db()).is_ok());
        // Add a new person through the view.
        let mut v2 = v.clone();
        v2.insert(tuple![4i64, "Dan"]).unwrap();
        let db2 = l.put(&v2, &db());
        assert!(db2.contains("Person", &tuple![4i64, "Dan", 0i64, "Sydney"]));
        assert!(laws::check_put_get(&l, &v2, &db()).is_ok());
        // Bob (Santiago) was never in the view and survives.
        assert!(db2.contains("Person", &tuple![2i64, "Bob", 40i64, "Santiago"]));
    }

    #[test]
    fn create_builds_from_nothing() {
        let l = lens(RelLensExpr::base("Person").project(
            vec!["id", "name"],
            vec![
                ("age", UpdatePolicy::Null),
                ("city", UpdatePolicy::Const("unknown".into())),
            ],
        ));
        let view =
            Relation::from_tuples(l.view_schema().clone(), vec![tuple![1i64, "Zed"]]).unwrap();
        let created = l.try_create(&view).unwrap();
        let p = created.relation("Person").unwrap();
        assert_eq!(p.len(), 1);
        let row = p.iter().next().unwrap();
        assert!(row[2].is_null());
        assert_eq!(row[3], Value::str("unknown"));
        assert!(laws::check_create_get(&l, &view).is_ok());
    }

    #[test]
    fn fresh_nulls_do_not_collide_with_view_nulls() {
        let l = lens(RelLensExpr::base("Person").project(
            vec!["id", "name"],
            vec![("age", UpdatePolicy::Null), ("city", UpdatePolicy::Null)],
        ));
        // A view row already containing null ⊥0.
        let view = Relation::from_tuples(
            l.view_schema().clone(),
            vec![Tuple::new(vec![Value::int(7), Value::null(0)])],
        )
        .unwrap();
        let out = l.try_put(&view, &db()).unwrap();
        let p = out.relation("Person").unwrap();
        let row = p.iter().find(|t| t[0] == Value::int(7)).unwrap();
        // The filled nulls must differ from ⊥0.
        assert_ne!(row[2], Value::null(0));
        assert_ne!(row[3], Value::null(0));
    }
}
