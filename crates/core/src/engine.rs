//! The bidirectional exchange engine: a bound template, executed.

use crate::error::CoreError;
use crate::template::MappingTemplate;
use dex_lens::edit::Delta;
use dex_lens::SymLens;
use dex_relational::{ExhaustionReport, Governor, Instance, Relation};
use dex_rellens::{Environment, InstanceLens};
use std::time::{Duration, Instant};

/// The outcome of a governed forward pass
/// ([`Engine::forward_governed`]).
#[derive(Debug)]
pub enum EngineForward {
    /// The forward pass ran to completion within budget.
    Complete {
        /// The materialized target.
        target: Instance,
        /// Per-relation and egd statistics.
        stats: ForwardStats,
    },
    /// A budget or cancellation stopped the pass early.
    Exhausted {
        /// The target built so far (a prefix of whole relation passes,
        /// possibly with egds not yet enforced).
        partial: Instance,
        /// Which budget tripped and the consumption so far.
        report: ExhaustionReport,
    },
}

/// An executable bidirectional data-exchange engine.
///
/// * [`Engine::forward`] — materialize (or refresh) the target from the
///   source. With the default hole bindings (fresh nulls) this is
///   chase-equivalent on the exact fragment; with bound policies it
///   answers the intro's questions (“should Salary be filled by nulls,
///   or as a function of the ZipCode field?”) operationally.
/// * [`Engine::backward`] — propagate target edits to the source; the
///   per-relation lens puts are merged as deltas (all deletions apply,
///   then all insertions).
/// * [`Engine::sym`] — both directions packaged as a well-behaved
///   symmetric lens whose complement remembers the last two states
///   (the stateful-cospan construction of `dex_lens::span`).
pub struct Engine {
    template: MappingTemplate,
    source_lenses: Vec<(dex_relational::Name, InstanceLens)>,
    target_lenses: Vec<(dex_relational::Name, InstanceLens)>,
}

impl Engine {
    /// Validate and instantiate a (bound) template with an environment.
    pub fn new(template: MappingTemplate, env: Environment) -> Result<Self, CoreError> {
        let mut source_lenses = Vec::new();
        let mut target_lenses = Vec::new();
        for lens in &template.lenses {
            source_lenses.push((
                lens.target_rel.clone(),
                InstanceLens::new(
                    lens.source_expr.clone(),
                    template.source.clone(),
                    env.clone(),
                )?,
            ));
            target_lenses.push((
                lens.target_rel.clone(),
                InstanceLens::new(
                    lens.target_expr.clone(),
                    template.target.clone(),
                    env.clone(),
                )?,
            ));
        }
        Ok(Engine {
            template,
            source_lenses,
            target_lenses,
        })
    }

    /// The compiled template.
    pub fn template(&self) -> &MappingTemplate {
        &self.template
    }

    /// Materialize the target from `src`. When `prev_target` is given,
    /// the exchange is an *update*: target rows whose determined part
    /// survives keep their policy-filled columns; otherwise every
    /// underdetermined column is filled per policy (nulls by default).
    pub fn forward(
        &self,
        src: &Instance,
        prev_target: Option<&Instance>,
    ) -> Result<Instance, CoreError> {
        match self.forward_governed(src, prev_target, &Governor::unlimited())? {
            EngineForward::Complete { target, .. } => Ok(target),
            // Unreachable with an unlimited governor.
            EngineForward::Exhausted { partial, report } => Err(CoreError::Chase(
                dex_chase::ChaseError::Exhausted(Box::new(dex_chase::Exhausted {
                    partial,
                    report,
                    stats: Default::default(),
                })),
            )),
        }
    }

    /// [`Engine::forward`] under a resource budget and/or cancellation
    /// token, also gathering per-relation execution statistics — the
    /// paper's plan process is “highly informed by gathered
    /// statistics”, and this is where they come from. The governor is
    /// checked between per-relation lens passes (each pass is get + put
    /// for one target relation, an atomic step) and threaded through
    /// the final egd enforcement. A trip hands back the target built so
    /// far: a consistent prefix of whole relation passes — with egds
    /// possibly not yet enforced, as the report's trip point records.
    pub fn forward_governed(
        &self,
        src: &Instance,
        prev_target: Option<&Instance>,
        gov: &Governor,
    ) -> Result<EngineForward, CoreError> {
        let mut tgt = match prev_target {
            Some(t) => t.clone(),
            None => Instance::empty(self.template.target.clone()),
        };
        let mut stats = ForwardStats::default();
        for ((rel, s_lens), (_, t_lens)) in self.source_lenses.iter().zip(self.target_lenses.iter())
        {
            if let Err(reason) = gov.check() {
                return Ok(EngineForward::Exhausted {
                    partial: tgt,
                    report: gov.report(reason),
                });
            }
            let t0 = Instant::now();
            let view: Relation = s_lens.try_get(src)?;
            let get_time = t0.elapsed();
            gov.note_tuples(view.len());
            let t1 = Instant::now();
            tgt = t_lens.try_put(&view, &tgt)?;
            let put_time = t1.elapsed();
            stats.per_relation.push(RelationStats {
                relation: rel.clone(),
                view_rows: view.len(),
                get_time,
                put_time,
            });
        }
        if !self.template.target_egds.is_empty() {
            let t0 = Instant::now();
            match dex_chase::enforce_egds(&tgt, &self.template.target_egds, gov)? {
                dex_chase::EgdOutcome::Complete {
                    instance,
                    stats: egd_stats,
                } => {
                    tgt = instance;
                    stats.egd_time = t0.elapsed();
                    stats.egd_rounds = egd_stats.rounds;
                    stats.egd_merges = egd_stats.merges;
                    stats.index_builds += egd_stats.index_builds;
                    stats.index_probes += egd_stats.index_probes;
                }
                dex_chase::EgdOutcome::Exhausted(e) => {
                    return Ok(EngineForward::Exhausted {
                        partial: e.partial,
                        report: e.report,
                    });
                }
            }
        }
        Ok(EngineForward::Complete { target: tgt, stats })
    }

    /// Propagate an edited target back to the source. Per-relation lens
    /// puts are computed against `prev_source` and merged: a source row
    /// is deleted if **any** lens deletes it, inserted if any inserts
    /// it (insertions win over deletions of the same row).
    pub fn backward(&self, tgt: &Instance, prev_source: &Instance) -> Result<Instance, CoreError> {
        let mut merged = Delta::empty();
        for ((_, s_lens), (_, t_lens)) in self.source_lenses.iter().zip(self.target_lenses.iter()) {
            let view = t_lens.try_get(tgt)?;
            let candidate = s_lens.try_put(&view, prev_source)?;
            let delta = Delta::diff(prev_source, &candidate);
            merged.deletes.extend(delta.deletes);
            merged.inserts.extend(delta.inserts);
        }
        merged.deletes.sort();
        merged.deletes.dedup();
        merged.inserts.sort();
        merged.inserts.dedup();
        // Deletions first, then insertions (Delta::apply order).
        let mut out = prev_source.clone();
        for (rel, t) in &merged.deletes {
            out.remove(rel.as_str(), t).map_err(CoreError::Relational)?;
        }
        for (rel, t) in &merged.inserts {
            out.insert(rel.as_str(), t.clone())
                .map_err(CoreError::Relational)?;
        }
        Ok(out)
    }

    /// Render the full mapping plan: per target relation the source and
    /// target lens trees, the open/bound policy questions, and the
    /// per-tgd fidelity report — the paper's “show plan” capability.
    pub fn show_plan(&self) -> String {
        let mut out = String::new();
        out.push_str("== mapping plan ==\n");
        for lens in &self.template.lenses {
            out.push_str(&format!(
                "target {}  (view: {})\n",
                lens.target_rel, lens.view
            ));
            out.push_str("  source lens:\n");
            for line in lens.source_expr.plan_string().lines() {
                out.push_str(&format!("    {line}\n"));
            }
            out.push_str("  target lens:\n");
            for line in lens.target_expr.plan_string().lines() {
                out.push_str(&format!("    {line}\n"));
            }
        }
        if !self.template.holes.is_empty() {
            out.push_str("== policy questions ==\n");
            for h in &self.template.holes {
                out.push_str(&format!("  {h}\n"));
            }
        }
        out.push_str("== fidelity ==\n");
        out.push_str(&self.template.report.to_string());
        out
    }

    /// Wrap as a symmetric lens (source on the left, target on the
    /// right); the complement remembers the last states of both sides.
    pub fn sym(&self) -> EngineSymLens<'_> {
        EngineSymLens { engine: self }
    }
}

/// Per-relation execution statistics from a forward pass.
#[derive(Clone, Debug)]
pub struct RelationStats {
    /// The target relation this lens pair serves.
    pub relation: dex_relational::Name,
    /// Rows in the determined view.
    pub view_rows: usize,
    /// Time spent in the source lens's `get`.
    pub get_time: Duration,
    /// Time spent in the target lens's `put`.
    pub put_time: Duration,
}

/// Statistics for one forward pass.
#[derive(Clone, Debug, Default)]
pub struct ForwardStats {
    /// One entry per relation lens, in execution order.
    pub per_relation: Vec<RelationStats>,
    /// Time spent enforcing target keys (zero when there are none).
    pub egd_time: Duration,
    /// Key-enforcement fixpoint rounds (including the no-op round).
    pub egd_rounds: usize,
    /// Null merges applied while enforcing keys.
    pub egd_merges: usize,
    /// Index structures (re)built by the indexed matcher.
    pub index_builds: u64,
    /// Index probes served by the indexed matcher.
    pub index_probes: u64,
}

impl std::fmt::Display for ForwardStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(f, "-- forward execution statistics --")?;
        for s in &self.per_relation {
            writeln!(
                f,
                "  {:<20} view rows: {:>7}   get: {:>10.1?}   put: {:>10.1?}",
                s.relation.as_str(),
                s.view_rows,
                s.get_time,
                s.put_time
            )?;
        }
        if self.egd_time > Duration::ZERO {
            writeln!(
                f,
                "  key enforcement: {:.1?}  ({} round(s), {} merge(s))",
                self.egd_time, self.egd_rounds, self.egd_merges
            )?;
        }
        writeln!(
            f,
            "  index builds: {}   index probes: {}",
            self.index_builds, self.index_probes
        )?;
        Ok(())
    }
}

/// The engine as a [`SymLens`] — composable and invertible with the
/// generic combinators.
///
/// The `SymLens` trait is infallible, so evaluation errors (e.g. a
/// missing environment value) panic here; run [`Engine::forward`] /
/// [`Engine::backward`] directly where errors must be handled.
pub struct EngineSymLens<'e> {
    engine: &'e Engine,
}

// The `SymLens` trait is infallible by design (lens laws are stated
// over total functions); the documented contract of `EngineSymLens` is
// that evaluation errors panic. Callers needing fallibility use
// `Engine::forward` / `Engine::backward` directly.
#[allow(clippy::expect_used)]
impl SymLens for EngineSymLens<'_> {
    type Left = Instance;
    type Right = Instance;
    type Compl = (Option<Instance>, Option<Instance>);

    fn missing(&self) -> Self::Compl {
        (None, None)
    }

    fn put_r(&self, src: &Instance, c: &Self::Compl) -> (Instance, Self::Compl) {
        let tgt = self
            .engine
            .forward(src, c.1.as_ref())
            .expect("engine forward failed");
        (tgt.clone(), (Some(src.clone()), Some(tgt)))
    }

    fn put_l(&self, tgt: &Instance, c: &Self::Compl) -> (Instance, Self::Compl) {
        let base = match &c.0 {
            Some(s) => s.clone(),
            None => Instance::empty(self.engine.template.source.clone()),
        };
        let src = self
            .engine
            .backward(tgt, &base)
            .expect("engine backward failed");
        (src.clone(), (Some(src), Some(tgt.clone())))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compiler::compile;
    use crate::template::HoleBinding;
    use dex_chase::exchange;
    use dex_logic::parse_mapping;
    use dex_relational::homomorphism::homomorphically_equivalent;
    use dex_relational::{tuple, Name, Tuple, Value};
    use dex_rellens::UpdatePolicy;

    fn engine_for(text: &str) -> (dex_logic::Mapping, Engine) {
        let m = parse_mapping(text).unwrap();
        let t = compile(&m).unwrap();
        let e = Engine::new(t, Environment::new()).unwrap();
        (m, e)
    }

    /// E7's core claim: with default (null) policies the compiled
    /// lens's forward agrees with the chase up to homomorphic
    /// equivalence.
    #[test]
    fn forward_matches_chase_example1() {
        let (m, e) = engine_for(
            r#"
            source Emp(name);
            target Manager(emp, mgr);
            Emp(x) -> Manager(x, y);
            "#,
        );
        let src = Instance::with_facts(
            m.source().clone(),
            vec![("Emp", vec![tuple!["Alice"], tuple!["Bob"]])],
        )
        .unwrap();
        let via_lens = e.forward(&src, None).unwrap();
        let via_chase = exchange(&m, &src).unwrap().target;
        assert!(m.is_solution(&src, &via_lens), "{via_lens}");
        assert!(
            homomorphically_equivalent(&via_lens, &via_chase),
            "lens:\n{via_lens}\nchase:\n{via_chase}"
        );
    }

    #[test]
    fn forward_matches_chase_figure1() {
        let (m, e) = engine_for(
            r#"
            source Takes(name, course);
            target Student(id, name);
            target Assgn(name, course);
            Takes(x, y) -> Student(z, x) & Assgn(x, y);
            "#,
        );
        let src = Instance::with_facts(
            m.source().clone(),
            vec![(
                "Takes",
                vec![
                    tuple!["Alice", "DB"],
                    tuple!["Alice", "PL"],
                    tuple!["Bob", "DB"],
                ],
            )],
        )
        .unwrap();
        let via_lens = e.forward(&src, None).unwrap();
        let via_chase = exchange(&m, &src).unwrap().target;
        assert!(m.is_solution(&src, &via_lens));
        assert!(homomorphically_equivalent(&via_lens, &via_chase));
    }

    #[test]
    fn forward_union_matches_chase() {
        let (m, e) = engine_for(
            r#"
            source Father(p, c);
            source Mother(p, c);
            target Parent(p, c);
            Father(x, y) -> Parent(x, y);
            Mother(x, y) -> Parent(x, y);
            "#,
        );
        let src = Instance::with_facts(
            m.source().clone(),
            vec![
                ("Father", vec![tuple!["Leslie", "Alice"]]),
                ("Mother", vec![tuple!["Robin", "Sam"]]),
            ],
        )
        .unwrap();
        let via_lens = e.forward(&src, None).unwrap();
        let via_chase = exchange(&m, &src).unwrap().target;
        assert_eq!(via_lens, via_chase, "full mapping: exact equality");
    }

    /// Backward propagation: delete a target row, the source row goes;
    /// insert a target row, a source row appears (with policy fills).
    #[test]
    fn backward_propagates_edits_example1() {
        let (m, e) = engine_for(
            r#"
            source Emp(name);
            target Manager(emp, mgr);
            Emp(x) -> Manager(x, y);
            "#,
        );
        let src = Instance::with_facts(
            m.source().clone(),
            vec![("Emp", vec![tuple!["Alice"], tuple!["Bob"]])],
        )
        .unwrap();
        let tgt = e.forward(&src, None).unwrap();
        // Delete Bob's manager fact; add Carol with a concrete manager.
        let mut tgt2 = tgt.clone();
        let bob_row = tgt2
            .relation("Manager")
            .unwrap()
            .iter()
            .find(|t| t[0] == Value::str("Bob"))
            .unwrap()
            .clone();
        tgt2.remove("Manager", &bob_row).unwrap();
        tgt2.insert("Manager", tuple!["Carol", "Ted"]).unwrap();
        let src2 = e.backward(&tgt2, &src).unwrap();
        assert!(!src2.contains("Emp", &tuple!["Bob"]));
        assert!(src2.contains("Emp", &tuple!["Carol"]));
        assert!(src2.contains("Emp", &tuple!["Alice"]));
        // Round-trip: forward again reflects the edit.
        let tgt3 = e.forward(&src2, Some(&tgt2)).unwrap();
        assert!(m.is_solution(&src2, &tgt3));
        let emps: Vec<Value> = tgt3
            .relation("Manager")
            .unwrap()
            .iter()
            .map(|t| t[0].clone())
            .collect();
        assert_eq!(emps, vec![Value::str("Alice"), Value::str("Carol")]);
    }

    /// The stateful symmetric wrapper: target-private data (a manually
    /// set manager) survives a source push.
    #[test]
    fn forward_update_preserves_target_private_columns() {
        let (m, e) = engine_for(
            r#"
            source Emp(name);
            target Manager(emp, mgr);
            Emp(x) -> Manager(x, y);
            "#,
        );
        let src =
            Instance::with_facts(m.source().clone(), vec![("Emp", vec![tuple!["Alice"]])]).unwrap();
        let tgt = e.forward(&src, None).unwrap();
        // Someone fills in Alice's manager on the target side.
        let alice_row = tgt
            .relation("Manager")
            .unwrap()
            .iter()
            .next()
            .unwrap()
            .clone();
        let mut tgt2 = tgt.clone();
        tgt2.remove("Manager", &alice_row).unwrap();
        tgt2.insert("Manager", tuple!["Alice", "Ted"]).unwrap();
        // Source gains Bob; pushing forward as an *update* keeps Ted.
        let mut src2 = src.clone();
        src2.insert("Emp", tuple!["Bob"]).unwrap();
        let tgt3 = e.forward(&src2, Some(&tgt2)).unwrap();
        assert!(tgt3.contains("Manager", &tuple!["Alice", "Ted"]));
        let bob = tgt3
            .relation("Manager")
            .unwrap()
            .iter()
            .find(|t| t[0] == Value::str("Bob"))
            .unwrap()
            .clone();
        assert!(bob[1].is_null(), "new row gets the default policy");
    }

    #[test]
    fn bound_policy_changes_forward_fill() {
        let m = parse_mapping(
            r#"
            source Emp(name);
            target Manager(emp, mgr);
            Emp(x) -> Manager(x, y);
            "#,
        )
        .unwrap();
        let mut t = compile(&m).unwrap();
        t.bind(0, HoleBinding::Column(UpdatePolicy::Const("TBD".into())))
            .unwrap();
        let e = Engine::new(t, Environment::new()).unwrap();
        let src =
            Instance::with_facts(m.source().clone(), vec![("Emp", vec![tuple!["Alice"]])]).unwrap();
        let tgt = e.forward(&src, None).unwrap();
        assert!(tgt.contains("Manager", &tuple!["Alice", "TBD"]));
    }

    #[test]
    fn env_policy_through_engine() {
        let m = parse_mapping(
            r#"
            source Emp(name);
            target Manager(emp, mgr);
            Emp(x) -> Manager(x, y);
            "#,
        )
        .unwrap();
        let mut t = compile(&m).unwrap();
        t.bind(
            0,
            HoleBinding::Column(UpdatePolicy::Env(Name::new("default_mgr"))),
        )
        .unwrap();
        let mut env = Environment::new();
        env.insert(Name::new("default_mgr"), Value::str("TheBoss"));
        let e = Engine::new(t, env).unwrap();
        let src =
            Instance::with_facts(m.source().clone(), vec![("Emp", vec![tuple!["Alice"]])]).unwrap();
        let tgt = e.forward(&src, None).unwrap();
        assert!(tgt.contains("Manager", &tuple!["Alice", "TheBoss"]));
    }

    #[test]
    fn symmetric_wrapper_round_trips() {
        let (m, e) = engine_for(
            r#"
            source Emp(name);
            target Manager(emp, mgr);
            Emp(x) -> Manager(x, y);
            "#,
        );
        let sym = e.sym();
        let src =
            Instance::with_facts(m.source().clone(), vec![("Emp", vec![tuple!["Alice"]])]).unwrap();
        let (tgt, c1) = sym.put_r(&src, &sym.missing());
        assert_eq!(tgt.fact_count(), 1);
        // Push the target back unchanged: source unchanged (PutRL).
        let (src2, c2) = sym.put_l(&tgt, &c1);
        assert_eq!(src2, src);
        let (tgt2, _) = sym.put_r(&src2, &c2);
        assert_eq!(tgt2, tgt);
    }

    #[test]
    fn backward_through_join_and_union() {
        let (m, e) = engine_for(
            r#"
            source Student(id, name);
            source Assgn(name, course);
            target Enrollment(id, course);
            Student(x, y) & Assgn(y, w) -> Enrollment(x, w);
            "#,
        );
        let src = Instance::with_facts(
            m.source().clone(),
            vec![
                ("Student", vec![tuple![1i64, "Alice"], tuple![2i64, "Bob"]]),
                ("Assgn", vec![tuple!["Alice", "DB"], tuple!["Bob", "PL"]]),
            ],
        )
        .unwrap();
        let tgt = e.forward(&src, None).unwrap();
        assert!(tgt.contains("Enrollment", &tuple![1i64, "DB"]));
        assert!(tgt.contains("Enrollment", &tuple![2i64, "PL"]));
        // Delete Bob's enrollment: default join policy removes both
        // component rows.
        let mut tgt2 = tgt.clone();
        tgt2.remove("Enrollment", &tuple![2i64, "PL"]).unwrap();
        let src2 = e.backward(&tgt2, &src).unwrap();
        assert!(!src2.contains("Student", &tuple![2i64, "Bob"]));
        assert!(!src2.contains("Assgn", &tuple!["Bob", "PL"]));
        assert!(src2.contains("Student", &tuple![1i64, "Alice"]));
    }

    /// Target keys declared in the mapping are enforced by the engine:
    /// a stale null-managed row merges with the manually assigned one
    /// on a forward update, and conflicting constants are a loud error.
    #[test]
    fn forward_enforces_target_keys() {
        let m = parse_mapping(
            r#"
            source Emp(name);
            target Manager(emp, mgr);
            key Manager(emp);
            Emp(x) -> Manager(x, y);
            "#,
        )
        .unwrap();
        let e = Engine::new(compile(&m).unwrap(), Environment::new()).unwrap();
        let src =
            Instance::with_facts(m.source().clone(), vec![("Emp", vec![tuple!["Alice"]])]).unwrap();
        // A target that drifted into a key violation: Alice has a null
        // manager row AND a manually entered one.
        let mut prev = Instance::empty(m.target().clone());
        prev.insert(
            "Manager",
            Tuple::new(vec![Value::str("Alice"), Value::null(0)]),
        )
        .unwrap();
        prev.insert("Manager", tuple!["Alice", "Ted"]).unwrap();
        let tgt = e.forward(&src, Some(&prev)).unwrap();
        let rel = tgt.relation("Manager").unwrap();
        assert_eq!(rel.len(), 1, "key merged the null row into Ted's:\n{tgt}");
        assert!(rel.contains(&tuple!["Alice", "Ted"]));
        assert!(m.is_solution(&src, &tgt));

        // Conflicting constants: no solution, loud failure.
        let m2 = parse_mapping(
            r#"
            source B1(name, boss);
            source B2(name, boss);
            target Manager(emp, mgr);
            key Manager(emp);
            B1(x, b) -> Manager(x, b);
            B2(x, b) -> Manager(x, b);
            "#,
        )
        .unwrap();
        let e2 = Engine::new(compile(&m2).unwrap(), Environment::new()).unwrap();
        let mut src2 = Instance::empty(m2.source().clone());
        src2.insert("B1", tuple!["Alice", "Ted"]).unwrap();
        src2.insert("B2", tuple!["Alice", "Bob"]).unwrap();
        let err = e2.forward(&src2, None).unwrap_err();
        assert!(matches!(err, crate::error::CoreError::Chase(_)));
    }

    #[test]
    fn show_plan_mentions_everything() {
        let (_, e) = engine_for(
            r#"
            source Person1(id, name, age, city);
            target Person2(id, name, salary, zipcode);
            Person1(i, n, a, c) -> Person2(i, n, s, z);
            "#,
        );
        let plan = e.show_plan();
        assert!(plan.contains("== mapping plan =="), "{plan}");
        assert!(plan.contains("target Person2"), "{plan}");
        assert!(plan.contains("source lens:"), "{plan}");
        assert!(plan.contains("target lens:"), "{plan}");
        assert!(plan.contains("== policy questions =="), "{plan}");
        assert!(plan.contains("Person2.salary"), "{plan}");
        assert!(plan.contains("== fidelity =="), "{plan}");
        assert!(plan.contains("[exact]"), "{plan}");
    }

    #[test]
    fn backward_create_from_scratch() {
        // No previous source: backward against the empty instance uses
        // the policy fills.
        let (m, e) = engine_for(
            r#"
            source Emp(name);
            target Manager(emp, mgr);
            Emp(x) -> Manager(x, y);
            "#,
        );
        let tgt = Instance::with_facts(
            m.target().clone(),
            vec![("Manager", vec![tuple!["Zed", "Ted"]])],
        )
        .unwrap();
        let src = e
            .backward(&tgt, &Instance::empty(m.source().clone()))
            .unwrap();
        assert!(src.contains("Emp", &tuple!["Zed"]));
        let _ = Tuple::new(vec![]);
    }
}
