//! The request pipeline `dexcli` and `dexd` share: source → admit →
//! budget → run → outcome.
//!
//! Both front ends are thin adapters around this module. `dexcli` maps
//! argv and files in, and exit codes and stderr out; `dexd` maps an
//! HTTP body in, and a status code and JSON out. Everything between —
//! the admission rule, the budget rule, the governed runs and the
//! migration planner — lives here once, so the two surfaces agree
//! because they share code.
//!
//! The budget rule (DESIGN.md §13, "The request ladder"):
//!
//! ```text
//! default ∩ requested ∩ (auto ? from_bounds(bounds) × 2 : unlimited)
//! ```
//!
//! and when the result caps nothing, rounds are capped at
//! [`DEFAULT_MAX_ROUNDS`]. Every source can only tighten the budget.

use dex_analyze::chase_bounds;
use dex_chase::{
    ChaseError, ChaseOptions, ChaseOutcome, CheckpointSink, Governor, RunContext, Start,
    DEFAULT_MAX_ROUNDS,
};
use dex_evolution::{
    compile_migration_checked, diff, prefix_instance, render_mapping_dex, render_schema_dex,
    Catalog as EvCatalog, EvolutionError, Migration as CompiledMigration,
};
use dex_logic::{parse_mapping, Mapping};
use dex_relational::cost::{Bound, ChaseBounds};
use dex_relational::{Budget, Instance, Schema, SourceStats};
use dex_store::migrate::{self as store_migrate, MigrateStatus};
use dex_store::{
    ChaseState, MigrateError, MigratePlan, MigrateRun, Migration, Store, StoreError, StoreOptions,
    StoreSink,
};
use std::path::Path;

/// Safety factor of synthesized budgets. The static bounds are sound
/// over-approximations of every governor meter, so any factor ≥ 1
/// never trips an admitted run; 2 is headroom against accounting drift.
const AUTO_BUDGET_SAFETY: u64 = 2;

/// A front end's fixed admission settings: `dexd` takes them from its
/// [`ServerConfig`](crate::ServerConfig), `dexcli` from its flags.
#[derive(Clone, Copy, Debug, Default)]
pub struct Policy {
    /// The budget every run starts from; requests can only tighten it.
    pub default_budget: Budget,
    /// DEX502 ceiling on the predicted headline chase bound.
    pub deny_cost: Option<u64>,
    /// Also intersect with the caps synthesized from the static bounds.
    pub auto_budget: bool,
}

/// An admitted run: the budget to run under and the predicted bounds.
#[derive(Clone, Debug)]
pub struct Admitted {
    pub budget: Budget,
    pub bounds: ChaseBounds,
}

/// A DEX502 refusal: the predicted headline bound exceeds the ceiling.
#[derive(Clone, Debug)]
pub struct Refused {
    pub headline: Bound,
    pub threshold: u64,
    pub bounds: ChaseBounds,
}

impl Policy {
    /// The budget step alone, for runs with no source to admit
    /// (resumes, queries): `default ∩ requested`, with the rounds
    /// fallback when that caps nothing.
    pub fn budget(&self, requested: Budget) -> Budget {
        with_fallback(self.default_budget.intersect(requested))
    }

    /// The admission step: evaluate the static bounds at the measured
    /// source, refuse over the ceiling, and derive the budget.
    pub fn admit(
        &self,
        mapping: &Mapping,
        src: &Instance,
        requested: Budget,
    ) -> Result<Admitted, Refused> {
        let bounds = chase_bounds(mapping, &SourceStats::measure(src));
        if let Some(threshold) = self.deny_cost {
            let headline = bounds.headline();
            if headline.exceeds(threshold) {
                return Err(Refused {
                    headline,
                    threshold,
                    bounds,
                });
            }
        }
        let mut budget = self.default_budget.intersect(requested);
        if self.auto_budget {
            budget = budget.intersect(Budget::from_bounds(&bounds, AUTO_BUDGET_SAFETY));
        }
        Ok(Admitted {
            budget: with_fallback(budget),
            bounds,
        })
    }
}

/// A budget that caps nothing gets the [`DEFAULT_MAX_ROUNDS`] ceiling,
/// so a divergent mapping trips into a typed partial instead of running
/// forever.
fn with_fallback(budget: Budget) -> Budget {
    if budget.is_unlimited() {
        budget.with_max_rounds(DEFAULT_MAX_ROUNDS)
    } else {
        budget
    }
}

/// The classical chase of `src` under `gov`, journaled round by round
/// into `store` when one is given.
pub fn chase(
    mapping: &Mapping,
    src: &Instance,
    gov: &Governor,
    store: Option<&mut Store>,
) -> Result<ChaseOutcome, ChaseError> {
    let mut sink = store.map(StoreSink::new);
    let ctx = RunContext {
        sink: sink.as_mut().map(|s| s as &mut dyn CheckpointSink),
        ..RunContext::new(gov)
    };
    dex_chase::chase(mapping, Start::Fresh(src), ctx)
}

/// Continue a journaled chase from the recovered, unfinished `state`.
pub fn resume(
    mapping: &Mapping,
    store: &mut Store,
    state: ChaseState,
    gov: &Governor,
) -> Result<ChaseOutcome, String> {
    store.prepare_resume(&state).map_err(|e| e.to_string())?;
    let ctx = RunContext {
        sink: Some(&mut StoreSink::new(store)),
        ..RunContext::new(gov)
    };
    dex_chase::chase(mapping, Start::Resume(state.into()), ctx).map_err(|e| e.to_string())
}

/// Why a migration was refused before any byte of the store changed.
#[derive(Debug)]
pub enum MigrateRefusal {
    /// A migration is already staged in the store directory.
    Staged,
    /// The schema text does not parse, or its relations clash.
    BadSchema(String),
    /// The schema text holds rules, not only declarations.
    SchemaHasRules,
    /// No store lives at the directory.
    NoStore(StoreError),
    /// The store holds an unfinished run: its last committed round, or
    /// `None` when nothing is materialized yet.
    Unfinished { round: Option<u64> },
    /// The diff is ambiguous, or the composition is not first-order.
    CannotMigrate(EvolutionError),
    /// DEX502: the migration mapping's predicted cost is over the
    /// ceiling.
    Admission(Refused),
    /// The stored instance could not be renamed into the migration's
    /// source vocabulary.
    Prefix(EvolutionError),
    /// A store fault.
    Store(StoreError),
}

/// A migration planned against a complete store and admitted, but not
/// yet staged.
pub struct MigrationPlan {
    /// The schema operations and the mapping compiled from them.
    pub migration: CompiledMigration,
    /// The evolved schema.
    pub new_schema: Schema,
    /// The store's instance, `v0__`-prefixed: the migration's source.
    pub input: Instance,
    /// The budget to run under and the predicted bounds.
    pub admitted: Admitted,
}

/// Plan a migration of the store at `dir` to the schema declared in
/// `schema_text`, cheapest refusal first: staged status, schema, store
/// state, diff and composition, admission. `self_check` re-verifies
/// every pairwise composition against the two-step chase.
pub fn plan_migration(
    dir: &Path,
    opts: StoreOptions,
    schema_text: &str,
    policy: &Policy,
    requested: Budget,
    self_check: bool,
) -> Result<MigrationPlan, MigrateRefusal> {
    match store_migrate::status(dir) {
        Err(e) => return Err(MigrateRefusal::Store(e)),
        Ok(MigrateStatus::None) => {}
        Ok(_) => return Err(MigrateRefusal::Staged),
    }

    // The evolved schema: declarations only (conventionally `target`,
    // plus `key`); rules belong in mappings, not schema files.
    let new_m = parse_mapping(schema_text).map_err(|e| MigrateRefusal::BadSchema(e.to_string()))?;
    if !new_m.st_tgds().is_empty() || !new_m.target_tgds().is_empty() {
        return Err(MigrateRefusal::SchemaHasRules);
    }
    let mut new_schema = new_m.target().clone();
    for rel in new_m.source().relations() {
        new_schema
            .add_relation(rel.clone())
            .map_err(|e| MigrateRefusal::BadSchema(e.to_string()))?;
    }

    // The old schema and data come from the store's materialized
    // instance, which must be complete — migrating a half-finished
    // chase would silently drop the un-derived remainder.
    let store = Store::open(dir, opts).map_err(|e| match e {
        StoreError::NotAStore { .. } => MigrateRefusal::NoStore(e),
        e => MigrateRefusal::Store(e),
    })?;
    let state = match store.recover().map_err(MigrateRefusal::Store)? {
        Some(r) if r.state.complete => r.state,
        r => {
            return Err(MigrateRefusal::Unfinished {
                round: r.map(|r| r.state.round),
            })
        }
    };
    let old_schema = state.instance.schema();

    // Diff old → new and compile the SMO sequence to one migration
    // mapping. Both refuse rather than guess.
    let smos = diff(
        &EvCatalog::from_schema(old_schema),
        &EvCatalog::from_schema(&new_schema),
    )
    .map_err(MigrateRefusal::CannotMigrate)?;
    let migration = compile_migration_checked(old_schema, &new_schema, &smos, self_check)
        .map_err(MigrateRefusal::CannotMigrate)?;

    // Admission against the *actual* stored data and the *compiled
    // migration* mapping.
    let input = prefix_instance(&state.instance, 0).map_err(MigrateRefusal::Prefix)?;
    let admitted = policy
        .admit(&migration.mapping, &input, requested)
        .map_err(MigrateRefusal::Admission)?;
    Ok(MigrationPlan {
        migration,
        new_schema,
        input,
        admitted,
    })
}

impl MigrationPlan {
    /// Stage the migration under `dir`: from here on it is durable and
    /// resumable, and the live store is untouched until commit.
    pub fn begin(&self, dir: &Path, opts: StoreOptions) -> Result<Migration, MigrateError> {
        let plan = MigratePlan {
            schema_text: render_schema_dex(&self.new_schema),
            mapping_text: render_mapping_dex(&self.migration.mapping),
        };
        Migration::begin(dir, &plan, &self.input, opts)
    }
}

/// Drive a staged migration to fixpoint and commit it (roll-forward
/// included), or stop at a durable, resumable budget boundary.
pub fn run_migration(mig: &mut Migration, gov: &Governor) -> Result<MigrateRun, MigrateError> {
    let run = mig.run(ChaseOptions::default(), gov)?;
    if let MigrateRun::Done(_) = run {
        mig.finalize()?;
    }
    Ok(run)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dex_relational::tuple;
    use std::time::Duration;

    fn emp() -> (Mapping, Instance) {
        let m =
            parse_mapping("source Emp(name);\ntarget M(emp, mgr);\nEmp(x) -> M(x, y);").unwrap();
        let rows = vec![tuple!["ann"], tuple!["bob"]];
        let src = Instance::with_facts(m.source().clone(), vec![("Emp", rows)]).unwrap();
        (m, src)
    }

    #[test]
    fn only_a_budget_that_caps_nothing_gets_the_rounds_ceiling() {
        let policy = Policy::default();
        assert_eq!(
            policy.budget(Budget::unlimited()),
            Budget::unlimited().with_max_rounds(DEFAULT_MAX_ROUNDS)
        );
        let timeout = Budget::unlimited().with_deadline(Duration::from_secs(2));
        assert_eq!(policy.budget(timeout), timeout, "its own caps only");
    }

    #[test]
    fn every_source_only_tightens_the_budget() {
        let (m, src) = emp();
        let policy = Policy {
            default_budget: Budget::unlimited().with_max_tuples(100),
            deny_cost: None,
            auto_budget: true,
        };
        let requested = Budget::unlimited().with_max_tuples(1_000).with_max_nulls(1);
        let admitted = policy.admit(&m, &src, requested).unwrap();
        let auto = Budget::from_bounds(&admitted.bounds, AUTO_BUDGET_SAFETY);
        let expected = policy.default_budget.intersect(requested).intersect(auto);
        assert_eq!(admitted.budget, expected);
        assert_eq!(admitted.budget.max_nulls, Some(1), "a tighter request wins");
        assert!(
            admitted.budget.max_tuples < Some(100),
            "a tighter synthesized cap wins"
        );
    }

    #[test]
    fn deny_cost_refuses_with_the_predicted_bounds() {
        let (m, src) = emp();
        let policy = Policy {
            deny_cost: Some(1),
            ..Policy::default()
        };
        let refused = policy.admit(&m, &src, Budget::unlimited()).unwrap_err();
        assert_eq!(refused.threshold, 1);
        assert_eq!(refused.headline, refused.bounds.headline());
        assert!(refused.headline.exceeds(1));
    }
}
