//! Schema mappings: the triple (source schema, target schema,
//! dependencies).

use crate::sotgd::SoTgd;
use crate::tgd::{Egd, StTgd};
use dex_relational::{Instance, RelationalError, Schema};
use serde::{Deserialize, Serialize};
use std::fmt;

/// A schema mapping `M = (S, T, Σ_st ∪ Σ_t)` in the sense of the
/// data-exchange literature: a source schema, a target schema (disjoint
/// vocabularies), a set of st-tgds, and optional *target dependencies*
/// (tgds and egds over the target only — keys, foreign keys).
#[derive(Clone, PartialEq, Eq, Debug, Serialize, Deserialize)]
pub struct Mapping {
    source: Schema,
    target: Schema,
    st_tgds: Vec<StTgd>,
    target_tgds: Vec<StTgd>,
    target_egds: Vec<Egd>,
}

impl Mapping {
    /// Build and validate a mapping from st-tgds only.
    pub fn new(
        source: Schema,
        target: Schema,
        st_tgds: Vec<StTgd>,
    ) -> Result<Self, RelationalError> {
        Mapping::with_target_deps(source, target, st_tgds, vec![], vec![])
    }

    /// Build and validate a mapping with target dependencies.
    pub fn with_target_deps(
        source: Schema,
        target: Schema,
        st_tgds: Vec<StTgd>,
        target_tgds: Vec<StTgd>,
        target_egds: Vec<Egd>,
    ) -> Result<Self, RelationalError> {
        if source.overlaps(&target) {
            return Err(RelationalError::SchemaMismatch {
                context: "source and target schemas must use disjoint relation names".into(),
            });
        }
        for t in &st_tgds {
            t.validate(&source, &target)?;
        }
        for t in &target_tgds {
            t.validate(&target, &target)?;
        }
        for e in &target_egds {
            e.validate(&target)?;
        }
        Ok(Mapping {
            source,
            target,
            st_tgds,
            target_tgds,
            target_egds,
        })
    }

    /// The source schema.
    pub fn source(&self) -> &Schema {
        &self.source
    }

    /// The target schema.
    pub fn target(&self) -> &Schema {
        &self.target
    }

    /// The source-to-target tgds.
    pub fn st_tgds(&self) -> &[StTgd] {
        &self.st_tgds
    }

    /// The target tgds (within-target implications, e.g. inclusion
    /// dependencies).
    pub fn target_tgds(&self) -> &[StTgd] {
        &self.target_tgds
    }

    /// The target egds (keys and other equality constraints).
    pub fn target_egds(&self) -> &[Egd] {
        &self.target_egds
    }

    /// Are there any target dependencies?
    pub fn has_target_deps(&self) -> bool {
        !self.target_tgds.is_empty() || !self.target_egds.is_empty()
    }

    /// Is every st-tgd full (no existential variables)?
    pub fn is_full(&self) -> bool {
        self.st_tgds.iter().all(StTgd::is_full)
    }

    /// Is `tgt` a *solution* for `src` under this mapping — does the
    /// pair satisfy every dependency? (Paper §2: “every target instance
    /// J such that (I, J) satisfies all the st-tgds in M is called a
    /// solution for I under M”.)
    pub fn is_solution(&self, src: &Instance, tgt: &Instance) -> bool {
        self.st_tgds.iter().all(|t| t.satisfied_by(src, tgt))
            && self.target_tgds.iter().all(|t| t.satisfied_by(tgt, tgt))
            && self.target_egds.iter().all(|e| e.satisfied_by(tgt))
    }

    /// Skolemize the st-tgds into a single SO-tgd (the embedding used by
    /// the composition operator).
    pub fn to_sotgd(&self) -> SoTgd {
        SoTgd::from_st_tgds(&self.st_tgds)
    }
}

impl fmt::Display for Mapping {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "-- source")?;
        write!(f, "{}", self.source)?;
        writeln!(f, "-- target")?;
        write!(f, "{}", self.target)?;
        writeln!(f, "-- st-tgds")?;
        for t in &self.st_tgds {
            writeln!(f, "{t}")?;
        }
        if !self.target_tgds.is_empty() {
            writeln!(f, "-- target tgds")?;
            for t in &self.target_tgds {
                writeln!(f, "{t}")?;
            }
        }
        if !self.target_egds.is_empty() {
            writeln!(f, "-- target egds")?;
            for e in &self.target_egds {
                writeln!(f, "{e}")?;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::atom::Atom;
    use dex_relational::{tuple, RelSchema, Tuple, Value};

    fn emp_schema() -> Schema {
        Schema::with_relations(vec![RelSchema::untyped("Emp", vec!["name"]).unwrap()]).unwrap()
    }

    fn mgr_schema() -> Schema {
        Schema::with_relations(vec![
            RelSchema::untyped("Manager", vec!["emp", "mgr"]).unwrap()
        ])
        .unwrap()
    }

    fn example1() -> Mapping {
        Mapping::new(
            emp_schema(),
            mgr_schema(),
            vec![StTgd::new(
                vec![Atom::vars("Emp", &["x"])],
                vec![Atom::vars("Manager", &["x", "y"])],
            )],
        )
        .unwrap()
    }

    #[test]
    fn overlapping_schemas_rejected() {
        let err = Mapping::new(emp_schema(), emp_schema(), vec![]).unwrap_err();
        assert!(matches!(err, RelationalError::SchemaMismatch { .. }));
    }

    #[test]
    fn invalid_tgd_rejected() {
        let err = Mapping::new(
            emp_schema(),
            mgr_schema(),
            vec![StTgd::new(
                vec![Atom::vars("Manager", &["x", "y"])], // target rel on lhs
                vec![Atom::vars("Manager", &["x", "y"])],
            )],
        )
        .unwrap_err();
        assert!(matches!(err, RelationalError::UnknownRelation(_)));
    }

    #[test]
    fn example1_solutions() {
        let m = example1();
        let src = Instance::with_facts(
            emp_schema(),
            vec![("Emp", vec![tuple!["Alice"], tuple!["Bob"]])],
        )
        .unwrap();
        let j1 = Instance::with_facts(
            mgr_schema(),
            vec![(
                "Manager",
                vec![tuple!["Alice", "Alice"], tuple!["Bob", "Alice"]],
            )],
        )
        .unwrap();
        let j2 = Instance::with_facts(
            mgr_schema(),
            vec![(
                "Manager",
                vec![tuple!["Alice", "Bob"], tuple!["Bob", "Ted"]],
            )],
        )
        .unwrap();
        let j_star = Instance::with_facts(
            mgr_schema(),
            vec![(
                "Manager",
                vec![
                    Tuple::new(vec![Value::str("Alice"), Value::null(1)]),
                    Tuple::new(vec![Value::str("Bob"), Value::null(2)]),
                ],
            )],
        )
        .unwrap();
        assert!(m.is_solution(&src, &j1));
        assert!(m.is_solution(&src, &j2));
        assert!(m.is_solution(&src, &j_star));
        assert!(!m.is_solution(&src, &Instance::empty(mgr_schema())));
    }

    #[test]
    fn target_egds_checked_in_solutions() {
        let egds = Egd::key("Manager", 2, &[0]);
        let m = Mapping::with_target_deps(
            emp_schema(),
            mgr_schema(),
            vec![StTgd::new(
                vec![Atom::vars("Emp", &["x"])],
                vec![Atom::vars("Manager", &["x", "y"])],
            )],
            vec![],
            egds,
        )
        .unwrap();
        let src = Instance::with_facts(emp_schema(), vec![("Emp", vec![tuple!["Alice"]])]).unwrap();
        let two_mgrs = Instance::with_facts(
            mgr_schema(),
            vec![(
                "Manager",
                vec![tuple!["Alice", "Bob"], tuple!["Alice", "Ted"]],
            )],
        )
        .unwrap();
        assert!(!m.is_solution(&src, &two_mgrs), "key violated");
        let one = Instance::with_facts(
            mgr_schema(),
            vec![("Manager", vec![tuple!["Alice", "Bob"]])],
        )
        .unwrap();
        assert!(m.is_solution(&src, &one));
    }

    #[test]
    fn fullness() {
        assert!(!example1().is_full());
        let full = Mapping::new(
            mgr_schema(),
            Schema::with_relations(vec![RelSchema::untyped("Boss", vec!["e", "m"]).unwrap()])
                .unwrap(),
            vec![StTgd::new(
                vec![Atom::vars("Manager", &["x", "y"])],
                vec![Atom::vars("Boss", &["x", "y"])],
            )],
        )
        .unwrap();
        assert!(full.is_full());
    }

    #[test]
    fn display_sections() {
        let s = example1().to_string();
        assert!(s.contains("-- source"));
        assert!(s.contains("∀x (Emp(x) → ∃y Manager(x, y))"));
    }
}
