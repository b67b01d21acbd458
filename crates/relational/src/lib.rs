//! # dex-relational — the relational substrate
//!
//! This crate implements the typed relational model that every other layer
//! of `dex` builds on: constants and **labeled nulls** (the paper's `⊥₁`,
//! `⊥₂` in Example 1), Skolem terms (needed by SO-tgd composition), typed
//! schemas, relation and database instances with set semantics,
//! functional dependencies with closure/key reasoning, homomorphisms
//! between instances (the yardstick by which data exchange ranks
//! solutions), a scalar predicate language, and a full relational-algebra
//! evaluator.
//!
//! Design notes:
//! * Every observable collection is canonically ordered: schemas live in
//!   `BTreeMap`s, and relations — physically column-major tuple arenas
//!   (see [`columns`]) — iterate, print, serialize, and compare in
//!   lexicographic row order, so equality of instances is semantic set
//!   equality and printed output is deterministic.
//! * Names are interned behind [`Name`] (`Arc<str>`) — cloning a schema or
//!   a tuple never re-allocates attribute/relation names.
//! * Instances validate arity and (optionally) attribute types on insert;
//!   constraint checking (FDs, keys) is explicit and returns structured
//!   violations rather than panicking.

#![deny(clippy::unwrap_used)]
#![deny(clippy::expect_used)]
#![cfg_attr(test, allow(clippy::unwrap_used, clippy::expect_used))]

pub mod algebra;
pub mod budget_args;
pub mod columns;
pub mod cost;
pub mod error;
pub mod expr;
pub mod fail;
pub mod fd;
pub mod governor;
pub mod homomorphism;
pub mod index;
pub mod instance;
pub mod name;
pub mod relation;
pub mod schema;
pub mod tuple;
pub mod value;

pub use budget_args::BudgetArgs;
pub use columns::{hash_values, ColumnStore};
pub use cost::{Bound, ChaseBounds, SourceStats};
pub use error::RelationalError;
pub use expr::{ArithOp, BinCmp, Expr};
pub use fd::{Fd, FdSet, FdViolation};
pub use governor::{Budget, CancelToken, ExhaustionReport, Governor, TripReason};
pub use homomorphism::{
    find_homomorphism, homomorphically_equivalent, is_homomorphic_to, Homomorphism,
};
pub use index::{IndexStats, Probe, TupleId, TupleIndex};
pub use instance::Instance;
pub use name::Name;
pub use relation::{RelIter, Relation};
pub use schema::{AttrType, RelSchema, Schema};
pub use tuple::Tuple;
pub use value::{Constant, NullGen, NullId, Value};
