//! # dex-evolution — schema evolution (paper Figure 2)
//!
//! “Consider a mapping M between schemas A and B, and assume that
//! schema A evolves into a schema A′. … The relationship between the
//! new schema A′ and schema B can be obtained by inverting mapping M′
//! and then composing the result with mapping M.” (§2)
//!
//! The paper's §4 offers **two** lens-flavoured solutions and this
//! crate implements both:
//!
//! 1. **Invert-and-compose** (“composing mappings specified using
//!    lenses is as simple as concatenating them … one can construct a
//!    mapping from S′ to T as [ℓ₂⁻¹, ℓ₁⁻¹, m₁, m₂, m₃]”): every schema
//!    modification operator ([`Smo`]) is a symmetric lens
//!    ([`SmoLens`]), sequences concatenate ([`EvolutionLens`]), and
//!    inversion is free — prepend the inverted evolution to any
//!    mapping lens.
//! 2. **Channel-style propagation** (the paper's \[24\]): push the SMOs
//!    *through* the st-tgd mapping, producing a rewritten mapping over
//!    the evolved schema ([`propagate`], [`propagate_all`]).

#![deny(clippy::unwrap_used)]
#![deny(clippy::expect_used)]
#![cfg_attr(test, allow(clippy::unwrap_used, clippy::expect_used))]

pub mod catalog;
pub mod channel;
pub mod compile;
pub mod diff;
pub mod error;
pub mod lens;
pub mod smo;

pub use catalog::{CatColumn, CatTable, Catalog, ColumnId, TableId};
pub use channel::{propagate, propagate_all};
pub use compile::{
    compile_migration, compile_migration_checked, into_prefixed, prefix_instance, prefix_schema,
    version_prefix, Migration,
};
pub use dex_logic::{render_mapping_dex, render_schema_dex};
pub use diff::diff;
pub use error::EvolutionError;
pub use lens::{EvolutionLens, SmoLens};
pub use smo::{ColumnDefault, Smo};
