//! # dex-logic — schema-mapping logic
//!
//! The declarative layer of `dex`: first-order terms and atoms,
//! **source-to-target tuple-generating dependencies** (st-tgds, the
//! paper's formula (1)), target tgds and egds, **disjunctive tgds** (the
//! shape of Example 3's inverse), and **second-order tgds** (SO-tgds,
//! the shape of Example 2's composition), together with:
//!
//! * conjunctive-formula matching over instances (the evaluation engine
//!   shared with the chase),
//! * satisfaction checking — does a pair `(I, J)` satisfy a mapping?
//! * a text parser for the mapping language, its inverse `.dex`
//!   printer, and a paper-style pretty-printer,
//! * the **visual-correspondence compiler** (paper Figure 1): Clio-style
//!   attribute arrows compiled into st-tgds.

#![deny(clippy::unwrap_used)]
#![deny(clippy::expect_used)]
#![cfg_attr(test, allow(clippy::unwrap_used, clippy::expect_used))]

pub mod atom;
pub mod correspondence;
pub mod eval;
pub mod mapping;
pub mod parser;
pub mod print;
pub mod sotgd;
pub mod span;
pub mod term;
pub mod tgd;

pub use atom::Atom;
pub use correspondence::{Arrow, CorrespondenceGroup, CorrespondenceSet};
pub use eval::{
    extend_matches, match_conjunction, premise_plan, PremisePlan, PremiseStep, Valuation,
};
pub use mapping::Mapping;
pub use parser::{
    parse_disj_tgd, parse_egd, parse_mapping, parse_mapping_with_spans, parse_query, parse_tgd,
    ParseError,
};
pub use print::{
    egd_dex, key_egds, keys, render_mapping_dex, render_schema_dex, schema_key_egds, tgd_dex,
};
pub use sotgd::{SoClause, SoTgd};
pub use span::{SourceMap, Span};
pub use term::Term;
pub use tgd::{DisjTgd, Egd, StTgd};
