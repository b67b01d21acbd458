//! # dex-chase — materializing data exchange
//!
//! The operational heart of classical data exchange (paper §2): given a
//! mapping and a source instance, **chase** the source through the
//! st-tgds to materialize a *universal solution* — the preferred,
//! most-general solution `J*` of the paper's Example 1 — then chase the
//! target dependencies (tgds and egds) to fixpoint.
//!
//! Also here:
//! * the **SO-tgd chase** (Skolem-term nulls), needed to execute
//!   composed mappings (Example 2),
//! * **termination analysis** — weak acyclicity with special-edge
//!   cycle witnesses, plus joint acyclicity as a strictly larger
//!   sufficient condition,
//! * **core** computation — minimizing a universal solution,
//! * conjunctive queries and **certain answers** over universal
//!   solutions.

#![deny(clippy::unwrap_used)]
#![deny(clippy::expect_used)]
#![cfg_attr(test, allow(clippy::unwrap_used, clippy::expect_used))]

pub mod chase;
pub mod core_min;
pub mod critical;
pub mod error;
pub mod query;
pub mod sochase;
pub mod termination;

pub use chase::{
    enforce_egds, enforce_egds_governed, enforce_egds_with, exchange, exchange_checkpointed,
    exchange_governed, exchange_with, resume_exchange, set_default_threads, ChaseOptions,
    ChaseOutcome, ChaseStats, ChaseVariant, Checkpoint, CheckpointSink, EgdOutcome, EgdStats,
    ExchangeResult, Exhausted, Matcher, ResumeState, CHASE_STATS_WIRE_V, DEFAULT_MAX_ROUNDS,
};
pub use core_min::{core_of, core_of_governed};
pub use critical::{critical_instance, CriticalInstance};
pub use error::ChaseError;
pub use query::{certain_answers, certain_answers_governed, ConjunctiveQuery, UnionQuery};
pub use sochase::{so_exchange, so_exchange_governed, SoOutcome};
// Governance vocabulary, re-exported so downstream crates can build
// budgets without depending on dex-relational directly.
pub use dex_relational::{Budget, CancelToken, ExhaustionReport, Governor, TripReason};
pub use termination::{
    classify_termination, existential_depth, is_jointly_acyclic, is_weakly_acyclic, position_ranks,
    verify_witness, weak_acyclicity_witness, CycleWitness, DepEdge, Position, TerminationClass,
    TerminationReport,
};
