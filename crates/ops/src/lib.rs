//! # dex-ops — schema-mapping management operators
//!
//! The paper §2: “Two of the most fundamental operators on schema
//! mappings are **composition** and **inversion**.”
//!
//! * [`compose()`] implements Fagin–Kolaitis–Popa–Tan composition:
//!   skolemize both mappings into SO-tgds, unfold the second mapping's
//!   premises through the first mapping's conclusions, and simplify.
//!   The paper's Example 2 (`∃f …`) is reproduced verbatim by the
//!   tests. Full st-tgds compose back into st-tgds
//!   (de-skolemization), exhibiting the closure result the paper cites.
//! * [`maximum_recovery`] implements the recovery construction for the
//!   supported fragment (single-atom, repeat-free right-hand sides):
//!   each target relation's rule collects the source premises of every
//!   tgd producing it as a **disjunction** — Example 3's
//!   `Parent(x,y) → Father(x,y) ∨ Mother(x,y)` falls out.
//! * Bounded checkers ([`is_recovery_witness`],
//!   [`not_invertible_witness`]) make the negative results executable:
//!   the naive flip is *not* a recovery; Example 3's mapping is *not*
//!   Fagin-invertible.
//! * [`verify_composition`] is the composition's independent referee:
//!   it chases the critical instances of both mappings through the
//!   two-step pipeline and through the composed mapping and demands
//!   homomorphically equivalent results — surfaced as `DEX604` by
//!   `dexcli compose --check`.

#![deny(clippy::unwrap_used)]
#![deny(clippy::expect_used)]
#![cfg_attr(test, allow(clippy::unwrap_used, clippy::expect_used))]

pub mod compose;
pub mod error;
pub mod inverse;
pub mod verify;

pub use compose::{compose, Composition};
pub use error::OpsError;
pub use inverse::{
    is_recovery_witness, is_recovery_witness_governed, maximum_recovery, not_invertible_witness,
    not_invertible_witness_governed, recovery_obstacles, MaxRecovery, RecoveryObstacle,
};
pub use verify::{verify_composition, CompositionCheck, CompositionCounterexample};
