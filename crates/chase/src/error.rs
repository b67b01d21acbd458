//! Chase failure modes.

use crate::chase::Exhausted;
use dex_relational::{Name, RelationalError};
use std::fmt;

/// Errors raised while chasing.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum ChaseError {
    /// An egd tried to equate two distinct constants — the exchange has
    /// **no solution** (hard failure in the data-exchange sense).
    EgdFailure {
        /// Display of the egd that failed.
        egd: String,
        /// The two constants that were forced equal.
        left: String,
        /// Second constant.
        right: String,
    },
    /// A resource budget (rounds, deadline, tuples, nulls, memory) or a
    /// cancellation stopped the chase before fixpoint. Raised by
    /// [`crate::exchange`] and the outcomes' `into_result`, which have
    /// no room for a partial outcome; [`crate::chase()`] and the other
    /// governed entry points return the [`Exhausted`] value — partial
    /// instance plus report — directly, so callers can keep the
    /// consistent prefix.
    Exhausted(Box<Exhausted>),
    /// A dependency used a variable in its conclusion (or an egd in its
    /// equalities) that its premise never binds. Caught at parse time
    /// for `.dex` sources; reachable for programmatically constructed
    /// dependencies.
    UnboundVariable {
        /// The unbound variable.
        var: Name,
        /// The dependency being fired, in display form.
        dependency: String,
    },
    /// An underlying relational error (arity/type violations etc.).
    Relational(RelationalError),
    /// A [`crate::CheckpointSink`] failed to persist a committed chase
    /// boundary. The chase aborts rather than outrun its own durable
    /// record; the message is the sink's own description (typically a
    /// `dex-store` IO or corruption error).
    Checkpoint(String),
}

impl fmt::Display for ChaseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ChaseError::EgdFailure { egd, left, right } => write!(
                f,
                "chase failed: egd `{egd}` forces distinct constants {left} = {right}"
            ),
            ChaseError::Exhausted(e) => write!(f, "chase stopped: {}", e.report),
            ChaseError::UnboundVariable { var, dependency } => write!(
                f,
                "variable `{var}` is not bound by the premise of `{dependency}`"
            ),
            ChaseError::Relational(e) => write!(f, "{e}"),
            ChaseError::Checkpoint(msg) => {
                write!(f, "chase aborted: checkpoint sink failed: {msg}")
            }
        }
    }
}

impl std::error::Error for ChaseError {}

impl From<RelationalError> for ChaseError {
    fn from(e: RelationalError) -> Self {
        ChaseError::Relational(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display() {
        let e = ChaseError::EgdFailure {
            egd: "E".into(),
            left: "a".into(),
            right: "b".into(),
        };
        assert!(e.to_string().contains("a = b"));
        let e = ChaseError::UnboundVariable {
            var: Name::new("z"),
            dependency: "R(x) -> S(z)".into(),
        };
        assert!(e.to_string().contains("`z`"));
    }
}
