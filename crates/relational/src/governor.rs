//! Resource governance: budgets, cooperative cancellation, and
//! exhaustion reports.
//!
//! Chase-based materialization is only semi-decidable, so every
//! long-running loop in the workspace (the phase-1/phase-2 chase, egd
//! enforcement, core minimization, certain-answer enumeration, the
//! nested chases inside compose/inverse, incremental put replay)
//! accepts a [`Governor`]: a [`Budget`] of hard resource caps plus an
//! optional shared [`CancelToken`]. Loops call the cheap check methods
//! at *step boundaries* — between rule firings, between rounds, between
//! endomorphism probes — and, on a trip, surface a typed outcome
//! carrying the consistent prefix computed so far together with an
//! [`ExhaustionReport`].
//!
//! Budget semantics: every limit is a cap on *consumption counted so
//! far*. Because checks are cooperative, consumption can overshoot a
//! cap by at most one atomic step (one tgd firing, or one round's egd
//! enforcement — which always terminates, since each merge eliminates a
//! labeled null). The wall-clock deadline is likewise checked between
//! steps, so the overshoot is bounded by the duration of a single step.
//!
//! The governor is `Sync`: counters are atomics, so a chase running on
//! one thread can be cancelled from another via the shared token.

use serde::{Serialize, Serializer};
use std::fmt;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Hard resource caps for one governed run. All fields default to
/// `None` ("unlimited"); build with the `with_*` methods.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Budget {
    /// Wall-clock deadline, measured from [`Governor::new`].
    pub deadline: Option<Duration>,
    /// Maximum committed (instance-changing) chase rounds.
    pub max_rounds: Option<u64>,
    /// Maximum derived tuples (counted as genuinely-new insertions).
    pub max_tuples: Option<u64>,
    /// Maximum fresh labeled nulls invented.
    pub max_nulls: Option<u64>,
    /// Approximate cap on bytes of derived tuple data.
    pub max_memory_bytes: Option<u64>,
}

impl Budget {
    /// A budget with no limits at all.
    pub fn unlimited() -> Self {
        Budget::default()
    }

    /// Cap wall-clock time.
    pub fn with_deadline(mut self, d: Duration) -> Self {
        self.deadline = Some(d);
        self
    }

    /// Cap committed chase rounds.
    pub fn with_max_rounds(mut self, n: u64) -> Self {
        self.max_rounds = Some(n);
        self
    }

    /// Cap derived tuples.
    pub fn with_max_tuples(mut self, n: u64) -> Self {
        self.max_tuples = Some(n);
        self
    }

    /// Cap fresh nulls.
    pub fn with_max_nulls(mut self, n: u64) -> Self {
        self.max_nulls = Some(n);
        self
    }

    /// Cap approximate derived bytes.
    pub fn with_max_memory(mut self, bytes: u64) -> Self {
        self.max_memory_bytes = Some(bytes);
        self
    }

    /// Synthesize a budget from statically derived chase bounds, each
    /// scaled by a `safety` factor (≥ 1; use 1 for exact admission).
    ///
    /// A finite bound becomes the corresponding cap (saturating at
    /// `u64::MAX` when the safety product overflows — still a valid,
    /// merely loose, cap); an unbounded component yields no cap on that
    /// axis. No deadline is set: the point of static admission control
    /// is to cap *work*, not wall-clock, which the caller can still
    /// layer on with [`with_deadline`](Self::with_deadline).
    ///
    /// Soundness contract (pinned by the cost-analysis property tests):
    /// when every component of `bounds` genuinely over-approximates the
    /// run — as the dex-analyze cost pass guarantees for weakly or
    /// jointly acyclic mappings — a chase governed by
    /// `Budget::from_bounds(&bounds, s)` with any `s ≥ 1` never trips.
    pub fn from_bounds(bounds: &crate::cost::ChaseBounds, safety: u64) -> Self {
        let cap = |b: crate::cost::Bound| b.finite().map(|n| n.saturating_mul(safety.max(1)));
        Budget {
            deadline: None,
            max_rounds: cap(bounds.rounds),
            max_tuples: cap(bounds.tuples),
            max_nulls: cap(bounds.nulls),
            max_memory_bytes: cap(bounds.bytes),
        }
    }

    /// The pointwise intersection of two budgets: on every axis the
    /// *stricter* cap wins (`min` when both are set, the set one when
    /// only one is). This is how `dexd` combines its server default
    /// with a request's overrides and the statically synthesized
    /// [`from_bounds`](Self::from_bounds) caps — a request can narrow
    /// the server's budget but never widen it. `dexcli` applies the
    /// same rule through the same request pipeline.
    pub fn intersect(self, other: Budget) -> Budget {
        fn tighter<T: Ord>(a: Option<T>, b: Option<T>) -> Option<T> {
            match (a, b) {
                (Some(a), Some(b)) => Some(a.min(b)),
                (a, b) => a.or(b),
            }
        }
        Budget {
            deadline: tighter(self.deadline, other.deadline),
            max_rounds: tighter(self.max_rounds, other.max_rounds),
            max_tuples: tighter(self.max_tuples, other.max_tuples),
            max_nulls: tighter(self.max_nulls, other.max_nulls),
            max_memory_bytes: tighter(self.max_memory_bytes, other.max_memory_bytes),
        }
    }

    /// Does this budget impose no limit?
    pub fn is_unlimited(&self) -> bool {
        self.deadline.is_none()
            && self.max_rounds.is_none()
            && self.max_tuples.is_none()
            && self.max_nulls.is_none()
            && self.max_memory_bytes.is_none()
    }
}

/// A shareable cooperative cancellation flag. Clone it, hand one copy
/// to the governed computation (via [`Governor::with_cancel`]) and keep
/// the other; [`cancel`](CancelToken::cancel) from any thread makes the
/// computation stop at its next check point with
/// [`TripReason::Cancelled`].
#[derive(Clone, Debug, Default)]
pub struct CancelToken(Arc<AtomicBool>);

impl CancelToken {
    /// A fresh, un-cancelled token.
    pub fn new() -> Self {
        CancelToken::default()
    }

    /// Request cancellation (idempotent, thread-safe).
    pub fn cancel(&self) {
        self.0.store(true, Ordering::Release);
    }

    /// Has cancellation been requested?
    pub fn is_cancelled(&self) -> bool {
        self.0.load(Ordering::Acquire)
    }
}

/// Which budget (or the cancel token) stopped a governed run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TripReason {
    /// The wall-clock deadline passed.
    Deadline,
    /// The committed-round cap was reached.
    Rounds,
    /// The derived-tuple cap was reached.
    Tuples,
    /// The fresh-null cap was reached.
    Nulls,
    /// The approximate memory cap was reached.
    Memory,
    /// The [`CancelToken`] was cancelled.
    Cancelled,
}

impl TripReason {
    /// The stable lowercase wire token for this reason — part of the
    /// versioned [`ExhaustionReport`] JSON format consumed by `dexcli
    /// --stats --format json` and `dexd` clients. Never rename these.
    pub fn token(&self) -> &'static str {
        match self {
            TripReason::Deadline => "deadline",
            TripReason::Rounds => "rounds",
            TripReason::Tuples => "tuples",
            TripReason::Nulls => "nulls",
            TripReason::Memory => "memory",
            TripReason::Cancelled => "cancelled",
        }
    }
}

impl fmt::Display for TripReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            TripReason::Deadline => "wall-clock deadline",
            TripReason::Rounds => "round limit",
            TripReason::Tuples => "derived-tuple limit",
            TripReason::Nulls => "fresh-null limit",
            TripReason::Memory => "approximate memory limit",
            TripReason::Cancelled => "cancelled",
        })
    }
}

/// What a governed run had consumed when it stopped.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ExhaustionReport {
    /// Which budget tripped.
    pub reason: TripReason,
    /// Committed (instance-changing) chase rounds.
    pub rounds_committed: u64,
    /// Genuinely-new tuples derived (and kept — rolled-back partial
    /// rounds still count as consumption).
    pub tuples_derived: u64,
    /// Fresh labeled nulls invented.
    pub nulls_created: u64,
    /// Approximate bytes of derived tuple data (0 unless a memory cap
    /// was set — byte accounting is skipped otherwise).
    pub approx_bytes: u64,
    /// Wall-clock time from governor creation to the trip.
    pub elapsed: Duration,
}

/// Version tag of the [`ExhaustionReport`] JSON wire format. Bump it
/// (and keep reading the old shape) on any incompatible change: the
/// report rides HTTP responses (`dexd` 206s) and the `dexcli --stats
/// --format json` stderr object, so its shape is an API.
pub const EXHAUSTION_REPORT_WIRE_V: u64 = 1;

// Stable versioned wire shape: a leading `"v"` tag, the reason as its
// lowercase token, and the elapsed time flattened to milliseconds
// (`Duration`'s native serde shape would leak an implementation
// detail). Field names are load-bearing; goldens pin them.
#[derive(Serialize)]
struct ExhaustionReportWire {
    v: u64,
    reason: &'static str,
    rounds_committed: u64,
    tuples_derived: u64,
    nulls_created: u64,
    approx_bytes: u64,
    elapsed_ms: u64,
}

impl Serialize for ExhaustionReport {
    fn serialize<S: Serializer>(&self, s: S) -> Result<S::Ok, S::Error> {
        ExhaustionReportWire {
            v: EXHAUSTION_REPORT_WIRE_V,
            reason: self.reason.token(),
            rounds_committed: self.rounds_committed,
            tuples_derived: self.tuples_derived,
            nulls_created: self.nulls_created,
            approx_bytes: self.approx_bytes,
            elapsed_ms: self.elapsed.as_millis() as u64,
        }
        .serialize(s)
    }
}

impl fmt::Display for ExhaustionReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "budget exhausted: {}", self.reason)?;
        writeln!(f, "  rounds committed: {}", self.rounds_committed)?;
        writeln!(f, "  tuples derived:   {}", self.tuples_derived)?;
        writeln!(f, "  nulls created:    {}", self.nulls_created)?;
        if self.approx_bytes > 0 {
            writeln!(f, "  approx bytes:     {}", self.approx_bytes)?;
        }
        write!(f, "  elapsed:          {:?}", self.elapsed)
    }
}

/// A live budget: caps, an optional cancel token, and consumption
/// counters. Construct one per governed run and thread `&Governor`
/// through the loops; see the module docs for check-point placement.
#[derive(Debug)]
pub struct Governor {
    budget: Budget,
    cancel: Option<CancelToken>,
    start: Instant,
    /// Fast path: when no limit and no token is set, every check is a
    /// single branch. (Counter accounting stays on regardless so
    /// reports stay accurate.)
    engaged: bool,
    rounds: AtomicU64,
    tuples: AtomicU64,
    nulls: AtomicU64,
    bytes: AtomicU64,
}

impl Default for Governor {
    fn default() -> Self {
        Governor::unlimited()
    }
}

impl Governor {
    /// A governor enforcing `budget`, with the clock starting now.
    pub fn new(budget: Budget) -> Self {
        Governor {
            engaged: !budget.is_unlimited(),
            budget,
            cancel: None,
            start: Instant::now(),
            rounds: AtomicU64::new(0),
            tuples: AtomicU64::new(0),
            nulls: AtomicU64::new(0),
            bytes: AtomicU64::new(0),
        }
    }

    /// A governor that never trips (all checks are a single branch).
    pub fn unlimited() -> Self {
        Governor::new(Budget::unlimited())
    }

    /// Attach a cancellation token.
    pub fn with_cancel(mut self, token: CancelToken) -> Self {
        self.cancel = Some(token);
        self.engaged = true;
        self
    }

    /// The budget being enforced.
    pub fn budget(&self) -> &Budget {
        &self.budget
    }

    /// Is byte accounting worth doing? (Only when a memory cap is set —
    /// walking tuples to estimate bytes is pure overhead otherwise.)
    pub fn tracks_memory(&self) -> bool {
        self.budget.max_memory_bytes.is_some()
    }

    /// Check every budget except rounds (rounds are checked by
    /// [`round_limit_hit`](Governor::round_limit_hit) at round
    /// boundaries). Call between atomic steps; `Err` carries the trip
    /// reason.
    pub fn check(&self) -> Result<(), TripReason> {
        if !self.engaged {
            return Ok(());
        }
        if let Some(c) = &self.cancel {
            if c.is_cancelled() {
                return Err(TripReason::Cancelled);
            }
        }
        if let Some(d) = self.budget.deadline {
            if self.start.elapsed() >= d {
                return Err(TripReason::Deadline);
            }
        }
        if let Some(cap) = self.budget.max_tuples {
            if self.tuples.load(Ordering::Relaxed) > cap {
                return Err(TripReason::Tuples);
            }
        }
        if let Some(cap) = self.budget.max_nulls {
            if self.nulls.load(Ordering::Relaxed) > cap {
                return Err(TripReason::Nulls);
            }
        }
        if let Some(cap) = self.budget.max_memory_bytes {
            if self.bytes.load(Ordering::Relaxed) > cap {
                return Err(TripReason::Memory);
            }
        }
        Ok(())
    }

    /// Record one committed (instance-changing) chase round.
    ///
    /// Accounting is unconditional (even for an unlimited governor) so
    /// every exhaustion report carries accurate counters.
    pub fn note_round(&self) {
        self.rounds.fetch_add(1, Ordering::Relaxed);
    }

    /// Preload the committed-round counter with `n` rounds done by an
    /// earlier run — used when resuming a checkpointed chase so round
    /// caps and exhaustion reports count *total* rounds across the
    /// original and resumed processes, not just the resumed one.
    pub fn note_rounds(&self, n: u64) {
        self.rounds.fetch_add(n, Ordering::Relaxed);
    }

    /// Has the committed-round cap been exceeded? (Checked after
    /// [`note_round`](Governor::note_round), mirroring the historical
    /// `max_rounds` semantics: a run may commit exactly `max_rounds`
    /// changed rounds plus the fixpoint-proving round; one more trips.)
    pub fn round_limit_hit(&self) -> bool {
        match self.budget.max_rounds {
            Some(cap) => self.rounds.load(Ordering::Relaxed) > cap,
            None => false,
        }
    }

    /// Record `n` genuinely-new derived tuples.
    pub fn note_tuples(&self, n: usize) {
        if n > 0 {
            self.tuples.fetch_add(n as u64, Ordering::Relaxed);
        }
    }

    /// Record `n` fresh nulls.
    pub fn note_nulls(&self, n: usize) {
        if n > 0 {
            self.nulls.fetch_add(n as u64, Ordering::Relaxed);
        }
    }

    /// Record `n` approximate bytes of derived tuple data.
    pub fn note_bytes(&self, n: usize) {
        if n > 0 {
            self.bytes.fetch_add(n as u64, Ordering::Relaxed);
        }
    }

    /// Snapshot consumption into a report for trip `reason`.
    pub fn report(&self, reason: TripReason) -> ExhaustionReport {
        ExhaustionReport {
            reason,
            rounds_committed: self.rounds.load(Ordering::Relaxed),
            tuples_derived: self.tuples.load(Ordering::Relaxed),
            nulls_created: self.nulls.load(Ordering::Relaxed),
            approx_bytes: self.bytes.load(Ordering::Relaxed),
            elapsed: self.start.elapsed(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unlimited_governor_never_trips() {
        let g = Governor::unlimited();
        g.note_tuples(1_000_000);
        g.note_nulls(1_000_000);
        g.note_round();
        assert!(g.check().is_ok());
        assert!(!g.round_limit_hit());
    }

    #[test]
    fn tuple_budget_trips_past_cap() {
        let g = Governor::new(Budget::unlimited().with_max_tuples(10));
        g.note_tuples(10);
        assert!(g.check().is_ok(), "cap is inclusive");
        g.note_tuples(1);
        assert_eq!(g.check(), Err(TripReason::Tuples));
        let r = g.report(TripReason::Tuples);
        assert_eq!(r.tuples_derived, 11);
        assert_eq!(r.reason, TripReason::Tuples);
    }

    #[test]
    fn null_and_memory_budgets_trip() {
        let g = Governor::new(Budget::unlimited().with_max_nulls(2));
        g.note_nulls(3);
        assert_eq!(g.check(), Err(TripReason::Nulls));

        let g = Governor::new(Budget::unlimited().with_max_memory(100));
        assert!(g.tracks_memory());
        g.note_bytes(101);
        assert_eq!(g.check(), Err(TripReason::Memory));
    }

    #[test]
    fn deadline_trips_after_elapsing() {
        let g = Governor::new(Budget::unlimited().with_deadline(Duration::from_millis(1)));
        std::thread::sleep(Duration::from_millis(5));
        assert_eq!(g.check(), Err(TripReason::Deadline));
    }

    #[test]
    fn round_limit_mirrors_historical_semantics() {
        let g = Governor::new(Budget::unlimited().with_max_rounds(2));
        g.note_round();
        g.note_round();
        assert!(!g.round_limit_hit(), "exactly max_rounds is fine");
        g.note_round();
        assert!(g.round_limit_hit());
        assert!(g.check().is_ok(), "check() ignores rounds");
    }

    #[test]
    fn cancel_token_is_shared_and_sticky() {
        let t = CancelToken::new();
        let g = Governor::unlimited().with_cancel(t.clone());
        assert!(g.check().is_ok());
        t.cancel();
        assert_eq!(g.check(), Err(TripReason::Cancelled));
        assert!(t.is_cancelled());
    }

    #[test]
    fn cancellation_from_another_thread() {
        let t = CancelToken::new();
        let g = Governor::unlimited().with_cancel(t.clone());
        let handle = std::thread::spawn(move || t.cancel());
        handle.join().expect("cancel thread panicked");
        assert_eq!(g.check(), Err(TripReason::Cancelled));
    }

    #[test]
    fn report_display_is_readable() {
        let g = Governor::new(Budget::unlimited().with_max_tuples(1));
        g.note_tuples(2);
        let text = g.report(TripReason::Tuples).to_string();
        assert!(text.contains("budget exhausted: derived-tuple limit"));
        assert!(text.contains("tuples derived:   2"));
    }

    #[test]
    fn budget_intersect_takes_the_stricter_cap() {
        let server = Budget::unlimited()
            .with_max_rounds(100)
            .with_max_tuples(1000)
            .with_deadline(Duration::from_secs(10));
        let request = Budget::unlimited()
            .with_max_rounds(5)
            .with_max_nulls(7)
            .with_deadline(Duration::from_secs(60));
        let b = server.intersect(request);
        assert_eq!(b.max_rounds, Some(5), "request narrows");
        assert_eq!(b.max_tuples, Some(1000), "server cap survives");
        assert_eq!(b.max_nulls, Some(7), "request adds a new axis");
        assert_eq!(
            b.deadline,
            Some(Duration::from_secs(10)),
            "request cannot widen the server deadline"
        );
        assert_eq!(b.max_memory_bytes, None);
    }

    /// Golden-pins the versioned wire JSON byte-for-byte: this shape is
    /// consumed by `dexd` clients and `--stats --format json` tooling,
    /// so any drift must show up as a deliberate diff here (and a bump
    /// of [`EXHAUSTION_REPORT_WIRE_V`]).
    #[test]
    fn exhaustion_report_wire_format_is_pinned() {
        let r = ExhaustionReport {
            reason: TripReason::Tuples,
            rounds_committed: 3,
            tuples_derived: 11,
            nulls_created: 2,
            approx_bytes: 640,
            elapsed: Duration::from_millis(1234),
        };
        let got = serde_json::to_string(&r).expect("report serializes");
        assert_eq!(
            got,
            "{\"v\":1,\"reason\":\"tuples\",\"rounds_committed\":3,\
             \"tuples_derived\":11,\"nulls_created\":2,\
             \"approx_bytes\":640,\"elapsed_ms\":1234}"
        );
    }

    #[test]
    fn trip_reason_tokens_are_stable() {
        let all = [
            (TripReason::Deadline, "deadline"),
            (TripReason::Rounds, "rounds"),
            (TripReason::Tuples, "tuples"),
            (TripReason::Nulls, "nulls"),
            (TripReason::Memory, "memory"),
            (TripReason::Cancelled, "cancelled"),
        ];
        for (reason, token) in all {
            assert_eq!(reason.token(), token);
        }
    }

    #[test]
    fn governor_is_sync() {
        fn assert_sync<T: Sync + Send>() {}
        assert_sync::<Governor>();
        assert_sync::<CancelToken>();
    }
}
