//! The chase: source instance → universal solution.

use crate::error::ChaseError;
use dex_logic::eval::{
    extend_matches, extend_matches_unordered, for_each_match_mode, has_match_mode,
    match_conjunction_mode, unify_with_tuple, MatchMode, Valuation,
};
use dex_logic::{Atom, Mapping, StTgd, Term};
use dex_relational::{
    Budget, ExhaustionReport, Governor, IndexStats, Instance, Name, NullGen, NullId,
    RelationalError, TripReason, Tuple, Value,
};
use serde::{Serialize, Serializer};
use std::collections::{BTreeMap, BTreeSet};

/// Which chase to run for the source-to-target phase.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum ChaseVariant {
    /// The **standard** chase: fire a tgd only when its right-hand side
    /// has no satisfying extension yet. Produces fewer redundant nulls.
    #[default]
    Standard,
    /// The **oblivious** chase: fire once for every left-hand-side
    /// match, unconditionally. Simpler and order-insensitive; produces a
    /// canonical (possibly redundant) universal solution.
    Oblivious,
}

/// How tgd premises are matched against instances.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum Matcher {
    /// Probe per-position hash indexes, and run the target chase
    /// semi-naively: each round only considers premise matches that
    /// touch at least one tuple inserted in the previous round. This
    /// is the default.
    #[default]
    Indexed,
    /// Full-scan matching with naive (re-match everything each round)
    /// target chase. Kept as the correctness oracle: it produces the
    /// *identical* instance — same tuples, same null allocation order
    /// — as [`Matcher::Indexed`].
    Scan,
}

impl Matcher {
    fn mode(self) -> MatchMode {
        match self {
            Matcher::Indexed => MatchMode::Indexed,
            Matcher::Scan => MatchMode::Scan,
        }
    }
}

/// The committed-round ceiling for runs nobody budgeted: the
/// unbudgeted conveniences [`exchange`] and [`exchange_with`] apply it,
/// and so does any front end whose effective [`Budget`] caps nothing.
/// Without it a chase of a divergent mapping never returns.
pub const DEFAULT_MAX_ROUNDS: u64 = 10_000;

/// Chase configuration. Round caps are not a chase option: they belong
/// to the [`Governor`]'s [`Budget`].
#[derive(Clone, Copy, Debug, Default)]
pub struct ChaseOptions {
    /// Source-to-target variant.
    pub variant: ChaseVariant,
    /// Matching strategy (indexed semi-naive vs full-scan oracle).
    pub matcher: Matcher,
}

/// Counters collected while chasing, for `--stats` style reporting.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ChaseStats {
    /// Source-to-target firings (phase 1).
    pub st_firings: usize,
    /// Completed target-chase rounds that changed the instance.
    pub rounds: usize,
    /// Target tgd firings in each round (one entry per round started,
    /// including the final no-op round that proves the fixpoint).
    pub firings_per_round: Vec<usize>,
    /// Size of the delta (new tuples since the previous round) seen at
    /// the start of each round. The first entry is the phase-1 output.
    pub delta_sizes: Vec<usize>,
    /// Index structures (re)built across source and target.
    pub index_builds: u64,
    /// Index probes served across source and target.
    pub index_probes: u64,
    /// Conclusions checked by one row-hash membership lookup instead
    /// of a probe (fully determined single-atom conclusions).
    pub membership_checks: u64,
    /// Rows offered to unification, summed once per index probe or
    /// relation scan.
    pub candidates: u64,
}

impl ChaseStats {
    /// Record the matcher work counters of a finished (or stopped) run.
    fn note_index(&mut self, index: IndexStats) {
        self.index_builds = index.builds;
        self.index_probes = index.probes;
        self.membership_checks = index.membership_checks;
        self.candidates = index.candidates;
    }
}

/// Version tag of the [`ChaseStats`] JSON wire format. The stats
/// object rides the `dexcli --stats --format json` stderr channel and
/// `dexd` chase responses; bump this on any incompatible reshaping so
/// clients can dispatch on `"v"`.
pub const CHASE_STATS_WIRE_V: u64 = 1;

// Stable versioned wire shape: a leading `"v"` tag, counts widened to
// u64 so the format is independent of the host's `usize`. Field names
// are load-bearing; goldens pin them.
#[derive(Serialize)]
struct ChaseStatsWire {
    v: u64,
    st_firings: u64,
    rounds: u64,
    firings_per_round: Vec<u64>,
    delta_sizes: Vec<u64>,
    index_builds: u64,
    index_probes: u64,
    membership_checks: u64,
    candidates: u64,
}

impl Serialize for ChaseStats {
    fn serialize<S: Serializer>(&self, s: S) -> Result<S::Ok, S::Error> {
        let widen = |v: &[usize]| v.iter().map(|&n| n as u64).collect();
        ChaseStatsWire {
            v: CHASE_STATS_WIRE_V,
            st_firings: self.st_firings as u64,
            rounds: self.rounds as u64,
            firings_per_round: widen(&self.firings_per_round),
            delta_sizes: widen(&self.delta_sizes),
            index_builds: self.index_builds,
            index_probes: self.index_probes,
            membership_checks: self.membership_checks,
            candidates: self.candidates,
        }
        .serialize(s)
    }
}

impl std::fmt::Display for ChaseStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(f, "-- chase statistics --")?;
        writeln!(f, "  st-tgd firings:   {}", self.st_firings)?;
        writeln!(f, "  target rounds:    {}", self.rounds)?;
        if !self.firings_per_round.is_empty() {
            writeln!(f, "  firings/round:    {:?}", self.firings_per_round)?;
        }
        if !self.delta_sizes.is_empty() {
            writeln!(f, "  delta sizes:      {:?}", self.delta_sizes)?;
        }
        writeln!(f, "  index builds:     {}", self.index_builds)?;
        writeln!(f, "  index probes:     {}", self.index_probes)?;
        writeln!(f, "  membership checks: {}", self.membership_checks)?;
        writeln!(f, "  candidates:       {}", self.candidates)?;
        Ok(())
    }
}

/// The outcome of a successful exchange.
#[derive(Clone, Debug)]
pub struct ExchangeResult {
    /// The materialized universal solution.
    pub target: Instance,
    /// Number of labeled nulls invented.
    pub nulls_created: usize,
    /// Number of tgd firings (st + target).
    pub firings: usize,
    /// Counters collected along the way.
    pub stats: ChaseStats,
}

/// A governed run that stopped early: the consistent prefix computed
/// so far plus a report of which budget tripped and what was consumed.
///
/// The partial instance is always a **valid chase prefix**. Phase-1
/// trips happen between whole firings. Phase-2 trips either happen at
/// a round boundary (after that round's egds were enforced) or roll
/// the uncommitted round back to its start via the delta log, so the
/// instance is exactly the state after some number of complete,
/// committed, egd-enforced rounds — never a torn write, never a
/// silently truncated firing.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Exhausted {
    /// The consistent prefix instance.
    pub partial: Instance,
    /// Which budget tripped and the consumption so far.
    pub report: ExhaustionReport,
    /// Chase counters up to the trip.
    pub stats: ChaseStats,
}

/// The outcome of a governed exchange: either a fixpoint or a
/// consistent prefix with an exhaustion report.
#[derive(Clone, Debug)]
#[allow(clippy::large_enum_variant)]
pub enum ChaseOutcome {
    /// The chase reached a fixpoint within budget.
    Complete(ExchangeResult),
    /// A budget or cancellation stopped the chase early.
    Exhausted(Exhausted),
}

impl ChaseOutcome {
    /// Collapse into a plain `Result`, turning exhaustion into
    /// [`ChaseError::Exhausted`] (the partial instance rides along in
    /// the boxed payload).
    pub fn into_result(self) -> Result<ExchangeResult, ChaseError> {
        match self {
            ChaseOutcome::Complete(r) => Ok(r),
            ChaseOutcome::Exhausted(e) => Err(ChaseError::Exhausted(Box::new(e))),
        }
    }
}

/// A committed chase boundary, handed to a [`CheckpointSink`] while the
/// instance is still borrowed by the running chase.
///
/// Round 0 is the phase-1 output (the base state before any target
/// round); round `r ≥ 1` is the state after `r` committed, egd-enforced
/// target rounds. When `delta` is `Some`, the round's entire effect was
/// the listed insertions (a WAL can log just those); `None` means the
/// round rewrote the instance wholesale (an egd substitution merged
/// nulls), so durable sinks must record the full `target`.
#[derive(Debug)]
pub struct Checkpoint<'a> {
    /// Committed round number (0 = phase-1 output).
    pub round: u64,
    /// Null-generator position: the id the next fresh null will take.
    /// Restoring it is what makes a resumed run allocate the exact
    /// same nulls as an uninterrupted one.
    pub next_null: u64,
    /// The instance as of this boundary.
    pub target: &'a Instance,
    /// The round's insertions per relation (name order), or `None`
    /// when the round is not representable as insertions.
    pub delta: Option<Vec<(Name, Vec<Tuple>)>>,
    /// True on the final checkpoint of a run that reached fixpoint.
    pub complete: bool,
}

/// Receives every committed chase boundary from
/// [`exchange_checkpointed`] / [`resume_exchange`]. An error return
/// aborts the chase with [`ChaseError::Checkpoint`]: a run that cannot
/// persist its progress must not pretend it did.
pub trait CheckpointSink {
    /// Called once per committed boundary, in round order.
    fn on_checkpoint(&mut self, cp: Checkpoint<'_>) -> Result<(), String>;
}

/// A chase boundary loaded back from durable storage, from which
/// [`resume_exchange`] continues phase 2.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ResumeState {
    /// The instance at the checkpointed boundary.
    pub target: Instance,
    /// Null-generator position at the boundary.
    pub next_null: u64,
    /// Committed rounds up to the boundary (0 = phase-1 output).
    pub rounds: u64,
}

/// Materialize a universal solution for `src` under `mapping` with
/// default options. This is the paper's “how to materialize the best
/// solution for I under M”.
///
/// ```
/// use dex_chase::exchange;
/// use dex_logic::parse_mapping;
/// use dex_relational::{tuple, Instance};
///
/// let m = parse_mapping(r#"
///     source Emp(name);
///     target Manager(emp, mgr);
///     Emp(x) -> Manager(x, y);
/// "#).unwrap();
/// let src = Instance::with_facts(
///     m.source().clone(),
///     vec![("Emp", vec![tuple!["Alice"]])],
/// ).unwrap();
/// let result = exchange(&m, &src).unwrap();
/// assert_eq!(result.nulls_created, 1);    // Alice's unknown manager
/// assert!(m.is_solution(&src, &result.target));
/// ```
pub fn exchange(mapping: &Mapping, src: &Instance) -> Result<ExchangeResult, ChaseError> {
    exchange_with(mapping, src, ChaseOptions::default())
}

/// Materialize with explicit options, stopping after
/// [`DEFAULT_MAX_ROUNDS`] committed target rounds
/// ([`ChaseError::Exhausted`] past that).
///
/// Both matchers produce the identical result. The target chase runs
/// in *rounds*: every round matches all target tgds against the
/// instance as it stood at the start of the round, sorts the resulting
/// firing obligations canonically, then fires them (re-checking
/// satisfaction against the live instance). Under [`Matcher::Indexed`]
/// a round only re-matches premises against the tuples inserted in
/// the previous round (semi-naive): any older match was already fired
/// or satisfied in an earlier round, so re-deriving it is pure waste —
/// unless an egd substitution rewrote the instance, in which case the
/// next round falls back to a full re-match.
pub fn exchange_with(
    mapping: &Mapping,
    src: &Instance,
    opts: ChaseOptions,
) -> Result<ExchangeResult, ChaseError> {
    let gov = Governor::new(Budget::unlimited().with_max_rounds(DEFAULT_MAX_ROUNDS));
    exchange_governed(mapping, src, opts, &gov)?.into_result()
}

/// Materialize under a resource budget and/or a cancellation token.
///
/// Identical to [`exchange_with`] on the untripped path (same tuples,
/// same null order, same stats), but checks the governor at every step
/// boundary: between phase-1 firings, between phase-2 match batches and
/// firings, and at committed round boundaries. On a trip it returns
/// [`ChaseOutcome::Exhausted`] carrying a valid chase-prefix instance
/// (see [`Exhausted`] for the atomicity argument) instead of an error.
/// The governor's budget is the only round cap.
pub fn exchange_governed(
    mapping: &Mapping,
    src: &Instance,
    opts: ChaseOptions,
    gov: &Governor,
) -> Result<ChaseOutcome, ChaseError> {
    run_exchange(mapping, Start::Fresh(src), opts, gov, None)
}

/// Like [`exchange_governed`], but reports every committed chase
/// boundary (phase-1 output, then each egd-enforced target round, then
/// the fixpoint) to `sink`, so the run's progress can be persisted and
/// later continued with [`resume_exchange`]. With a sink that does
/// nothing the result is identical to [`exchange_governed`] — same
/// tuples, same null order, same stats.
pub fn exchange_checkpointed(
    mapping: &Mapping,
    src: &Instance,
    opts: ChaseOptions,
    gov: &Governor,
    sink: &mut dyn CheckpointSink,
) -> Result<ChaseOutcome, ChaseError> {
    run_exchange(mapping, Start::Fresh(src), opts, gov, Some(sink))
}

/// Continue phase 2 of a chase from a committed boundary previously
/// captured through a [`CheckpointSink`] (possibly in another process).
///
/// The resumed run needs no source instance: phase 1 is already folded
/// into `state.target`, and target tgds/egds mention only target
/// relations. Its first round does a full re-match (the semi-naive
/// delta died with the original process), after which the
/// indexed-equals-scan theorem guarantees the continuation fires the
/// same obligations in the same order as the uninterrupted run — so
/// the final instance is literally identical, nulls included.
///
/// `state.rounds` is preloaded into `gov`: round caps bound *total*
/// rounds across the original and resumed runs. Stats and the exhaustion report likewise count total
/// rounds, but firings/index counters cover only the resumed process.
pub fn resume_exchange(
    mapping: &Mapping,
    state: ResumeState,
    opts: ChaseOptions,
    gov: &Governor,
    sink: Option<&mut dyn CheckpointSink>,
) -> Result<ChaseOutcome, ChaseError> {
    run_exchange(mapping, Start::Resume(state), opts, gov, sink)
}

/// Where [`run_exchange`] begins: a fresh source-to-target exchange, or
/// the middle of phase 2 restored from a checkpoint.
enum Start<'a> {
    Fresh(&'a Instance),
    Resume(ResumeState),
}

fn run_exchange(
    mapping: &Mapping,
    start: Start<'_>,
    opts: ChaseOptions,
    gov: &Governor,
    mut sink: Option<&mut dyn CheckpointSink>,
) -> Result<ChaseOutcome, ChaseError> {
    // Fresh runs start phase 1 below; resumed runs restore the target,
    // the null generator, and the round count, and force their first
    // round to re-match in full (the delta log is process-local).
    let (src_opt, mut target, mut gen, mut rounds, mut full_rematch) = match start {
        Start::Fresh(src) => {
            // Fresh nulls must avoid nulls already in the source.
            let gen = src.null_gen();
            (
                Some(src),
                Instance::empty(mapping.target().clone()),
                gen,
                0usize,
                false,
            )
        }
        Start::Resume(state) => {
            gov.note_rounds(state.rounds);
            (
                None,
                state.target,
                NullGen::starting_at(state.next_null),
                state.rounds as usize,
                true,
            )
        }
    };
    let mut firings = 0usize;
    let nulls_before = gen.clone();
    let mut stats = ChaseStats::default();
    let mode = opts.matcher.mode();
    let src_stats_before = src_opt.map(Instance::index_stats).unwrap_or_default();
    // The target's counters plus the source's since this run started.
    let index_work = |target: &Instance| {
        let src_now = src_opt.map(Instance::index_stats).unwrap_or_default();
        target.index_stats() + (src_now - src_stats_before)
    };

    // On a budget trip: finalize the stats counters and hand back the
    // prefix instance with the governor's report.
    macro_rules! exhaust {
        ($reason:expr, $target:expr) => {{
            let target = $target;
            stats.rounds = rounds;
            stats.note_index(index_work(&target));
            return Ok(ChaseOutcome::Exhausted(Exhausted {
                partial: target,
                report: gov.report($reason),
                stats,
            }));
        }};
    }

    // Report a committed boundary to the sink, if one is attached
    // (`$delta` is evaluated only then). A sink failure aborts the run:
    // the chase must not outrun what it claims to have persisted.
    macro_rules! checkpoint {
        ($round:expr, $delta:expr, $complete:expr) => {
            if let Some(s) = sink.as_deref_mut() {
                s.on_checkpoint(Checkpoint {
                    round: $round,
                    next_null: gen.peek_next(),
                    target: &target,
                    delta: $delta,
                    complete: $complete,
                })
                .map_err(ChaseError::Checkpoint)?;
            }
        };
    }

    // Phase 1: source-to-target (skipped when resuming — its output is
    // already folded into the restored target). The lhs only mentions
    // source relations, so a single pass over all (tgd, match) pairs
    // suffices.
    if let Some(src) = src_opt {
        for tgd in mapping.st_tgds() {
            let rhs_vars: BTreeSet<Name> = tgd.rhs_vars().into_iter().collect();
            for m in match_conjunction_mode(&tgd.lhs, src, mode) {
                // Each firing is an atomic step: a trip between firings
                // hands back a prefix of whole phase-1 chase steps.
                if let Err(reason) = gov.check() {
                    exhaust!(reason, target);
                }
                let frontier: Valuation = m
                    .into_iter()
                    .filter(|(k, _)| rhs_vars.contains(k))
                    .collect();
                if opts.variant == ChaseVariant::Standard
                    && has_match_mode(&tgd.rhs, &target, &frontier, mode)
                {
                    continue;
                }
                fire(tgd, &frontier, &mut target, &mut gen, gov)?;
                firings += 1;
            }
        }
        stats.st_firings = firings;
        // Round 0: the phase-1 output is the base state every later
        // delta record builds on, so it goes to the sink in full.
        checkpoint!(0, None, false);
    }

    // Phase 2: target dependencies to fixpoint.
    let semi_naive = opts.matcher == Matcher::Indexed;
    loop {
        // Tuples inserted since the previous round (round 1 sees the
        // phase-1 output). Drained in both modes so logs stay bounded.
        let delta: BTreeMap<Name, Vec<Tuple>> = target.drain_deltas().into_iter().collect();
        stats.delta_sizes.push(delta.values().map(Vec::len).sum());

        // Collect this round's firing obligations against the
        // round-start instance, then sort them canonically so the
        // firing (and hence null allocation) order is independent of
        // how the matches were enumerated (so they are enumerated
        // unordered).
        let use_delta = semi_naive && !full_rematch;
        let mut pending: Vec<(usize, Valuation)> = Vec::new();
        for (ti, tgd) in mapping.target_tgds().iter().enumerate() {
            // Matching is read-only, so a trip here returns the intact
            // round-start instance (the last committed boundary).
            if let Err(reason) = gov.check() {
                exhaust!(reason, target);
            }
            let rhs_vars: BTreeSet<Name> = tgd.rhs_vars().into_iter().collect();
            let matches: Vec<Valuation> = if use_delta {
                delta_matches(&tgd.lhs, &target, &delta, mode)
            } else {
                extend_matches_unordered(&tgd.lhs, &target, &Valuation::new(), mode)
            };
            for m in matches {
                let frontier: Valuation = m
                    .into_iter()
                    .filter(|(k, _)| rhs_vars.contains(k))
                    .collect();
                pending.push((ti, frontier));
            }
        }
        pending.sort();

        let mut round_firings = 0usize;
        for (ti, frontier) in pending {
            // A trip mid-round rolls the round back to its start: the
            // delta log holds exactly this round's insertions, so the
            // rollback restores the last committed boundary.
            if let Err(reason) = gov.check() {
                rollback_round(&mut target);
                exhaust!(reason, target);
            }
            let tgd = &mapping.target_tgds()[ti];
            // Re-check against the live instance: an earlier firing
            // this round (or a semi-naive duplicate derivation of the
            // same match) may already satisfy this obligation.
            if has_match_mode(&tgd.rhs, &target, &frontier, mode) {
                continue;
            }
            fire(tgd, &frontier, &mut target, &mut gen, gov)?;
            round_firings += 1;
        }
        stats.firings_per_round.push(round_firings);
        firings += round_firings;

        // Target egds: equate values, merging nulls or failing on
        // distinct constants. No budget checks inside this block: egd
        // enforcement provably terminates (each merge eliminates a
        // labeled null), and skipping checks here is what guarantees
        // every phase-2 partial is a fully egd-enforced boundary. The
        // deadline overshoot is bounded by one round's egd work.
        let mut round_merged = false;
        for egd in mapping.target_egds() {
            let merges = chase_one_egd(egd, &mut target, mode)?;
            firings += merges;
            round_merged |= merges > 0;
        }
        full_rematch = round_merged;

        if round_firings == 0 && !round_merged {
            // Fixpoint: mark the last committed boundary complete so a
            // durable sink can distinguish "done" from "interrupted".
            checkpoint!(rounds as u64, Some(Vec::new()), true);
            break;
        }
        rounds += 1;
        gov.note_round();
        // The round is committed (firings + egds): hand it to the sink
        // *before* the budget checks below, so even a round that trips
        // the governor is durably resumable. Substitution wiped the
        // delta logs on merge rounds, so those checkpoint in full. The
        // delta is only materialized when a sink is attached.
        checkpoint!(
            rounds as u64,
            (!round_merged).then(|| target.peek_deltas()),
            false
        );
        if gov.round_limit_hit() {
            exhaust!(TripReason::Rounds, target);
        }
        if let Err(reason) = gov.check() {
            exhaust!(reason, target);
        }
    }
    stats.rounds = rounds;
    stats.note_index(index_work(&target));

    let nulls_created = count_new_nulls(&nulls_before, &gen);
    Ok(ChaseOutcome::Complete(ExchangeResult {
        target,
        nulls_created,
        firings,
        stats,
    }))
}

/// Semi-naive premise matching: every match of `atoms` over `inst`
/// that uses at least one delta tuple, found by pinning each atom
/// occurrence to each delta tuple of its relation and extending the
/// remaining atoms. Matches touching several delta tuples are derived
/// once per touch; the caller's satisfaction re-check deduplicates.
/// They come back unordered: the caller sorts them.
fn delta_matches(
    atoms: &[Atom],
    inst: &Instance,
    delta: &BTreeMap<Name, Vec<Tuple>>,
    mode: MatchMode,
) -> Vec<Valuation> {
    let mut out = Vec::new();
    for (i, atom) in atoms.iter().enumerate() {
        let Some(new_tuples) = delta.get(&atom.relation) else {
            continue;
        };
        let rest: Vec<Atom> = atoms
            .iter()
            .enumerate()
            .filter(|&(j, _)| j != i)
            .map(|(_, a)| a.clone())
            .collect();
        for t in new_tuples {
            if let Some(seed) = unify_with_tuple(atom, t, &Valuation::new()) {
                out.extend(extend_matches_unordered(&rest, inst, &seed, mode));
            }
        }
    }
    out
}

/// Chase one egd to its local fixpoint in place: find the first
/// violating premise match, merge its null with the value it is
/// equated to, and look again (one merge at a time). Returns the
/// number of merges applied.
///
/// Which match comes first depends only on the instance's facts:
/// relations enumerate in canonical content order, whatever rows the
/// merges tombstoned. Merging empties the delta logs, as the old
/// rebuild did, since deltas cannot express a rewrite: the round
/// checkpoints in full and the next round re-matches in full.
fn chase_one_egd(
    egd: &dex_logic::Egd,
    target: &mut Instance,
    mode: MatchMode,
) -> Result<usize, ChaseError> {
    let mut merges = 0usize;
    loop {
        let mut step = Ok(None);
        for_each_match_mode(&egd.lhs, target, &Valuation::new(), mode, &mut |m| {
            step = egd_violation(egd, m);
            !matches!(step, Ok(None))
        });
        let Some((null, value)) = step? else {
            if merges > 0 {
                target.drain_deltas();
            }
            return Ok(merges);
        };
        target.substitute_nulls_in_place(&BTreeMap::from([(null, value)]));
        merges += 1;
    }
}

/// The merge a premise match forces: the null of the first equality
/// whose sides differ and the value it must become, `None` when every
/// equality holds, or the failure when two distinct constants meet.
fn egd_violation(
    egd: &dex_logic::Egd,
    m: &Valuation,
) -> Result<Option<(NullId, Value)>, ChaseError> {
    for (a, b) in &egd.equalities {
        let va = term_value(a, m, egd)?;
        let vb = term_value(b, m, egd)?;
        match (va, vb) {
            (va, vb) if va == vb => {}
            (Value::Null(n), v) | (v, Value::Null(n)) => return Ok(Some((n, v))),
            (va, vb) => {
                return Err(ChaseError::EgdFailure {
                    egd: egd.to_string(),
                    left: va.to_string(),
                    right: vb.to_string(),
                })
            }
        }
    }
    Ok(None)
}

/// Chase a set of egds over an instance to fixpoint (merging nulls;
/// failing when two distinct constants are forced equal). This is the
/// standalone entry point used by the lens engine to enforce target
/// keys after a forward pass.
pub fn enforce_egds(inst: &Instance, egds: &[dex_logic::Egd]) -> Result<Instance, ChaseError> {
    Ok(enforce_egds_with(inst, egds)?.0)
}

/// Counters from one [`enforce_egds_with`] run.
#[derive(Clone, Copy, Debug, Default)]
pub struct EgdStats {
    /// Fixpoint rounds taken (including the final no-op round).
    pub rounds: usize,
    /// Null merges applied across all rounds.
    pub merges: usize,
    /// Index structures (re)built while matching egd premises.
    pub index_builds: u64,
    /// Index probes served while matching egd premises.
    pub index_probes: u64,
}

/// Like [`enforce_egds`], but also reports fixpoint rounds, merges, and
/// index build/probe counters — the observability hook behind
/// `Engine::forward_with_stats`.
pub fn enforce_egds_with(
    inst: &Instance,
    egds: &[dex_logic::Egd],
) -> Result<(Instance, EgdStats), ChaseError> {
    match enforce_egds_governed(inst, egds, &Governor::unlimited())? {
        EgdOutcome::Complete { instance, stats } => Ok((instance, stats)),
        // Unreachable with an unlimited governor; collapse defensively.
        EgdOutcome::Exhausted(e) => Err(ChaseError::Exhausted(Box::new(e))),
    }
}

/// The outcome of a governed egd-enforcement run.
#[derive(Clone, Debug)]
#[allow(clippy::large_enum_variant)]
pub enum EgdOutcome {
    /// Reached the egd fixpoint within budget.
    Complete {
        /// The enforced instance.
        instance: Instance,
        /// Counters for the run.
        stats: EgdStats,
    },
    /// A budget or cancellation stopped enforcement early. The partial
    /// instance is a prefix of whole egd-enforcement steps (each step
    /// chases one egd to its local fixpoint); its `stats` carry the
    /// committed rounds and index counters.
    Exhausted(Exhausted),
}

impl EgdOutcome {
    /// Collapse into a plain `Result`, turning exhaustion into
    /// [`ChaseError::Exhausted`].
    pub fn into_result(self) -> Result<(Instance, EgdStats), ChaseError> {
        match self {
            EgdOutcome::Complete { instance, stats } => Ok((instance, stats)),
            EgdOutcome::Exhausted(e) => Err(ChaseError::Exhausted(Box::new(e))),
        }
    }
}

/// Enforce egds under a resource budget and/or cancellation token.
///
/// Identical to [`enforce_egds_with`] on the untripped path. The
/// governor is checked between egd steps (each step chases one egd to
/// its local fixpoint, which always terminates: every merge eliminates
/// a labeled null), so an exhausted run hands back an instance that is
/// a valid prefix of the egd chase — some egds enforced, none applied
/// halfway.
pub fn enforce_egds_governed(
    inst: &Instance,
    egds: &[dex_logic::Egd],
    gov: &Governor,
) -> Result<EgdOutcome, ChaseError> {
    // The clone starts with zeroed index counters, so the instance's
    // final counters are exactly this run's work.
    let mut target = inst.clone();
    let mut stats = EgdStats::default();
    macro_rules! exhaust {
        ($reason:expr) => {{
            let mut chase_stats = ChaseStats {
                rounds: stats.rounds,
                ..ChaseStats::default()
            };
            chase_stats.note_index(target.index_stats());
            return Ok(EgdOutcome::Exhausted(Exhausted {
                report: gov.report($reason),
                stats: chase_stats,
                partial: target,
            }));
        }};
    }
    loop {
        let mut changed = false;
        for egd in egds {
            if let Err(reason) = gov.check() {
                exhaust!(reason);
            }
            let merges = chase_one_egd(egd, &mut target, MatchMode::default())?;
            stats.merges += merges;
            changed |= merges > 0;
        }
        if !changed {
            stats.rounds += 1;
            let index = target.index_stats();
            stats.index_builds = index.builds;
            stats.index_probes = index.probes;
            return Ok(EgdOutcome::Complete {
                instance: target,
                stats,
            });
        }
        stats.rounds += 1;
        gov.note_round();
        if gov.round_limit_hit() {
            exhaust!(TripReason::Rounds);
        }
    }
}

fn count_new_nulls(before: &NullGen, after: &NullGen) -> usize {
    // NullGen is a counter; expose the difference via fresh ids.
    let mut b = before.clone();
    let mut a = after.clone();
    (a.fresh_id().0 - b.fresh_id().0) as usize
}

/// Undo an uncommitted phase-2 round: the delta log holds exactly the
/// tuples this round genuinely inserted (it was drained at round
/// start), so removing them restores the round-start instance.
fn rollback_round(target: &mut Instance) {
    for (rel, tuples) in target.drain_deltas() {
        for t in &tuples {
            // The tuple was inserted this round into a known relation,
            // so removal cannot fail; ignore the yes/no result.
            let _ = target.remove(rel.as_str(), t);
        }
    }
}

/// Typed error for an rhs atom whose instantiation failed: name the
/// first variable the (existential-extended) valuation does not bind.
fn unbound_in_atom(atom: &Atom, v: &Valuation, tgd: &StTgd) -> ChaseError {
    let var = atom
        .variables()
        .into_iter()
        .find(|x| !v.contains_key(x))
        .unwrap_or_else(|| Name::new("?"));
    ChaseError::UnboundVariable {
        var,
        dependency: tgd.to_string(),
    }
}

/// Evaluate one side of an egd equality under a premise match,
/// surfacing a typed error (not a panic) when the equality mentions a
/// variable the egd's premise never binds. Parse-time validation
/// rejects such egds in `.dex` sources; this guards programmatically
/// constructed ones.
fn term_value(t: &Term, m: &Valuation, egd: &dex_logic::Egd) -> Result<Value, ChaseError> {
    t.eval(m).ok_or_else(|| {
        let mut vars = Vec::new();
        t.collect_vars(&mut vars);
        let var = vars
            .into_iter()
            .find(|x| !m.contains_key(x))
            .unwrap_or_else(|| Name::new("?"));
        ChaseError::UnboundVariable {
            var,
            dependency: egd.to_string(),
        }
    })
}

/// Fire one tgd for one frontier valuation: extend the valuation with
/// fresh nulls for the existential variables and insert the rhs facts,
/// batched per relation and logged as deltas for the semi-naive
/// rounds. Consumption (fresh nulls, new tuples, approximate bytes) is
/// accounted against `gov`; the budget itself is checked by the caller
/// between firings, never mid-firing.
fn fire(
    tgd: &StTgd,
    frontier: &Valuation,
    target: &mut Instance,
    gen: &mut NullGen,
    gov: &Governor,
) -> Result<(), ChaseError> {
    let mut v = frontier.clone();
    let existentials = tgd.existential_vars();
    gov.note_nulls(existentials.len());
    for y in existentials {
        v.insert(y, gen.fresh());
    }
    let mut by_rel: BTreeMap<&Name, Vec<Tuple>> = BTreeMap::new();
    for atom in &tgd.rhs {
        let t = atom
            .instantiate(&v)
            .ok_or_else(|| unbound_in_atom(atom, &v, tgd))?;
        by_rel.entry(&atom.relation).or_default().push(t);
    }
    // Fault-injection site: placed before any insertion, so an
    // injected fault leaves the target instance unmodified.
    dex_relational::fail_point!("chase.fire");
    if gov.tracks_memory() {
        let bytes: usize = by_rel.values().flatten().map(Tuple::approx_bytes).sum();
        gov.note_bytes(bytes);
    }
    for (rel, ts) in by_rel {
        let added = target
            .relation_mut(rel.as_str())
            .ok_or_else(|| RelationalError::UnknownRelation(rel.clone()))?
            .extend_validated_delta(ts)?;
        gov.note_tuples(added);
    }
    Ok(())
}

/// Check that `solution` is universal for `src` under `mapping` by
/// verifying (i) it is a solution, and (ii) it maps homomorphically into
/// `other` for each provided solution. (Used by tests; universality
/// against *all* solutions is a theorem about the chase, checked here
/// against sampled ones.)
pub fn maps_into_all<'a>(
    solution: &Instance,
    others: impl IntoIterator<Item = &'a Instance>,
) -> bool {
    others
        .into_iter()
        .all(|o| dex_relational::is_homomorphic_to(solution, o))
}

/// The set of valuations of `atoms` over `inst` extended by `partial` —
/// re-exported convenience for downstream crates building on chase
/// internals.
pub fn matches_with(
    atoms: &[dex_logic::Atom],
    inst: &Instance,
    partial: &Valuation,
) -> Vec<Valuation> {
    extend_matches(atoms, inst, partial)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dex_logic::{parse_mapping, Atom};
    use dex_relational::{tuple, RelSchema, Schema, Tuple};

    fn example1_mapping() -> Mapping {
        parse_mapping(
            r#"
            source Emp(name);
            target Manager(emp, mgr);
            Emp(x) -> Manager(x, y);
            "#,
        )
        .unwrap()
    }

    fn emp_instance(names: &[&str]) -> Instance {
        Instance::with_facts(
            example1_mapping().source().clone(),
            vec![("Emp", names.iter().map(|n| tuple![*n]).collect())],
        )
        .unwrap()
    }

    fn scan_opts() -> ChaseOptions {
        ChaseOptions {
            matcher: Matcher::Scan,
            ..Default::default()
        }
    }

    /// Paper Example 1: the chase produces J* with one fresh null per
    /// employee.
    #[test]
    fn example1_chase_produces_j_star() {
        let m = example1_mapping();
        let src = emp_instance(&["Alice", "Bob"]);
        let res = exchange(&m, &src).unwrap();
        assert_eq!(res.target.fact_count(), 2);
        assert_eq!(res.nulls_created, 2);
        assert_eq!(res.firings, 2);
        // Every tuple pairs a constant employee with a null manager.
        let rel = res.target.relation("Manager").unwrap();
        for t in rel.iter() {
            assert!(t[0].is_const());
            assert!(t[1].is_null());
        }
        // It is a solution and maps into the paper's J1 and J2.
        assert!(m.is_solution(&src, &res.target));
        let j1 = Instance::with_facts(
            m.target().clone(),
            vec![(
                "Manager",
                vec![tuple!["Alice", "Alice"], tuple!["Bob", "Alice"]],
            )],
        )
        .unwrap();
        let j2 = Instance::with_facts(
            m.target().clone(),
            vec![(
                "Manager",
                vec![tuple!["Alice", "Bob"], tuple!["Bob", "Ted"]],
            )],
        )
        .unwrap();
        assert!(maps_into_all(&res.target, [&j1, &j2]));
    }

    #[test]
    fn standard_chase_skips_satisfied_matches() {
        // Two tgds with the same rhs requirement: the second pass adds
        // nothing under the standard chase.
        let m = parse_mapping(
            r#"
            source E1(name);
            source E2(name);
            target T(name, info);
            E1(x) -> T(x, y);
            E2(x) -> T(x, y);
            "#,
        )
        .unwrap();
        let mut src = Instance::empty(m.source().clone());
        src.insert("E1", tuple!["a"]).unwrap();
        src.insert("E2", tuple!["a"]).unwrap();
        let std = exchange_with(&m, &src, ChaseOptions::default()).unwrap();
        assert_eq!(std.target.fact_count(), 1, "second firing suppressed");
        let obl = exchange_with(
            &m,
            &src,
            ChaseOptions {
                variant: ChaseVariant::Oblivious,
                ..Default::default()
            },
        )
        .unwrap();
        assert_eq!(obl.target.fact_count(), 2, "oblivious fires twice");
        // Both are universal solutions: homomorphically equivalent.
        assert!(dex_relational::homomorphism::homomorphically_equivalent(
            &std.target,
            &obl.target
        ));
    }

    #[test]
    fn figure1_university_exchange() {
        let m = parse_mapping(
            r#"
            source Takes(name, course);
            target Student(id, name);
            target Assgn(name, course);
            Takes(x, y) -> Student(z, x) & Assgn(x, y);
            "#,
        )
        .unwrap();
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
        let res = exchange(&m, &src).unwrap();
        // Three Assgn facts; Student facts: standard chase checks whether
        // ∃z Student(z, name) ∧ Assgn(name, course) already holds per
        // (name, course) pair, so Alice gets ids possibly shared.
        assert_eq!(res.target.relation("Assgn").unwrap().len(), 3);
        assert!(res.target.relation("Student").unwrap().len() >= 2);
        assert!(m.is_solution(&src, &res.target));
    }

    #[test]
    fn target_tgd_chases_to_fixpoint() {
        // R(x) -> S(x); target: S(x) -> T(x).
        let m = parse_mapping(
            r#"
            source R(a);
            target S(a);
            target T(a);
            R(x) -> S(x);
            S(x) -> T(x);
            "#,
        )
        .unwrap();
        let src = Instance::with_facts(m.source().clone(), vec![("R", vec![tuple!["v"]])]).unwrap();
        let res = exchange(&m, &src).unwrap();
        assert!(res.target.contains("S", &tuple!["v"]));
        assert!(res.target.contains("T", &tuple!["v"]));
    }

    #[test]
    fn egd_merges_nulls() {
        // Emp -> Manager with key(emp): two tgds give Alice two null
        // managers; the key merges them.
        let m = parse_mapping(
            r#"
            source E1(name);
            source E2(name);
            target Manager(emp, mgr);
            key Manager(emp);
            E1(x) -> Manager(x, y);
            E2(x) -> Manager(x, y);
            "#,
        )
        .unwrap();
        let mut src = Instance::empty(m.source().clone());
        src.insert("E1", tuple!["Alice"]).unwrap();
        src.insert("E2", tuple!["Alice"]).unwrap();
        // Oblivious chase to force two distinct nulls first.
        let res = exchange_with(
            &m,
            &src,
            ChaseOptions {
                variant: ChaseVariant::Oblivious,
                ..Default::default()
            },
        )
        .unwrap();
        assert_eq!(
            res.target.relation("Manager").unwrap().len(),
            1,
            "egd merged the two null-managed facts"
        );
        assert!(m.is_solution(&src, &res.target));
    }

    #[test]
    fn egd_resolves_null_to_constant() {
        let m = parse_mapping(
            r#"
            source E(name);
            source Boss(name, boss);
            target Manager(emp, mgr);
            key Manager(emp);
            E(x) -> Manager(x, y);
            Boss(x, b) -> Manager(x, b);
            "#,
        )
        .unwrap();
        let mut src = Instance::empty(m.source().clone());
        src.insert("E", tuple!["Alice"]).unwrap();
        src.insert("Boss", tuple!["Alice", "Ted"]).unwrap();
        let res = exchange_with(
            &m,
            &src,
            ChaseOptions {
                variant: ChaseVariant::Oblivious,
                ..Default::default()
            },
        )
        .unwrap();
        let rel = res.target.relation("Manager").unwrap();
        assert_eq!(rel.len(), 1);
        assert!(
            rel.contains(&tuple!["Alice", "Ted"]),
            "null resolved to Ted"
        );
    }

    #[test]
    fn egd_failure_on_distinct_constants() {
        let m = parse_mapping(
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
        let mut src = Instance::empty(m.source().clone());
        src.insert("B1", tuple!["Alice", "Ted"]).unwrap();
        src.insert("B2", tuple!["Alice", "Bob"]).unwrap();
        let err = exchange(&m, &src).unwrap_err();
        assert!(matches!(err, ChaseError::EgdFailure { .. }));
    }

    #[test]
    fn non_terminating_target_tgd_hits_limit() {
        // target: S(x) -> S(y) with fresh y each time — not weakly
        // acyclic, never reaches fixpoint under the standard chase?
        // (Standard chase: S(x) -> ∃y S(y) is satisfied once any S fact
        // exists, so it *does* terminate. Use a two-relation ping-pong
        // that keeps inventing values instead.)
        let m = parse_mapping(
            r#"
            source R(a);
            target S(a, b);
            R(x) -> S(x, y);
            S(x, y) -> S(y, z);
            "#,
        )
        .unwrap();
        let src = Instance::with_facts(m.source().clone(), vec![("R", vec![tuple!["v"]])]).unwrap();
        for matcher in [Matcher::Indexed, Matcher::Scan] {
            let gov = Governor::new(Budget::unlimited().with_max_rounds(25));
            let err = exchange_governed(
                &m,
                &src,
                ChaseOptions {
                    variant: ChaseVariant::Standard,
                    matcher,
                },
                &gov,
            )
            .unwrap()
            .into_result()
            .unwrap_err();
            // The round limit no longer discards the work: the error
            // carries the partial prefix and a consumption report.
            match err {
                ChaseError::Exhausted(e) => {
                    assert_eq!(e.report.reason, TripReason::Rounds);
                    assert_eq!(e.report.rounds_committed, 26, "trips past max_rounds");
                    assert!(!e.partial.is_empty(), "partial prefix survives");
                }
                other => panic!("expected Exhausted, got {other:?}"),
            }
        }
    }

    #[test]
    fn source_nulls_do_not_collide_with_fresh_ones() {
        let m = example1_mapping();
        let mut src = Instance::empty(m.source().clone());
        src.insert("Emp", Tuple::new(vec![Value::null(0)])).unwrap();
        let res = exchange(&m, &src).unwrap();
        let mut nulls = BTreeSet::new();
        for (_, t) in res.target.facts() {
            t.collect_nulls(&mut nulls);
        }
        assert_eq!(nulls.len(), 2, "source null + one fresh manager null");
    }

    /// The acceptance property of the refactor: the indexed semi-naive
    /// chase produces the literal instance (same tuples, same null
    /// allocation order) as the full-scan naive oracle.
    #[test]
    fn indexed_semi_naive_equals_scan_oracle() {
        let cases = [
            // Chained target tgds.
            (
                r#"
                source R(a);
                target S(a);
                target T(a, b);
                target U(b);
                R(x) -> S(x);
                S(x) -> T(x, y);
                T(x, y) -> U(y);
                "#,
                vec![("R", vec![tuple!["a"], tuple!["b"], tuple!["c"]])],
            ),
            // Target join premise.
            (
                r#"
                source E(p, c);
                target P(p, c);
                target G(a, c);
                E(x, y) -> P(x, y);
                P(x, y) & P(y, z) -> G(x, z);
                "#,
                vec![(
                    "E",
                    vec![tuple!["a", "b"], tuple!["b", "c"], tuple!["c", "d"]],
                )],
            ),
            // Egds interleaved with target tgds.
            (
                r#"
                source E1(name);
                source E2(name);
                target Manager(emp, mgr);
                target Peer(mgr);
                key Manager(emp);
                E1(x) -> Manager(x, y);
                E2(x) -> Manager(x, y);
                Manager(x, y) -> Peer(y);
                "#,
                vec![
                    ("E1", vec![tuple!["Alice"], tuple!["Bob"]]),
                    ("E2", vec![tuple!["Alice"], tuple!["Carol"]]),
                ],
            ),
        ];
        for (text, facts) in cases {
            let m = parse_mapping(text).unwrap();
            for variant in [ChaseVariant::Standard, ChaseVariant::Oblivious] {
                let src = Instance::with_facts(m.source().clone(), facts.clone()).unwrap();
                let indexed = exchange_with(
                    &m,
                    &src,
                    ChaseOptions {
                        variant,
                        ..Default::default()
                    },
                )
                .unwrap();
                let scan = exchange_with(
                    &m,
                    &src,
                    ChaseOptions {
                        variant,
                        matcher: Matcher::Scan,
                    },
                )
                .unwrap();
                assert_eq!(
                    indexed.target, scan.target,
                    "literal equality, {variant:?}: {text}"
                );
                assert_eq!(indexed.firings, scan.firings);
                assert_eq!(indexed.nulls_created, scan.nulls_created);
            }
        }
    }

    /// Regression: once the delta runs dry the semi-naive loop exits
    /// without another full re-match, and the recorded delta sizes
    /// shrink to zero.
    #[test]
    fn empty_delta_exits_fixpoint() {
        let m = parse_mapping(
            r#"
            source R(a);
            target S(a);
            target T(a);
            R(x) -> S(x);
            S(x) -> T(x);
            "#,
        )
        .unwrap();
        let src = Instance::with_facts(
            m.source().clone(),
            vec![("R", vec![tuple!["u"], tuple!["v"]])],
        )
        .unwrap();
        let res = exchange(&m, &src).unwrap();
        let stats = &res.stats;
        assert_eq!(stats.st_firings, 2);
        // Round 1: delta = 2 S-facts, fires 2 T-facts. Round 2: delta =
        // 2 T-facts, nothing left to fire — the fixpoint round.
        assert_eq!(stats.delta_sizes, vec![2, 2]);
        assert_eq!(stats.firings_per_round, vec![2, 0]);
        assert_eq!(stats.rounds, 1);
        // Every conclusion here is fully bound: indexed mode answers
        // each re-check with a membership check.
        assert!(
            stats.membership_checks > 0,
            "indexed mode checked membership"
        );
        // Scan oracle: same instance, no probes, no membership checks.
        let scan = exchange_with(&m, &src, scan_opts()).unwrap();
        assert_eq!(scan.target, res.target);
        assert_eq!(scan.stats.index_probes, 0);
        assert_eq!(scan.stats.membership_checks, 0);
    }

    #[test]
    fn empty_source_empty_target() {
        let m = example1_mapping();
        let res = exchange(&m, &Instance::empty(m.source().clone())).unwrap();
        assert!(res.target.is_empty());
        assert_eq!(res.nulls_created, 0);
    }

    #[test]
    fn constants_in_tgds_propagate() {
        let m = parse_mapping(
            r#"
            source R(a);
            target S(a, tag);
            R(x) -> S(x, 'imported');
            "#,
        )
        .unwrap();
        let src = Instance::with_facts(m.source().clone(), vec![("R", vec![tuple!["v"]])]).unwrap();
        let res = exchange(&m, &src).unwrap();
        assert!(res.target.contains("S", &tuple!["v", "imported"]));
    }

    #[test]
    fn matches_with_reexport() {
        let _m = example1_mapping();
        let src = emp_instance(&["Alice"]);
        let ms = matches_with(&[Atom::vars("Emp", &["x"])], &src, &Valuation::new());
        assert_eq!(ms.len(), 1);
        let _ = Schema::with_relations(vec![RelSchema::untyped("X", vec!["a"]).unwrap()]);
    }

    // ---- resource governance ----

    use dex_relational::{Budget, CancelToken};

    /// A mapping whose target chase never terminates: each round keeps
    /// inventing one fresh null (S ping-pongs into itself).
    fn ping_pong() -> (Mapping, Instance) {
        let m = parse_mapping(
            r#"
            source R(a);
            target S(a, b);
            R(x) -> S(x, y);
            S(x, y) -> S(y, z);
            "#,
        )
        .unwrap();
        let src = Instance::with_facts(m.source().clone(), vec![("R", vec![tuple!["v"]])]).unwrap();
        (m, src)
    }

    fn expect_exhausted(outcome: ChaseOutcome) -> Exhausted {
        match outcome {
            ChaseOutcome::Exhausted(e) => e,
            ChaseOutcome::Complete(_) => panic!("expected an exhausted outcome"),
        }
    }

    #[test]
    fn untripped_governed_run_equals_ungoverned() {
        let m = example1_mapping();
        let src = emp_instance(&["Alice", "Bob", "Carol"]);
        let plain = exchange(&m, &src).unwrap();
        let gov = Governor::new(
            Budget::unlimited()
                .with_max_rounds(1_000)
                .with_max_tuples(1_000)
                .with_max_nulls(1_000)
                .with_deadline(std::time::Duration::from_secs(60)),
        );
        let governed = match exchange_governed(&m, &src, ChaseOptions::default(), &gov).unwrap() {
            ChaseOutcome::Complete(r) => r,
            ChaseOutcome::Exhausted(e) => panic!("generous budget tripped: {}", e.report),
        };
        assert_eq!(plain.target, governed.target);
        assert_eq!(plain.firings, governed.firings);
        assert_eq!(plain.nulls_created, governed.nulls_created);
        assert_eq!(plain.stats, governed.stats);
    }

    /// Each single budget dimension stops the non-terminating chase
    /// with its own trip reason and a non-empty, well-formed partial.
    #[test]
    fn every_budget_dimension_trips_ping_pong() {
        let budgets = [
            (
                Budget::unlimited().with_deadline(std::time::Duration::from_millis(30)),
                TripReason::Deadline,
            ),
            (Budget::unlimited().with_max_rounds(8), TripReason::Rounds),
            (Budget::unlimited().with_max_tuples(7), TripReason::Tuples),
            (Budget::unlimited().with_max_nulls(5), TripReason::Nulls),
            (Budget::unlimited().with_max_memory(600), TripReason::Memory),
        ];
        let (m, src) = ping_pong();
        for (budget, want) in budgets {
            let gov = Governor::new(budget);
            let e = expect_exhausted(
                exchange_governed(&m, &src, ChaseOptions::default(), &gov).unwrap(),
            );
            assert_eq!(e.report.reason, want);
            assert!(!e.partial.is_empty(), "{want:?}: partial survives");
            // Well-formed: every fact chains off the original source
            // value through labeled nulls (arity checked on insert).
            assert!(!e.partial.relation("S").unwrap().is_empty());
            assert_eq!(e.stats.rounds as u64, e.report.rounds_committed);
        }
    }

    /// The replay property pinning down "valid chase prefix": a run
    /// tripped mid-flight by a tuple budget at R committed rounds
    /// hands back *exactly* the instance a rounds-budget run capped at
    /// R-1 produces — i.e. the partial is a genuine round boundary.
    #[test]
    fn tripped_partial_replays_as_round_boundary() {
        let (m, src) = ping_pong();
        let gov = Governor::new(Budget::unlimited().with_max_tuples(7));
        let e =
            expect_exhausted(exchange_governed(&m, &src, ChaseOptions::default(), &gov).unwrap());
        assert_eq!(e.report.reason, TripReason::Tuples);
        let r = e.report.rounds_committed;
        assert!(r >= 1, "budget chosen to survive past round 1");

        let replay_gov = Governor::new(Budget::unlimited().with_max_rounds(r - 1));
        let replay = expect_exhausted(
            exchange_governed(&m, &src, ChaseOptions::default(), &replay_gov).unwrap(),
        );
        assert_eq!(replay.report.reason, TripReason::Rounds);
        assert_eq!(replay.report.rounds_committed, r);
        assert_eq!(replay.partial, e.partial, "same committed boundary");
    }

    /// A phase-1 trip hands back a strict prefix of the full phase-1
    /// output: a subinstance of the untripped target.
    #[test]
    fn phase1_trip_partial_is_subinstance() {
        let m = example1_mapping();
        let src = emp_instance(&["Alice", "Bob", "Carol", "Dave"]);
        let full = exchange(&m, &src).unwrap();
        let gov = Governor::new(Budget::unlimited().with_max_tuples(1));
        let e =
            expect_exhausted(exchange_governed(&m, &src, ChaseOptions::default(), &gov).unwrap());
        assert_eq!(e.report.reason, TripReason::Tuples);
        assert_eq!(e.report.rounds_committed, 0);
        assert!(e.partial.fact_count() < full.target.fact_count());
        assert!(
            e.partial.is_subinstance_of(&full.target),
            "phase-1 prefix: same firing order, same null allocation"
        );
    }

    /// Phase-2 partials are egd-enforced: trips happen only at round
    /// boundaries (after that round's egds), so target keys hold on
    /// the partial even though the chase was cut short.
    #[test]
    fn tripped_partial_satisfies_target_egds() {
        let m = parse_mapping(
            r#"
            source E1(name);
            source E2(name);
            target Manager(emp, mgr);
            target Peer(mgr);
            key Manager(emp);
            E1(x) -> Manager(x, y);
            E2(x) -> Manager(x, y);
            Manager(x, y) -> Peer(y);
            "#,
        )
        .unwrap();
        let src = Instance::with_facts(
            m.source().clone(),
            vec![
                ("E1", vec![tuple!["Alice"], tuple!["Bob"]]),
                ("E2", vec![tuple!["Alice"], tuple!["Carol"]]),
            ],
        )
        .unwrap();
        let opts = ChaseOptions {
            variant: ChaseVariant::Oblivious,
            ..Default::default()
        };
        let gov = Governor::new(Budget::unlimited().with_max_rounds(1));
        match exchange_governed(&m, &src, opts, &gov).unwrap() {
            ChaseOutcome::Exhausted(e) => {
                for egd in m.target_egds() {
                    assert!(egd.satisfied_by(&e.partial), "partial violates {egd}");
                }
            }
            // The mapping terminates quickly; if it fits in the budget
            // the complete result trivially satisfies the egds.
            ChaseOutcome::Complete(r) => {
                assert!(m.target_egds().iter().all(|e| e.satisfied_by(&r.target)));
            }
        }
    }

    #[test]
    fn pre_cancelled_token_stops_before_any_work() {
        let (m, src) = ping_pong();
        let token = CancelToken::new();
        token.cancel();
        let gov = Governor::unlimited().with_cancel(token);
        let e =
            expect_exhausted(exchange_governed(&m, &src, ChaseOptions::default(), &gov).unwrap());
        assert_eq!(e.report.reason, TripReason::Cancelled);
        assert!(e.partial.is_empty(), "cancelled before the first firing");
        assert_eq!(e.report.tuples_derived, 0);
    }

    #[test]
    fn cancellation_from_another_thread_stops_the_chase() {
        let (m, src) = ping_pong();
        let token = CancelToken::new();
        let gov = Governor::unlimited().with_cancel(token.clone());
        let canceller = std::thread::spawn(move || {
            std::thread::sleep(std::time::Duration::from_millis(20));
            token.cancel();
        });
        // Without the token this chase never terminates.
        let e =
            expect_exhausted(exchange_governed(&m, &src, ChaseOptions::default(), &gov).unwrap());
        canceller.join().expect("canceller thread panicked");
        assert_eq!(e.report.reason, TripReason::Cancelled);
        assert!(!e.partial.is_empty());
    }

    #[test]
    fn governed_egd_enforcement_trips_on_rounds() {
        // Chain of keyed relations so enforcement takes several merges.
        let m = parse_mapping(
            r#"
            source E1(name);
            source E2(name);
            target Manager(emp, mgr);
            key Manager(emp);
            E1(x) -> Manager(x, y);
            E2(x) -> Manager(x, y);
            "#,
        )
        .unwrap();
        let mut src = Instance::empty(m.source().clone());
        src.insert("E1", tuple!["Alice"]).unwrap();
        src.insert("E2", tuple!["Alice"]).unwrap();
        let res = exchange_with(
            &m,
            &src,
            ChaseOptions {
                variant: ChaseVariant::Oblivious,
                ..Default::default()
            },
        )
        .unwrap();

        // Re-enforcing on the solved instance completes in one round.
        let gov = Governor::new(Budget::unlimited().with_max_rounds(5));
        match enforce_egds_governed(&res.target, mapping_egds(&m), &gov).unwrap() {
            EgdOutcome::Complete { instance, .. } => assert_eq!(instance, res.target),
            EgdOutcome::Exhausted(e) => panic!("unexpected trip: {}", e.report),
        }

        // A pre-cancelled token exhausts before touching anything.
        let token = CancelToken::new();
        token.cancel();
        let gov = Governor::unlimited().with_cancel(token);
        match enforce_egds_governed(&res.target, mapping_egds(&m), &gov).unwrap() {
            EgdOutcome::Exhausted(e) => {
                assert_eq!(e.report.reason, TripReason::Cancelled);
                assert_eq!(e.partial, res.target, "inputs untouched");
            }
            EgdOutcome::Complete { .. } => panic!("cancelled run completed"),
        }
    }

    fn mapping_egds(m: &Mapping) -> &[dex_logic::Egd] {
        m.target_egds()
    }

    // ---- checkpointing & resume ----

    /// One recorded boundary: round, null-generator position, owned
    /// state, whether the round came as a delta, completion flag.
    struct Boundary {
        round: u64,
        next_null: u64,
        state: Instance,
        as_delta: bool,
        complete: bool,
    }

    /// A sink that keeps every boundary and verifies on the fly that
    /// each delta record replays the previous boundary into this one —
    /// the exact contract a WAL depends on.
    #[derive(Default)]
    struct Recorder {
        boundaries: Vec<Boundary>,
    }

    impl CheckpointSink for Recorder {
        fn on_checkpoint(&mut self, cp: Checkpoint<'_>) -> Result<(), String> {
            if let (Some(delta), Some(prev)) = (&cp.delta, self.boundaries.last()) {
                let mut replayed = prev.state.clone();
                for (rel, ts) in delta {
                    for t in ts {
                        replayed
                            .insert(rel.as_str(), t.clone())
                            .map_err(|e| e.to_string())?;
                    }
                }
                if &replayed != cp.target {
                    return Err(format!("round {} delta does not replay", cp.round));
                }
            }
            self.boundaries.push(Boundary {
                round: cp.round,
                next_null: cp.next_null,
                state: cp.target.clone(),
                as_delta: cp.delta.is_some(),
                complete: cp.complete,
            });
            Ok(())
        }
    }

    /// Mappings exercising multi-round target chases, joins, and egd
    /// merges — the shapes resume must reproduce exactly.
    fn resume_cases() -> Vec<(Mapping, Instance)> {
        type Facts = Vec<(&'static str, Vec<Tuple>)>;
        let cases: [(&str, Facts); 3] = [
            (
                r#"
                source R(a);
                target S(a);
                target T(a, b);
                target U(b);
                R(x) -> S(x);
                S(x) -> T(x, y);
                T(x, y) -> U(y);
                "#,
                vec![("R", vec![tuple!["a"], tuple!["b"]])],
            ),
            (
                r#"
                source E(p, c);
                target P(p, c);
                target G(a, c);
                E(x, y) -> P(x, y);
                P(x, y) & P(y, z) -> G(x, z);
                "#,
                vec![(
                    "E",
                    vec![tuple!["a", "b"], tuple!["b", "c"], tuple!["c", "d"]],
                )],
            ),
            (
                r#"
                source E1(name);
                source E2(name);
                target Manager(emp, mgr);
                target Peer(mgr);
                key Manager(emp);
                E1(x) -> Manager(x, y);
                E2(x) -> Manager(x, y);
                Manager(x, y) -> Peer(y);
                "#,
                vec![
                    ("E1", vec![tuple!["Alice"], tuple!["Bob"]]),
                    ("E2", vec![tuple!["Alice"], tuple!["Carol"]]),
                ],
            ),
        ];
        cases
            .into_iter()
            .map(|(text, facts)| {
                let m = parse_mapping(text).unwrap();
                let src = Instance::with_facts(m.source().clone(), facts).unwrap();
                (m, src)
            })
            .collect()
    }

    /// Attaching a sink changes nothing about the run itself, the
    /// boundaries replay as deltas, and the last one is the complete
    /// final instance.
    #[test]
    fn checkpointed_run_is_identical_and_boundaries_replay() {
        for (m, src) in resume_cases() {
            let plain = exchange(&m, &src).unwrap();
            let mut rec = Recorder::default();
            let gov = Governor::unlimited();
            let res = exchange_checkpointed(&m, &src, ChaseOptions::default(), &gov, &mut rec)
                .unwrap()
                .into_result()
                .unwrap();
            assert_eq!(res.target, plain.target, "sink must not perturb the chase");
            assert_eq!(res.stats, plain.stats);
            let last = rec.boundaries.last().expect("at least round 0 + fixpoint");
            assert!(last.complete);
            assert_eq!(last.state, plain.target);
            assert_eq!(rec.boundaries[0].round, 0, "base boundary is phase-1");
            assert!(!rec.boundaries[0].as_delta, "base boundary is a full state");
        }
    }

    /// The tentpole property: resuming from *every* recorded boundary
    /// reproduces the uninterrupted final instance literally — same
    /// tuples, same null ids — including across egd-merge rounds.
    #[test]
    fn resume_from_every_boundary_equals_uninterrupted() {
        for (m, src) in resume_cases() {
            for variant in [ChaseVariant::Standard, ChaseVariant::Oblivious] {
                let opts = ChaseOptions {
                    variant,
                    ..Default::default()
                };
                let mut rec = Recorder::default();
                let gov = Governor::unlimited();
                let full = exchange_checkpointed(&m, &src, opts, &gov, &mut rec)
                    .unwrap()
                    .into_result()
                    .unwrap();
                let merged_rounds = rec.boundaries.iter().filter(|b| !b.as_delta).count();
                for b in rec.boundaries.iter().filter(|b| !b.complete) {
                    let state = ResumeState {
                        target: b.state.clone(),
                        next_null: b.next_null,
                        rounds: b.round,
                    };
                    let resumed = resume_exchange(&m, state, opts, &Governor::unlimited(), None)
                        .unwrap()
                        .into_result()
                        .unwrap();
                    assert_eq!(
                        resumed.target, full.target,
                        "resume from round {} diverged ({variant:?})",
                        b.round
                    );
                }
                // Under the oblivious chase the keyed case derives
                // duplicate null managers, so an egd-merge round must
                // have produced a full (non-delta) checkpoint beyond
                // the base one.
                if !m.target_egds().is_empty() && variant == ChaseVariant::Oblivious {
                    assert!(merged_rounds > 1, "expected an egd-merge boundary");
                }
            }
        }
    }

    /// Round caps count total rounds across the original and resumed
    /// processes: resuming under the same budget lands on the same
    /// boundary (and the same report) as a never-interrupted run.
    #[test]
    fn resumed_round_cap_counts_total_rounds() {
        let (m, src) = ping_pong();
        let cap = 6u64;
        let fresh_gov = Governor::new(Budget::unlimited().with_max_rounds(cap));
        let mut rec = Recorder::default();
        let fresh = expect_exhausted(
            exchange_checkpointed(&m, &src, ChaseOptions::default(), &fresh_gov, &mut rec).unwrap(),
        );
        assert_eq!(fresh.report.rounds_committed, cap + 1);

        let mid = &rec.boundaries[3]; // some boundary strictly inside the run
        assert!(mid.round >= 1 && mid.round < cap);
        let resume_gov = Governor::new(Budget::unlimited().with_max_rounds(cap));
        let resumed = expect_exhausted(
            resume_exchange(
                &m,
                ResumeState {
                    target: mid.state.clone(),
                    next_null: mid.next_null,
                    rounds: mid.round,
                },
                ChaseOptions::default(),
                &resume_gov,
                None,
            )
            .unwrap(),
        );
        assert_eq!(resumed.report.reason, TripReason::Rounds);
        assert_eq!(resumed.report.rounds_committed, cap + 1, "total rounds");
        assert_eq!(resumed.partial, fresh.partial, "same committed boundary");
    }

    /// A failing sink aborts the chase with the typed checkpoint error.
    #[test]
    fn failing_sink_aborts_with_typed_error() {
        struct Failing;
        impl CheckpointSink for Failing {
            fn on_checkpoint(&mut self, _cp: Checkpoint<'_>) -> Result<(), String> {
                Err("disk full".into())
            }
        }
        let (m, src) = ping_pong();
        let err = exchange_checkpointed(
            &m,
            &src,
            ChaseOptions::default(),
            &Governor::unlimited(),
            &mut Failing,
        )
        .unwrap_err();
        match err {
            ChaseError::Checkpoint(msg) => assert!(msg.contains("disk full")),
            other => panic!("expected Checkpoint error, got {other:?}"),
        }
    }
}
