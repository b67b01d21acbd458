//! The diagnostic model: stable codes, severities, spans, and
//! machine-checkable witnesses.
//!
//! Every lint the analyzer can raise has a **stable code** in the
//! `DEXnnn` namespace (see the registry table in the repository
//! README). Codes never change meaning between releases; tooling may
//! match on them. A [`Diagnostic`] additionally carries a rendered
//! message, an optional [`Span`] into the mapping source, free-form
//! notes, and — where the claim is refutable — a structured
//! [`Witness`] that downstream tools can re-verify (e.g. a
//! weak-acyclicity counterexample cycle is checked by
//! [`dex_chase::verify_witness`]).

use dex_chase::CycleWitness;
use dex_logic::Span;
use dex_relational::{Constant, Name};
use serde::{Deserialize, Serialize};
use std::fmt;

/// Stable diagnostic codes. The numeric bands group related passes:
/// `000` parse, `0xx` termination, `1xx` hygiene, `2xx` compiler
/// fragment, `3xx` operator prechecks, `4xx` dataflow.
///
/// On every JSON wire a code is spelled as [`Code::as_str`] (`"DEX201"`);
/// reading also accepts the variant spelling (`"Dex201"`) of older
/// reports.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub enum Code {
    /// The mapping failed to parse.
    Dex000,
    /// Target tgds are neither weakly nor jointly acyclic — the chase
    /// may not terminate.
    Dex001,
    /// Target tgds fail weak acyclicity but joint acyclicity certifies
    /// termination anyway.
    Dex002,
    /// A declared source relation is read by no rule.
    Dex101,
    /// A declared target relation is produced by no rule.
    Dex102,
    /// A premise variable occurs exactly once in its rule.
    Dex103,
    /// An egd equates two distinct constants — unsatisfiable whenever
    /// its premise matches.
    Dex104,
    /// An st-tgd is implied by the remaining dependencies.
    Dex105,
    /// A premise self-join puts the tgd outside the lens-compilable
    /// fragment.
    Dex201,
    /// A function (Skolem) term puts the tgd outside the compilable
    /// fragment.
    Dex202,
    /// Tgds producing the same relation disagree on its column shape.
    Dex203,
    /// Target tgds put the mapping outside the compilable fragment.
    Dex204,
    /// The tgd compiles, but only approximately (shared existentials).
    Dex205,
    /// A source relation feeds the same target relation through more
    /// than one conjunct, so the folded union lens would mention the
    /// base table twice (ambiguous `put`).
    Dex206,
    /// `compose` would refuse this mapping (target dependencies).
    Dex301,
    /// `maximum_recovery` would refuse this mapping.
    Dex302,
    /// A source position is lossy: its value flows to no target
    /// position, so no inverse can recover it.
    Dex401,
    /// A target position is null-only: every rule fills it with an
    /// invented labeled null.
    Dex402,
    /// A source position is dead: every rule binds it to a variable
    /// that neither joins, filters, nor reaches the target.
    Dex403,
    /// A join variable occurs at positions with conflicting declared
    /// types (or a constant violates a position's type).
    Dex404,
    /// Two st-tgds assign contradictory lens update policies to the
    /// same target column.
    Dex405,
    /// The mapping's chase-cost bounds are unbounded (non-jointly-
    /// acyclic): an exponential-risk mapping no budget can be
    /// synthesized for.
    Dex501,
    /// A statically derived chase bound exceeds the configured
    /// `--deny-cost` admission threshold.
    Dex502,
    /// One tgd's firing bound dwarfs the rest of the mapping combined.
    Dex503,
    /// A dependency (tgd or egd) is implied by the remaining
    /// dependencies; deleting it is a verified equivalence-preserving
    /// rewrite.
    Dex601,
    /// A premise atom is redundant: the rule derives the same
    /// conclusions without it.
    Dex602,
    /// The whole mapping is equivalent to a strictly smaller one found
    /// by the verified optimizer.
    Dex603,
    /// A compose/migration output is not equivalent to its spec, where
    /// the containment check could decide it.
    Dex604,
}

impl Serialize for Code {
    fn serialize<S: serde::Serializer>(&self, ser: S) -> Result<S::Ok, S::Error> {
        ser.serialize_str(self.as_str())
    }
}

impl<'de> Deserialize<'de> for Code {
    fn deserialize<D: serde::Deserializer<'de>>(de: D) -> Result<Self, D::Error> {
        let s = String::deserialize(de)?;
        Code::parse(&s)
            .ok_or_else(|| serde::de::Error::custom(format_args!("unknown diagnostic code `{s}`")))
    }
}

impl Code {
    /// The stable textual form, e.g. `"DEX101"`.
    pub fn as_str(&self) -> &'static str {
        match self {
            Code::Dex000 => "DEX000",
            Code::Dex001 => "DEX001",
            Code::Dex002 => "DEX002",
            Code::Dex101 => "DEX101",
            Code::Dex102 => "DEX102",
            Code::Dex103 => "DEX103",
            Code::Dex104 => "DEX104",
            Code::Dex105 => "DEX105",
            Code::Dex201 => "DEX201",
            Code::Dex202 => "DEX202",
            Code::Dex203 => "DEX203",
            Code::Dex204 => "DEX204",
            Code::Dex205 => "DEX205",
            Code::Dex206 => "DEX206",
            Code::Dex301 => "DEX301",
            Code::Dex302 => "DEX302",
            Code::Dex401 => "DEX401",
            Code::Dex402 => "DEX402",
            Code::Dex403 => "DEX403",
            Code::Dex404 => "DEX404",
            Code::Dex405 => "DEX405",
            Code::Dex501 => "DEX501",
            Code::Dex502 => "DEX502",
            Code::Dex503 => "DEX503",
            Code::Dex601 => "DEX601",
            Code::Dex602 => "DEX602",
            Code::Dex603 => "DEX603",
            Code::Dex604 => "DEX604",
        }
    }

    /// Every registered code, in numeric order.
    pub const ALL: [Code; 28] = [
        Code::Dex000,
        Code::Dex001,
        Code::Dex002,
        Code::Dex101,
        Code::Dex102,
        Code::Dex103,
        Code::Dex104,
        Code::Dex105,
        Code::Dex201,
        Code::Dex202,
        Code::Dex203,
        Code::Dex204,
        Code::Dex205,
        Code::Dex206,
        Code::Dex301,
        Code::Dex302,
        Code::Dex401,
        Code::Dex402,
        Code::Dex403,
        Code::Dex404,
        Code::Dex405,
        Code::Dex501,
        Code::Dex502,
        Code::Dex503,
        Code::Dex601,
        Code::Dex602,
        Code::Dex603,
        Code::Dex604,
    ];

    /// Parse a textual code (`"DEX101"`, case-insensitive). `None` for
    /// unregistered codes.
    pub fn parse(s: &str) -> Option<Code> {
        let wanted = s.to_ascii_uppercase();
        Code::ALL.iter().copied().find(|c| c.as_str() == wanted)
    }

    /// The default severity of this code (before any `--deny`
    /// promotion).
    pub fn default_severity(&self) -> Severity {
        match self {
            Code::Dex000 | Code::Dex001 | Code::Dex104 | Code::Dex502 | Code::Dex604 => {
                Severity::Error
            }
            Code::Dex101
            | Code::Dex102
            | Code::Dex103
            | Code::Dex105
            | Code::Dex201
            | Code::Dex202
            | Code::Dex203
            | Code::Dex204
            | Code::Dex206
            | Code::Dex403
            | Code::Dex404
            | Code::Dex405
            | Code::Dex501
            | Code::Dex601
            | Code::Dex602
            | Code::Dex603 => Severity::Warning,
            Code::Dex002
            | Code::Dex205
            | Code::Dex301
            | Code::Dex302
            | Code::Dex401
            | Code::Dex402
            | Code::Dex503 => Severity::Info,
        }
    }

    /// Rustc-style long-form explanation of the code, shown by
    /// `dexcli lint --explain DEXnnn`. Stable prose; tooling may link
    /// to it but should not parse it.
    pub fn explanation(&self) -> &'static str {
        match self {
            Code::Dex000 => {
                "The mapping file failed to parse.\n\n\
                 Nothing else can be analyzed until the syntax error is fixed. The \
                 diagnostic's span points at the first character the parser could not \
                 make sense of. The mapping language is described in the repository \
                 README: `source`/`target` declarations, st-tgds `phi -> psi`, target \
                 tgds `target phi -> psi`, egds `target phi -> x = y`, and `key` \
                 shorthand."
            }
            Code::Dex001 => {
                "The target tgds are neither weakly nor jointly acyclic, so the chase \
                 is not certified to terminate.\n\n\
                 A cycle through a special (existential) edge in the dependency graph \
                 lets one invented null trigger the invention of another, ad \
                 infinitum. The diagnostic carries the offending cycle as a witness; \
                 `dex_chase::verify_witness` re-checks it. Either break the recursion \
                 or run the chase with an explicit round/null budget and accept a \
                 partial result."
            }
            Code::Dex002 => {
                "The target tgds fail the weak-acyclicity test, but the finer \
                 joint-acyclicity test certifies chase termination anyway.\n\n\
                 This is informational: the mapping is safe to chase, but tools that \
                 only implement weak acyclicity will reject it."
            }
            Code::Dex101 => {
                "A declared source relation is read by no rule.\n\n\
                 Its tuples can never influence the target instance. Either a rule is \
                 missing or the declaration is dead and should be removed."
            }
            Code::Dex102 => {
                "A declared target relation is produced by no rule.\n\n\
                 No chase step ever inserts into it, so it is always empty in the \
                 canonical universal solution. Either a rule is missing or the \
                 declaration is dead."
            }
            Code::Dex103 => {
                "A premise variable occurs exactly once in its rule.\n\n\
                 A singleton variable neither joins two atoms, nor filters, nor flows \
                 to the conclusion — it merely asserts the column exists, which the \
                 schema already guarantees. This often indicates a misspelled \
                 variable that was meant to join."
            }
            Code::Dex104 => {
                "An egd equates two distinct constants.\n\n\
                 Whenever the egd's premise matches, enforcement must make two \
                 different constants equal, which is impossible: the chase fails and \
                 the mapping has no solution for that source instance. The premise is \
                 satisfiable, so this is a real hazard, not dead code."
            }
            Code::Dex105 => {
                "An st-tgd is implied by the remaining dependencies.\n\n\
                 The check freezes the rule's premise into a critical instance of \
                 labeled nulls, chases it with the rule removed, and finds the \
                 conclusion already satisfied — so deleting the rule changes no \
                 solution. This is the same decision procedure behind DEX601 and \
                 `dexcli optimize`, so the passes cannot disagree. Cost note: the \
                 check runs one bounded chase per st-tgd (quadratic in the rule \
                 count overall) and is gated behind `AnalyzeOptions::redundancy` \
                 (on by default); set it to false to skip the pass on very large \
                 mappings."
            }
            Code::Dex201 => {
                "A premise self-join (the same relation appearing twice in one \
                 premise) puts the tgd outside the lens-compilable fragment.\n\n\
                 The relational-lens translation folds each source relation into at \
                 most one base lens per target relation; a self-join would need the \
                 same base twice with an ambiguous put-back. `dexcli run` still \
                 chases such mappings; only the bidirectional engine refuses them."
            }
            Code::Dex202 => {
                "A function (Skolem) term puts the tgd outside the compilable \
                 fragment.\n\n\
                 Skolem terms arise from SO-tgds (e.g. composition output) and have \
                 no relational-lens counterpart. Flatten the mapping to plain st-tgds \
                 first, or use the chase-only pipeline."
            }
            Code::Dex203 => {
                "Two tgds producing the same target relation disagree on its column \
                 shape.\n\n\
                 The folded union lens needs every arm to agree, per column, on \
                 whether the value comes from the source (and from which variable \
                 position), is a constant, or is invented. See DEX405 for the \
                 position-level dataflow refinement of this disagreement."
            }
            Code::Dex204 => {
                "Target tgds (or target egds beyond simple keys) put the mapping \
                 outside the compilable fragment.\n\n\
                 The lens engine compiles st-tgds only; target-side dependencies \
                 would require enforcing them through `put`, which the engine does \
                 not attempt. The chase pipeline handles them fine."
            }
            Code::Dex205 => {
                "The tgd compiles, but only approximately.\n\n\
                 An existential variable shared between conclusion atoms (or other \
                 benign-but-lossy features) means the lens engine's `get` direction \
                 matches the chase only up to null identity: round-trips are still \
                 lawful, but the forward image is an approximation of the canonical \
                 universal solution. The report lists the reasons."
            }
            Code::Dex206 => {
                "A source relation feeds the same target relation through more than \
                 one union arm.\n\n\
                 The folded union lens would mention the same base table twice, so a \
                 target update routed to both arms writes to one table through two \
                 conflicting paths (ambiguous put). Restructure the premises or \
                 accept chase-only operation."
            }
            Code::Dex301 => {
                "`compose` would refuse this mapping.\n\n\
                 Mapping composition is implemented for st-tgd-only mappings (the \
                 SO-tgd construction); target tgds or egds in either operand are \
                 refused up front. This precheck saves you from a late failure."
            }
            Code::Dex302 => {
                "`maximum_recovery` would refuse this mapping.\n\n\
                 The maximum-recovery construction is defined here for st-tgd-only \
                 mappings; target dependencies are refused. This precheck mirrors \
                 that refusal statically."
            }
            Code::Dex401 => {
                "A source position is lossy: its value flows along no dataflow edge, \
                 so no target position ever holds it and no inverse mapping can \
                 recover it.\n\n\
                 The dataflow pass builds a position-level flow graph: an edge links \
                 a source position to a target position when some st-tgd binds a \
                 premise variable at the former and writes it at the latter (closed \
                 transitively through target tgds and key egds). A read position with \
                 no outgoing edge is read — it may join or filter — but its data is \
                 discarded. This is informational: filtering columns are often \
                 intentionally lossy. Pair with `maximum_recovery` to see what the \
                 best possible inverse still recovers."
            }
            Code::Dex402 => {
                "A target position is null-only: every rule that produces its \
                 relation fills the position with an invented labeled null (an \
                 existential variable), and no source value or constant ever reaches \
                 it, not even through target tgds or key egds.\n\n\
                 Queries over this column can only ever see nulls, and certain \
                 answers over it are empty. That is sometimes the point (surrogate \
                 ids), hence informational; but if you expected data here, a premise \
                 variable probably failed to reach the conclusion."
            }
            Code::Dex403 => {
                "A source position is dead under every tgd: each rule that reads its \
                 relation binds the position to a variable occurring nowhere else in \
                 that rule (and never to a filtering constant).\n\n\
                 Unlike a merely lossy position (DEX401), a dead position does not \
                 even participate in a join or a constant filter — deleting the \
                 column from the source schema would change nothing about the \
                 mapping's behavior. This strengthens the per-rule singleton-variable \
                 lint (DEX103) to a whole-mapping claim."
            }
            Code::Dex404 => {
                "A join variable occurs at positions whose declared types conflict, \
                 or a constant appears at a position whose declared type it \
                 violates.\n\n\
                 A variable must take a single value per match; if its positions are \
                 declared with different concrete types (e.g. `int` and `str`), no \
                 ground value inhabits both, so the premise can only ever match \
                 labeled nulls — the rule is almost certainly miswired. Untyped \
                 (`any`) positions are compatible with everything and never \
                 conflict."
            }
            Code::Dex405 => {
                "Two st-tgds assign contradictory lens update policies to the same \
                 target column.\n\n\
                 Each tgd implies a put-back policy per produced column: \
                 determined-by-source (a frontier variable), a constant, an invented \
                 null (existential), or a copy of a sibling column (repeated \
                 variable). When two rules produce the same relation but disagree at \
                 a column, the folded union lens cannot serve both policies with one \
                 `put`, and the compiler refuses the mapping (see DEX203 for the \
                 shape-level view). The diagnostic names the column and the two rule \
                 indices."
            }
            Code::Dex501 => {
                "The mapping's static chase-cost bounds are unbounded: the target \
                 tgds are not jointly acyclic, so no finite polynomial bound on chase \
                 output can be certified from acyclicity structure.\n\n\
                 The cost pass derives per-run upper bounds (rounds, firings, tuples, \
                 nulls, bytes) from position ranks (weak acyclicity) or existential \
                 depth (joint acyclicity). When neither condition holds, every bound \
                 degrades to `unbounded` — an admission controller cannot synthesize \
                 a budget (`--auto-budget` sets no caps) and `--deny-cost` refuses \
                 the mapping at any threshold. Either break the existential recursion \
                 (see DEX001's cycle witness) or run with explicit budget flags and \
                 accept partial results."
            }
            Code::Dex502 => {
                "A statically derived chase bound exceeds the configured admission \
                 threshold.\n\n\
                 `dexcli lint|chase|exchange --deny-cost N` compares the headline \
                 bound — the largest of the predicted rounds, firings, tuples, and \
                 nulls (an `unbounded` bound exceeds every threshold) — against N and \
                 refuses the mapping when it is larger. The bounds are conservative \
                 worst cases over all source instances with the assumed per-relation \
                 cardinalities (measured from the instance when one is at hand, \
                 `--cards` or a uniform default otherwise), so a refusal means the \
                 chase *could* get that big, not that it will. Raise the threshold, \
                 shrink the assumed cardinalities, or simplify the mapping."
            }
            Code::Dex503 => {
                "One tgd's firing bound dwarfs the rest of the mapping combined.\n\n\
                 The per-tgd firing bound is the product of the assumed cardinalities \
                 of the premise relations (phase 1) or a polynomial in the reachable \
                 value universe (target tgds), so a premise joining many wide \
                 relations can dominate the whole mapping's predicted cost by orders \
                 of magnitude. This lint fires when a single tgd accounts for more \
                 than ~99.9% of the total predicted firings (at least 1024× \
                 everything else combined): that one rule is where any budget will be \
                 spent, and the first place to look when tightening a mapping."
            }
            Code::Dex601 => {
                "A dependency (st-tgd, target tgd, or egd) is implied by the \
                 remaining dependencies, and deleting it is a *verified* \
                 equivalence-preserving rewrite.\n\n\
                 The containment checker froze the dependency's premise into a \
                 critical instance of labeled nulls, chased it under the mapping \
                 with the dependency removed, and found the conclusion already \
                 satisfied — so the reduced mapping has exactly the same solutions \
                 on every source instance. The diagnostic carries a \
                 machine-applicable suggestion (delete the rule). Caution: \
                 individually-deletable dependencies need not be *jointly* \
                 deletable — two identical rules each imply the other, but \
                 deleting both changes the mapping. `dexcli lint --fix` therefore \
                 applies one suggestion at a time and re-verifies after each."
            }
            Code::Dex602 => {
                "A premise atom is redundant: the rule derives exactly the same \
                 conclusions without it.\n\n\
                 The checker built the rule with the atom pruned (refusing \
                 up-front if that would orphan a frontier variable), then proved \
                 the pruned mapping equivalent to the original by chasing the \
                 critical instances of both in both directions. Duplicate atoms \
                 and atoms subsumed by a more specific join are the common \
                 causes. The suggestion rewrites the rule in place; at most one \
                 atom is reported per rule per run, because pruning one atom can \
                 change whether the next prune is safe — `dexcli lint --fix` \
                 iterates to a fixpoint."
            }
            Code::Dex603 => {
                "The mapping is equivalent to a strictly smaller one.\n\n\
                 `dexcli optimize` found a sequence of individually verified \
                 rewrites — conclusion splitting, implied-dependency deletion, \
                 premise-atom pruning — whose result has fewer total atoms (and \
                 no more dependencies) than the input, yet provably the same \
                 solutions on every source instance. Smaller mappings chase \
                 faster and admit tighter DEX5xx cost bounds, so this warning is \
                 usually worth acting on: run `dexcli optimize <mapping> --emit \
                 <out>` to materialize the smaller equivalent. The notes list \
                 each verified rewrite."
            }
            Code::Dex604 => {
                "A composition or migration output is not equivalent to its \
                 spec, where the chase-based check could decide it.\n\n\
                 `dexcli compose --check` (and `dexd` compile requests with \
                 `\"optimize\": true`) re-verify operator outputs against their \
                 inputs: the composed/compiled mapping is chased on the critical \
                 instances of the spec and vice versa. A failure means the \
                 operator's output provably admits different solutions than the \
                 specification — a bug worth reporting, not a style issue, hence \
                 an error. When either side is outside the decidable fragment \
                 (non-terminating, SO-tgds), the check refuses silently rather \
                 than guess."
            }
        }
    }
}

impl fmt::Display for Code {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// How serious a diagnostic is.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug, Serialize, Deserialize)]
pub enum Severity {
    /// Purely informational; never affects the exit status.
    Info,
    /// Suspicious but not fatal; promoted to [`Severity::Error`] under
    /// `--deny warnings`.
    Warning,
    /// The mapping is broken or dangerous; linting fails.
    Error,
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Severity::Info => "info",
            Severity::Warning => "warning",
            Severity::Error => "error",
        })
    }
}

/// Machine-checkable evidence attached to a diagnostic.
#[derive(Clone, PartialEq, Eq, Debug, Serialize, Deserialize)]
pub enum Witness {
    /// A special-edge cycle in the weak-acyclicity dependency graph;
    /// re-verifiable with [`dex_chase::verify_witness`] against the
    /// mapping's target tgds.
    Cycle(CycleWitness),
    /// A relation named by the diagnostic.
    Relation(Name),
    /// Variables named by the diagnostic.
    Variables(Vec<Name>),
    /// Indices into the relevant dependency list (the message says
    /// which one).
    TgdIndices(Vec<usize>),
    /// Two distinct constants an egd forces to be equal.
    ConstantClash(Constant, Constant),
    /// A (relation, position) pair named by the diagnostic (0-based).
    Position(Name, usize),
}

/// A rustc-style machine-applicable suggestion: replacing the spanned
/// source text with `replacement` fixes the finding, and the rewrite
/// has been verified equivalence-preserving before being attached.
#[derive(Clone, PartialEq, Eq, Debug, Serialize, Deserialize)]
pub struct Suggestion {
    /// The source region to replace. For rule rewrites this covers the
    /// whole rule including its trailing `;`.
    pub span: Span,
    /// Replacement text; empty means delete the region.
    pub replacement: String,
}

/// One analyzer finding.
#[derive(Clone, PartialEq, Eq, Debug, Serialize, Deserialize)]
pub struct Diagnostic {
    /// The stable code.
    pub code: Code,
    /// Current severity (default per code; `--deny warnings` promotes).
    pub severity: Severity,
    /// Human-readable description of the finding.
    pub message: String,
    /// Where in the mapping source the finding anchors, when known.
    pub span: Option<Span>,
    /// Structured, re-checkable evidence, when the claim has any.
    pub witness: Option<Witness>,
    /// Additional free-form context lines.
    pub notes: Vec<String>,
    /// A machine-applicable fix, when one has been verified safe.
    pub suggestion: Option<Suggestion>,
}

impl Diagnostic {
    /// A diagnostic with its code's default severity and no extras.
    pub fn new(code: Code, message: impl Into<String>) -> Diagnostic {
        Diagnostic {
            code,
            severity: code.default_severity(),
            message: message.into(),
            span: None,
            witness: None,
            notes: Vec::new(),
            suggestion: None,
        }
    }

    /// Attach a span.
    pub fn with_span(mut self, span: Option<Span>) -> Diagnostic {
        self.span = span;
        self
    }

    /// Attach a witness.
    pub fn with_witness(mut self, witness: Witness) -> Diagnostic {
        self.witness = Some(witness);
        self
    }

    /// Append a note line.
    pub fn with_note(mut self, note: impl Into<String>) -> Diagnostic {
        self.notes.push(note.into());
        self
    }

    /// Attach a machine-applicable suggestion.
    pub fn with_suggestion(mut self, suggestion: Suggestion) -> Diagnostic {
        self.suggestion = Some(suggestion);
        self
    }
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}[{}]: {}", self.severity, self.code, self.message)?;
        if let Some(s) = self.span {
            write!(f, " (at {s})")?;
        }
        Ok(())
    }
}

/// Promote every [`Severity::Warning`] to [`Severity::Error`]
/// (`--deny warnings`). Infos are untouched.
pub fn deny_warnings(diags: &mut [Diagnostic]) {
    for d in diags {
        if d.severity == Severity::Warning {
            d.severity = Severity::Error;
        }
    }
}

/// Does any diagnostic have [`Severity::Error`]?
pub fn has_errors(diags: &[Diagnostic]) -> bool {
    diags.iter().any(|d| d.severity == Severity::Error)
}

/// Sort diagnostics into the stable reporting order: by span (source
/// position; span-less diagnostics first), then code, then message.
/// The sort is stable, so equal keys keep pass emission order. `dexcli`
/// applies this before rendering so `--format json` output is
/// byte-stable across runs and analyzer-internal pass reordering.
pub fn sort_diagnostics(diags: &mut [Diagnostic]) {
    diags.sort_by(|a, b| {
        a.span
            .cmp(&b.span)
            .then_with(|| a.code.cmp(&b.code))
            .then_with(|| a.message.cmp(&b.message))
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn codes_render_stably() {
        assert_eq!(Code::Dex001.as_str(), "DEX001");
        assert_eq!(Code::Dex302.to_string(), "DEX302");
    }

    #[test]
    fn severity_orders_info_warning_error() {
        assert!(Severity::Info < Severity::Warning);
        assert!(Severity::Warning < Severity::Error);
    }

    #[test]
    fn deny_warnings_promotes_only_warnings() {
        let mut ds = vec![
            Diagnostic::new(Code::Dex101, "unused"),
            Diagnostic::new(Code::Dex002, "ja-certified"),
            Diagnostic::new(Code::Dex104, "clash"),
        ];
        assert!(!has_errors(&ds[..2]));
        deny_warnings(&mut ds);
        assert_eq!(ds[0].severity, Severity::Error);
        assert_eq!(ds[1].severity, Severity::Info);
        assert_eq!(ds[2].severity, Severity::Error);
        assert!(has_errors(&ds));
    }

    #[test]
    fn every_code_parses_and_explains() {
        for code in Code::ALL {
            assert_eq!(Code::parse(code.as_str()), Some(code));
            assert_eq!(Code::parse(&code.as_str().to_lowercase()), Some(code));
            assert!(
                code.explanation().len() > 80,
                "{code} explanation too short"
            );
        }
        assert_eq!(Code::parse("DEX999"), None);
        assert_eq!(Code::parse("nonsense"), None);
    }

    #[test]
    fn sort_is_by_span_then_code_and_stable() {
        use dex_logic::Span;
        let d = |code, span: Option<Span>, msg: &str| Diagnostic::new(code, msg).with_span(span);
        let mut ds = vec![
            d(Code::Dex201, Some(Span::point(4, 1)), "later line"),
            d(Code::Dex102, Some(Span::point(2, 1)), "b"),
            d(Code::Dex101, Some(Span::point(2, 1)), "a"),
            d(Code::Dex000, None, "span-less first"),
        ];
        sort_diagnostics(&mut ds);
        let codes: Vec<Code> = ds.iter().map(|x| x.code).collect();
        assert_eq!(
            codes,
            vec![Code::Dex000, Code::Dex101, Code::Dex102, Code::Dex201]
        );
        // Same keys: stable order preserved.
        let mut same = vec![
            d(Code::Dex101, Some(Span::point(1, 1)), "first"),
            d(Code::Dex101, Some(Span::point(1, 1)), "second"),
        ];
        sort_diagnostics(&mut same);
        assert_eq!(same[0].message, "first");
    }

    #[test]
    fn diagnostic_serde_round_trip() {
        let d = Diagnostic::new(Code::Dex101, "source relation `R` is never read")
            .with_span(Some(dex_logic::Span::point(2, 1)))
            .with_witness(Witness::Relation(Name::new("R")))
            .with_note("declared here but no rule mentions it");
        let json = serde_json::to_string(&d).unwrap();
        let back: Diagnostic = serde_json::from_str(&json).unwrap();
        assert_eq!(d, back);
    }

    #[test]
    fn code_wire_spelling_is_the_registry_spelling() {
        assert_eq!(serde_json::to_string(&Code::Dex201).unwrap(), "\"DEX201\"");
        for text in ["\"DEX201\"", "\"Dex201\""] {
            let code: Code = serde_json::from_str(text).unwrap();
            assert_eq!(code, Code::Dex201, "{text}");
        }
        assert!(serde_json::from_str::<Code>("\"DEX999\"").is_err());
    }
}
