//! Semantic pass: chase-based containment, equivalence, and the
//! provably-safe optimizer (`DEX601`–`DEX603`; `DEX604` is raised by
//! the compose/migration self-check surfaces, not by this pass).
//!
//! ## Containment
//!
//! A mapping `M₁ = (S, T, Σ₁)` is **contained** in `M₂ = (S, T, Σ₂)`
//! (written `M₁ ⊑ M₂`) when every solution pair of `M₁` is a solution
//! pair of `M₂` — equivalently, when `Σ₁ ⊨ Σ₂`. [`contains`] decides
//! this for terminating mappings with the classical critical-instance
//! construction (Beeri–Vardi; *Containment of Schema Mappings for Data
//! Exchange*): for each dependency `σ ∈ Σ₂`, freeze `σ`'s premise into
//! a canonical instance of labeled nulls ([`dex_chase::critical_instance`]),
//! chase it with `Σ₁`, and test whether `σ` already holds in the
//! result.
//!
//! * Every premise — source-side or target-side — freezes over a
//!   shadow vocabulary and chases through a *shim* mapping whose
//!   st-tgds copy the shadow verbatim into a combined schema holding
//!   both `M₁`'s source and target relations, and whose target
//!   dependencies are the whole of `Σ₁` (st-tgds included). Running
//!   `Σ₁` as *target* dependencies of the shim keeps the implication
//!   chase over **one** instance, which matters for egds: when a key
//!   merges two frozen premise nulls, the merge must rewrite the
//!   premise facts too — chasing the premise as a read-only source
//!   would leave it stale and misread implied dependencies as
//!   violated (`contains(m, m)` could fail).
//! * An egd clash while chasing a frozen premise means no `Σ₁`-solution
//!   pair exists over any instance matching that premise, so the
//!   dependency is **vacuously** implied.
//!
//! A failed check yields a [`ContainmentWitness`]: a concrete
//! source/target pair that *is* a solution under `M₁` and *violates*
//! the named dependency of `M₂`. [`verify_containment_witness`]
//! re-checks both halves from first principles, mirroring
//! [`dex_chase::verify_witness`] for termination counterexamples.
//!
//! Non-terminating inputs get a typed [`ContainmentVerdict::Undecided`]
//! refusal — the chase is only a decision procedure when it is
//! certified to halt (weak or joint acyclicity, per
//! [`dex_chase::classify_termination`]).
//!
//! ## Optimizer
//!
//! [`optimize`] applies four rewrites — conclusion splitting, implied-
//! dependency deletion (tgd subsumption and duplicate/implied egds),
//! and redundant-premise-atom pruning — and keeps a rewrite **only**
//! after the containment machinery proves it equivalence-preserving.
//! Deletions need a single containment obligation (the reduced set is
//! a syntactic subset of the original, so the original trivially
//! implies every surviving dependency); splits and prunes re-verify
//! both directions with [`equivalent`]. Rewrites are re-verified
//! *individually* because safety is not compositional: two
//! dependencies can each be implied by "the rest" and yet not be
//! jointly deletable (a duplicated rule is the canonical example).

use crate::diagnostic::{Code, Diagnostic, Suggestion, Witness};
use dex_chase::{classify_termination, critical_instance, exchange, ChaseError};
use dex_logic::{Atom, Egd, Mapping, SourceMap, StTgd, Term};
use dex_relational::{Instance, Name, RelSchema, Schema};
use serde::{Deserialize, Serialize};
use std::collections::BTreeSet;

/// Which dependency of the right-hand mapping a witness violates.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Serialize, Deserialize)]
pub enum WitnessDep {
    /// Index into `st_tgds()`.
    StTgd(usize),
    /// Index into `target_tgds()`.
    TargetTgd(usize),
    /// Index into `target_egds()`.
    TargetEgd(usize),
}

/// A machine-checkable counterexample to `M₁ ⊑ M₂`: a pair that is a
/// solution under `M₁` and violates one named dependency of `M₂`.
#[derive(Clone, PartialEq, Eq, Debug, Serialize, Deserialize)]
pub struct ContainmentWitness {
    /// The counterexample source instance (a frozen premise after any
    /// egd merges, or empty when the violated dependency is
    /// target-side).
    pub source: Instance,
    /// Its chased target instance — together they satisfy every
    /// dependency of `M₁`.
    pub target: Instance,
    /// The dependency of `M₂` the pair violates.
    pub dependency: WitnessDep,
}

/// The outcome of a containment check.
#[derive(Clone, PartialEq, Eq, Debug, Serialize, Deserialize)]
pub enum ContainmentVerdict {
    /// `M₁ ⊑ M₂` — proven by chasing every critical instance.
    Holds,
    /// `M₁ ⋢ M₂` — with a re-checkable counterexample.
    Fails(Box<ContainmentWitness>),
    /// The chase-based procedure does not apply (non-terminating
    /// dependencies, function terms, or incomparable schemas).
    Undecided {
        /// Why the check was refused.
        reason: String,
    },
}

/// Both directions of [`contains`], as decided by [`equivalent`].
#[derive(Clone, PartialEq, Eq, Debug, Serialize, Deserialize)]
pub struct EquivalenceVerdict {
    /// `M₁ ⊑ M₂`.
    pub forward: ContainmentVerdict,
    /// `M₂ ⊑ M₁`.
    pub backward: ContainmentVerdict,
}

impl EquivalenceVerdict {
    /// Are the mappings proven equivalent?
    pub fn holds(&self) -> bool {
        matches!(self.forward, ContainmentVerdict::Holds)
            && matches!(self.backward, ContainmentVerdict::Holds)
    }

    /// Is there a counterexample in either direction?
    pub fn refuted(&self) -> bool {
        matches!(self.forward, ContainmentVerdict::Fails(_))
            || matches!(self.backward, ContainmentVerdict::Fails(_))
    }
}

/// Why the chase-based machinery must refuse `mapping` as the chasing
/// (left-hand) side, if it must. The shim runs st-tgds and target tgds
/// together as target dependencies, so the combined set is what must
/// be certified terminating. (St-tgd premises read source relations,
/// which no conclusion writes, so certifying the combined set is never
/// harder than certifying the target tgds alone.)
fn chase_refusal(m: &Mapping) -> Option<String> {
    let mut combined = m.st_tgds().to_vec();
    combined.extend(m.target_tgds().iter().cloned());
    if classify_termination(&combined).terminates() {
        None
    } else {
        Some(
            "target tgds are not certified terminating (weak and joint acyclicity \
             both fail), so the implication chase may diverge"
                .to_string(),
        )
    }
}

enum Implied {
    Yes,
    No(Box<ContainmentWitness>),
    Unknown(String),
}

/// Shadow-relation prefix for the implication shim. Never rendered;
/// only needs to keep the shim's source vocabulary disjoint from the
/// combined source-plus-target schema.
const CRIT_PREFIX: &str = "crit__";

/// The implication shim for `m1`: st-tgds copy a shadow vocabulary
/// verbatim into a combined schema holding both of `m1`'s schemas, and
/// the *target* dependencies are all of `Σ₁` — `m1`'s st-tgds (their
/// premises read source relations, which live in the shim's target)
/// plus its target tgds and egds. Chasing a frozen premise through the
/// shim is the classical implication chase over a single instance:
/// egd merges rewrite the frozen premise facts, and tgds re-fire on
/// the merged facts, exactly as the procedure requires.
fn shim_mapping(m1: &Mapping) -> Option<Mapping> {
    let mut shadow_rels = Vec::new();
    let mut copy_tgds = Vec::new();
    let originals = || m1.source().relations().chain(m1.target().relations());
    for r in originals() {
        let shadow = format!("{CRIT_PREFIX}{}", r.name());
        let attrs: Vec<String> = r.attr_names().map(|a| a.to_string()).collect();
        shadow_rels.push(RelSchema::untyped(shadow.clone(), attrs).ok()?);
        let vars: Vec<Term> = (0..r.arity())
            .map(|i| Term::Var(Name::new(format!("v{i}"))))
            .collect();
        copy_tgds.push(StTgd::new(
            vec![Atom::new(shadow, vars.clone())],
            vec![Atom::new(r.name().clone(), vars)],
        ));
    }
    let src = Schema::with_relations(shadow_rels).ok()?;
    let tgt = Schema::with_relations(originals().cloned().collect()).ok()?;
    let mut target_tgds = m1.st_tgds().to_vec();
    target_tgds.extend(m1.target_tgds().iter().cloned());
    Mapping::with_target_deps(src, tgt, copy_tgds, target_tgds, m1.target_egds().to_vec()).ok()
}

/// Is the dependency with premise `premise` implied by `m1`? Freeze
/// the premise over the shim's shadow vocabulary, chase, split the
/// combined result back into a (source, target) pair, and let `check`
/// decide satisfaction on the pair.
fn implied_dep(
    m1: &Mapping,
    shim: &Mapping,
    premise: &[Atom],
    dependency: WitnessDep,
    check: &dyn Fn(&Instance, &Instance) -> bool,
) -> Implied {
    let prefixed: Vec<Atom> = premise
        .iter()
        .map(|a| Atom::new(format!("{CRIT_PREFIX}{}", a.relation), a.args.clone()))
        .collect();
    let Some(crit) = critical_instance(&prefixed, shim.source()) else {
        return Implied::Unknown(
            "cannot freeze the premise (function terms or schema mismatch)".to_string(),
        );
    };
    match exchange(shim, &crit.instance) {
        Ok(res) => {
            // The chase ran over one combined instance, so any egd
            // merges already rewrote the frozen premise facts. Split
            // the result back into the pair the dependency speaks
            // about; that pair satisfies every dependency of m1 (the
            // chase enforced them all), so on a failed check it is a
            // ready-made counterexample.
            let (Ok(src_part), Ok(tgt_part)) = (
                res.target.project_to_schema(m1.source()),
                res.target.project_to_schema(m1.target()),
            ) else {
                return Implied::Unknown("could not split the chased shim instance".to_string());
            };
            if check(&src_part, &tgt_part) {
                Implied::Yes
            } else {
                Implied::No(Box::new(ContainmentWitness {
                    source: src_part,
                    target: tgt_part,
                    dependency,
                }))
            }
        }
        // A hard egd clash while chasing the frozen premise means *no*
        // m1-solution pair exists over any instance matching the
        // premise: the dependency is vacuously implied.
        Err(ChaseError::EgdFailure { .. }) => Implied::Yes,
        Err(e) => Implied::Unknown(e.to_string()),
    }
}

/// Decide `M₁ ⊑ M₂`: is every solution pair of `m1` a solution pair of
/// `m2`? Equivalently: does `Σ₁` imply `Σ₂`? Sound and complete for
/// mappings whose chase is certified to terminate; refuses otherwise.
pub fn contains(m1: &Mapping, m2: &Mapping) -> ContainmentVerdict {
    if m1.source() != m2.source() || m1.target() != m2.target() {
        return ContainmentVerdict::Undecided {
            reason: "mappings are only comparable over identical source and target schemas"
                .to_string(),
        };
    }
    if let Some(reason) = chase_refusal(m1) {
        return ContainmentVerdict::Undecided { reason };
    }
    let Some(shim) = shim_mapping(m1) else {
        return ContainmentVerdict::Undecided {
            reason: "could not build the implication shim".to_string(),
        };
    };
    let mut unknown: Option<String> = None;
    let mut run = |premise: &[Atom],
                   dep: WitnessDep,
                   check: &dyn Fn(&Instance, &Instance) -> bool|
     -> Option<ContainmentVerdict> {
        match implied_dep(m1, &shim, premise, dep, check) {
            Implied::Yes => None,
            Implied::No(w) => Some(ContainmentVerdict::Fails(w)),
            Implied::Unknown(r) => {
                unknown.get_or_insert(r);
                None
            }
        }
    };
    for (i, t) in m2.st_tgds().iter().enumerate() {
        if let Some(v) = run(&t.lhs, WitnessDep::StTgd(i), &|s, j| t.satisfied_by(s, j)) {
            return v;
        }
    }
    for (i, t) in m2.target_tgds().iter().enumerate() {
        if let Some(v) = run(&t.lhs, WitnessDep::TargetTgd(i), &|_, j| {
            t.satisfied_by(j, j)
        }) {
            return v;
        }
    }
    for (i, e) in m2.target_egds().iter().enumerate() {
        if let Some(v) = run(&e.lhs, WitnessDep::TargetEgd(i), &|_, j| e.satisfied_by(j)) {
            return v;
        }
    }
    match unknown {
        Some(reason) => ContainmentVerdict::Undecided { reason },
        None => ContainmentVerdict::Holds,
    }
}

/// Decide `M₁ ≡ M₂` by checking containment both ways.
pub fn equivalent(m1: &Mapping, m2: &Mapping) -> EquivalenceVerdict {
    EquivalenceVerdict {
        forward: contains(m1, m2),
        backward: contains(m2, m1),
    }
}

/// Re-verify a [`ContainmentWitness`] from first principles: the pair
/// must be a solution under `m1` *and* violate the named dependency of
/// `m2`. Anything less is not a counterexample to `M₁ ⊑ M₂`.
pub fn verify_containment_witness(m1: &Mapping, m2: &Mapping, w: &ContainmentWitness) -> bool {
    if !m1.is_solution(&w.source, &w.target) {
        return false;
    }
    match w.dependency {
        WitnessDep::StTgd(i) => m2
            .st_tgds()
            .get(i)
            .is_some_and(|t| !t.satisfied_by(&w.source, &w.target)),
        WitnessDep::TargetTgd(i) => m2
            .target_tgds()
            .get(i)
            .is_some_and(|t| !t.satisfied_by(&w.target, &w.target)),
        WitnessDep::TargetEgd(i) => m2
            .target_egds()
            .get(i)
            .is_some_and(|e| !e.satisfied_by(&w.target)),
    }
}

// ---------------------------------------------------------------- //
// Rewrites                                                          //
// ---------------------------------------------------------------- //

fn with_st_tgds(m: &Mapping, st: Vec<StTgd>) -> Option<Mapping> {
    Mapping::with_target_deps(
        m.source().clone(),
        m.target().clone(),
        st,
        m.target_tgds().to_vec(),
        m.target_egds().to_vec(),
    )
    .ok()
}

fn with_target_tgds(m: &Mapping, tt: Vec<StTgd>) -> Option<Mapping> {
    Mapping::with_target_deps(
        m.source().clone(),
        m.target().clone(),
        m.st_tgds().to_vec(),
        tt,
        m.target_egds().to_vec(),
    )
    .ok()
}

fn with_egds(m: &Mapping, egds: Vec<Egd>) -> Option<Mapping> {
    Mapping::with_target_deps(
        m.source().clone(),
        m.target().clone(),
        m.st_tgds().to_vec(),
        m.target_tgds().to_vec(),
        egds,
    )
    .ok()
}

fn drop_at<T: Clone>(list: &[T], i: usize) -> Vec<T> {
    list.iter()
        .enumerate()
        .filter(|(j, _)| *j != i)
        .map(|(_, t)| t.clone())
        .collect()
}

/// Deleting st-tgd `i` verified safe: the reduced mapping must imply
/// the deleted rule. (The other containment direction is free — the
/// reduced dependency set is a syntactic subset of the original.)
fn try_drop_st_tgd(m: &Mapping, i: usize) -> Option<Mapping> {
    let sigma = m.st_tgds().get(i)?.clone();
    let reduced = with_st_tgds(m, drop_at(m.st_tgds(), i))?;
    let shim = shim_mapping(&reduced)?;
    matches!(
        implied_dep(
            &reduced,
            &shim,
            &sigma.lhs,
            WitnessDep::StTgd(i),
            &|s, j| { sigma.satisfied_by(s, j) }
        ),
        Implied::Yes
    )
    .then_some(reduced)
}

/// Deleting target tgd `i` verified safe (see [`try_drop_st_tgd`]).
fn try_drop_target_tgd(m: &Mapping, i: usize) -> Option<Mapping> {
    let sigma = m.target_tgds().get(i)?.clone();
    let reduced = with_target_tgds(m, drop_at(m.target_tgds(), i))?;
    let shim = shim_mapping(&reduced)?;
    matches!(
        implied_dep(
            &reduced,
            &shim,
            &sigma.lhs,
            WitnessDep::TargetTgd(i),
            &|_, j| { sigma.satisfied_by(j, j) }
        ),
        Implied::Yes
    )
    .then_some(reduced)
}

/// Deleting target egd `i` verified safe — covers exact duplicates and
/// egds implied by the remaining dependencies alike.
fn try_drop_egd(m: &Mapping, i: usize) -> Option<Mapping> {
    let sigma = m.target_egds().get(i)?.clone();
    let reduced = with_egds(m, drop_at(m.target_egds(), i))?;
    let shim = shim_mapping(&reduced)?;
    matches!(
        implied_dep(
            &reduced,
            &shim,
            &sigma.lhs,
            WitnessDep::TargetEgd(i),
            &|_, j| { sigma.satisfied_by(j) }
        ),
        Implied::Yes
    )
    .then_some(reduced)
}

/// Is deleting st-tgd `i` an equivalence-preserving rewrite? This is
/// the single decision procedure behind `DEX105`, `DEX601`, and the
/// optimizer's deletions — one oracle, so the passes cannot disagree.
pub fn st_tgd_deletable(m: &Mapping, i: usize) -> bool {
    chase_refusal(m).is_none() && try_drop_st_tgd(m, i).is_some()
}

/// Is deleting target tgd `i` an equivalence-preserving rewrite?
pub fn target_tgd_deletable(m: &Mapping, i: usize) -> bool {
    chase_refusal(m).is_none() && try_drop_target_tgd(m, i).is_some()
}

/// Is deleting target egd `i` an equivalence-preserving rewrite?
pub fn target_egd_deletable(m: &Mapping, i: usize) -> bool {
    chase_refusal(m).is_none() && try_drop_egd(m, i).is_some()
}

/// Split a conclusion into its existential-sharing components: two rhs
/// atoms stay in one rule iff they (transitively) share an existential
/// variable. `None` when the rhs is a single component already.
fn split_components(tgd: &StTgd) -> Option<Vec<StTgd>> {
    if tgd.rhs.len() < 2 {
        return None;
    }
    let existentials: BTreeSet<Name> = tgd.existential_vars().into_iter().collect();
    let n = tgd.rhs.len();
    let mut comp: Vec<usize> = (0..n).collect();
    fn root(comp: &mut [usize], mut i: usize) -> usize {
        while comp[i] != i {
            comp[i] = comp[comp[i]];
            i = comp[i];
        }
        i
    }
    for a in 0..n {
        for b in a + 1..n {
            let shares = tgd.rhs[a]
                .variables()
                .iter()
                .any(|v| existentials.contains(v) && tgd.rhs[b].variables().contains(v));
            if shares {
                let (ra, rb) = (root(&mut comp, a), root(&mut comp, b));
                comp[ra] = rb;
            }
        }
    }
    let mut groups: Vec<(usize, Vec<Atom>)> = Vec::new();
    for i in 0..n {
        let r = root(&mut comp, i);
        match groups.iter_mut().find(|(g, _)| *g == r) {
            Some((_, atoms)) => atoms.push(tgd.rhs[i].clone()),
            None => groups.push((r, vec![tgd.rhs[i].clone()])),
        }
    }
    if groups.len() < 2 {
        return None;
    }
    Some(
        groups
            .into_iter()
            .map(|(_, atoms)| StTgd::new(tgd.lhs.clone(), atoms))
            .collect(),
    )
}

/// The pruned-premise candidate for atom `j` of tgd `i`: the remaining
/// premise must still bind every frontier variable (a frontier
/// variable silently becoming an existential would change semantics in
/// a way no later check could repair). `None` when the prune is not
/// even a candidate; the caller still re-verifies equivalence.
fn prune_candidate(m: &Mapping, st_side: bool, i: usize, j: usize) -> Option<Mapping> {
    let list = if st_side {
        m.st_tgds()
    } else {
        m.target_tgds()
    };
    let tgd = list.get(i)?;
    if tgd.lhs.len() < 2 {
        return None;
    }
    let pruned_lhs = drop_at(&tgd.lhs, j);
    let bound: BTreeSet<Name> = pruned_lhs.iter().flat_map(|a| a.variables()).collect();
    if !tgd.frontier().iter().all(|v| bound.contains(v)) {
        return None;
    }
    let mut new_list = list.to_vec();
    new_list[i] = StTgd::new(pruned_lhs, tgd.rhs.clone());
    if st_side {
        with_st_tgds(m, new_list)
    } else {
        with_target_tgds(m, new_list)
    }
}

/// The kind of a verified optimizer rewrite.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Serialize, Deserialize)]
pub enum RewriteKind {
    /// A conclusion split into existential-sharing components.
    SplitConclusion,
    /// An st-tgd implied by the remaining dependencies was deleted.
    DropStTgd,
    /// A target tgd implied by the remaining dependencies was deleted.
    DropTargetTgd,
    /// A target egd implied by the remaining dependencies was deleted.
    DropTargetEgd,
    /// A redundant premise atom was pruned.
    PrunePremiseAtom,
}

/// One verified rewrite the optimizer applied.
#[derive(Clone, PartialEq, Eq, Debug, Serialize, Deserialize)]
pub struct Rewrite {
    /// What was rewritten.
    pub kind: RewriteKind,
    /// Index into the relevant dependency list *at the time of the
    /// rewrite* (earlier rewrites shift later indices).
    pub index: usize,
    /// Human-readable description of the rewrite.
    pub description: String,
}

/// The result of [`optimize`].
#[derive(Clone, Debug)]
pub struct OptimizeOutcome {
    /// The optimized mapping (the input mapping when `refused`).
    pub mapping: Mapping,
    /// Every rewrite applied, in application order, each individually
    /// verified equivalence-preserving before it was kept.
    pub rewrites: Vec<Rewrite>,
    /// `Some(reason)` when the optimizer could not run at all
    /// (non-terminating target tgds); the mapping is untouched.
    pub refused: Option<String>,
}

impl OptimizeOutcome {
    /// Did any rewrite apply?
    pub fn changed(&self) -> bool {
        !self.rewrites.is_empty()
    }
}

/// Total atom count, then dependency count — the "smaller" order
/// behind `DEX603`. Splitting alone keeps the atom count and raises
/// the dependency count, so it never counts as a shrink by itself.
pub fn mapping_size(m: &Mapping) -> (usize, usize) {
    let atoms: usize = m
        .st_tgds()
        .iter()
        .chain(m.target_tgds())
        .map(|t| t.lhs.len() + t.rhs.len())
        .sum::<usize>()
        + m.target_egds()
            .iter()
            .map(|e| e.lhs.len() + e.equalities.len())
            .sum::<usize>();
    let deps = m.st_tgds().len() + m.target_tgds().len() + m.target_egds().len();
    (atoms, deps)
}

/// Optimize `mapping`: split conclusions, delete implied dependencies,
/// prune redundant premise atoms — every rewrite individually verified
/// by the containment checker before it is kept. Refuses (mapping
/// untouched) when the chase is not certified to terminate.
pub fn optimize(mapping: &Mapping) -> OptimizeOutcome {
    if let Some(reason) = chase_refusal(mapping) {
        return OptimizeOutcome {
            mapping: mapping.clone(),
            rewrites: Vec::new(),
            refused: Some(reason),
        };
    }
    let mut current = mapping.clone();
    let mut rewrites = Vec::new();

    // Phase 1: conclusion splitting — a normalization that lets the
    // later phases act on single-purpose rules.
    'split: loop {
        for st_side in [true, false] {
            let list = if st_side {
                current.st_tgds()
            } else {
                current.target_tgds()
            };
            for (i, tgd) in list.iter().enumerate() {
                let Some(parts) = split_components(tgd) else {
                    continue;
                };
                let mut new_list = list.to_vec();
                let display = tgd.to_string();
                let count = parts.len();
                new_list.splice(i..=i, parts);
                let cand = if st_side {
                    with_st_tgds(&current, new_list)
                } else {
                    with_target_tgds(&current, new_list)
                };
                let Some(cand) = cand else { continue };
                if equivalent(&current, &cand).holds() {
                    rewrites.push(Rewrite {
                        kind: RewriteKind::SplitConclusion,
                        index: i,
                        description: format!(
                            "split `{display}` into {count} independent-conclusion rules"
                        ),
                    });
                    current = cand;
                    continue 'split;
                }
            }
        }
        break;
    }

    // Phases 2+3 interleave to a fixpoint: a deletion can expose a
    // prune and a prune can turn a rule into a duplicate.
    loop {
        let mut changed = false;

        'drop: loop {
            for i in 0..current.st_tgds().len() {
                if let Some(next) = try_drop_st_tgd(&current, i) {
                    rewrites.push(Rewrite {
                        kind: RewriteKind::DropStTgd,
                        index: i,
                        description: format!(
                            "deleted st-tgd `{}` — implied by the remaining dependencies",
                            current.st_tgds()[i]
                        ),
                    });
                    current = next;
                    changed = true;
                    continue 'drop;
                }
            }
            for i in 0..current.target_tgds().len() {
                if let Some(next) = try_drop_target_tgd(&current, i) {
                    rewrites.push(Rewrite {
                        kind: RewriteKind::DropTargetTgd,
                        index: i,
                        description: format!(
                            "deleted target tgd `{}` — implied by the remaining dependencies",
                            current.target_tgds()[i]
                        ),
                    });
                    current = next;
                    changed = true;
                    continue 'drop;
                }
            }
            for i in 0..current.target_egds().len() {
                if let Some(next) = try_drop_egd(&current, i) {
                    rewrites.push(Rewrite {
                        kind: RewriteKind::DropTargetEgd,
                        index: i,
                        description: format!(
                            "deleted egd `{}` — implied by the remaining dependencies",
                            current.target_egds()[i]
                        ),
                    });
                    current = next;
                    changed = true;
                    continue 'drop;
                }
            }
            break;
        }

        'prune: loop {
            for st_side in [true, false] {
                let len = if st_side {
                    current.st_tgds().len()
                } else {
                    current.target_tgds().len()
                };
                for i in 0..len {
                    let arity = if st_side {
                        current.st_tgds()[i].lhs.len()
                    } else {
                        current.target_tgds()[i].lhs.len()
                    };
                    for j in 0..arity {
                        let Some(cand) = prune_candidate(&current, st_side, i, j) else {
                            continue;
                        };
                        if equivalent(&current, &cand).holds() {
                            let list = if st_side {
                                current.st_tgds()
                            } else {
                                current.target_tgds()
                            };
                            rewrites.push(Rewrite {
                                kind: RewriteKind::PrunePremiseAtom,
                                index: i,
                                description: format!(
                                    "pruned redundant premise atom `{}` from `{}`",
                                    list[i].lhs[j], list[i]
                                ),
                            });
                            current = cand;
                            changed = true;
                            continue 'prune;
                        }
                    }
                }
            }
            break;
        }

        if !changed {
            break;
        }
    }

    OptimizeOutcome {
        mapping: current,
        rewrites,
        refused: None,
    }
}

// ---------------------------------------------------------------- //
// Rendering (parseable `.dex` text)                                 //
// ---------------------------------------------------------------- //

pub use dex_logic::{egd_dex, render_mapping_dex, tgd_dex};

// ---------------------------------------------------------------- //
// The lint pass                                                     //
// ---------------------------------------------------------------- //

/// Run the semantic pass: `DEX601` (deletable dependency), `DEX602`
/// (redundant premise atom), `DEX603` (equivalent-to-smaller summary).
/// Silent on non-terminating mappings — the termination pass already
/// reports `DEX001`, and without a terminating chase none of these
/// claims could be verified.
pub fn semantic_pass(mapping: &Mapping, spans: Option<&SourceMap>) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    if chase_refusal(mapping).is_some() {
        return out;
    }

    let mut deletable_st = BTreeSet::new();
    let mut deletable_tt = BTreeSet::new();

    for i in 0..mapping.st_tgds().len() {
        if st_tgd_deletable(mapping, i) {
            deletable_st.insert(i);
            let tgd = &mapping.st_tgds()[i];
            let rest: Vec<usize> = (0..mapping.st_tgds().len()).filter(|j| *j != i).collect();
            let span = spans.and_then(|s| s.st_tgds.get(i).copied());
            let mut d = Diagnostic::new(
                Code::Dex601,
                format!(
                    "st-tgd `{tgd}` is implied by the remaining dependencies; deleting \
                     it is a verified equivalence-preserving rewrite"
                ),
            )
            .with_span(span)
            .with_witness(Witness::TgdIndices(rest))
            .with_note(
                "the containment checker chased the frozen premise under the reduced \
                 mapping and found the conclusion already satisfied",
            );
            if let Some(span) = span {
                d = d.with_suggestion(Suggestion {
                    span,
                    replacement: String::new(),
                });
            }
            out.push(d);
        }
    }
    for i in 0..mapping.target_tgds().len() {
        if target_tgd_deletable(mapping, i) {
            deletable_tt.insert(i);
            let tgd = &mapping.target_tgds()[i];
            let rest: Vec<usize> = (0..mapping.target_tgds().len())
                .filter(|j| *j != i)
                .collect();
            let span = spans.and_then(|s| s.target_tgds.get(i).copied());
            let mut d = Diagnostic::new(
                Code::Dex601,
                format!(
                    "target tgd `{tgd}` is implied by the remaining dependencies; \
                     deleting it is a verified equivalence-preserving rewrite"
                ),
            )
            .with_span(span)
            .with_witness(Witness::TgdIndices(rest))
            .with_note(
                "individually-deletable dependencies may not be jointly deletable \
                 (duplicates imply each other); `lint --fix` re-verifies after every \
                 deletion",
            );
            if let Some(span) = span {
                d = d.with_suggestion(Suggestion {
                    span,
                    replacement: String::new(),
                });
            }
            out.push(d);
        }
    }
    for i in 0..mapping.target_egds().len() {
        if target_egd_deletable(mapping, i) {
            let egd = &mapping.target_egds()[i];
            let rest: Vec<usize> = (0..mapping.target_egds().len())
                .filter(|j| *j != i)
                .collect();
            let span = spans.and_then(|s| s.target_egds.get(i).copied());
            let mut d = Diagnostic::new(
                Code::Dex601,
                format!(
                    "egd `{egd}` is implied by the remaining dependencies; deleting it \
                     is a verified equivalence-preserving rewrite"
                ),
            )
            .with_span(span)
            .with_witness(Witness::TgdIndices(rest))
            .with_note(
                "covers exact duplicates and egds the other dependencies already \
                 enforce",
            );
            if let Some(span) = span {
                d = d.with_suggestion(Suggestion {
                    span,
                    replacement: String::new(),
                });
            }
            out.push(d);
        }
    }

    // DEX602 — at most one per rule (applying one prune can change
    // whether the next is safe; `--fix` iterates to a fixpoint).
    // Rules already deletable wholesale are skipped: conflicting
    // suggestions on one span would make the fix ambiguous.
    for (st_side, skip) in [(true, &deletable_st), (false, &deletable_tt)] {
        let list = if st_side {
            mapping.st_tgds()
        } else {
            mapping.target_tgds()
        };
        for (i, tgd) in list.iter().enumerate() {
            if skip.contains(&i) {
                continue;
            }
            for j in 0..tgd.lhs.len() {
                let Some(cand) = prune_candidate(mapping, st_side, i, j) else {
                    continue;
                };
                if !equivalent(mapping, &cand).holds() {
                    continue;
                }
                let span = spans.and_then(|s| {
                    if st_side {
                        s.st_tgds.get(i).copied()
                    } else {
                        s.target_tgds.get(i).copied()
                    }
                });
                let pruned = StTgd::new(drop_at(&tgd.lhs, j), tgd.rhs.clone());
                let mut d = Diagnostic::new(
                    Code::Dex602,
                    format!(
                        "premise atom `{}` in `{tgd}` is redundant; the rule derives \
                         the same conclusions without it",
                        tgd.lhs[j]
                    ),
                )
                .with_span(span)
                .with_witness(Witness::TgdIndices(vec![i]))
                .with_note(
                    "verified by chasing the critical instances of both variants in \
                     both directions",
                );
                if let Some(span) = span {
                    d = d.with_suggestion(Suggestion {
                        span,
                        replacement: tgd_dex(&pruned),
                    });
                }
                out.push(d);
                break;
            }
        }
    }

    // DEX603 — summary: the optimizer found a strictly smaller
    // equivalent mapping.
    let opt = optimize(mapping);
    if opt.refused.is_none() && mapping_size(&opt.mapping) < mapping_size(mapping) {
        let (a0, d0) = mapping_size(mapping);
        let (a1, d1) = mapping_size(&opt.mapping);
        let mut d = Diagnostic::new(
            Code::Dex603,
            format!(
                "mapping is equivalent to a smaller one: {d0} dependencies / {a0} atoms \
                 can shrink to {d1} dependencies / {a1} atoms ({} verified rewrite{}; \
                 run `dexcli optimize`)",
                opt.rewrites.len(),
                if opt.rewrites.len() == 1 { "" } else { "s" }
            ),
        );
        for r in &opt.rewrites {
            d = d.with_note(r.description.clone());
        }
        out.push(d);
    }

    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use dex_logic::parse_mapping;

    fn m(src: &str) -> Mapping {
        parse_mapping(src).unwrap()
    }

    #[test]
    fn identical_mappings_are_equivalent() {
        let a = m("source Emp(name);\ntarget T(name);\nEmp(x) -> T(x);");
        assert!(equivalent(&a, &a).holds());
    }

    #[test]
    fn weaker_premise_contains_stronger() {
        // a's rule fires on every Emp row; b's only on the diagonal —
        // so every a-solution is a b-solution, not vice versa.
        let a = m("source Emp(a, b);\ntarget T(a, b);\nEmp(x, y) -> T(x, y);");
        let b = m("source Emp(a, b);\ntarget T(a, b);\nEmp(x, x) -> T(x, x);");
        assert_eq!(contains(&a, &b), ContainmentVerdict::Holds);
        match contains(&b, &a) {
            ContainmentVerdict::Fails(w) => {
                assert!(verify_containment_witness(&b, &a, &w));
                assert_eq!(w.dependency, WitnessDep::StTgd(0));
            }
            other => panic!("expected failure, got {other:?}"),
        }
        let eq = equivalent(&a, &b);
        assert!(!eq.holds());
        assert!(eq.refuted());
    }

    #[test]
    fn different_schemas_are_incomparable() {
        let a = m("source Emp(name);\ntarget T(name);\nEmp(x) -> T(x);");
        let b = m("source Person(name);\ntarget T(name);\nPerson(x) -> T(x);");
        assert!(matches!(
            contains(&a, &b),
            ContainmentVerdict::Undecided { .. }
        ));
    }

    #[test]
    fn non_terminating_left_side_is_undecided() {
        let bad = m("source R(a);\ntarget Succ(a, b);\nR(x) -> Succ(x, y);\n\
                     Succ(x, y) -> Succ(y, z);");
        let other = m("source R(a);\ntarget Succ(a, b);\nR(x) -> Succ(x, y);");
        assert!(matches!(
            contains(&bad, &other),
            ContainmentVerdict::Undecided { .. }
        ));
        // The terminating side can still chase: other ⊑ bad is
        // checkable... but bad's target tgd premise freezes fine and
        // `other` has no target tgds, so the check runs to a verdict.
        assert!(matches!(
            contains(&other, &bad),
            ContainmentVerdict::Fails(_)
        ));
    }

    #[test]
    fn target_tgd_implication_via_transitivity() {
        // S->T plus rule R->S imply R->T? As mappings: a has the
        // composite rule, b spells it out; both directions hold.
        let a = m("source R(a);\ntarget S(a);\ntarget T(a);\n\
                   R(x) -> S(x);\nS(x) -> T(x);");
        let b = m("source R(a);\ntarget S(a);\ntarget T(a);\n\
                   R(x) -> S(x);\nR(x) -> T(x);\nS(x) -> T(x);");
        assert_eq!(contains(&a, &b), ContainmentVerdict::Holds);
        assert_eq!(contains(&b, &a), ContainmentVerdict::Holds);
    }

    #[test]
    fn egd_merging_frozen_nulls_detects_implication() {
        // The key egd makes the two Mgr rows collapse, so the second
        // rule's conclusion is already present: frozen-as-constants
        // would miss this (the egd would clash instead of merging).
        let a = m(
            "source Emp(name, dept);\ntarget Mgr(name, boss);\nkey Mgr(name);\n\
                   Emp(x, y) -> Mgr(x, z);",
        );
        let b = m(
            "source Emp(name, dept);\ntarget Mgr(name, boss);\nkey Mgr(name);\n\
                   Emp(x, y) -> Mgr(x, z);\nEmp(x, y) & Emp(x, w) -> Mgr(x, u);",
        );
        assert_eq!(contains(&a, &b), ContainmentVerdict::Holds);
    }

    #[test]
    fn duplicate_egd_is_deletable_but_only_one_at_a_time() {
        let a = m("source R(a, b);\ntarget T(a, b);\nR(x, y) -> T(x, y);\n\
                   T(x, y) & T(x, z) -> y = z;\nT(x, y) & T(x, z) -> y = z;");
        assert!(target_egd_deletable(&a, 0));
        assert!(target_egd_deletable(&a, 1));
        let opt = optimize(&a);
        assert!(opt.refused.is_none());
        // Exactly one copy survives: deleting both would drop the
        // constraint entirely.
        assert_eq!(opt.mapping.target_egds().len(), 1);
        assert_eq!(opt.rewrites.len(), 1);
        assert_eq!(opt.rewrites[0].kind, RewriteKind::DropTargetEgd);
    }

    #[test]
    fn optimizer_drops_subsumed_tgd_and_prunes_duplicate_atom() {
        let a = m("source Emp(a, b);\ntarget T(a, b);\n\
                   Emp(x, y) -> T(x, y);\nEmp(x, x) -> T(x, x);");
        let opt = optimize(&a);
        assert!(opt.refused.is_none());
        assert_eq!(opt.mapping.st_tgds().len(), 1);
        assert!(opt
            .rewrites
            .iter()
            .any(|r| r.kind == RewriteKind::DropStTgd));
        assert!(equivalent(&a, &opt.mapping).holds());

        let b = m("source Emp(a, b);\ntarget T(a, b);\n\
                   Emp(x, y) & Emp(x, y) -> T(x, y);");
        let opt = optimize(&b);
        assert_eq!(opt.mapping.st_tgds()[0].lhs.len(), 1);
        assert!(opt
            .rewrites
            .iter()
            .any(|r| r.kind == RewriteKind::PrunePremiseAtom));
        assert!(equivalent(&b, &opt.mapping).holds());
    }

    #[test]
    fn optimizer_splits_independent_conclusions() {
        let a = m("source R(a);\ntarget T(a, b);\ntarget U(a, b);\n\
                   R(x) -> T(x, y) & U(x, z);");
        let opt = optimize(&a);
        assert!(opt.refused.is_none());
        assert_eq!(opt.mapping.st_tgds().len(), 2);
        assert!(opt
            .rewrites
            .iter()
            .any(|r| r.kind == RewriteKind::SplitConclusion));
        assert!(equivalent(&a, &opt.mapping).holds());
    }

    #[test]
    fn shared_existential_conclusion_does_not_split() {
        let a = m("source R(a);\ntarget T(a, b);\ntarget U(b, a);\n\
                   R(x) -> T(x, y) & U(y, x);");
        let opt = optimize(&a);
        assert!(!opt.changed(), "{:?}", opt.rewrites);
    }

    #[test]
    fn optimizer_refuses_non_terminating_mappings() {
        let a = m("source R(a);\ntarget Succ(a, b);\nR(x) -> Succ(x, y);\n\
                   Succ(x, y) -> Succ(y, z);");
        let opt = optimize(&a);
        assert!(opt.refused.is_some());
        assert!(!opt.changed());
    }

    #[test]
    fn semantic_pass_emits_601_602_603() {
        use dex_logic::parse_mapping_with_spans;
        let (m, sm) = parse_mapping_with_spans(
            "source Emp(a, b);\ntarget T(a, b);\n\
             Emp(x, y) -> T(x, y);\nEmp(x, x) -> T(x, x);\n\
             Emp(x, y) & Emp(x, y) -> T(y, x);",
        )
        .unwrap();
        let ds = semantic_pass(&m, Some(&sm));
        let codes: Vec<Code> = ds.iter().map(|d| d.code).collect();
        assert!(codes.contains(&Code::Dex601), "{ds:#?}");
        assert!(codes.contains(&Code::Dex602), "{ds:#?}");
        assert!(codes.contains(&Code::Dex603), "{ds:#?}");
        let d601 = ds.iter().find(|d| d.code == Code::Dex601).unwrap();
        assert_eq!(d601.span.unwrap().line, 4);
        assert_eq!(d601.suggestion.as_ref().unwrap().replacement, "");
        let d602 = ds.iter().find(|d| d.code == Code::Dex602).unwrap();
        assert_eq!(d602.span.unwrap().line, 5);
        assert_eq!(
            d602.suggestion.as_ref().unwrap().replacement,
            "Emp(x, y) -> T(y, x);"
        );
    }

    #[test]
    fn render_round_trips() {
        let src = "source Emp(name, dept);\ntarget Mgr(name, boss);\nkey Mgr(name);\n\
                   Emp(x, y) -> Mgr(x, z);\nMgr(x, y) & Mgr(y, z) -> x = x;";
        let mut mappings = vec![("inline".to_string(), m(src))];
        let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/../../examples/mappings");
        for entry in std::fs::read_dir(dir).unwrap() {
            let path = entry.unwrap().path();
            if path.extension().is_some_and(|e| e == "dex") {
                if let Ok(parsed) = parse_mapping(&std::fs::read_to_string(&path).unwrap()) {
                    mappings.push((path.display().to_string(), parsed));
                }
            }
        }
        assert!(mappings.len() > 10, "the example corpus went missing");
        for (name, a) in mappings {
            let rendered = render_mapping_dex(&a);
            let back =
                parse_mapping(&rendered).unwrap_or_else(|e| panic!("{name}:\n{rendered}\n{e:?}"));
            assert_eq!(a, back, "{name}:\n{rendered}");
        }
    }
}
