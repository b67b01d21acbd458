//! Spans and cospans of asymmetric lenses.
//!
//! Paper §3: “A set-based symmetric lens between S and T amounts to a
//! set U … and two asymmetric lenses, one from U to S and one from U to
//! T.” A [`SpanLens`] packages exactly that and implements [`SymLens`];
//! when the two legs are well-behaved, so is the induced symmetric
//! lens.
//!
//! The paper also points at *cospans* `S → X ← T` (used in practical
//! data-exchange work \[19\]) and notes “a co-span of asymmetric lenses
//! is not a symmetric lens.” Two renditions live here:
//!
//! * [`MemorylessCospan`] — the cospan *as such*: propagation through
//!   the shared codomain with no extra state. Its laws genuinely fail
//!   for lossy legs (tests exhibit the counterexample), which is the
//!   paper's point.
//! * [`CospanLens`] — the practical half-duplex variant: each side
//!   keeps its last state as complement, recovering well-behavedness.
//!   This is “the precise mathematical relationship” question the
//!   paper's conclusion raises, made executable: a cospan *plus both
//!   repositories' memory* behaves like a symmetric lens.

use crate::asymmetric::Lens;
use crate::symmetric::SymLens;

/// A span `S ←left– U –right→ T` of asymmetric lenses, as a symmetric
/// lens with complement `U`.
#[derive(Clone, Debug)]
pub struct SpanLens<L, R>
where
    L: Lens,
{
    left: L,
    right: R,
    seed: Option<L::Source>,
}

impl<L, R, U> SpanLens<L, R>
where
    L: Lens<Source = U>,
    R: Lens<Source = U>,
{
    /// Build from the two legs. With no seed, the first `put` uses the
    /// legs' `create`.
    pub fn new(left: L, right: R) -> Self {
        SpanLens {
            left,
            right,
            seed: None,
        }
    }

    /// Build with an initial head instance `U`.
    pub fn with_seed(left: L, right: R, seed: U) -> Self {
        SpanLens {
            left,
            right,
            seed: Some(seed),
        }
    }

    /// The left leg.
    pub fn left(&self) -> &L {
        &self.left
    }

    /// The right leg.
    pub fn right(&self) -> &R {
        &self.right
    }
}

impl<L, R, U> SymLens for SpanLens<L, R>
where
    L: Lens<Source = U>,
    R: Lens<Source = U>,
    U: Clone,
    L::View: Clone,
    R::View: Clone,
{
    type Left = L::View;
    type Right = R::View;
    type Compl = Option<U>;

    fn missing(&self) -> Option<U> {
        self.seed.clone()
    }

    fn put_r(&self, x: &L::View, c: &Option<U>) -> (R::View, Option<U>) {
        let u = match c {
            Some(u) => self.left.put(x, u),
            None => self.left.create(x),
        };
        let y = self.right.get(&u);
        (y, Some(u))
    }

    fn put_l(&self, y: &R::View, c: &Option<U>) -> (L::View, Option<U>) {
        let u = match c {
            Some(u) => self.right.put(y, u),
            None => self.right.create(y),
        };
        let x = self.left.get(&u);
        (x, Some(u))
    }
}

/// The *memoryless* cospan `S –left→ X ←right– T`: propagation goes
/// through the shared codomain `X` with no complement at all. **Not** a
/// well-behaved symmetric lens in general (paper §5): anything the
/// codomain does not carry is re-created from defaults on every push.
#[derive(Clone, Debug)]
pub struct MemorylessCospan<L, R> {
    left: L,
    right: R,
}

impl<L, R, X> MemorylessCospan<L, R>
where
    L: Lens<View = X>,
    R: Lens<View = X>,
{
    /// Build from the two legs into the common codomain.
    pub fn new(left: L, right: R) -> Self {
        MemorylessCospan { left, right }
    }
}

impl<L, R, X> SymLens for MemorylessCospan<L, R>
where
    L: Lens<View = X>,
    R: Lens<View = X>,
{
    type Left = L::Source;
    type Right = R::Source;
    type Compl = ();

    fn missing(&self) {}

    fn put_r(&self, s: &L::Source, _c: &()) -> (R::Source, ()) {
        (self.right.create(&self.left.get(s)), ())
    }

    fn put_l(&self, t: &R::Source, _c: &()) -> (L::Source, ()) {
        (self.left.create(&self.right.get(t)), ())
    }
}

/// The *stateful* cospan: propagation through the shared codomain, with
/// each repository's last state kept as complement (the half-duplex
/// interoperation of the paper's \[19\]). The memory restores
/// well-behavedness — see the tests contrasting it with
/// [`MemorylessCospan`].
#[derive(Clone, Debug)]
pub struct CospanLens<L, R>
where
    L: Lens,
    R: Lens,
{
    left: L,
    right: R,
}

impl<L, R, X> CospanLens<L, R>
where
    L: Lens<View = X>,
    R: Lens<View = X>,
{
    /// Build from the two legs into the common codomain.
    pub fn new(left: L, right: R) -> Self {
        CospanLens { left, right }
    }
}

impl<L, R, X> SymLens for CospanLens<L, R>
where
    L: Lens<View = X>,
    R: Lens<View = X>,
    L::Source: Clone,
    R::Source: Clone,
{
    type Left = L::Source;
    type Right = R::Source;
    /// Last-seen states of the two repositories.
    type Compl = (Option<L::Source>, Option<R::Source>);

    fn missing(&self) -> Self::Compl {
        (None, None)
    }

    fn put_r(&self, s: &L::Source, c: &Self::Compl) -> (R::Source, Self::Compl) {
        let x = self.left.get(s);
        let t = match &c.1 {
            Some(t_old) => self.right.put(&x, t_old),
            None => self.right.create(&x),
        };
        let compl = (Some(s.clone()), Some(t.clone()));
        (t, compl)
    }

    fn put_l(&self, t: &R::Source, c: &Self::Compl) -> (L::Source, Self::Compl) {
        let x = self.right.get(t);
        let s = match &c.0 {
            Some(s_old) => self.left.put(&x, s_old),
            None => self.left.create(&x),
        };
        let compl = (Some(s.clone()), Some(t.clone()));
        (s, compl)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::asymmetric::FnLens;
    use crate::laws;

    /// The head U = (name, age, city); left leg projects (name, age),
    /// right leg projects (name, city). The classic symmetric scenario
    /// of the paper: neither side holds all the data.
    type U = (String, u32, String);

    fn left_leg() -> FnLens<U, (String, u32)> {
        FnLens::new(
            |u: &U| (u.0.clone(), u.1),
            |v: &(String, u32), u: &U| (v.0.clone(), v.1, u.2.clone()),
            |v: &(String, u32)| (v.0.clone(), v.1, "unknown".into()),
        )
    }

    fn right_leg() -> FnLens<U, (String, String)> {
        FnLens::new(
            |u: &U| (u.0.clone(), u.2.clone()),
            |v: &(String, String), u: &U| (v.0.clone(), u.1, v.1.clone()),
            |v: &(String, String)| (v.0.clone(), 0, v.1.clone()),
        )
    }

    #[test]
    fn legs_are_well_behaved() {
        let sources = vec![
            ("alice".to_string(), 30u32, "Sydney".to_string()),
            ("bob".to_string(), 40, "Santiago".to_string()),
        ];
        let l = left_leg();
        let views = vec![("zed".to_string(), 9u32)];
        assert!(laws::check_well_behaved(&l, &sources, &views).all_ok());
        let r = right_leg();
        let views = vec![("zed".to_string(), "Quito".to_string())];
        assert!(laws::check_well_behaved(&r, &sources, &views).all_ok());
    }

    #[test]
    fn span_is_well_behaved_symmetric_lens() {
        let span = SpanLens::new(left_leg(), right_leg());
        let report = laws::check_sym_well_behaved(
            &span,
            &[("alice".into(), 30), ("bob".into(), 40)],
            &[("carol".into(), "Quito".into())],
            &[None, Some(("seed".into(), 7, "Lima".into()))],
        );
        assert!(report.all_ok(), "{report}");
    }

    #[test]
    fn span_round_trip_preserves_both_sides_private_data() {
        let span = SpanLens::new(left_leg(), right_leg());
        let c0 = span.missing();
        // Left pushes (alice, 30): right sees default city.
        let ((n, city), c1) = span.put_r(&("alice".into(), 30), &c0);
        assert_eq!((n.as_str(), city.as_str()), ("alice", "unknown"));
        // Right edits the city and pushes back: age survives.
        let ((n2, age), c2) = span.put_l(&("alice".into(), "Sydney".into()), &c1);
        assert_eq!((n2.as_str(), age), ("alice", 30));
        // And the city now lives in the head.
        let ((_, city2), _) = span.put_r(&("alice".into(), 30), &c2);
        assert_eq!(city2, "Sydney");
    }

    #[test]
    fn span_inversion_is_free() {
        use crate::symmetric::invert;
        let span = SpanLens::new(left_leg(), right_leg());
        let inv = invert(SpanLens::new(left_leg(), right_leg()));
        let c = span.missing();
        let (y, _) = span.put_r(&("a".into(), 1), &c);
        let (y2, _) = inv.put_l(&("a".into(), 1), &c);
        assert_eq!(y, y2);
    }

    fn lossy_left_leg() -> FnLens<(String, u32), String> {
        // S = (name, age), X = name: the age never reaches the codomain.
        FnLens::new(
            |s: &(String, u32)| s.0.clone(),
            |v: &String, s: &(String, u32)| (v.clone(), s.1),
            |v: &String| (v.clone(), 0),
        )
    }

    fn lossy_right_leg() -> FnLens<(String, String), String> {
        FnLens::new(
            |s: &(String, String)| s.0.clone(),
            |v: &String, s: &(String, String)| (v.clone(), s.1.clone()),
            |v: &String| (v.clone(), "unknown".into()),
        )
    }

    /// The memoryless cospan through a lossy codomain (X = name only)
    /// is **not** a symmetric lens: PutRL fails because the age can
    /// never be restored — the paper's “a co-span of asymmetric lenses
    /// is not a symmetric lens.”
    #[test]
    fn memoryless_cospan_violates_symmetric_laws() {
        let cospan = MemorylessCospan::new(lossy_left_leg(), lossy_right_leg());
        let err = laws::check_put_rl(&cospan, &("alice".to_string(), 30), &());
        assert!(
            err.is_err(),
            "round-tripping (alice, 30) through X = name forgets the age"
        );
        // With age 0 (the create default) the round trip happens to
        // close — the violation is about information, not plumbing.
        assert!(laws::check_put_rl(&cospan, &("alice".to_string(), 0), &()).is_ok());
    }

    /// Adding per-repository memory (the stateful [`CospanLens`])
    /// recovers the symmetric-lens laws — the executable answer to the
    /// paper's closing question about the relationship between
    /// cospan-based data exchange and span-based symmetric lenses.
    #[test]
    fn stateful_cospan_is_law_abiding() {
        let cospan = CospanLens::new(lossy_left_leg(), lossy_right_leg());
        let report = laws::check_sym_well_behaved(
            &cospan,
            &[("alice".into(), 30), ("bob".into(), 7)],
            &[("carol".into(), "Quito".into())],
            &[
                (None, None),
                (
                    Some(("alice".into(), 30u32)),
                    Some(("alice".into(), "Sydney".into())),
                ),
            ],
        );
        assert!(report.all_ok(), "{report}");
    }

    #[test]
    fn cospan_propagation_still_useful() {
        // Despite not being a symmetric lens, the cospan does propagate
        // shared data: the half-duplex interoperation of the paper's
        // [19].
        let cospan = CospanLens::new(lossy_left_leg(), lossy_right_leg());
        let (t, c) = cospan.put_r(&("alice".into(), 30), &cospan.missing());
        assert_eq!(t, ("alice".to_string(), "unknown".to_string()));
        // Right renames; the left side follows while keeping its age.
        let (s, _) = cospan.put_l(&("alicia".into(), "Sydney".into()), &c);
        assert_eq!(s, ("alicia".to_string(), 30));
    }
}
