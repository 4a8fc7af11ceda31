//! Transition footprints for partial-order reduction.
//!
//! A [`Footprint`] abstracts what one transition touches: the acting
//! thread, the shared locations it reads and writes, the locations at
//! which it *appends* fresh messages to memory, whether it is
//! *certification-coupled* (a promise, or any step of a thread holding
//! promises: such steps are filtered through certification), and whether
//! it is a view *fence*. Footprints drive the default
//! [`independent`](Footprint::independent_with) relation of the
//! exploration engine's `SearchModel` trait.
//!
//! Appends never commute under [`independent_with`](Footprint::independent_with):
//! in the promising machine, memory is a single total order of messages
//! and views are scalar timestamps into it, so the relative order of two
//! appends — even to different locations — is observable (a view
//! covering one message covers everything below it). Reductions that
//! exploit disjoint-location appends do so per state, in each model's
//! `reduce` hook, not through this relation.
//!
//! Certification coupling is refined by an optional *certification
//! scope* ([`Footprint::cert_scope`]): when the certifying thread's
//! continuation can only ever access a known location set, appends
//! outside that set cannot change any certification verdict (they land
//! above every view and every in-scope message), so the coupled step and
//! the append are independent.
//!
//! The relation is deliberately conservative: returning `true`
//! guarantees the two transitions are independent in the classical
//! sense — co-enabled in some state, they commute (executing them in
//! either order reaches the same state, up to the model's state
//! identification) and neither enables or disables the other. `false`
//! makes no claim. Same-thread transitions are always dependent (they
//! compete for the same program point), and an unknown agent
//! ([`Footprint::opaque`]) is dependent with everything.

use crate::ids::Loc;

/// A small set of locations, bitmask-backed: locations `0..64` live in
/// one machine word (set intersection is on the hot path of the
/// independence relation), anything above spills into a side vector. Litmus tests
/// and the workload suites use a handful of locations; the spill path is
/// the conservative fallback for programs with more than 64.
///
/// The spill vector is kept **sorted**, so the derived `PartialEq`/`Eq`
/// are set-semantic: two sets holding the same locations compare equal
/// regardless of insertion order. (An insertion-ordered spill would make
/// equality order-sensitive exactly for programs with more than 64
/// locations — the real-code workloads of the closure harness.)
#[derive(Clone, PartialEq, Eq, Debug, Default)]
pub struct LocSet {
    bits: u64,
    spill: Vec<Loc>,
}

/// Width of the bitmask fast path: locations `0..SPILL_AT` are bits,
/// the rest spill.
const SPILL_AT: u64 = 64;

impl LocSet {
    /// The empty set.
    pub fn new() -> LocSet {
        LocSet::default()
    }

    /// A singleton set.
    pub fn of(loc: Loc) -> LocSet {
        let mut s = LocSet::new();
        s.insert(loc);
        s
    }

    /// Add a location.
    pub fn insert(&mut self, loc: Loc) {
        if loc.0 < SPILL_AT {
            self.bits |= 1 << loc.0;
        } else if let Err(at) = self.spill.binary_search(&loc) {
            self.spill.insert(at, loc);
        }
    }

    /// Whether `loc` is in the set.
    pub fn contains(&self, loc: Loc) -> bool {
        if loc.0 < SPILL_AT {
            self.bits & (1 << loc.0) != 0
        } else {
            self.spill.binary_search(&loc).is_ok()
        }
    }

    /// Whether the sets share a location.
    pub fn intersects(&self, other: &LocSet) -> bool {
        self.bits & other.bits != 0 || self.spill.iter().any(|l| other.spill.contains(l))
    }

    /// Whether the set is empty.
    pub fn is_empty(&self) -> bool {
        self.bits == 0 && self.spill.is_empty()
    }

    /// The number of locations in the set.
    pub fn len(&self) -> usize {
        self.bits.count_ones() as usize + self.spill.len()
    }

    /// Iterate over the locations in ascending order (bitmask part
    /// first, then the sorted spill).
    pub fn iter(&self) -> impl Iterator<Item = Loc> + '_ {
        let mut bits = self.bits;
        std::iter::from_fn(move || {
            if bits == 0 {
                return None;
            }
            let i = bits.trailing_zeros() as u64;
            bits &= bits - 1;
            Some(Loc(i))
        })
        .chain(self.spill.iter().copied())
    }
}

impl FromIterator<Loc> for LocSet {
    fn from_iter<I: IntoIterator<Item = Loc>>(iter: I) -> LocSet {
        let mut s = LocSet::new();
        for loc in iter {
            s.insert(loc);
        }
        s
    }
}

/// What one transition touches — see the module docs.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Footprint {
    /// The acting thread (`None`: unknown — dependent with everything).
    pub agent: Option<usize>,
    /// Shared locations read from memory.
    pub reads: LocSet,
    /// Shared locations whose memory content the step writes.
    pub writes: LocSet,
    /// Locations at which the step appends fresh messages to memory
    /// (normal writes, RMW normal writes, promises). Always a subset of
    /// `writes`. Any two appends conflict, regardless of location.
    pub appends: LocSet,
    /// Whether the step is certification-coupled: a promise, or any step
    /// of a thread that currently holds promises (r24 filters those
    /// through certification, which reads memory).
    pub promise: bool,
    /// When the step is certification-coupled and the certifying
    /// thread's continuation can only access a known location set, that
    /// set (reads ∪ writes of every remaining statement): appends
    /// outside it cannot change any certification verdict. `None` means
    /// unknown scope — couple with every append (today's conservative
    /// behaviour).
    pub cert_scope: Option<LocSet>,
    /// Whether the step is a view fence (thread-local; informational).
    pub fence: bool,
}

impl Footprint {
    /// The maximally conservative footprint: unknown agent, dependent
    /// with every other transition. The engine's default for models that
    /// do not override the footprint hook.
    pub fn opaque() -> Footprint {
        Footprint {
            agent: None,
            reads: LocSet::new(),
            writes: LocSet::new(),
            appends: LocSet::new(),
            promise: true,
            cert_scope: None,
            fence: false,
        }
    }

    /// A purely thread-local step of `agent` (register ops, branches,
    /// fences, exclusive-failures): no memory interaction at all.
    pub fn local(agent: usize) -> Footprint {
        Footprint {
            agent: Some(agent),
            reads: LocSet::new(),
            writes: LocSet::new(),
            appends: LocSet::new(),
            promise: false,
            cert_scope: None,
            fence: false,
        }
    }

    /// A read of `loc` by `agent`.
    pub fn read(agent: usize, loc: Loc) -> Footprint {
        Footprint {
            reads: LocSet::of(loc),
            ..Footprint::local(agent)
        }
    }

    /// A write of `loc` by `agent`; `appends` says whether it appends a
    /// fresh message (as opposed to fulfilling one already in memory).
    pub fn write(agent: usize, loc: Loc, appends: bool) -> Footprint {
        Footprint {
            writes: LocSet::of(loc),
            appends: if appends {
                LocSet::of(loc)
            } else {
                LocSet::new()
            },
            ..Footprint::local(agent)
        }
    }

    /// Mark the step certification-coupled (see the field docs).
    #[must_use]
    pub fn with_promise(mut self) -> Footprint {
        self.promise = true;
        self
    }

    /// Record the certifying thread's access scope (see the field docs).
    /// Only meaningful on certification-coupled footprints.
    #[must_use]
    pub fn with_cert_scope(mut self, scope: Option<LocSet>) -> Footprint {
        self.cert_scope = scope;
        self
    }

    /// Mark the step a view fence.
    #[must_use]
    pub fn with_fence(mut self) -> Footprint {
        self.fence = true;
        self
    }

    /// The independence relation: wherever both transitions are enabled
    /// they commute *state-identically*, and neither enables or
    /// disables the other. Any two appends conflict (global message
    /// order is observable through scalar views in the promising
    /// machine). Conservative — `false` makes no claim.
    pub fn independent_with(&self, other: &Footprint) -> bool {
        let (Some(a), Some(b)) = (self.agent, other.agent) else {
            return false;
        };
        if a == b {
            // same program point: alternative branches, never independent
            return false;
        }
        if !self.appends.is_empty() && !other.appends.is_empty() {
            // memory is a total order: appends never commute
            return false;
        }
        // r24: a certification-coupled step can be enabled or disabled by
        // an append into the certifying thread's access scope (an append
        // outside it lands above every view and every in-scope message,
        // so no certification verdict can change; unknown scope couples
        // with everything)
        let couples = |coupled: &Footprint, appender: &Footprint| {
            coupled.promise
                && !appender.appends.is_empty()
                && match &coupled.cert_scope {
                    None => true,
                    Some(scope) => scope.intersects(&appender.appends),
                }
        };
        if couples(self, other) || couples(other, self) {
            return false;
        }
        // location conflicts: a write races every same-location access
        // (same-location appends are caught here too: appends ⊆ writes)
        if self.writes.intersects(&other.reads)
            || self.writes.intersects(&other.writes)
            || other.writes.intersects(&self.reads)
        {
            return false;
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn locset_basics() {
        let mut s = LocSet::of(Loc(1));
        s.insert(Loc(2));
        s.insert(Loc(1));
        assert!(s.contains(Loc(1)) && s.contains(Loc(2)) && !s.contains(Loc(3)));
        assert!(s.intersects(&LocSet::of(Loc(2))));
        assert!(!s.intersects(&LocSet::of(Loc(3))));
        assert_eq!(s.iter().count(), 2);
    }

    #[test]
    fn locset_spill_boundary() {
        // Loc(63) is the last bitmask slot, Loc(64) the first spilled
        // one: membership, intersection, iteration, and idempotent
        // insertion must behave identically across the boundary.
        let mut s = LocSet::of(Loc(63));
        s.insert(Loc(64));
        s.insert(Loc(64));
        s.insert(Loc(1000));
        assert!(s.contains(Loc(63)) && s.contains(Loc(64)) && s.contains(Loc(1000)));
        assert!(!s.contains(Loc(62)) && !s.contains(Loc(65)));
        assert_eq!(s.len(), 3);
        assert_eq!(
            s.iter().collect::<Vec<_>>(),
            vec![Loc(63), Loc(64), Loc(1000)]
        );
        // intersection across the representations
        assert!(s.intersects(&LocSet::of(Loc(64))));
        assert!(s.intersects(&LocSet::of(Loc(63))));
        assert!(!s.intersects(&LocSet::of(Loc(65))));
        assert!(!LocSet::of(Loc(64)).intersects(&LocSet::of(Loc(65))));
        assert!(LocSet::of(Loc(1000)).intersects(&s));
        assert!(!s.is_empty() && LocSet::new().is_empty());
    }

    #[test]
    fn locset_spill_equality_is_insertion_order_independent() {
        // regression: with an insertion-ordered spill vector the derived
        // PartialEq compared [Loc(70), Loc(80)] ≠ [Loc(80), Loc(70)]
        let mut a = LocSet::new();
        a.insert(Loc(70));
        a.insert(Loc(80));
        let mut b = LocSet::new();
        b.insert(Loc(80));
        b.insert(Loc(70));
        assert_eq!(a, b);
        // and across the bitmask boundary, mixed with duplicates
        let fwd: LocSet = [Loc(3), Loc(64), Loc(200), Loc(100)].into_iter().collect();
        let rev: LocSet = [Loc(100), Loc(200), Loc(200), Loc(64), Loc(3)]
            .into_iter()
            .collect();
        assert_eq!(fwd, rev);
        assert_ne!(fwd, LocSet::of(Loc(3)));
        // iteration is ascending regardless of insertion order
        assert_eq!(
            rev.iter().collect::<Vec<_>>(),
            vec![Loc(3), Loc(64), Loc(100), Loc(200)]
        );
    }

    #[test]
    fn locset_spill_equality_proptest_over_many_locations() {
        use proptest::{collection, Strategy, TestRng};
        // >64 locations so the spill path is exercised: insert a random
        // multiset in two different orders (forward and a deterministic
        // shuffle) and require set-semantic equality plus membership and
        // intersection agreement with a BTreeSet reference model.
        let mut rng = TestRng::new(0xF00D_F00D);
        let strat = collection::vec(0u64..160, 65..140);
        for _ in 0..64 {
            let locs: Vec<u64> = strat.sample(&mut rng);
            let fwd: LocSet = locs.iter().map(|&l| Loc(l)).collect();
            let mut shuffled = locs.clone();
            // Fisher–Yates with the proptest rng
            for i in (1..shuffled.len()).rev() {
                let j = rng.below(i as u64 + 1) as usize;
                shuffled.swap(i, j);
            }
            let bwd: LocSet = shuffled.iter().map(|&l| Loc(l)).collect();
            assert_eq!(fwd, bwd, "insertion order leaked into equality");
            let reference: std::collections::BTreeSet<u64> = locs.iter().copied().collect();
            for l in 0..170 {
                assert_eq!(fwd.contains(Loc(l)), reference.contains(&l));
            }
            assert_eq!(fwd.len(), reference.len());
            assert!(fwd.iter().map(|l| l.0).eq(reference.iter().copied()));
            assert!(fwd.intersects(&bwd) || reference.is_empty());
        }
    }

    #[test]
    fn locset_from_iter() {
        let s: LocSet = [Loc(2), Loc(70), Loc(2)].into_iter().collect();
        assert_eq!(s.iter().count(), 2);
        assert!(s.contains(Loc(2)) && s.contains(Loc(70)));
    }

    #[test]
    fn opaque_is_dependent_with_everything() {
        let o = Footprint::opaque();
        assert!(!o.independent_with(&Footprint::local(1)));
        assert!(!Footprint::local(1).independent_with(&o));
    }

    #[test]
    fn same_agent_is_dependent() {
        let a = Footprint::read(0, Loc(1));
        let b = Footprint::read(0, Loc(2));
        assert!(!a.independent_with(&b));
    }

    #[test]
    fn cross_thread_reads_are_independent() {
        let a = Footprint::read(0, Loc(1));
        let b = Footprint::read(1, Loc(1));
        assert!(a.independent_with(&b));
        assert!(b.independent_with(&a));
    }

    #[test]
    fn appends_conflict_even_across_locations_in_strict_mode() {
        let a = Footprint::write(0, Loc(1), true);
        let b = Footprint::write(1, Loc(2), true);
        assert!(!a.independent_with(&b));
        assert!(!b.independent_with(&a));
    }

    #[test]
    fn same_location_appends_conflict_in_both_modes() {
        let a = Footprint::write(0, Loc(1), true);
        let b = Footprint::write(1, Loc(1), true);
        assert!(!a.independent_with(&b));
    }

    #[test]
    fn write_conflicts_with_same_location_read() {
        let w = Footprint::write(0, Loc(1), true);
        let r = Footprint::read(1, Loc(1));
        assert!(!w.independent_with(&r));
        assert!(!r.independent_with(&w));
        let r2 = Footprint::read(1, Loc(2));
        assert!(w.independent_with(&r2));
    }

    #[test]
    fn promise_coupling_blocks_appends() {
        let fulfil = Footprint::write(0, Loc(1), false).with_promise();
        let append = Footprint::write(1, Loc(2), true);
        assert!(!fulfil.independent_with(&append));
        // …but not local steps of other threads
        assert!(fulfil.independent_with(&Footprint::local(1)));
    }

    #[test]
    fn cert_scope_releases_out_of_scope_appends() {
        // A coupled step whose certification can only touch {1, 3} is
        // independent of an append at 2 — the append lands above every
        // in-scope message — but still couples with an append at 3.
        let scope: LocSet = [Loc(1), Loc(3)].into_iter().collect();
        let fulfil = Footprint::write(0, Loc(1), false)
            .with_promise()
            .with_cert_scope(Some(scope));
        let out = Footprint::write(1, Loc(2), true);
        let into = Footprint::write(1, Loc(3), true);
        assert!(fulfil.independent_with(&out));
        assert!(out.independent_with(&fulfil));
        assert!(!fulfil.independent_with(&into));
        // unknown scope keeps today's conservative coupling
        let unknown = Footprint::write(0, Loc(1), false).with_promise();
        assert!(!unknown.independent_with(&out));
    }
}
