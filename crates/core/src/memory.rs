//! The memory: a growing list of write messages (§4.1, Fig. 2).
//!
//! "Memory is a list of writes, in the order they were propagated." A write
//! message records its location, value and originating thread. Timestamps
//! are one-based list indices; timestamp 0 denotes the initial writes,
//! which give value 0 (or a per-location initial value supplied for litmus
//! `{ x=1; }` sections) to every location.

use crate::fingerprint::FpHasher;
use crate::ids::{Loc, TId, Timestamp, Val};
use std::collections::BTreeMap;
use std::fmt;
use std::sync::Arc;

/// A write message `⟨x := v⟩_tid` (Fig. 2).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct Msg {
    /// Location written (`w.loc`).
    pub loc: Loc,
    /// Value written (`w.val`).
    pub val: Val,
    /// Originating thread (`w.tid`).
    pub tid: TId,
}

impl Msg {
    /// Construct `⟨loc := val⟩_tid`.
    pub fn new(loc: Loc, val: Val, tid: TId) -> Msg {
        Msg { loc, val, tid }
    }
}

impl fmt::Display for Msg {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "<{} := {}>@{}", self.loc, self.val, self.tid)
    }
}

/// The shared memory: the propagated-write history plus initial values.
///
/// Both components are behind [`Arc`]s with copy-on-write mutation, so
/// cloning a `Memory` — which the engines do once per transition — is
/// two reference-count bumps. [`Memory::push`] copies the message list
/// only when it is shared with another state; the thread-local searches
/// own their memory and undo their pushes, so theirs is copied once.
///
/// A running fingerprint of the contents is maintained *incrementally*
/// ([`Memory::push`] absorbs the new message), so folding a memory into
/// a state fingerprint ([`Memory::feed`]) is O(1) instead of O(|M|) —
/// the certification engine fingerprints a memory per explored node.
#[derive(Clone, Debug)]
pub struct Memory {
    msgs: Arc<Vec<Msg>>,
    init: Arc<BTreeMap<Loc, Val>>,
    fp: FpHasher,
}

impl Default for Memory {
    fn default() -> Memory {
        Memory::with_init(BTreeMap::new())
    }
}

// Equality/hashing ignore the running fingerprint: it is a pure function
// of the absorbed contents, so comparing contents is both sufficient and
// collision-safe (exact keys exist to *catch* fingerprint collisions).
impl PartialEq for Memory {
    fn eq(&self, other: &Memory) -> bool {
        self.msgs == other.msgs && self.init == other.init
    }
}

impl Eq for Memory {}

impl std::hash::Hash for Memory {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self.msgs.hash(state);
        self.init.hash(state);
    }
}

impl Memory {
    /// Empty memory where every location initially holds 0.
    pub fn new() -> Memory {
        Memory::default()
    }

    /// Memory with explicit initial values for some locations (litmus
    /// `{ x=1; y=2; }` init sections); unmentioned locations hold 0.
    pub fn with_init(init: BTreeMap<Loc, Val>) -> Memory {
        let mut fp = FpHasher::new();
        fp.write_len(init.len());
        for (l, v) in &init {
            fp.write_u64(l.0);
            fp.write_i64(v.0);
        }
        Memory {
            msgs: Arc::new(Vec::new()),
            init: Arc::new(init),
            fp,
        }
    }

    /// The initial value of `loc` (timestamp 0).
    pub fn initial(&self, loc: Loc) -> Val {
        self.init.get(&loc).copied().unwrap_or(Val(0))
    }

    /// The explicit initial-value map.
    pub fn init_values(&self) -> &BTreeMap<Loc, Val> {
        self.init.as_ref()
    }

    /// Number of propagated writes; also the maximal timestamp.
    pub fn len(&self) -> usize {
        self.msgs.len()
    }

    /// Whether no write has been propagated yet.
    pub fn is_empty(&self) -> bool {
        self.msgs.is_empty()
    }

    /// The maximal timestamp currently in memory (`|M|`).
    pub fn max_timestamp(&self) -> Timestamp {
        Timestamp(self.msgs.len() as u32)
    }

    /// Append a write at the next timestamp (`t = |M| + 1`), returning it.
    /// Copy-on-write: the message list is copied only if another state
    /// still shares it. The running fingerprint absorbs the message.
    pub fn push(&mut self, msg: Msg) -> Timestamp {
        Arc::make_mut(&mut self.msgs).push(msg);
        self.fp.write_u64(msg.loc.0);
        self.fp.write_i64(msg.val.0);
        self.fp.write_len(msg.tid.0);
        Timestamp(self.msgs.len() as u32)
    }

    /// The running digest, for [`Memory::truncate`].
    pub(crate) fn digest(&self) -> FpHasher {
        self.fp.clone()
    }

    /// Go back to the memory of `len` messages whose running digest was
    /// `fp`: drop the messages above `len`. Undo records use it.
    pub(crate) fn truncate(&mut self, len: usize, fp: FpHasher) {
        if self.msgs.len() > len {
            Arc::make_mut(&mut self.msgs).truncate(len);
        }
        self.fp = fp;
    }

    /// Fold the memory into a state fingerprint: O(1), via the
    /// incrementally maintained digest of (initial values ++ messages).
    pub fn feed(&self, h: &mut FpHasher) {
        h.absorb(&self.fp);
        h.write_len(self.msgs.len());
    }

    /// The message at timestamp `t ≥ 1` (`M(t)`), if within bounds.
    pub fn get(&self, t: Timestamp) -> Option<&Msg> {
        if t.is_initial() {
            None
        } else {
            self.msgs.get(t.0 as usize - 1)
        }
    }

    /// The paper's `read(M, l, t)`: the value obtained by reading location
    /// `l` at timestamp `t` — the initial value for `t = 0`, the message
    /// value if `M(t).loc = l`, and `None` otherwise.
    pub fn read(&self, loc: Loc, t: Timestamp) -> Option<Val> {
        if t.is_initial() {
            Some(self.initial(loc))
        } else {
            let m = self.get(t)?;
            (m.loc == loc).then_some(m.val)
        }
    }

    /// All messages with their timestamps, oldest first.
    pub fn iter(&self) -> impl Iterator<Item = (Timestamp, &Msg)> {
        self.msgs
            .iter()
            .enumerate()
            .map(|(i, m)| (Timestamp(i as u32 + 1), m))
    }

    /// Timestamps of all writes to `loc`, ascending (excluding the initial
    /// write at 0).
    pub fn writes_to(&self, loc: Loc) -> impl Iterator<Item = Timestamp> + '_ {
        self.iter()
            .filter(move |(_, m)| m.loc == loc)
            .map(|(t, _)| t)
    }

    /// The latest write to `loc` at or below timestamp `bound` (timestamp 0
    /// — the initial write — if none).
    pub fn latest_write_at_most(&self, loc: Loc, bound: Timestamp) -> Timestamp {
        let hi = (bound.0 as usize).min(self.msgs.len());
        for i in (0..hi).rev() {
            if self.msgs[i].loc == loc {
                return Timestamp(i as u32 + 1);
            }
        }
        Timestamp::ZERO
    }

    /// Whether some write to `loc` exists with timestamp in `(lo, hi]`.
    /// Used by the read rule's no-interposing-write side condition and by
    /// the `atomic` predicate.
    pub fn has_write_between(&self, loc: Loc, lo: Timestamp, hi: Timestamp) -> bool {
        let lo = lo.0 as usize;
        let hi = (hi.0 as usize).min(self.msgs.len());
        (lo..hi).any(|i| self.msgs[i].loc == loc)
    }

    /// The `atomic(M, l, tid, tr, tw)` predicate of Fig. 5: an exclusive
    /// write at timestamp `tw` by `tid`, paired with an exclusive read that
    /// read timestamp `tr`, is permitted only if — when the read was from
    /// the same location — every write to `l` strictly between `tr` and
    /// `tw` is by `tid` itself.
    pub fn atomic(&self, loc: Loc, tid: TId, tr: Timestamp, tw: Timestamp) -> bool {
        // M(tr).loc = l ⇒ ∀t'. (tr < t' < tw ∧ M(t').loc = l) ⇒ M(t').tid = tid
        let read_same_loc = if tr.is_initial() {
            // Timestamp 0 is the initial write to *every* location,
            // including `l`.
            true
        } else {
            match self.get(tr) {
                Some(m) => m.loc == loc,
                None => false,
            }
        };
        if !read_same_loc {
            return true;
        }
        let lo = tr.0 as usize;
        let hi = (tw.0 as usize).saturating_sub(1).min(self.msgs.len());
        (lo..hi).all(|i| self.msgs[i].loc != loc || self.msgs[i].tid == tid)
    }

    /// The final (coherence-last) value of `loc`.
    pub fn final_value(&self, loc: Loc) -> Val {
        self.latest_write_at_most(loc, self.max_timestamp())
            .0
            .checked_sub(1)
            .map(|i| self.msgs[i as usize].val)
            .unwrap_or_else(|| self.initial(loc))
    }

    /// All locations either initialised or written.
    pub fn locations(&self) -> Vec<Loc> {
        let mut locs: Vec<Loc> = self
            .init
            .keys()
            .copied()
            .chain(self.msgs.iter().map(|m| m.loc))
            .collect();
        locs.sort_unstable();
        locs.dedup();
        locs
    }
}

impl fmt::Display for Memory {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[")?;
        for (i, (t, m)) in self.iter().enumerate() {
            if i > 0 {
                write!(f, "; ")?;
            }
            write!(f, "{t}: {m}")?;
        }
        write!(f, "]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mem_with(writes: &[(u64, i64, usize)]) -> Memory {
        let mut m = Memory::new();
        for &(l, v, t) in writes {
            m.push(Msg::new(Loc(l), Val(v), TId(t)));
        }
        m
    }

    #[test]
    fn initial_values_default_to_zero() {
        let m = Memory::new();
        assert_eq!(m.read(Loc(3), Timestamp::ZERO), Some(Val(0)));
    }

    #[test]
    fn custom_initial_values() {
        let mut init = BTreeMap::new();
        init.insert(Loc(1), Val(5));
        let m = Memory::with_init(init);
        assert_eq!(m.read(Loc(1), Timestamp::ZERO), Some(Val(5)));
        assert_eq!(m.read(Loc(2), Timestamp::ZERO), Some(Val(0)));
    }

    #[test]
    fn push_assigns_sequential_timestamps() {
        let mut m = Memory::new();
        assert_eq!(m.push(Msg::new(Loc(0), Val(1), TId(0))), Timestamp(1));
        assert_eq!(m.push(Msg::new(Loc(0), Val(2), TId(1))), Timestamp(2));
        assert_eq!(m.max_timestamp(), Timestamp(2));
    }

    #[test]
    fn read_matches_paper_definition() {
        let m = mem_with(&[(0, 37, 0), (1, 42, 0)]);
        // read at the right location's timestamp gives its value
        assert_eq!(m.read(Loc(0), Timestamp(1)), Some(Val(37)));
        // read at a timestamp whose message is another location is none
        assert_eq!(m.read(Loc(0), Timestamp(2)), None);
        // timestamp 0 is the initial value
        assert_eq!(m.read(Loc(0), Timestamp::ZERO), Some(Val(0)));
        // out-of-range timestamps are none
        assert_eq!(m.read(Loc(0), Timestamp(9)), None);
    }

    #[test]
    fn latest_write_at_most_scans_backwards() {
        let m = mem_with(&[(0, 1, 0), (1, 2, 0), (0, 3, 0)]);
        assert_eq!(m.latest_write_at_most(Loc(0), Timestamp(3)), Timestamp(3));
        assert_eq!(m.latest_write_at_most(Loc(0), Timestamp(2)), Timestamp(1));
        assert_eq!(
            m.latest_write_at_most(Loc(1), Timestamp(1)),
            Timestamp::ZERO
        );
        assert_eq!(
            m.latest_write_at_most(Loc(9), Timestamp(3)),
            Timestamp::ZERO
        );
    }

    #[test]
    fn has_write_between_is_half_open_exclusive_low() {
        let m = mem_with(&[(0, 1, 0), (1, 2, 0), (0, 3, 0)]);
        assert!(m.has_write_between(Loc(0), Timestamp::ZERO, Timestamp(1)));
        assert!(!m.has_write_between(Loc(0), Timestamp(1), Timestamp(2)));
        assert!(m.has_write_between(Loc(0), Timestamp(1), Timestamp(3)));
        // hi beyond memory length is clamped
        assert!(m.has_write_between(Loc(0), Timestamp(1), Timestamp(99)));
    }

    #[test]
    fn atomic_allows_own_thread_interposition_only() {
        // Paper §A.2 example: c writes x=37 (ts1, T2), d writes x=51 (ts2, T2);
        // a successful store exclusive by T1 pairing with a read of ts1
        // cannot write at ts3 because T2's write interposes.
        let m = mem_with(&[(0, 37, 2), (0, 51, 2)]);
        assert!(!m.atomic(Loc(0), TId(1), Timestamp(1), Timestamp(3)));
        // But writing immediately after the read source is fine.
        assert!(m.atomic(Loc(0), TId(1), Timestamp(1), Timestamp(2)));
        // Interposing writes by the same thread are allowed.
        let m2 = mem_with(&[(0, 37, 2), (0, 51, 1)]);
        assert!(m2.atomic(Loc(0), TId(1), Timestamp(1), Timestamp(3)));
        // Different-location interposition is irrelevant.
        let m3 = mem_with(&[(0, 37, 2), (5, 51, 2)]);
        assert!(m3.atomic(Loc(0), TId(1), Timestamp(1), Timestamp(3)));
    }

    #[test]
    fn atomic_from_initial_read_requires_exclusivity_from_zero() {
        let m = mem_with(&[(0, 37, 2)]);
        // read from initial (ts 0), try to write at ts 2: T2's write at ts1
        // to the same location interposes.
        assert!(!m.atomic(Loc(0), TId(1), Timestamp::ZERO, Timestamp(2)));
        // but a write at ts1 directly succeeds
        let empty = Memory::new();
        assert!(empty.atomic(Loc(0), TId(1), Timestamp::ZERO, Timestamp(1)));
    }

    #[test]
    fn atomic_different_location_read_is_unconstrained() {
        // Load exclusive was to a *different* location: pairing allowed
        // regardless of interposing writes (the condition is vacuous).
        let m = mem_with(&[(1, 9, 2), (0, 37, 2)]);
        assert!(m.atomic(Loc(0), TId(1), Timestamp(1), Timestamp(3)));
    }

    #[test]
    fn final_value_is_last_write_or_initial() {
        let m = mem_with(&[(0, 1, 0), (0, 2, 0), (1, 5, 0)]);
        assert_eq!(m.final_value(Loc(0)), Val(2));
        assert_eq!(m.final_value(Loc(1)), Val(5));
        assert_eq!(m.final_value(Loc(7)), Val(0));
    }

    #[test]
    fn writes_to_filters_by_location() {
        let m = mem_with(&[(0, 1, 0), (1, 2, 0), (0, 3, 0)]);
        let ts: Vec<Timestamp> = m.writes_to(Loc(0)).collect();
        assert_eq!(ts, vec![Timestamp(1), Timestamp(3)]);
    }
}
