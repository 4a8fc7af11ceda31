//! Certification (§4.3, r24) and the `find_and_certify` algorithm (§B,
//! Theorem 6.4).
//!
//! A thread configuration `⟨T, M⟩` is *certified* if the thread, executing
//! alone (every new promise immediately fulfilled, i.e. only *normal
//! writes*), can reach a state with no outstanding promises. Machine steps
//! are restricted to certified post-states.
//!
//! Following §B, the algorithm enumerates all sequential traces of the
//! thread under the current memory (bounded by
//! [`crate::config::Config::cert_depth`] and the loop fuel), discards
//! traces whose final state has unfulfilled promises, and derives:
//!
//! 1. the *certified first steps* — the non-promise steps that begin some
//!    completing trace;
//! 2. the *legal promises* — every normal write done on a completing trace
//!    whose pre-view and coherence view (at its location) are at most the
//!    maximal timestamp of the memory before certification started.
//!
//! A trace is dropped as soon as it holds a *dead promise*
//! ([`has_dead_promise`]): one whose timestamp is at or below
//! `vwNew ⊔ vCAP` or its location's `coh`. Those views only grow along a
//! trace, so no extension of it fulfils the promise, and the node answers
//! "unreached, nothing qualified" without a memo lookup. On the heavy
//! Table-2 rows (SLC-2, SLR-2, TL-1) promise-first makes 3.4–4.9x fewer
//! memo lookups than without the cut.
//!
//! The search is memoised on (continuation, thread state, memory) — as a
//! 128-bit fingerprint key by default (see [`crate::fingerprint`]), or an
//! exact collision-checked key in paranoid mode — which collapses the
//! exponential blow-up from read-value enumeration whenever different
//! orders reach the same state. The memo table ([`CertMemo`]) can be
//! shared across calls: sibling branches of an exploration repeatedly
//! certify near-identical configurations, and a shared memo turns those
//! repeats into hash lookups. Memo values share their promise sets
//! behind an [`Rc`], so a hit copies no set.
//!
//! Each query clones the thread and the memory once and then steps that
//! one copy in place, undoing every step on backtrack from its
//! [`crate::machine::Undo`] record. The copy-on-write maps and vectors
//! therefore stay unique after their first write, and a node of the
//! search allocates nothing for its state.

use crate::config::Config;
use crate::fingerprint::{Fingerprint, FpHashMap, FpHasher};
use crate::ids::{Loc, TId, Timestamp, Val};
use crate::machine::{
    apply_step, enabled_steps, has_dead_promise, Machine, StepEvent, ThreadInstance, TransitionKind,
};
use crate::memory::{Memory, Msg};
use crate::stmt::{LocSet, ThreadCode};
use std::collections::BTreeSet;
use std::rc::Rc;
use std::time::Instant;

/// Result of [`find_and_certify`].
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct CertResult {
    /// Whether the configuration is certified (some sequential execution
    /// fulfils all outstanding promises).
    pub certified: bool,
    /// The promises the thread may legally make in this configuration
    /// (Theorem 6.4): promising any of these leads to a certified state.
    pub promisable: BTreeSet<Msg>,
    /// The non-promise steps whose post-state is certified — i.e. the
    /// machine-step-enabled thread-local transitions.
    pub certified_first_steps: Vec<TransitionKind>,
    /// Whether the step bound was hit anywhere in the search; if so, the
    /// results are sound but possibly incomplete (like the paper's fuel).
    /// The search never enters a subtree below a dead promise
    /// ([`has_dead_promise`]), so a depth cut there, which could not
    /// change an answer, is not reported.
    pub bound_hit: bool,
    /// Whether a wall-clock deadline cut the search short; the results
    /// are then a lower bound and the caller should report truncation
    /// (the benchmark tables' "ooT").
    pub deadline_hit: bool,
}

/// The exact identity of a certification sub-problem, kept alongside the
/// fingerprint in paranoid mode.
///
/// Two key families coexist in one memo (their fingerprints carry
/// distinct tags). `Full` is the conservative identity: base timestamp
/// plus the whole memory. `Restricted` is the incremental-recertification
/// key used at nodes whose memory is still the pre-certification one
/// (no cert-local appends yet) when the certifying thread's access scope
/// is statically known: only the in-scope slice of memory (with absolute
/// timestamps) identifies the sub-problem, so the entry survives sibling
/// appends to out-of-scope locations. Distinct full memories legitimately
/// share one `Restricted` key — the exact key compares the restricted
/// view, not the memory.
#[derive(PartialEq, Eq)]
enum ExactKey {
    Full(TId, Timestamp, ThreadInstance, Memory),
    Restricted {
        tid: TId,
        thread: ThreadInstance,
        /// The scope with each location's initial value.
        scope: Vec<(Loc, Val)>,
        /// The in-scope messages, absolute timestamps preserved.
        msgs: Vec<(Timestamp, Msg)>,
    },
}

/// A memoised sub-result: reachability, qualified promises, and whether
/// the sub-search below this node hit the depth bound — so a later query
/// that reuses the entry (possibly from a different call sharing the
/// memo) still reports `bound_hit` for its possibly-incomplete answer.
///
/// `depth` records the remaining budget the entry was computed with; a
/// *truncated* entry is an under-approximation specific to that budget,
/// so it only satisfies queries with no more budget than that (deeper
/// queries recompute and overwrite). Complete entries cover the full
/// subtree and are budget-independent.
struct MemoValue {
    reached: bool,
    qualified: Rc<BTreeSet<Msg>>,
    truncated: bool,
    depth: u32,
}

struct MemoEntry {
    /// Exact key for collision detection (paranoid mode only), boxed so
    /// the normal mode's entries stay small.
    exact: Option<Box<ExactKey>>,
    /// For restricted entries: a stamp of the full context (base
    /// timestamp + whole memory) at insertion time. A later hit whose
    /// context stamp differs is a *survived* hit — the certificate
    /// outlived appends the full key would have been invalidated by.
    stamp: Option<Fingerprint>,
    value: MemoValue,
}

/// A certification memo table, shareable across [`find_and_certify_with`]
/// calls (and across exploration branches within one worker).
///
/// Entries are keyed by a fingerprint of the sub-problem identity, in one
/// of two key families (full and restricted-memory, as the private
/// `ExactKey` spells out), so a single table is sound for any sequence of
/// queries against machines running the same program and configuration.
/// The table counts its hits, misses, and *survived* hits
/// (restricted-key hits from a different full-memory context than the
/// entry was computed in).
#[derive(Default)]
pub struct CertMemo {
    paranoid: bool,
    map: FpHashMap<MemoEntry>,
    hits: u64,
    misses: u64,
    survived: u64,
}

impl CertMemo {
    /// An empty memo with fingerprint keys.
    pub fn new() -> CertMemo {
        CertMemo::default()
    }

    /// An empty memo for the given configuration (paranoid mode stores
    /// exact keys and panics on fingerprint collisions).
    pub fn for_config(config: &Config) -> CertMemo {
        CertMemo {
            paranoid: config.paranoid,
            ..CertMemo::default()
        }
    }

    /// Number of memoised sub-problems.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Whether the memo is empty.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// `(hits, misses, survived)` since creation. *Survived* hits are
    /// restricted-key hits served in a different full-memory context
    /// than the one the entry was computed in — certificates that
    /// outlived sibling appends to out-of-scope locations.
    pub fn counters(&self) -> (u64, u64, u64) {
        (self.hits, self.misses, self.survived)
    }

    fn full_key(
        tid: TId,
        base_ts: Timestamp,
        thread: &ThreadInstance,
        memory: &Memory,
    ) -> Fingerprint {
        let mut h = FpHasher::new();
        h.write_u64(0); // key-family tag: full
        h.write_len(tid.0);
        h.write_u32(base_ts.0);
        thread.feed(&mut h);
        memory.feed(&mut h);
        h.finish128()
    }

    /// The restricted-memory key: thread id, thread instance, and the
    /// in-scope slice of memory — scope locations with their initial
    /// values, then every in-scope message with its *absolute* timestamp.
    /// No base timestamp and no out-of-scope content: appends to
    /// out-of-scope locations land above every view and every in-scope
    /// message, so they change neither the key nor any certification
    /// verdict computable from it (see the soundness note on
    /// [`Engine::explore`]).
    fn restricted_key(
        tid: TId,
        thread: &ThreadInstance,
        memory: &Memory,
        scope: &LocSet,
    ) -> Fingerprint {
        let mut h = FpHasher::new();
        h.write_u64(1); // key-family tag: restricted
        h.write_len(tid.0);
        thread.feed(&mut h);
        h.write_len(scope.len());
        for loc in scope.iter() {
            h.write_u64(loc.0);
            h.write_i64(memory.initial(loc).0);
        }
        for (ts, msg) in memory.iter() {
            if scope.contains(msg.loc) {
                h.write_u32(ts.0);
                h.write_u64(msg.loc.0);
                h.write_i64(msg.val.0);
                h.write_len(msg.tid.0);
            }
        }
        h.finish128()
    }

    /// A stamp of the full certification context, for the survived-hit
    /// counter: two contexts with equal stamps have identical memories.
    fn context_stamp(base_ts: Timestamp, memory: &Memory) -> Fingerprint {
        let mut h = FpHasher::new();
        h.write_u32(base_ts.0);
        memory.feed(&mut h);
        h.finish128()
    }

    fn get(
        &mut self,
        fp: Fingerprint,
        exact: impl FnOnce() -> ExactKey,
        stamp: Option<Fingerprint>,
        depth: u32,
    ) -> Option<&MemoValue> {
        let Some(entry) = self.map.get(&fp) else {
            self.misses += 1;
            return None;
        };
        if let Some(stored) = &entry.exact {
            assert!(
                **stored == exact(),
                "certification fingerprint collision at {fp}: distinct sub-problems"
            );
        }
        if entry.value.truncated && entry.value.depth < depth {
            // Computed under a smaller budget than this query has: the
            // under-approximation must not mask a deeper search.
            self.misses += 1;
            return None;
        }
        self.hits += 1;
        if let (Some(now), Some(then)) = (stamp, entry.stamp) {
            if now != then {
                self.survived += 1;
            }
        }
        Some(&entry.value)
    }

    fn insert(
        &mut self,
        fp: Fingerprint,
        exact: impl FnOnce() -> ExactKey,
        stamp: Option<Fingerprint>,
        value: MemoValue,
    ) {
        let exact = self.paranoid.then(|| Box::new(exact()));
        self.map.insert(
            fp,
            MemoEntry {
                exact,
                stamp,
                value,
            },
        );
    }
}

/// Run §B's `find_and_certify` for thread `tid` of `machine` with a fresh
/// memo table and no deadline.
pub fn find_and_certify(machine: &Machine, tid: TId) -> CertResult {
    let mut memo = CertMemo::for_config(machine.config());
    find_and_certify_with(machine, tid, &mut memo, None)
}

/// Run §B's `find_and_certify` for thread `tid` of `machine`, reusing
/// `memo` across calls and aborting (with `deadline_hit`) past `deadline`.
pub fn find_and_certify_with(
    machine: &Machine,
    tid: TId,
    memo: &mut CertMemo,
    deadline: Option<Instant>,
) -> CertResult {
    let scope = cert_scope(machine, tid);
    let mut engine = Engine::new(machine, tid, scope.as_ref(), memo, deadline);
    let mut thread = machine.thread(tid).clone();
    let mut memory = machine.memory().clone();
    let depth = machine.config().cert_depth;

    let (certified, promisable) = engine.explore(&mut thread, &mut memory, 0, depth);

    // Certified first steps: re-expand the root one step and query the memo
    // (already warm from the exploration above).
    let mut certified_first_steps = Vec::new();
    let (config, code) = (engine.config, engine.code);
    enabled_steps(
        config,
        code,
        tid,
        &thread,
        &memory,
        &mut certified_first_steps,
    );
    certified_first_steps.retain(|kind| {
        let (_, undo) = apply_step(config, code, tid, kind, &mut thread, &mut memory)
            .expect("enabled step must apply");
        let (reached, _) = engine.explore(&mut thread, &mut memory, 1, depth.saturating_sub(1));
        undo.restore(&mut thread, &mut memory);
        reached
    });

    CertResult {
        certified,
        promisable: Rc::unwrap_or_clone(promisable),
        certified_first_steps,
        bound_hit: engine.bound_hit,
        deadline_hit: engine.deadline_hit,
    }
}

/// The promise-enumeration half of `find_and_certify` only (no certified
/// first steps — the promise-first search needs just the legal promises).
/// Returns the promisable set and whether the deadline cut the search.
pub fn find_promises_with(
    machine: &Machine,
    tid: TId,
    memo: &mut CertMemo,
    deadline: Option<Instant>,
) -> (BTreeSet<Msg>, bool) {
    let scope = cert_scope(machine, tid);
    let mut engine = Engine::new(machine, tid, scope.as_ref(), memo, deadline);
    let mut thread = machine.thread(tid).clone();
    let mut memory = machine.memory().clone();
    let depth = machine.config().cert_depth;
    let (_, promisable) = engine.explore(&mut thread, &mut memory, 0, depth);
    (Rc::unwrap_or_clone(promisable), engine.deadline_hit)
}

/// The scope the restricted memo keys use: the thread's certification
/// scope when it is known and reductions are on, else none.
fn cert_scope(machine: &Machine, tid: TId) -> Option<LocSet> {
    machine
        .thread_cert_scope(tid)
        .filter(|_| machine.config().por)
}

/// How many explored nodes between wall-clock deadline checks.
const DEADLINE_CHECK_PERIOD: u32 = 64;

struct Engine<'a> {
    config: &'a Config,
    code: &'a ThreadCode,
    tid: TId,
    /// Maximal timestamp of the memory before certification (the promise
    /// qualification bound of §B step 3).
    base_ts: Timestamp,
    /// The certifying thread's statically-known access scope
    /// ([`Machine::thread_cert_scope`]), when it has one and reductions
    /// are on ([`Config::por`]): enables restricted-memory memo keys at
    /// nodes with no cert-local appends yet. `None` makes every key a
    /// full key — the unreduced reference.
    scope: Option<&'a LocSet>,
    memo: &'a mut CertMemo,
    bound_hit: bool,
    deadline: Option<Instant>,
    deadline_hit: bool,
    ticks: u32,
    /// The one empty set every sub-search that qualifies nothing shares.
    empty: Rc<BTreeSet<Msg>>,
    /// `enabled_steps` buffers, one per distance from the query's root.
    steps: Vec<Vec<TransitionKind>>,
}

impl<'a> Engine<'a> {
    fn new(
        machine: &'a Machine,
        tid: TId,
        scope: Option<&'a LocSet>,
        memo: &'a mut CertMemo,
        deadline: Option<Instant>,
    ) -> Engine<'a> {
        Engine {
            config: machine.config(),
            code: &machine.program().threads()[tid.0],
            tid,
            base_ts: machine.memory().max_timestamp(),
            scope,
            memo,
            bound_hit: false,
            deadline,
            deadline_hit: false,
            ticks: 0,
            empty: Rc::default(),
            steps: Vec::new(),
        }
    }

    /// True once the deadline has passed (checked every
    /// [`DEADLINE_CHECK_PERIOD`] nodes; sticky once hit).
    fn out_of_time(&mut self) -> bool {
        if self.deadline_hit {
            return true;
        }
        let Some(deadline) = self.deadline else {
            return false;
        };
        self.ticks += 1;
        if self.ticks >= DEADLINE_CHECK_PERIOD {
            self.ticks = 0;
            if Instant::now() >= deadline {
                self.deadline_hit = true;
                return true;
            }
        }
        false
    }

    /// Returns `(reached, qualified)`: whether a promise-free state is
    /// reachable sequentially, and which normal writes on completing
    /// traces qualify as promises.
    ///
    /// # Restricted-key soundness
    ///
    /// Nodes whose memory is still the pre-certification one (the run
    /// has appended nothing yet — the root and every pure-read prefix)
    /// are keyed by the *restricted* key when the thread's access scope
    /// `A` is known: `(tid, thread state, memory slice at A with
    /// absolute timestamps)`. Two contexts sharing that key have
    /// identical certification answers:
    ///
    /// * every view in the thread state is ≤ that context's base
    ///   timestamp (a machine invariant — views point at existing
    ///   messages), so equal view numerics are below *both* bases;
    /// * the run only reads, forwards, and checks interposition at
    ///   `A`-locations, whose content and absolute positions agree;
    /// * cert-local appends land at `base+1, base+2, …` in each context;
    ///   the order-isomorphism mapping `base₁+i ↔ base₂+i` (identity
    ///   below `min(base₁, base₂)`) relates the two sub-searches
    ///   step-for-step, and §B's qualification check `pre_view ≤ base`
    ///   agrees on both sides (shared numerics sit below both bases,
    ///   iso-mapped ones sit above their own base).
    ///
    /// Nodes *with* cert-local appends are keyed by the full key: their
    /// thread states and memories embed absolute cert-append positions,
    /// so sharing them across contexts with different bases would
    /// confuse `pre_view ≤ base` verdicts (a position can be cert-local
    /// in one context and pre-existing in another).
    ///
    /// # Dead promises
    ///
    /// A node holding a dead promise ([`has_dead_promise`]) answers
    /// `(false, ∅)`, the full search's answer there, before its key is
    /// hashed: it is neither looked up nor memoised.
    ///
    /// `thread` and `memory` are stepped in place and handed back as
    /// they came; `level` is the distance from the query's root.
    fn explore(
        &mut self,
        thread: &mut ThreadInstance,
        memory: &mut Memory,
        level: usize,
        depth: u32,
    ) -> (bool, Rc<BTreeSet<Msg>>) {
        if has_dead_promise(&thread.state, memory) {
            return (false, Rc::clone(&self.empty));
        }
        let (tid, base_ts) = (self.tid, self.base_ts);
        // Copied out of `self`, so the exact-key closures below borrow no
        // engine state across the recursion.
        let restricted = self.scope.filter(|_| memory.max_timestamp() == base_ts);
        let (fp, stamp) = match restricted {
            Some(scope) => (
                CertMemo::restricted_key(tid, thread, memory, scope),
                Some(CertMemo::context_stamp(base_ts, memory)),
            ),
            None => (CertMemo::full_key(tid, base_ts, thread, memory), None),
        };
        let exact = |thread: &ThreadInstance, memory: &Memory| match restricted {
            Some(scope) => ExactKey::Restricted {
                tid,
                thread: thread.clone(),
                scope: scope.iter().map(|l| (l, memory.initial(l))).collect(),
                msgs: memory
                    .iter()
                    .filter(|(_, m)| scope.contains(m.loc))
                    .map(|(t, m)| (t, *m))
                    .collect(),
            },
            None => ExactKey::Full(tid, base_ts, thread.clone(), memory.clone()),
        };
        if let Some(hit) = self.memo.get(fp, || exact(thread, memory), stamp, depth) {
            // A reused entry computed under a depth-truncated sub-search
            // must re-raise the incompleteness flag for *this* query too
            // (the memo may be shared across calls).
            self.bound_hit |= hit.truncated;
            return (hit.reached, Rc::clone(&hit.qualified));
        }
        if self.out_of_time() {
            // Truncated: report what is locally known, memoise nothing.
            return (thread.state.prom.is_empty(), Rc::clone(&self.empty));
        }
        if depth == 0 {
            self.bound_hit = true;
            return (thread.state.prom.is_empty(), Rc::clone(&self.empty));
        }

        let mut reached = thread.state.prom.is_empty();
        let mut qualified = Rc::clone(&self.empty);
        // Track whether *this* subtree hits the bound, separately from the
        // engine-global sticky flag, to record it in the memo entry.
        let bound_before = std::mem::replace(&mut self.bound_hit, false);

        if self.steps.len() <= level {
            self.steps.resize_with(level + 1, Vec::new);
        }
        let mut steps = std::mem::take(&mut self.steps[level]);
        enabled_steps(self.config, self.code, tid, thread, memory, &mut steps);
        for kind in &steps {
            if self.deadline_hit {
                break;
            }
            let (ev, undo) = apply_step(self.config, self.code, tid, kind, thread, memory)
                .expect("enabled step must apply");
            let (sub_reached, sub_qualified) = self.explore(thread, memory, level + 1, depth - 1);
            undo.restore(thread, memory);
            if !sub_reached {
                continue;
            }
            reached = true;
            if qualified.is_empty() {
                qualified = sub_qualified;
            } else if !sub_qualified.is_subset(&qualified) {
                Rc::make_mut(&mut qualified).extend(sub_qualified.iter().copied());
            }
            if kind.appends_write() {
                // §B step 3: pre-view and coherence view (before the
                // write, which `thread` is back at) at most the
                // pre-certification max timestamp. For an RMW the
                // event's pre_view already folds in the read's
                // post-view, so joining the pre-transition coherence view
                // reconstructs the bound at the write point.
                let (loc, val, pre_view) = match ev {
                    StepEvent::DidWrite {
                        loc, val, pre_view, ..
                    } => (loc, val, pre_view),
                    StepEvent::DidRmw {
                        loc, new, pre_view, ..
                    } => (loc, new, pre_view),
                    _ => unreachable!("appends_write steps report their write"),
                };
                let msg = Msg::new(loc, val, tid);
                if pre_view.join(thread.state.coh(loc)).timestamp() <= base_ts
                    && !qualified.contains(&msg)
                {
                    Rc::make_mut(&mut qualified).insert(msg);
                }
            }
        }
        self.steps[level] = steps;

        let truncated = self.bound_hit;
        self.bound_hit |= bound_before;
        if !self.deadline_hit {
            // A deadline-truncated sub-result is incomplete; memoising it
            // would poison later (untruncated) queries. Depth-truncated
            // results are memoised but carry the `truncated` flag.
            self.memo.insert(
                fp,
                || exact(thread, memory),
                stamp,
                MemoValue {
                    reached,
                    qualified: Rc::clone(&qualified),
                    truncated,
                    depth,
                },
            );
        }
        (reached, qualified)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::Config;
    use crate::expr::Expr;
    use crate::ids::{Loc, Reg, Val};
    use crate::machine::Transition;
    use crate::stmt::{CodeBuilder, Program, ThreadCode};
    use std::sync::Arc;

    fn lb_thread_dependent() -> ThreadCode {
        // r1 := load x; store y r1 — the data-dependent LB thread.
        let mut b = CodeBuilder::new();
        let l = b.load(Reg(1), Expr::val(0));
        let s = b.store(Expr::val(1), Expr::reg(Reg(1)));
        b.finish_seq(&[l, s])
    }

    fn lb_thread_independent() -> ThreadCode {
        // r2 := load y; store x 42 — the independent LB thread.
        let mut b = CodeBuilder::new();
        let l = b.load(Reg(2), Expr::val(1));
        let s = b.store(Expr::val(0), Expr::val(42));
        b.finish_seq(&[l, s])
    }

    #[test]
    fn independent_store_is_promisable_in_initial_state() {
        // §4.2: Thread 2 can promise x = 42 in the initial state…
        let program = Arc::new(Program::new(vec![
            lb_thread_dependent(),
            lb_thread_independent(),
        ]));
        let m = Machine::new(program, Config::arm());
        let cert = find_and_certify(&m, TId(1));
        assert!(cert.certified);
        assert!(cert.promisable.contains(&Msg::new(Loc(0), Val(42), TId(1))));
    }

    #[test]
    fn dependent_store_is_not_promisable_in_initial_state() {
        // …but Thread 1 cannot promise y = 37/42: executing sequentially
        // it must read x = 0, so it would write y = 0. Only y = 0 is
        // promisable.
        let program = Arc::new(Program::new(vec![
            lb_thread_dependent(),
            lb_thread_independent(),
        ]));
        let m = Machine::new(program, Config::arm());
        let cert = find_and_certify(&m, TId(0));
        assert!(cert.certified);
        assert_eq!(
            cert.promisable,
            BTreeSet::from([Msg::new(Loc(1), Val(0), TId(0))])
        );
    }

    #[test]
    fn certification_blocks_reads_breaking_promises() {
        // §4.2 "Memory barriers": T2 = load y; dmb.sy; store x 42, after
        // promising x = 42 and T1 writing y = 42, T2 must not read y = 42
        // (the certified steps exclude that read).
        let mut b = CodeBuilder::new();
        let c = b.load(Reg(2), Expr::val(1));
        let f = b.dmb_sy();
        let e = b.store(Expr::val(0), Expr::val(42));
        let t2 = b.finish_seq(&[c, f, e]);
        let program = Arc::new(Program::new(vec![lb_thread_dependent(), t2]));
        let mut m = Machine::new(program, Config::arm());
        // T2 promises x = 42 @1
        m.apply(&Transition::new(
            TId(1),
            crate::machine::TransitionKind::Promise {
                msg: Msg::new(Loc(0), Val(42), TId(1)),
            },
        ))
        .unwrap();
        // T1: a reads x = 42, b writes y = 42 @2
        m.apply(&Transition::new(
            TId(0),
            crate::machine::TransitionKind::Read { t: Timestamp(1) },
        ))
        .unwrap();
        m.apply(&Transition::new(
            TId(0),
            crate::machine::TransitionKind::WriteNormal,
        ))
        .unwrap();
        // Certified steps for T2: only the read of the *initial* y.
        let cert = find_and_certify(&m, TId(1));
        assert!(cert.certified);
        assert_eq!(
            cert.certified_first_steps,
            vec![crate::machine::TransitionKind::Read { t: Timestamp::ZERO }]
        );
    }

    #[test]
    fn appendix_b_worked_example() {
        // §B: memory = [1: ⟨w := 1⟩₂, 2: ⟨z := 1⟩₁], Thread 1 =
        //   a: r1 := load w; b: store x 1; c: store_rel y 1; d: store z r1
        // with promise set {2}. Then:
        //   * the only certified first step reads w = 1;
        //   * promising x = 1 is certified;
        //   * promising y = 1 is NOT (pre-view 3 > 2).
        let (w, x, y, z) = (Loc(10), Loc(11), Loc(12), Loc(13));
        let mut b = CodeBuilder::new();
        let a = b.load(Reg(1), Expr::val(w.0 as i64));
        let s1 = b.store(Expr::val(x.0 as i64), Expr::val(1));
        let s2 = b.store_rel(Expr::val(y.0 as i64), Expr::val(1));
        let s3 = b.store(Expr::val(z.0 as i64), Expr::reg(Reg(1)));
        let t1 = b.finish_seq(&[a, s1, s2, s3]);
        // Thread 2 only exists to own the w = 1 write.
        let mut b2 = CodeBuilder::new();
        let sw = b2.store(Expr::val(w.0 as i64), Expr::val(1));
        let t2 = b2.finish_seq(&[sw]);
        let program = Arc::new(Program::new(vec![t1, t2]));
        let mut m = Machine::new(program, Config::arm());
        // Build the §B memory: T2 writes w = 1 @1; T1 promises z = 1 @2.
        m.apply(&Transition::new(
            TId(1),
            crate::machine::TransitionKind::WriteNormal,
        ))
        .unwrap();
        m.apply(&Transition::new(
            TId(0),
            crate::machine::TransitionKind::Promise {
                msg: Msg::new(z, Val(1), TId(0)),
            },
        ))
        .unwrap();
        assert_eq!(m.memory().len(), 2);

        let cert = find_and_certify(&m, TId(0));
        assert!(cert.certified);
        // 1. only reading w = 1 (timestamp 1) is certified
        assert_eq!(
            cert.certified_first_steps,
            vec![crate::machine::TransitionKind::Read { t: Timestamp(1) }]
        );
        // 2. x = 1 is promisable (pre-view 0, coh 0 ≤ 2)
        assert!(cert.promisable.contains(&Msg::new(x, Val(1), TId(0))));
        // 3. y = 1 is not (release store: pre-view includes b's post-view 3)
        assert!(!cert.promisable.contains(&Msg::new(y, Val(1), TId(0))));
        // and z = 1 is not a *new* promise (it is fulfilled, not promised)
        assert!(!cert.promisable.contains(&Msg::new(z, Val(1), TId(0))));
    }

    #[test]
    fn shared_memo_reuse_preserves_bound_hit() {
        // With a tiny cert depth, the search is depth-truncated. A second
        // query through the same (shared) memo must still report
        // bound_hit, even though it answers from memoised entries.
        let mut b = CodeBuilder::new();
        let stmts: Vec<_> = (0..6)
            .map(|i| b.store(Expr::val(0), Expr::val(i)))
            .collect();
        let t = b.finish_seq(&stmts);
        let program = Arc::new(Program::new(vec![t]));
        let config = Config::arm().with_cert_depth(2);
        let m = Machine::new(program, config);
        let mut memo = CertMemo::for_config(m.config());
        let first = find_and_certify_with(&m, TId(0), &mut memo, None);
        assert!(first.bound_hit, "depth 2 must truncate a 6-store thread");
        let second = find_and_certify_with(&m, TId(0), &mut memo, None);
        assert_eq!(first.promisable, second.promisable);
        assert!(
            second.bound_hit,
            "memo reuse must re-raise bound_hit for truncated entries"
        );
    }

    #[test]
    fn shallow_truncated_entries_do_not_answer_deeper_queries() {
        // Certifying S0 memoises the post-store configuration as a
        // *child* (remaining depth k-1, truncated). After the machine
        // takes that store, the same configuration is the *root* of the
        // next query with depth k: the memo must recompute rather than
        // return the shallower under-approximation.
        let mut b = CodeBuilder::new();
        let stmts: Vec<_> = (1..=6)
            .map(|i| b.store(Expr::val(0), Expr::val(i)))
            .collect();
        let t = b.finish_seq(&stmts);
        let program = Arc::new(Program::new(vec![t]));
        let config = Config::arm().with_cert_depth(3);
        let mut m = Machine::new(program, config);
        let mut shared = CertMemo::for_config(m.config());
        let _ = find_and_certify_with(&m, TId(0), &mut shared, None);
        m.apply(&Transition::new(
            TId(0),
            crate::machine::TransitionKind::WriteNormal,
        ))
        .unwrap();
        let via_shared = find_and_certify_with(&m, TId(0), &mut shared, None);
        let via_fresh = find_and_certify(&m, TId(0));
        assert_eq!(via_shared.promisable, via_fresh.promisable);
        assert_eq!(via_shared.certified, via_fresh.certified);
        assert_eq!(
            via_shared.certified_first_steps,
            via_fresh.certified_first_steps
        );
    }

    /// Build a machine whose certification tree is big and branchy
    /// enough that an expired deadline genuinely fires mid-search (the
    /// deadline is polled every [`DEADLINE_CHECK_PERIOD`] nodes): thread
    /// 0 alternates multi-candidate loads with data-dependent stores, so
    /// the promisable set differs sharply between a truncated and a
    /// complete search.
    fn branchy_machine() -> Machine {
        let mut b = CodeBuilder::new();
        let mut stmts = Vec::new();
        for i in 0..4 {
            stmts.push(b.load(Reg(i), Expr::val(0)));
            stmts.push(b.store(Expr::val(1), Expr::reg(Reg(i))));
        }
        let t0 = b.finish_seq(&stmts);
        let mut b = CodeBuilder::new();
        let s1: Vec<_> = (1..6)
            .map(|v| b.store(Expr::val(0), Expr::val(v)))
            .collect();
        let t1 = b.finish_seq(&s1);
        let mut m = Machine::new(Arc::new(Program::new(vec![t0, t1])), Config::arm());
        for _ in 0..5 {
            m.apply(&Transition::new(
                TId(1),
                crate::machine::TransitionKind::WriteNormal,
            ))
            .unwrap();
        }
        m.apply(&Transition::new(
            TId(0),
            crate::machine::TransitionKind::Promise {
                msg: Msg::new(Loc(1), Val(0), TId(0)),
            },
        ))
        .unwrap();
        m
    }

    #[test]
    fn deadline_truncated_search_does_not_poison_shared_memo() {
        // Regression (PR 5 correctness sweep): a shared memo must never
        // serve an entry computed under a deadline truncation as a
        // complete answer. A query whose deadline has already expired
        // runs partially (the engine only notices at the periodic check),
        // memoising only sub-results whose subtrees completed *before*
        // the cut; a later deadline-free query through the same memo must
        // recompute everything else and match a fresh-memo run exactly.
        let m = branchy_machine();
        let fresh = find_and_certify(&m, TId(0));
        assert!(!fresh.bound_hit && !fresh.deadline_hit);

        let mut shared = CertMemo::for_config(m.config());
        let past = Instant::now() - std::time::Duration::from_secs(1);
        let cut = find_and_certify_with(&m, TId(0), &mut shared, Some(past));
        assert!(
            cut.deadline_hit,
            "the expired deadline must actually fire mid-search \
             (grow the program if this stops holding)"
        );
        assert!(
            cut.promisable.len() < fresh.promisable.len(),
            "the cut run must genuinely be truncated for this test to bite"
        );

        let reuse = find_and_certify_with(&m, TId(0), &mut shared, None);
        assert!(!reuse.deadline_hit);
        assert_eq!(
            reuse.promisable, fresh.promisable,
            "deadline-truncated memo entries leaked into a complete query"
        );
        assert_eq!(reuse.certified, fresh.certified);
        assert_eq!(reuse.certified_first_steps, fresh.certified_first_steps);
        assert!(!reuse.bound_hit, "no depth bound was hit anywhere");
    }

    #[test]
    fn deadline_and_depth_truncations_compose_in_one_memo() {
        // One memo fed by a deadline-cut query and a depth-bounded query
        // (same machine state, different budgets — the memo is keyed by
        // the sub-problem alone, not the budget) must still answer a
        // final unbounded query exactly like a fresh memo. A bounded
        // query against the warm memo may legitimately return *more*
        // than a cold bounded run (complete entries serve any budget)
        // but never more than the true answer, and never less than its
        // cold result.
        let m = branchy_machine();
        let fresh_full = find_and_certify(&m, TId(0));
        let shallow_config = Config::arm().with_cert_depth(3);
        let fresh_shallow = {
            // same dynamic state, shallow certification budget, cold memo
            let mut memo = CertMemo::for_config(&shallow_config);
            find_and_certify_shallow(&m, &shallow_config, &mut memo)
        };
        assert!(fresh_shallow.bound_hit, "depth 3 must truncate the search");
        let past = Instant::now() - std::time::Duration::from_secs(1);
        let mut memo = CertMemo::for_config(m.config());
        let _ = find_and_certify_with(&m, TId(0), &mut memo, Some(past));
        let shallow_warm = find_and_certify_shallow(&m, &shallow_config, &mut memo);
        assert!(
            shallow_warm.promisable.is_subset(&fresh_full.promisable),
            "a bounded query must never exceed the true promisable set"
        );
        assert!(
            fresh_shallow.promisable.is_subset(&shallow_warm.promisable),
            "a warm memo must not lose promises a cold bounded run finds"
        );
        let full = find_and_certify_with(&m, TId(0), &mut memo, None);
        assert_eq!(full.promisable, fresh_full.promisable);
        assert_eq!(full.certified_first_steps, fresh_full.certified_first_steps);
        assert!(!full.bound_hit && !full.deadline_hit);
    }

    /// Run `find_and_certify_with` under a different (shallower)
    /// certification budget against the same dynamic state: rebuild the
    /// machine with `config` and replay nothing — the memo key ignores
    /// the config, so entries are shared with full-depth queries.
    fn find_and_certify_shallow(m: &Machine, config: &Config, memo: &mut CertMemo) -> CertResult {
        let mut replica = Machine::new(Arc::clone(m.program()), config.clone());
        // replay thread 1's writes and thread 0's promise (see
        // `branchy_machine`)
        for _ in 0..5 {
            replica
                .apply(&Transition::new(
                    TId(1),
                    crate::machine::TransitionKind::WriteNormal,
                ))
                .unwrap();
        }
        replica
            .apply(&Transition::new(
                TId(0),
                crate::machine::TransitionKind::Promise {
                    msg: Msg::new(Loc(1), Val(0), TId(0)),
                },
            ))
            .unwrap();
        find_and_certify_with(&replica, TId(0), memo, None)
    }

    #[test]
    fn shared_memo_reuse_matches_fresh_results() {
        // Reusing a memo across machine states must give the same
        // results as fresh memos (the naive explorer shares one per
        // worker across its whole search).
        let program = Arc::new(Program::new(vec![
            lb_thread_dependent(),
            lb_thread_independent(),
        ]));
        let mut m = Machine::new(program, Config::arm());
        let mut shared = CertMemo::for_config(m.config());
        let a1 = find_and_certify_with(&m, TId(1), &mut shared, None);
        assert_eq!(a1, find_and_certify(&m, TId(1)));
        // advance the machine and re-query through the same memo
        m.apply(&Transition::new(
            TId(1),
            crate::machine::TransitionKind::Read { t: Timestamp::ZERO },
        ))
        .unwrap();
        let a2 = find_and_certify_with(&m, TId(1), &mut shared, None);
        assert_eq!(a2, find_and_certify(&m, TId(1)));
        assert!(!shared.is_empty());
    }

    #[test]
    fn dead_promise_ends_the_search() {
        // T0 = r1 = load_acq(z); r2 = load(w); r3 = load(w); store(x, 1)
        // with x = 1 promised @1, under z @2 and w @3, @4, @5 from T1.
        // Reading z @2 with acquire lifts vwNew to 2, at or above the
        // promise, so no continuation fulfils it: that subtree is cut at
        // its root instead of running both loads of w to their end.
        let (x, z, w) = (Loc(0), Loc(1), Loc(2));
        let mut b = CodeBuilder::new();
        let stmts = [
            b.load_acq(Reg(1), Expr::val(z.0 as i64)),
            b.load(Reg(2), Expr::val(w.0 as i64)),
            b.load(Reg(3), Expr::val(w.0 as i64)),
            b.store(Expr::val(x.0 as i64), Expr::val(1)),
        ];
        let t0 = b.finish_seq(&stmts);
        let mut b = CodeBuilder::new();
        let stmts = [
            b.store(Expr::val(z.0 as i64), Expr::val(1)),
            b.store(Expr::val(w.0 as i64), Expr::val(1)),
            b.store(Expr::val(w.0 as i64), Expr::val(2)),
            b.store(Expr::val(w.0 as i64), Expr::val(3)),
        ];
        let t1 = b.finish_seq(&stmts);
        let mut m = Machine::new(Arc::new(Program::new(vec![t0, t1])), Config::arm());
        m.apply(&Transition::new(
            TId(0),
            crate::machine::TransitionKind::Promise {
                msg: Msg::new(x, Val(1), TId(0)),
            },
        ))
        .unwrap();
        for _ in 0..4 {
            m.apply(&Transition::new(
                TId(1),
                crate::machine::TransitionKind::WriteNormal,
            ))
            .unwrap();
        }
        assert_eq!(m.memory().len(), 5);

        let mut memo = CertMemo::for_config(m.config());
        let cert = find_and_certify_with(&m, TId(0), &mut memo, None);
        assert!(cert.certified);
        assert_eq!(
            cert.certified_first_steps,
            vec![crate::machine::TransitionKind::Read { t: Timestamp::ZERO }]
        );
        let (hits, misses, _) = memo.counters();
        // Without the cut, the same query makes 63 memo lookups.
        assert_eq!(hits + misses, 27);
    }

    #[test]
    fn machine_steps_filter_by_certification() {
        // Same setup as certification_blocks_reads_breaking_promises, via
        // the Machine::machine_steps entry point.
        let mut b = CodeBuilder::new();
        let c = b.load(Reg(2), Expr::val(1));
        let f = b.dmb_sy();
        let e = b.store(Expr::val(0), Expr::val(42));
        let t2 = b.finish_seq(&[c, f, e]);
        let program = Arc::new(Program::new(vec![lb_thread_dependent(), t2]));
        let mut m = Machine::new(program, Config::arm());
        m.apply(&Transition::new(
            TId(1),
            crate::machine::TransitionKind::Promise {
                msg: Msg::new(Loc(0), Val(42), TId(1)),
            },
        ))
        .unwrap();
        m.apply(&Transition::new(
            TId(0),
            crate::machine::TransitionKind::Read { t: Timestamp(1) },
        ))
        .unwrap();
        m.apply(&Transition::new(
            TId(0),
            crate::machine::TransitionKind::WriteNormal,
        ))
        .unwrap();
        let steps = m.machine_steps();
        // T2's read of y@2 must not be among the machine steps.
        assert!(!steps.contains(&Transition::new(
            TId(1),
            crate::machine::TransitionKind::Read { t: Timestamp(2) }
        )));
        // T2's read of the initial y is.
        assert!(steps.contains(&Transition::new(
            TId(1),
            crate::machine::TransitionKind::Read { t: Timestamp::ZERO }
        )));
    }
}
