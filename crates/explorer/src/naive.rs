//! Naive exhaustive exploration: interleave *all* transitions of all
//! threads (reads, writes, promises), deduplicating visited states.
//!
//! This is the reference strategy: sound and complete but with the full
//! interleaving blow-up. The promise-first strategy
//! ([`crate::promise_first`]) must produce identical outcome sets
//! (Theorem 7.1), which the cross-model tests check.
//!
//! The strategy is a [`SearchModel`] ([`NaiveModel`]) run by the generic
//! [`Engine`]: states are deduplicated by 128-bit fingerprint (exact keys
//! in paranoid mode), certification results are memoised across sibling
//! branches (the per-worker [`CertMemo`] cache), and `Config::workers >
//! 1` explores the frontier on that many threads with identical outcome
//! sets.

use crate::engine::{Engine, SearchBudget, SearchModel};
use crate::stats::{Stats, StopReason};
use promising_core::ids::TId;
use promising_core::Outcome;
use promising_core::{
    find_and_certify_with, find_promises_with, CertMemo, Config, Fingerprint, Footprint, Machine,
    MayAccess, StateKey, Transition, TransitionKind,
};
use std::collections::BTreeSet;
use std::time::Instant;

pub use crate::engine::Exploration;

/// How the naive explorer uses certification (for the Theorem 6.2
/// experiment).
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum CertMode {
    /// Filter every step of a promising thread through certification, as
    /// the machine-step rule does (r24).
    #[default]
    Online,
    /// Only use certification to enumerate promises; let non-promise steps
    /// run free and discard traces with unfulfilled promises at the end.
    /// Theorem 6.2 says the outcome set is unchanged.
    PromisesOnly,
}

/// The naive full-interleaving strategy as a [`SearchModel`]: states are
/// whole [`Machine`]s, transitions are every certified step of every
/// thread, and outcomes are read off terminated machines.
pub struct NaiveModel {
    root: Machine,
    mode: CertMode,
}

impl NaiveModel {
    /// The naive strategy rooted at `machine`.
    pub fn new(machine: &Machine, mode: CertMode) -> NaiveModel {
        NaiveModel {
            root: machine.clone(),
            mode,
        }
    }
}

impl SearchModel for NaiveModel {
    type State = Machine;
    type Transition = Transition;
    type Exact = StateKey;
    type Out = Outcome;
    type Cache = CertMemo;

    fn config(&self) -> &Config {
        self.root.config()
    }

    fn root(&self, stats: &mut Stats) -> Machine {
        let mut root = self.root.clone();
        drain_internal(&mut root, stats);
        root
    }

    fn cache(&self) -> CertMemo {
        CertMemo::for_config(self.config())
    }

    fn fingerprint(&self, s: &Machine) -> Fingerprint {
        s.fingerprint()
    }

    fn exact_key(&self, s: &Machine) -> StateKey {
        s.state_key()
    }

    fn outcome(
        &self,
        s: &Machine,
        _cache: &mut CertMemo,
        _stats: &mut Stats,
        _deadline: Option<Instant>,
        out: &mut BTreeSet<Outcome>,
    ) {
        if s.terminated() {
            out.insert(Outcome::of_machine(s));
        }
    }

    fn is_final(&self, s: &Machine, stats: &mut Stats) -> bool {
        if s.terminated() {
            return true;
        }
        if s.any_stuck() {
            stats.bound_hits += 1;
            return true;
        }
        false
    }

    fn expand(
        &self,
        m: &Machine,
        memo: &mut CertMemo,
        stats: &mut Stats,
        deadline: Option<Instant>,
    ) -> Vec<Transition> {
        let mut out = Vec::new();
        for tid in (0..m.num_threads()).map(TId) {
            let promising = m.thread(tid).state.has_promises();
            stats.certifications += 1;
            if self.mode == CertMode::Online && promising {
                // r24: non-promise steps filtered to certified post-states.
                let cert = find_and_certify_with(m, tid, memo, deadline);
                if cert.deadline_hit {
                    stats.note_stop(StopReason::DeadlineExceeded);
                }
                for k in cert.certified_first_steps {
                    out.push(Transition::new(tid, k));
                }
                for msg in cert.promisable {
                    out.push(Transition::new(tid, TransitionKind::Promise { msg }));
                }
            } else {
                // Steps run free; certification only enumerates promises, so
                // skip the certified-first-steps re-expansion.
                let (promisable, cut) = find_promises_with(m, tid, memo, deadline);
                if cut {
                    stats.note_stop(StopReason::DeadlineExceeded);
                }
                for k in m.thread_steps(tid) {
                    out.push(Transition::new(tid, k));
                }
                for msg in promisable {
                    out.push(Transition::new(tid, TransitionKind::Promise { msg }));
                }
            }
        }
        out
    }

    fn apply(&self, s: &Machine, tr: &Transition, stats: &mut Stats) -> Machine {
        let mut next = s.clone();
        next.apply(tr).expect("enabled transition applies");
        stats.transitions += 1;
        drain_internal(&mut next, stats);
        next
    }

    fn footprint(&self, s: &Machine, t: &Transition) -> Footprint {
        s.transition_footprint(t)
    }

    fn reduce(&self, m: &Machine, transitions: &mut Vec<Transition>) {
        reduce_delayable_threads(m, transitions);
    }

    fn drain_cache(&self, memo: &mut CertMemo, stats: &mut Stats) {
        let (hits, misses, survived) = memo.counters();
        stats.cert_hits += hits;
        stats.cert_misses += misses;
        stats.cert_survived += survived;
    }
}

/// Partial-order reduction for the full-interleaving search
/// ([`promising_core::Config::por`]): per-state persistent sets that
/// collapse co-enabled *delayable* threads.
///
/// A thread `q` (holding no promises) is *delayable* when either
///
/// 1. it is a *pure observer*: every transition it currently has is a
///    read (or exclusive-failure), and its remaining code can never
///    write a shared location ([`Machine::thread_is_pure_observer`]); or
///
/// 2. its future accesses are *private*: `may_writes(q)` (the locations
///    q's remaining code may still write, [`Machine::thread_may_writes`])
///    is disjoint from every other thread's future reads and writes, and
///    `may_reads(q)` is disjoint from every other thread's future
///    writes.
///
/// Case 1 commutes *state-identically*. Every step a pure observer will
/// ever take is thread-local: it never appends to memory, never
/// promises, and is certification-free. Its reads are indexed by
/// timestamp: a `Read { t }` names one message, and an append by any
/// other thread lands above every existing message, so each read
/// candidate stays enabled with an unchanged effect. Its own steps touch
/// nothing others can see, so it is independent — in both directions —
/// of every transition any other thread will ever take.
///
/// Case 2 is where per-location footprints earn their keep: a thread
/// that appends can be delayed when nobody will ever observe its
/// locations. This is *not* state-identical commutation: appends order
/// themselves in memory's single total order, so running the kept
/// thread first and `q` later produces a memory whose messages sit at
/// different absolute timestamps than in the avoided interleaving. It is
/// outcome-preserving by a renumbering argument: the two executions are
/// related by the order-isomorphism φ on timestamps that matches
/// messages per location in stream order. φ respects every rule the
/// machine evaluates — per-location coherence compares only
/// same-location timestamps, view joins are monotone under φ, and
/// certification of either side reads only locations the conditions
/// keep disjoint from the other — so each avoided trace has a kept-first
/// counterpart reaching a terminated state with the same register files
/// and the same per-location final values, which is all an [`Outcome`]
/// records.
///
/// Keeping just the lowest delayable thread's transitions (plus every
/// non-delayable thread's) is therefore a *persistent set*: any trace
/// avoiding the kept set consists of other delayable threads' steps,
/// each independent of the whole kept set, so every reachable
/// terminated state (up to φ) is still reached by running the kept
/// thread first and the delayed ones later. Outcomes are read only off
/// terminated states, hence POR-on and POR-off outcome sets are
/// identical.
///
/// The decision reads only `transitions` and the static may-access sets
/// of the remaining code, so it is a pure function of the state and
/// fingerprint deduplication stays sound: any two states with equal
/// fingerprints prune identically. That is why the engine uses
/// persistent sets and not sleep sets: a sleep set depends on the path
/// that reached a state, so it would need per-state sleep storage to
/// survive state caching.
///
/// What stays unreduced: a thread whose remaining code may still write a
/// location another thread touches cannot be delayed past an append (its
/// later reads could observe it), nor collapsed while promisable (hoisted
/// writes are exactly what the promise transitions in the kept set
/// represent). The contended-lock workloads therefore reduce only in
/// their read-only phases; read-parallel shapes (IRIW-style
/// multi-observer tests, which dominate the litmus corpora) collapse
/// multiplicatively.
///
/// `tests/por_agreement.rs` asserts POR-on ≡ POR-off outcome sets
/// across the catalogue, the generated suites, and the language corpus,
/// and anti-rot tests check both cases fire (IRIW observers and a
/// disjoint-writer workload).
pub(crate) fn reduce_delayable_threads(m: &Machine, transitions: &mut Vec<Transition>) {
    let n = m.num_threads();
    let mut seen = vec![false; n];
    let mut all_read_like = vec![true; n];
    for t in transitions.iter() {
        let tid = t.tid.0;
        seen[tid] = true;
        all_read_like[tid] &= matches!(
            t.kind,
            TransitionKind::Read { .. } | TransitionKind::ExclFail
        );
    }
    let reads: Vec<MayAccess> = (0..n).map(|t| m.thread_may_reads(TId(t))).collect();
    let writes: Vec<MayAccess> = (0..n).map(|t| m.thread_may_writes(TId(t))).collect();
    let mut delayable = vec![false; n];
    for q in 0..n {
        if !seen[q] || m.thread(TId(q)).state.has_promises() {
            continue;
        }
        delayable[q] = (all_read_like[q] && m.thread_is_pure_observer(TId(q)))
            || (0..n).filter(|&r| r != q).all(|r| {
                !writes[q].intersects(&reads[r])
                    && !writes[q].intersects(&writes[r])
                    && !reads[q].intersects(&writes[r])
            });
    }
    let mut candidates = (0..n).filter(|&t| delayable[t]);
    let Some(keep) = candidates.next() else {
        return;
    };
    if candidates.next().is_none() {
        // a single delayable thread has nothing to collapse against
        return;
    }
    transitions.retain(|t| !delayable[t.tid.0] || t.tid.0 == keep);
}

/// Exhaustively explore all interleavings from `machine`, returning every
/// outcome of a complete (terminated, promise-free) execution.
pub fn explore_naive(machine: &Machine, mode: CertMode) -> Exploration {
    explore_naive_budget(machine, mode, SearchBudget::UNBOUNDED)
}

/// [`explore_naive`] under a [`SearchBudget`] (`stats.stop` records which
/// bound was hit). The wall-clock deadline also bounds certification
/// work *inside* `find_and_certify`, so a single pathological
/// certification cannot blow past the budget.
pub fn explore_naive_budget(
    machine: &Machine,
    mode: CertMode,
    budget: SearchBudget,
) -> Exploration {
    Engine::new(NaiveModel::new(machine, mode))
        .with_budget(budget)
        .run()
}

/// Eagerly run the deterministic `Internal` steps of every thread: they
/// commute with all other transitions and collapse the state space.
pub(crate) fn drain_internal(m: &mut Machine, stats: &mut Stats) {
    loop {
        let mut progressed = false;
        for tid in (0..m.num_threads()).map(TId) {
            while m.internal_only(tid) {
                m.apply(&Transition::new(tid, TransitionKind::Internal))
                    .expect("internal step applies");
                stats.transitions += 1;
                progressed = true;
            }
        }
        if !progressed {
            break;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use promising_core::{CodeBuilder, Config, Expr, Program, Reg};
    use std::sync::Arc;

    fn mp_program(fence_reader: bool) -> Arc<Program> {
        let mut b = CodeBuilder::new();
        let s1 = b.store(Expr::val(0), Expr::val(37));
        let s2 = b.dmb_sy();
        let s3 = b.store(Expr::val(1), Expr::val(42));
        let t1 = b.finish_seq(&[s1, s2, s3]);
        let mut b = CodeBuilder::new();
        let mut stmts = Vec::new();
        stmts.push(b.load(Reg(1), Expr::val(1)));
        if fence_reader {
            stmts.push(b.dmb_sy());
        }
        stmts.push(b.load(Reg(2), Expr::val(0)));
        let t2 = b.finish_seq(&stmts);
        Arc::new(Program::new(vec![t1, t2]))
    }

    fn outcomes_of(program: Arc<Program>, mode: CertMode) -> BTreeSet<(i64, i64)> {
        let m = Machine::new(program, Config::arm());
        explore_naive(&m, mode)
            .outcomes
            .into_iter()
            .map(|o| (o.reg(1, Reg(1)).0, o.reg(1, Reg(2)).0))
            .collect()
    }

    #[test]
    fn mp_plain_allows_stale_read() {
        let set = outcomes_of(mp_program(false), CertMode::Online);
        assert!(set.contains(&(42, 0)), "weak MP outcome must be allowed");
        assert!(set.contains(&(42, 37)));
        assert!(set.contains(&(0, 0)));
        assert!(set.contains(&(0, 37)));
        assert_eq!(set.len(), 4);
    }

    #[test]
    fn mp_fenced_forbids_stale_read() {
        let set = outcomes_of(mp_program(true), CertMode::Online);
        assert!(!set.contains(&(42, 0)), "fenced MP must forbid 42/0");
        assert_eq!(set.len(), 3);
    }

    #[test]
    fn lb_cycle_requires_promises() {
        // LB+data on one side: r1=r2=42 allowed only via T2's promise.
        let mut b = CodeBuilder::new();
        let a = b.load(Reg(1), Expr::val(0));
        let s = b.store(Expr::val(1), Expr::reg(Reg(1)));
        let t1 = b.finish_seq(&[a, s]);
        let mut b = CodeBuilder::new();
        let c = b.load(Reg(2), Expr::val(1));
        let d = b.store(Expr::val(0), Expr::val(42));
        let t2 = b.finish_seq(&[c, d]);
        let m = Machine::new(Arc::new(Program::new(vec![t1, t2])), Config::arm());
        let exp = explore_naive(&m, CertMode::Online);
        let pairs: BTreeSet<(i64, i64)> = exp
            .outcomes
            .iter()
            .map(|o| (o.reg(0, Reg(1)).0, o.reg(1, Reg(2)).0))
            .collect();
        assert!(pairs.contains(&(42, 42)), "LB outcome requires promises");
        assert!(pairs.contains(&(0, 0)));
        // data dependency direction: r2 can never be 42 while r1 = 0
        // unless T2 read T1's y… enumerate everything and sanity-check
        // the coherence-impossible pair (42, 0) is possible? T1 reads 42
        // only from T2's promise; then y := 42; T2 may still read y = 0.
        assert!(pairs.contains(&(42, 0)));
    }

    #[test]
    fn cert_modes_agree_on_mp_and_lb() {
        for fenced in [false, true] {
            assert_eq!(
                outcomes_of(mp_program(fenced), CertMode::Online),
                outcomes_of(mp_program(fenced), CertMode::PromisesOnly),
            );
        }
    }

    #[test]
    fn sb_allows_both_stale_reads() {
        // SB: P0: store x 1; r1 = load y — P1: store y 1; r2 = load x.
        let mut b = CodeBuilder::new();
        let s = b.store(Expr::val(0), Expr::val(1));
        let l = b.load(Reg(1), Expr::val(1));
        let t1 = b.finish_seq(&[s, l]);
        let mut b = CodeBuilder::new();
        let s = b.store(Expr::val(1), Expr::val(1));
        let l = b.load(Reg(2), Expr::val(0));
        let t2 = b.finish_seq(&[s, l]);
        let m = Machine::new(Arc::new(Program::new(vec![t1, t2])), Config::arm());
        let exp = explore_naive(&m, CertMode::Online);
        let pairs: BTreeSet<(i64, i64)> = exp
            .outcomes
            .iter()
            .map(|o| (o.reg(0, Reg(1)).0, o.reg(1, Reg(2)).0))
            .collect();
        assert_eq!(
            pairs,
            BTreeSet::from([(0, 0), (0, 1), (1, 0), (1, 1)]),
            "all four SB outcomes allowed on ARM"
        );
    }

    #[test]
    fn coherence_corr_holds() {
        // CoRR: same-location reads must not see writes in opposite orders.
        let mut b = CodeBuilder::new();
        let s = b.store(Expr::val(0), Expr::val(1));
        let t1 = b.finish_seq(&[s]);
        let mut b = CodeBuilder::new();
        let l1 = b.load(Reg(1), Expr::val(0));
        let l2 = b.load(Reg(2), Expr::val(0));
        let t2 = b.finish_seq(&[l1, l2]);
        let m = Machine::new(Arc::new(Program::new(vec![t1, t2])), Config::arm());
        let exp = explore_naive(&m, CertMode::Online);
        let pairs: BTreeSet<(i64, i64)> = exp
            .outcomes
            .iter()
            .map(|o| (o.reg(1, Reg(1)).0, o.reg(1, Reg(2)).0))
            .collect();
        assert!(
            !pairs.contains(&(1, 0)),
            "coherence violation (1,0) forbidden"
        );
        assert_eq!(pairs, BTreeSet::from([(0, 0), (0, 1), (1, 1)]));
    }

    #[test]
    fn parallel_workers_and_paranoid_mode_agree_with_serial() {
        for fenced in [false, true] {
            let program = mp_program(fenced);
            let serial = {
                let m = Machine::new(Arc::clone(&program), Config::arm());
                explore_naive(&m, CertMode::Online)
            };
            for config in [
                Config::arm().with_workers(4),
                Config::arm().with_paranoid(true),
                Config::arm().with_workers(2).with_paranoid(true),
            ] {
                let m = Machine::new(Arc::clone(&program), config);
                let exp = explore_naive(&m, CertMode::Online);
                assert_eq!(exp.outcomes, serial.outcomes);
            }
        }
    }

    #[test]
    fn sampling_agrees_with_exhaustive_on_small_tests() {
        // The full state space of MP is small enough that a handful of
        // walks usually covers several outcomes; all must be exhaustive
        // outcomes, and a fixed seed must reproduce exactly.
        let program = mp_program(false);
        let m = Machine::new(Arc::clone(&program), Config::arm());
        let exhaustive = explore_naive(&m, CertMode::Online);
        let a = Engine::new(NaiveModel::new(&m, CertMode::Online)).sample(24, 7);
        assert!(a.outcomes.is_subset(&exhaustive.outcomes));
        assert!(!a.outcomes.is_empty());
        let b = Engine::new(NaiveModel::new(&m, CertMode::Online)).sample(24, 7);
        assert_eq!(a.outcomes, b.outcomes);
        assert_eq!(a.stats.states, b.stats.states);
    }
}
