//! Exhaustive exploration for the Flat-lite baseline: plain interleaving
//! search over the nondeterministic transitions with visited-state
//! deduplication — the cost profile Tables 2/3 of the paper measure
//! against.
//!
//! The strategy is a [`SearchModel`] ([`FlatModel`]) run by the shared
//! generic engine of `promising-explorer` ([`promising_explorer::Engine`]):
//! fingerprinted visited set (exact keys in paranoid mode), wall-clock /
//! state budgets, optional parallel workers via `Config::workers` (with
//! outcome sets independent of the worker count), and seeded random-walk
//! sampling via [`Engine::sample`].

use crate::machine::{FlatMachine, FlatStateKey, FlatTransition};
use promising_core::ids::TId;
use promising_core::{Config, Fingerprint, MayAccess, Outcome};
use promising_explorer::{Engine, SearchBudget, SearchModel, Stats};
use std::collections::BTreeSet;
use std::time::Instant;

/// Counters from a Flat exploration — the shared explorer [`Stats`].
pub type FlatStats = Stats;

/// Result of a Flat exploration — the shared explorer result type.
pub type FlatExploration = promising_explorer::Exploration<Outcome>;

/// The Flat-lite interleaving strategy as a [`SearchModel`]: states are
/// whole [`FlatMachine`]s, transitions are every enabled micro-step
/// (fetch, satisfy, propagate, resolve, …) of every thread.
pub struct FlatModel {
    root: FlatMachine,
}

impl FlatModel {
    /// The Flat-lite strategy rooted at `machine`.
    pub fn new(machine: &FlatMachine) -> FlatModel {
        FlatModel {
            root: machine.clone(),
        }
    }
}

impl SearchModel for FlatModel {
    type State = FlatMachine;
    type Transition = FlatTransition;
    type Exact = FlatStateKey;
    type Out = Outcome;
    type Cache = ();

    fn config(&self) -> &Config {
        self.root.config()
    }

    fn root(&self, _stats: &mut Stats) -> FlatMachine {
        self.root.clone()
    }

    fn cache(&self) {}

    fn fingerprint(&self, s: &FlatMachine) -> Fingerprint {
        s.fingerprint()
    }

    fn exact_key(&self, s: &FlatMachine) -> FlatStateKey {
        s.state_key()
    }

    fn outcome(
        &self,
        s: &FlatMachine,
        _cache: &mut (),
        _stats: &mut Stats,
        _deadline: Option<Instant>,
        out: &mut BTreeSet<Outcome>,
    ) {
        if s.terminated() {
            out.insert(s.outcome());
        }
    }

    fn is_final(&self, s: &FlatMachine, stats: &mut Stats) -> bool {
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
        s: &FlatMachine,
        _cache: &mut (),
        _stats: &mut Stats,
        _deadline: Option<Instant>,
    ) -> Vec<FlatTransition> {
        s.enabled()
    }

    fn apply(&self, s: &FlatMachine, tr: &FlatTransition, stats: &mut Stats) -> FlatMachine {
        let mut next = s.clone();
        next.apply(tr);
        stats.transitions += 1;
        next
    }

    /// The flat [`Config::por`] reduction: frozen reads first, else the
    /// delayable-thread collapse. Both read the flat machine's future
    /// may-read and may-write sets ([`FlatMachine::thread_future_reads`],
    /// [`FlatMachine::thread_future_writes`]).
    fn reduce(&self, m: &FlatMachine, transitions: &mut Vec<FlatTransition>) {
        if !reduce_flat_frozen_reads(m, transitions) {
            reduce_flat_delayable(m, transitions);
        }
    }
}

/// Frozen-read persistent sets (the sharper half of the flat
/// [`Config::por`] reduction): when every enabled transition of some
/// thread `q` is a speculation guess (`FetchBranch`) or a `Satisfy` of a
/// location **no other thread may ever write again**, exploring *only*
/// `q`'s transitions at this state is a persistent set — every other
/// thread's transitions (including its appends) are dropped here and
/// re-examined one `q`-step later.
///
/// Why the set is persistent:
///
/// * every enabledness scan of the flat machine (`load_source`,
///   `store_ready`, `rmw_bind_ready`/`rmw_propagate_ready`, the fetch
///   point) reads only the acting thread's instance list and registers
///   — memory is consulted only for a satisfy's/bind's *value* and the
///   `atomic` pairing gates of store-exclusives and bound RMWs
///   (which foreign appends can switch off but never on). So `q`'s
///   enabled set cannot change, and no disabled `q`-transition can
///   become enabled, until `q` itself moves: the eligibility check
///   covers exactly the transitions any interleaving of the others
///   could ever put in front of `q`'s;
/// * each member of the set commutes *state-identically* with every
///   other thread's transition: it mutates only `q`'s instance list and
///   reads only locations whose streams are frozen (a delayed `Satisfy`
///   binds the coherence-latest write of its location, which no other
///   thread may append to; a forwarded `Satisfy` and a `FetchBranch`
///   never read memory at all), while the other transition neither
///   reads `q`'s state nor can be disabled by it;
/// * the flat state graph is acyclic (fetch fuel strictly decreases on
///   loop back-edges, instances only advance), so the classical
///   ignoring problem cannot arise and persistent sets preserve every
///   terminated state — which is where outcomes are read.
///
/// The choice of `q` (lowest eligible tid) is a pure function of the
/// state, so fingerprint dedup stays sound. Returns whether the rule
/// fired; if not, the caller falls back to the delayable-thread
/// collapse. This is the rule that cracks the append-bound stack/queue
/// rows: a popper reading the immutable fields of an already-published
/// node runs to its next CAS before any sibling interleaves.
fn reduce_flat_frozen_reads(m: &FlatMachine, transitions: &mut Vec<FlatTransition>) -> bool {
    let n = m.threads().len();
    if n < 2 {
        return false;
    }
    let mut writes: Vec<Option<MayAccess>> = vec![None; n];
    let mut may_write = |r: usize, loc| {
        writes[r]
            .get_or_insert_with(|| m.thread_future_writes(TId(r)))
            .contains(loc)
    };
    let mut has = vec![false; n];
    let mut eligible = vec![true; n];
    for t in transitions.iter() {
        let q = t.tid().0;
        has[q] = true;
        eligible[q] &= match *t {
            FlatTransition::FetchBranch { .. } => true,
            FlatTransition::Satisfy { tid, idx } => match m.access_target(tid, idx) {
                Some(loc) => (0..n).all(|r| r == q || !may_write(r, loc)),
                None => false,
            },
            // anything that may touch memory (or, for `FailStx`, races
            // its own propagation window) disqualifies the thread
            _ => false,
        };
    }
    let Some(keep) = (0..n).find(|&q| has[q] && eligible[q]) else {
        return false;
    };
    if transitions.iter().all(|t| t.tid().0 == keep) {
        return false;
    }
    transitions.retain(|t| t.tid().0 == keep);
    true
}

/// Per-state persistent sets over the per-location conflict structure
/// (the fallback half of the flat [`Config::por`] reduction): collapse
/// co-enabled *delayable* threads.
///
/// A thread `q` is delayable when its future accesses are mutually
/// disjoint from every other thread's: no other thread may still write
/// a location `q` may still read, and `q` may never write a location any
/// other thread may still read *or write*.
///
/// The read condition is the flat-specific strengthening of the naive
/// model's pure-observer rule. A naive `Read { t }` names the message it
/// reads, so a delayed observer's candidates are immune to appends; a
/// flat `Satisfy` names no write — it always binds the coherence-latest
/// one — so foreign appends to a location `q` may still read would
/// change the value its delayed loads see. With no foreign writer left,
/// every read `q` will ever do binds the same value on either side of a
/// swap.
///
/// For a thread with no future writes
/// ([`FlatMachine::thread_future_writes`] empty — this also rules out
/// pending store-exclusives, whose `FailStx` would otherwise race their
/// own propagation window), the conditions are exactly the observer
/// condition: every step it will ever take is thread-local with
/// memory-independent effects, so it commutes state-identically with
/// everyone else's. A delayable `q` may also still append — to
/// locations nobody else touches — and every transition kind is
/// allowed: under the canonical per-location state encoding
/// ([`FlatMachine::canonical_words`]) `q`'s appends commute with
/// everyone else's (the interleaving order of disjoint appends is
/// erased by the encoding), and its store-exclusive `atomic` windows
/// read only its own locations' streams. Keeping the lowest delayable
/// thread plus every non-delayable thread's transitions is therefore a
/// persistent set up to the renumbering bisimulation the encoding
/// quotients by. Read-parallel workloads collapse multiplicatively, and
/// so do disjoint-writer workloads (`tests/por_agreement.rs` has the
/// anti-rot check). The decision is a pure function of the state, so
/// fingerprint dedup stays sound.
fn reduce_flat_delayable(m: &FlatMachine, transitions: &mut Vec<FlatTransition>) {
    let n = m.threads().len();
    let mut seen = vec![false; n];
    for t in transitions.iter() {
        seen[t.tid().0] = true;
    }
    let reads: Vec<MayAccess> = (0..n).map(|t| m.thread_future_reads(TId(t))).collect();
    let writes: Vec<MayAccess> = (0..n).map(|t| m.thread_future_writes(TId(t))).collect();
    let mut delayable = vec![false; n];
    for q in 0..n {
        delayable[q] = seen[q]
            && (0..n).filter(|&r| r != q).all(|r| {
                !writes[r].intersects(&reads[q])
                    && !writes[q].intersects(&reads[r])
                    && !writes[q].intersects(&writes[r])
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
    transitions.retain(|t| !delayable[t.tid().0] || t.tid().0 == keep);
}

/// Exhaustively explore all interleavings of `machine`.
pub fn explore_flat(machine: &FlatMachine) -> FlatExploration {
    explore_flat_budget(machine, SearchBudget::UNBOUNDED)
}

/// [`explore_flat`] under a [`SearchBudget`]: wall-clock deadline and/or
/// global state budget (total visits stay within `max_states` regardless
/// of the worker count), reported via `stats.stop` — the "out of
/// time" guard used by the benchmark tables.
pub fn explore_flat_budget(machine: &FlatMachine, budget: SearchBudget) -> FlatExploration {
    Engine::new(FlatModel::new(machine))
        .with_budget(budget)
        .run()
}

#[cfg(test)]
mod tests {
    use super::*;
    use promising_core::{CodeBuilder, Config, Expr, Program, Reg};
    use std::collections::BTreeSet;
    use std::sync::Arc;

    fn run(program: Program) -> FlatExploration {
        let m = FlatMachine::new(Arc::new(program), Config::arm());
        explore_flat(&m)
    }

    fn mp(fenced_reader: bool) -> Program {
        let mut b = CodeBuilder::new();
        let s1 = b.store(Expr::val(0), Expr::val(37));
        let f = b.dmb_sy();
        let s2 = b.store(Expr::val(1), Expr::val(42));
        let t1 = b.finish_seq(&[s1, f, s2]);
        let mut b = CodeBuilder::new();
        let mut stmts = vec![b.load(Reg(1), Expr::val(1))];
        if fenced_reader {
            stmts.push(b.dmb_sy());
        }
        stmts.push(b.load(Reg(2), Expr::val(0)));
        let t2 = b.finish_seq(&stmts);
        Program::new(vec![t1, t2])
    }

    #[test]
    fn flat_mp_plain_allows_weak_outcome() {
        let exp = run(mp(false));
        let pairs: BTreeSet<(i64, i64)> = exp
            .outcomes
            .iter()
            .map(|o| (o.reg(1, Reg(1)).0, o.reg(1, Reg(2)).0))
            .collect();
        assert!(pairs.contains(&(42, 0)), "weak MP outcome via OoO satisfy");
        assert_eq!(pairs.len(), 4);
    }

    #[test]
    fn flat_mp_fenced_forbids_weak_outcome() {
        let exp = run(mp(true));
        let pairs: BTreeSet<(i64, i64)> = exp
            .outcomes
            .iter()
            .map(|o| (o.reg(1, Reg(1)).0, o.reg(1, Reg(2)).0))
            .collect();
        assert!(!pairs.contains(&(42, 0)));
        assert_eq!(pairs.len(), 3);
    }

    #[test]
    fn flat_lb_allows_cycle_via_early_propagate() {
        // LB: both loads read 1 — stores propagate before loads satisfy.
        let mut b = CodeBuilder::new();
        let l = b.load(Reg(1), Expr::val(0));
        let s = b.store(Expr::val(1), Expr::val(1));
        let t1 = b.finish_seq(&[l, s]);
        let mut b = CodeBuilder::new();
        let l = b.load(Reg(2), Expr::val(1));
        let s = b.store(Expr::val(0), Expr::val(1));
        let t2 = b.finish_seq(&[l, s]);
        let exp = run(Program::new(vec![t1, t2]));
        assert!(exp
            .outcomes
            .iter()
            .any(|o| o.reg(0, Reg(1)).0 == 1 && o.reg(1, Reg(2)).0 == 1));
    }

    #[test]
    fn flat_lb_data_deps_forbid_cycle() {
        let mk = |from: i64, to: i64, reg| {
            let mut b = CodeBuilder::new();
            let l = b.load(reg, Expr::val(from));
            let s = b.store(Expr::val(to), Expr::reg(reg));
            b.finish_seq(&[l, s])
        };
        let exp = run(Program::new(vec![mk(0, 1, Reg(1)), mk(1, 0, Reg(2))]));
        assert!(!exp
            .outcomes
            .iter()
            .any(|o| o.reg(0, Reg(1)).0 != 0 || o.reg(1, Reg(2)).0 != 0));
    }

    #[test]
    fn flat_ppoca_allowed_via_forwarding_under_speculation() {
        // PPOCA (§2): ctrl-speculated store forwarded to a load.
        let mut b = CodeBuilder::new();
        let s1 = b.store(Expr::val(0), Expr::val(37));
        let f = b.dmb_sy();
        let s2 = b.store(Expr::val(1), Expr::val(42));
        let t1 = b.finish_seq(&[s1, f, s2]);
        let mut b = CodeBuilder::new();
        let d = b.load(Reg(0), Expr::val(1));
        let i = b.store(Expr::val(2), Expr::val(51));
        let j = b.load(Reg(1), Expr::val(2));
        let fl = b.load(Reg(2), Expr::val(0).with_dep(Reg(1)));
        let body = b.seq(&[i, j, fl]);
        let br = b.if_then(Expr::reg(Reg(0)).eq(Expr::val(42)), body);
        let t2 = b.finish_seq(&[d, br]);
        let exp = run(Program::new(vec![t1, t2]));
        assert!(
            exp.outcomes.iter().any(|o| o.reg(1, Reg(0)).0 == 42
                && o.reg(1, Reg(1)).0 == 51
                && o.reg(1, Reg(2)).0 == 0),
            "PPOCA outcome must be reachable in Flat-lite"
        );
    }

    #[test]
    fn flat_coherence_corr() {
        let mut b = CodeBuilder::new();
        let s = b.store(Expr::val(0), Expr::val(1));
        let t1 = b.finish_seq(&[s]);
        let mut b = CodeBuilder::new();
        let l1 = b.load(Reg(1), Expr::val(0));
        let l2 = b.load(Reg(2), Expr::val(0));
        let t2 = b.finish_seq(&[l1, l2]);
        let exp = run(Program::new(vec![t1, t2]));
        let pairs: BTreeSet<(i64, i64)> = exp
            .outcomes
            .iter()
            .map(|o| (o.reg(1, Reg(1)).0, o.reg(1, Reg(2)).0))
            .collect();
        assert_eq!(pairs, BTreeSet::from([(0, 0), (0, 1), (1, 1)]));
    }

    #[test]
    fn flat_exclusive_increment_race_yields_consistent_counts() {
        // two ldx/stx increments, no retry loops: each may fail or succeed;
        // successes must be atomic (never lost updates).
        let mk = || {
            let mut b = CodeBuilder::new();
            let l = b.load_excl(Reg(1), Expr::val(0));
            let s = b.store_excl(Reg(2), Expr::val(0), Expr::reg(Reg(1)).add(Expr::val(1)));
            b.finish_seq(&[l, s])
        };
        let exp = run(Program::new(vec![mk(), mk()]));
        for o in &exp.outcomes {
            let successes = [0, 1].iter().filter(|&&t| o.reg(t, Reg(2)).0 == 0).count() as i64;
            assert_eq!(
                o.loc(promising_core::Loc(0)).0,
                successes,
                "final counter must equal the number of successful increments: {o}"
            );
        }
    }

    #[test]
    fn flat_parallel_and_paranoid_agree_with_serial() {
        let serial = run(mp(false));
        for config in [
            Config::arm().with_workers(4),
            Config::arm().with_paranoid(true),
        ] {
            let m = FlatMachine::new(Arc::new(mp(false)), config);
            let exp = explore_flat(&m);
            assert_eq!(exp.outcomes, serial.outcomes);
        }
    }

    #[test]
    fn flat_state_budget_truncates() {
        let m = FlatMachine::new(Arc::new(mp(false)), Config::arm());
        let exp = explore_flat_budget(&m, SearchBudget::max_states(5));
        assert!(exp.stats.truncated());
        assert!(exp.stats.states <= 6);
    }

    #[test]
    fn flat_sampling_is_sound_and_deterministic() {
        let exhaustive = run(mp(false));
        let m = FlatMachine::new(Arc::new(mp(false)), Config::arm());
        let a = Engine::new(FlatModel::new(&m)).sample(32, 5);
        assert!(a.outcomes.is_subset(&exhaustive.outcomes));
        assert!(!a.outcomes.is_empty());
        let b = Engine::new(FlatModel::new(&m)).sample(32, 5);
        assert_eq!(a.outcomes, b.outcomes);
        assert_eq!(a.stats.states, b.stats.states);
    }
}
