//! Promise-first exhaustive exploration (§7, Theorem 7.1).
//!
//! For every trace of the Promising machine there is an equivalent trace in
//! which *all promises come first*. The search therefore runs in two
//! phases:
//!
//! 1. **Promise mode** — interleave only promise transitions (each
//!    validated by `find_and_certify`), enumerating all reachable
//!    memories. Thread continuations never advance in this phase.
//! 2. **Non-promise mode** — a memory is *final* if every thread can run
//!    to completion under it without appending any write (stores only
//!    fulfil already-promised messages). Since the memory is fixed, each
//!    thread executes completely independently: no read interleaving, and
//!    the outcome set of the memory is the product of the per-thread
//!    outcome sets.
//!
//! This removes the read-interleaving blow-up that dominates the naive
//! search and is the optimisation behind the paper's Table 2/3 results.
//!
//! The strategy is a [`SearchModel`] ([`PromiseFirstModel`]) run by the
//! generic [`Engine`]: promise-mode states are deduplicated by a
//! fingerprint of (per-thread promise sets, memory); the phase-2
//! all-threads-completable check is the model's *outcome* hook, run on
//! every promise-mode state. Certification and the phase-2 per-thread
//! searches are memoised *within* each state's work (fingerprint keys);
//! unlike the naive strategy, the memos are not shared across states —
//! every promise-mode state has a distinct memory, so cross-state keys
//! could never hit and a shared table would only grow without bound.
//! `Config::workers > 1` explores the promise frontier in parallel with
//! identical outcome sets.
//!
//! The model keeps the default no-op [`SearchModel::reduce`]. Phase-1
//! transitions are all promises, appends to memory's single total order,
//! and phase 2 runs each thread alone against a fixed memory, so no
//! cross-thread interleaving is left to prune: promise-first is itself
//! the ordering reduction of Theorem 7.1. `Config::por` still restricts
//! its certification memo keys.

use crate::engine::{Engine, Exploration, SearchBudget, SearchModel};
use crate::stats::{Stats, StopReason};
use promising_core::ids::TId;
use promising_core::stmt::SCRATCH_REG_BASE;
use promising_core::Outcome;
use promising_core::Transition;
use promising_core::{
    apply_step, enabled_steps, find_promises_with, CertMemo, Config, Fingerprint, FpHashMap,
    FpHasher, Machine, Memory, Reg, ThreadInstance, Timestamp, TransitionKind,
};
use std::collections::{BTreeMap, BTreeSet};
use std::rc::Rc;
use std::time::Instant;

type RegMap = BTreeMap<Reg, promising_core::Val>;

/// A thread's final register maps, shared by the memo entries and the
/// search nodes that reach the same set.
type RegMaps = Rc<BTreeSet<RegMap>>;

/// Exact promise-mode state identity (paranoid dedup): the per-thread
/// promise sets and the memory — the only parts that change in phase 1.
type PromiseKey = (Vec<BTreeSet<Timestamp>>, Memory);

fn promise_fp(m: &Machine) -> Fingerprint {
    let mut h = FpHasher::new();
    h.write_len(m.num_threads());
    for t in m.threads() {
        h.write_len(t.state.prom.len());
        for ts in &t.state.prom {
            h.write_u32(ts.0);
        }
    }
    m.memory().feed(&mut h);
    h.finish128()
}

fn promise_key(m: &Machine) -> PromiseKey {
    (
        m.threads().iter().map(|t| t.state.prom.clone()).collect(),
        m.memory().clone(),
    )
}

/// Exact phase-2 sub-problem identity, stored in paranoid mode only.
type Phase2Exact = (TId, ThreadInstance, Memory);

/// Memo of phase-2 per-thread outcome sets, keyed by a fingerprint of
/// (thread id, thread instance, memory). The thread id is part of the
/// key because two threads running *different* code can still have
/// identical dynamic instances (e.g. the two IRIW readers in their
/// initial states). Paranoid mode stores the exact key, boxed so the
/// normal mode's entries stay small, and panics on collisions.
struct Phase2Memo {
    paranoid: bool,
    map: FpHashMap<(Option<Box<Phase2Exact>>, RegMaps)>,
}

impl Phase2Memo {
    fn new(paranoid: bool) -> Phase2Memo {
        Phase2Memo {
            paranoid,
            map: FpHashMap::default(),
        }
    }

    fn key(tid: TId, thread: &ThreadInstance, mem_fp: Fingerprint) -> Fingerprint {
        let mut h = FpHasher::new();
        h.write_len(tid.0);
        h.write_u64(mem_fp.0 as u64);
        h.write_u64((mem_fp.0 >> 64) as u64);
        thread.feed(&mut h);
        h.finish128()
    }

    fn get(
        &self,
        fp: Fingerprint,
        tid: TId,
        thread: &ThreadInstance,
        memory: &Memory,
    ) -> Option<RegMaps> {
        let (exact, value) = self.map.get(&fp)?;
        if let Some(exact) = exact {
            let (etid, eth, emem) = &**exact;
            assert!(
                *etid == tid && eth == thread && emem == memory,
                "phase-2 memo fingerprint collision at {fp}"
            );
        }
        Some(Rc::clone(value))
    }

    fn insert(
        &mut self,
        fp: Fingerprint,
        tid: TId,
        thread: &ThreadInstance,
        memory: &Memory,
        value: RegMaps,
    ) {
        let exact = self
            .paranoid
            .then(|| Box::new((tid, thread.clone(), memory.clone())));
        self.map.insert(fp, (exact, value));
    }
}

/// Per-worker cache for the promise-first model. Under the exhaustive
/// scheduler it is empty: dedup guarantees every promise-mode state is
/// expanded once, and distinct states have distinct memories, so a
/// cross-state phase-2 memo could never hit and would only grow. Under
/// the sampling scheduler there is no visited set — walks revisit the
/// root and shared promise prefixes on every trace — so a shared
/// phase-2 memo turns those repeated per-thread searches into lookups.
pub struct PromiseFirstCache {
    shared_phase2: Option<Phase2Memo>,
}

/// The promise-first strategy as a [`SearchModel`]: states are promise-mode
/// [`Machine`]s (only promise sets and the memory evolve), transitions are
/// certified promises, and the outcome hook is the phase-2 final-memory
/// check — the per-thread independent runs whose register products are the
/// memory's outcomes.
pub struct PromiseFirstModel {
    root: Machine,
}

impl PromiseFirstModel {
    /// The promise-first strategy rooted at `machine`.
    pub fn new(machine: &Machine) -> PromiseFirstModel {
        PromiseFirstModel {
            root: machine.clone(),
        }
    }
}

impl SearchModel for PromiseFirstModel {
    type State = Machine;
    type Transition = Transition;
    type Exact = PromiseKey;
    type Out = Outcome;
    type Cache = PromiseFirstCache;

    /// Running out of certifiable promises is the normal end of phase 1,
    /// not a deadlock.
    const DEADLOCK_ON_EMPTY: bool = false;

    fn config(&self) -> &Config {
        self.root.config()
    }

    fn root(&self, _stats: &mut Stats) -> Machine {
        self.root.clone()
    }

    fn cache(&self) -> PromiseFirstCache {
        PromiseFirstCache {
            shared_phase2: None,
        }
    }

    fn walk_cache(&self) -> PromiseFirstCache {
        PromiseFirstCache {
            shared_phase2: Some(Phase2Memo::new(self.config().paranoid)),
        }
    }

    fn fingerprint(&self, s: &Machine) -> Fingerprint {
        promise_fp(s)
    }

    fn exact_key(&self, s: &Machine) -> PromiseKey {
        promise_key(s)
    }

    fn outcome(
        &self,
        m: &Machine,
        cache: &mut PromiseFirstCache,
        stats: &mut Stats,
        deadline: Option<Instant>,
        out: &mut BTreeSet<Outcome>,
    ) {
        // Phase-2 check: is this memory final (all threads completable)?
        let config = self.config();
        let mem_fp = {
            let mut h = FpHasher::new();
            m.memory().feed(&mut h);
            h.finish128()
        };
        // Per-state memo when exhaustive, worker-shared when sampling
        // (the memo key includes the memory fingerprint, so sharing is
        // sound either way — see `PromiseFirstCache`).
        let mut local_phase2;
        let phase2 = match cache.shared_phase2.as_mut() {
            Some(shared) => shared,
            None => {
                local_phase2 = Phase2Memo::new(config.paranoid);
                &mut local_phase2
            }
        };
        let mut per_thread: Vec<RegMaps> = Vec::with_capacity(m.num_threads());
        let mut all_complete = true;
        let mut cut = false;
        for tid in (0..m.num_threads()).map(TId) {
            let set = thread_outcomes(m, tid, mem_fp, phase2, stats, deadline, &mut cut);
            if cut {
                // the per-thread search outran the wall clock: the outcome
                // set is a lower bound from here on
                stats.note_stop(StopReason::DeadlineExceeded);
                return;
            }
            if set.is_empty() {
                all_complete = false;
                break;
            }
            per_thread.push(set);
        }
        if all_complete {
            stats.final_memories += 1;
            let memory: BTreeMap<_, _> = m
                .memory()
                .locations()
                .into_iter()
                .map(|loc| (loc, m.memory().final_value(loc)))
                .collect();
            let mut regs_product: Vec<Vec<RegMap>> = vec![Vec::new()];
            for set in &per_thread {
                let mut next = Vec::with_capacity(regs_product.len() * set.len());
                for prefix in &regs_product {
                    for regs in set.iter() {
                        let mut p = prefix.clone();
                        p.push(regs.clone());
                        next.push(p);
                    }
                }
                regs_product = next;
            }
            for regs in regs_product {
                out.insert(Outcome {
                    regs,
                    memory: memory.clone(),
                });
            }
        }
    }

    /// Promise-mode states are never leaves: every state gets the phase-2
    /// outcome check *and* an attempted promise expansion.
    fn is_final(&self, _s: &Machine, _stats: &mut Stats) -> bool {
        false
    }

    fn expand(
        &self,
        m: &Machine,
        _cache: &mut PromiseFirstCache,
        stats: &mut Stats,
        deadline: Option<Instant>,
    ) -> Vec<Transition> {
        // All certified promises of all threads. The certification memo is
        // per-query: every promise-mode state has a distinct memory, so
        // cross-state keys never repeat (see the module docs).
        let config = self.config();
        let mut out = Vec::new();
        for tid in (0..m.num_threads()).map(TId) {
            stats.certifications += 1;
            let mut cert_memo = CertMemo::for_config(config);
            let (promisable, cut) = find_promises_with(m, tid, &mut cert_memo, deadline);
            let (hits, misses, survived) = cert_memo.counters();
            stats.cert_hits += hits;
            stats.cert_misses += misses;
            stats.cert_survived += survived;
            if cut {
                stats.note_stop(StopReason::DeadlineExceeded);
                return out;
            }
            for msg in promisable {
                out.push(Transition::new(tid, TransitionKind::Promise { msg }));
            }
        }
        out
    }

    fn apply(&self, s: &Machine, tr: &Transition, stats: &mut Stats) -> Machine {
        let mut next = s.clone();
        next.apply(tr).expect("certified promise applies");
        stats.transitions += 1;
        next
    }
}

/// Exhaustively explore `machine` promise-first, returning the same
/// outcome set as [`crate::naive::explore_naive`] (Theorem 7.1).
pub fn explore_promise_first(machine: &Machine) -> Exploration {
    explore_promise_first_budget(machine, SearchBudget::UNBOUNDED)
}

/// [`explore_promise_first`] under a [`SearchBudget`] — the "out of time"
/// guard for the benchmark tables. The wall-clock deadline also bounds
/// certification work inside promise enumeration and the phase-2
/// searches.
pub fn explore_promise_first_budget(machine: &Machine, budget: SearchBudget) -> Exploration {
    Engine::new(PromiseFirstModel::new(machine))
        .with_budget(budget)
        .run()
}

/// How many phase-2 nodes between wall-clock deadline checks.
const PHASE2_DEADLINE_CHECK_PERIOD: u64 = 256;

/// All final register valuations thread `tid` can reach running alone under
/// the machine's (fixed) memory, taking no write-appending steps. Empty if
/// the thread cannot complete (some promise unfulfillable, or it cannot
/// terminate). Memoised through `memo`, which the caller scopes to one
/// promise-mode state (cross-state sharing cannot hit — see the module
/// docs — but the memory is still part of the key so the memo stays
/// sound however it is scoped). Sets `cut` (and returns a partial set)
/// if `deadline` expires mid-search.
#[allow(clippy::too_many_arguments)]
fn thread_outcomes(
    m: &Machine,
    tid: TId,
    mem_fp: Fingerprint,
    memo: &mut Phase2Memo,
    stats: &mut Stats,
    deadline: Option<Instant>,
    cut: &mut bool,
) -> RegMaps {
    let code = &m.program().threads()[tid.0];
    let mut thread = m.thread(tid).clone();
    let mut memory = m.memory().clone();
    let mut dfs = ThreadDfs {
        m,
        tid,
        code,
        mem_fp,
        memo,
        stats,
        deadline,
        cut: false,
        ticks: 0,
        empty: Rc::default(),
        steps: Vec::new(),
    };
    let result = dfs.run(&mut thread, &mut memory, 0);
    *cut |= dfs.cut;
    debug_assert_eq!(
        memory.len(),
        m.memory().len(),
        "phase 2 must not append writes"
    );
    result
}

/// One phase-2 query: a search over the steps of one owned copy of the
/// thread, stepped in place and undone on backtrack.
struct ThreadDfs<'a> {
    m: &'a Machine,
    tid: TId,
    code: &'a promising_core::ThreadCode,
    mem_fp: Fingerprint,
    memo: &'a mut Phase2Memo,
    stats: &'a mut Stats,
    deadline: Option<Instant>,
    cut: bool,
    ticks: u64,
    /// The one empty set every dead end shares.
    empty: RegMaps,
    /// `enabled_steps` buffers, one per distance from the query's root.
    steps: Vec<Vec<TransitionKind>>,
}

impl ThreadDfs<'_> {
    fn out_of_time(&mut self) -> bool {
        if self.cut {
            return true;
        }
        let Some(at) = self.deadline else {
            return false;
        };
        self.ticks += 1;
        if self.ticks >= PHASE2_DEADLINE_CHECK_PERIOD {
            self.ticks = 0;
            if Instant::now() >= at {
                self.cut = true;
                return true;
            }
        }
        false
    }

    /// The final register maps reachable from `thread`, which is handed
    /// back as it came; `level` is the distance from the query's root.
    fn run(&mut self, thread: &mut ThreadInstance, memory: &mut Memory, level: usize) -> RegMaps {
        let fp = Phase2Memo::key(self.tid, thread, self.mem_fp);
        if let Some(hit) = self.memo.get(fp, self.tid, thread, memory) {
            return hit;
        }
        if self.out_of_time() {
            return Rc::clone(&self.empty);
        }
        let mut out = Rc::clone(&self.empty);
        if thread.is_done() {
            if !thread.state.has_promises() && thread.state.stuck.is_none() {
                out = Rc::new(BTreeSet::from([observable_regs(thread)]));
            }
        } else if thread.state.stuck.is_some() {
            self.stats.bound_hits += 1;
        } else {
            if self.steps.len() <= level {
                self.steps.resize_with(level + 1, Vec::new);
            }
            let mut steps = std::mem::take(&mut self.steps[level]);
            let config = self.m.config();
            enabled_steps(config, self.code, self.tid, thread, memory, &mut steps);
            for kind in &steps {
                if kind.appends_write() {
                    continue; // non-promise mode: no new writes (stores
                              // and RMWs may only fulfil promises)
                }
                if self.cut {
                    break;
                }
                let (_, undo) = apply_step(config, self.code, self.tid, kind, thread, memory)
                    .expect("enabled step applies");
                self.stats.transitions += 1;
                let sub = self.run(thread, memory, level + 1);
                undo.restore(thread, memory);
                if out.is_empty() {
                    out = sub;
                } else if !sub.is_subset(&out) {
                    Rc::make_mut(&mut out).extend(sub.iter().cloned());
                }
            }
            self.steps[level] = steps;
        }
        if !self.cut {
            // deadline-truncated sets are partial; memoising them would
            // poison later queries
            self.memo
                .insert(fp, self.tid, thread, memory, Rc::clone(&out));
        }
        out
    }
}

fn observable_regs(thread: &ThreadInstance) -> RegMap {
    thread
        .state
        .regs
        .iter()
        .filter(|(r, _, _)| r.0 < SCRATCH_REG_BASE)
        .map(|(r, v, _)| (r, v))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::naive::{explore_naive, CertMode};
    use promising_core::{CodeBuilder, Expr, Program, Val};
    use std::sync::Arc;

    fn check_agrees_with_naive(program: Arc<Program>, config: Config) {
        let m = Machine::new(program, config);
        let fast = explore_promise_first(&m);
        let slow = explore_naive(&m, CertMode::Online);
        assert_eq!(
            fast.outcomes, slow.outcomes,
            "promise-first and naive exploration must agree (Thm 7.1)"
        );
    }

    #[test]
    fn agrees_on_mp() {
        let mut b = CodeBuilder::new();
        let s1 = b.store(Expr::val(0), Expr::val(37));
        let s2 = b.dmb_sy();
        let s3 = b.store(Expr::val(1), Expr::val(42));
        let t1 = b.finish_seq(&[s1, s2, s3]);
        let mut b = CodeBuilder::new();
        let l1 = b.load(Reg(1), Expr::val(1));
        let l2 = b.load(Reg(2), Expr::val(0));
        let t2 = b.finish_seq(&[l1, l2]);
        check_agrees_with_naive(Arc::new(Program::new(vec![t1, t2])), Config::arm());
    }

    #[test]
    fn agrees_on_lb_with_dependency() {
        let mut b = CodeBuilder::new();
        let a = b.load(Reg(1), Expr::val(0));
        let s = b.store(Expr::val(1), Expr::reg(Reg(1)));
        let t1 = b.finish_seq(&[a, s]);
        let mut b = CodeBuilder::new();
        let c = b.load(Reg(2), Expr::val(1));
        let d = b.store(Expr::val(0), Expr::val(42));
        let t2 = b.finish_seq(&[c, d]);
        check_agrees_with_naive(Arc::new(Program::new(vec![t1, t2])), Config::arm());
    }

    #[test]
    fn agrees_on_sb_with_fences() {
        let mut b = CodeBuilder::new();
        let s = b.store(Expr::val(0), Expr::val(1));
        let f = b.dmb_sy();
        let l = b.load(Reg(1), Expr::val(1));
        let t1 = b.finish_seq(&[s, f, l]);
        let mut b = CodeBuilder::new();
        let s = b.store(Expr::val(1), Expr::val(1));
        let f = b.dmb_sy();
        let l = b.load(Reg(2), Expr::val(0));
        let t2 = b.finish_seq(&[s, f, l]);
        check_agrees_with_naive(Arc::new(Program::new(vec![t1, t2])), Config::arm());
    }

    #[test]
    fn agrees_on_exclusive_increment_race() {
        // Two threads, each one ldx/stx increment attempt (may fail).
        let mk = || {
            let mut b = CodeBuilder::new();
            let l = b.load_excl(Reg(1), Expr::val(0));
            let s = b.store_excl(Reg(2), Expr::val(0), Expr::reg(Reg(1)).add(Expr::val(1)));
            b.finish_seq(&[l, s])
        };
        check_agrees_with_naive(Arc::new(Program::new(vec![mk(), mk()])), Config::arm());
        check_agrees_with_naive(Arc::new(Program::new(vec![mk(), mk()])), Config::riscv());
    }

    #[test]
    fn agrees_on_ppoca() {
        // PPOCA (§2): forwarding a speculative-in-hardware write.
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
        let program = Arc::new(Program::new(vec![t1, t2]));
        let m = Machine::new(Arc::clone(&program), Config::arm());
        let exp = explore_promise_first(&m);
        // the PPOCA outcome r0=42 ∧ r1=51 ∧ r2=0 must be allowed
        assert!(
            exp.outcomes.iter().any(|o| o.reg(1, Reg(0)) == Val(42)
                && o.reg(1, Reg(1)) == Val(51)
                && o.reg(1, Reg(2)) == Val(0)),
            "PPOCA must be allowed"
        );
        check_agrees_with_naive(program, Config::arm());
    }

    #[test]
    fn final_memories_counted() {
        let mut b = CodeBuilder::new();
        let s = b.store(Expr::val(0), Expr::val(1));
        let t1 = b.finish_seq(&[s]);
        let m = Machine::new(Arc::new(Program::new(vec![t1])), Config::arm());
        let exp = explore_promise_first(&m);
        // exactly one final memory: [x := 1]
        assert_eq!(exp.stats.final_memories, 1);
        assert_eq!(exp.outcomes.len(), 1);
    }

    #[test]
    fn parallel_and_paranoid_agree_with_serial() {
        // LB shape with enough promise interleaving to exercise the pool.
        let mk = |from: i64, to: i64, reg| {
            let mut b = CodeBuilder::new();
            let l = b.load(reg, Expr::val(from));
            let s = b.store(Expr::val(to), Expr::val(1));
            b.finish_seq(&[l, s])
        };
        let program = Arc::new(Program::new(vec![mk(0, 1, Reg(1)), mk(1, 0, Reg(2))]));
        let serial = explore_promise_first(&Machine::new(Arc::clone(&program), Config::arm()));
        for config in [
            Config::arm().with_workers(4),
            Config::arm().with_paranoid(true),
            Config::arm().with_workers(2).with_paranoid(true),
        ] {
            let exp = explore_promise_first(&Machine::new(Arc::clone(&program), config));
            assert_eq!(exp.outcomes, serial.outcomes);
            assert_eq!(exp.stats.final_memories, serial.stats.final_memories);
        }
    }

    #[test]
    fn deadline_cut_phase2_results_are_not_memoised() {
        // Regression (PR 5 correctness sweep): the sampling scheduler
        // shares one phase-2 memo across all walks of a worker. A walk
        // cut off by the deadline mid-phase-2 must not leave truncated
        // per-thread outcome sets in the memo where a later walk would
        // consume them as complete.
        let mk = |from: i64, to: i64, reg| {
            let mut b = CodeBuilder::new();
            let l = b.load(reg, Expr::val(from));
            let s = b.store(Expr::val(to), Expr::val(1));
            b.finish_seq(&[l, s])
        };
        let program = Arc::new(Program::new(vec![mk(0, 1, Reg(1)), mk(1, 0, Reg(2))]));
        let m = Machine::new(program, Config::arm());
        let model = PromiseFirstModel::new(&m);

        let mut fresh_out = BTreeSet::new();
        let mut stats = crate::stats::Stats::default();
        let mut fresh_cache = model.walk_cache();
        model.outcome(&m, &mut fresh_cache, &mut stats, None, &mut fresh_out);

        let mut shared_cache = model.walk_cache();
        let mut cut_out = BTreeSet::new();
        let mut cut_stats = crate::stats::Stats::default();
        let past = Instant::now() - std::time::Duration::from_secs(1);
        model.outcome(
            &m,
            &mut shared_cache,
            &mut cut_stats,
            Some(past),
            &mut cut_out,
        );
        // whether or not the tiny phase-2 tree outran the periodic check,
        // a follow-up deadline-free query through the same memo must
        // reproduce the fresh result exactly
        let mut reuse_out = BTreeSet::new();
        let mut reuse_stats = crate::stats::Stats::default();
        model.outcome(
            &m,
            &mut shared_cache,
            &mut reuse_stats,
            None,
            &mut reuse_out,
        );
        assert!(!reuse_stats.truncated());
        assert_eq!(
            reuse_out, fresh_out,
            "deadline-truncated phase-2 entries leaked into a complete query"
        );
    }

    #[test]
    fn sampling_promise_walks_are_sound_and_deterministic() {
        // Sampled promise-first runs: every outcome found by a random
        // promise walk must be in the exhaustive set, and a fixed seed
        // reproduces exactly, including across worker counts.
        let mk = |from: i64, to: i64, reg| {
            let mut b = CodeBuilder::new();
            let l = b.load(reg, Expr::val(from));
            let s = b.store(Expr::val(to), Expr::val(1));
            b.finish_seq(&[l, s])
        };
        let program = Arc::new(Program::new(vec![mk(0, 1, Reg(1)), mk(1, 0, Reg(2))]));
        let m = Machine::new(Arc::clone(&program), Config::arm());
        let exhaustive = explore_promise_first(&m);
        let a = Engine::new(PromiseFirstModel::new(&m)).sample(16, 99);
        assert!(a.outcomes.is_subset(&exhaustive.outcomes));
        assert!(!a.outcomes.is_empty());
        let mp = Machine::new(program, Config::arm().with_workers(4));
        let b = Engine::new(PromiseFirstModel::new(&mp)).sample(16, 99);
        assert_eq!(a.outcomes, b.outcomes);
    }
}
