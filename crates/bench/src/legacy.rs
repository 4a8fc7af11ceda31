//! The seed's promise-first search (§7), kept as an independent test
//! reference: `tests/state_layer.rs` checks that the generic engine's
//! promise-first strategy reproduces its outcome sets and final-memory
//! counts on the whole litmus catalogue.
//!
//! It shares no search code with `promising_explorer`: its own loop,
//! visited sets and memo tables keyed by exact state clones rather than
//! fingerprints, and certification memos that are per call rather than
//! shared across sibling branches. No benchmark times it.

use promising_core::ids::TId;
use promising_core::stmt::SCRATCH_REG_BASE;
use promising_core::Reg;
use promising_core::Val;
use promising_core::{
    apply_step, enabled_steps, Machine, Memory, Msg, StepEvent, ThreadInstance, Timestamp,
    Transition, TransitionKind,
};
use promising_explorer::{Exploration, Outcome, Stats};
use std::collections::{BTreeMap, BTreeSet, HashMap, HashSet};
use std::rc::Rc;
use std::time::Instant;

type RegMap = BTreeMap<Reg, Val>;

/// The seed's `find_and_certify`: the messages `tid` can promise, from a
/// bounded search of its own steps with a per-call memo keyed by exact
/// `(thread, memory)` clones.
pub fn legacy_promisable(m: &Machine, tid: TId) -> BTreeSet<Msg> {
    let mut engine = LegacyCertEngine {
        m,
        code: &m.program().threads()[tid.0],
        tid,
        base_ts: m.memory().max_timestamp(),
        memo: HashMap::new(),
    };
    let (_, promisable) = engine.explore(m.thread(tid), m.memory(), m.config().cert_depth);
    promisable
}

struct LegacyCertEngine<'a> {
    m: &'a Machine,
    code: &'a promising_core::ThreadCode,
    tid: TId,
    base_ts: Timestamp,
    memo: HashMap<(ThreadInstance, Memory), (bool, BTreeSet<Msg>)>,
}

impl LegacyCertEngine<'_> {
    fn explore(
        &mut self,
        thread: &ThreadInstance,
        memory: &Memory,
        depth: u32,
    ) -> (bool, BTreeSet<Msg>) {
        // Exact memo key (full hash + compare per lookup).
        let key = (thread.clone(), memory.clone());
        if let Some(hit) = self.memo.get(&key) {
            return hit.clone();
        }
        if depth == 0 {
            return (thread.state.prom.is_empty(), BTreeSet::new());
        }
        let mut reached = thread.state.prom.is_empty();
        let mut qualified = BTreeSet::new();
        let config = self.m.config();
        let mut steps = Vec::new();
        enabled_steps(config, self.code, self.tid, thread, memory, &mut steps);
        for kind in steps {
            let mut th = thread.clone();
            let mut mem = memory.clone();
            let (ev, _) = apply_step(config, self.code, self.tid, &kind, &mut th, &mut mem)
                .expect("enabled step must apply");
            let (sub_reached, sub_qualified) = self.explore(&th, &mem, depth - 1);
            if !sub_reached {
                continue;
            }
            reached = true;
            qualified.extend(sub_qualified);
            if kind.appends_write() {
                let (loc, val, pre_view) = match ev {
                    StepEvent::DidWrite {
                        loc, val, pre_view, ..
                    } => (loc, val, pre_view),
                    StepEvent::DidRmw {
                        loc, new, pre_view, ..
                    } => (loc, new, pre_view),
                    _ => unreachable!("appends_write steps report their write"),
                };
                let coh_before = thread.state.coh(loc);
                if pre_view.join(coh_before).timestamp() <= self.base_ts {
                    qualified.insert(Msg::new(loc, val, self.tid));
                }
            }
        }
        let result = (reached, qualified);
        self.memo.insert(key, result.clone());
        result
    }
}

/// The seed's promise-first search (§7): phase 1 enumerates certified
/// promise sequences over `(promise sets, memory)` states; phase 2 runs
/// each thread alone on every reached memory.
pub fn explore_promise_first_legacy(machine: &Machine) -> Exploration {
    let start = Instant::now();
    let mut stats = Stats::default();
    let mut outcomes = BTreeSet::new();

    // Promise-mode search over (memory, promise-sets) states, exact keys.
    let mut visited: HashSet<(Vec<BTreeSet<Timestamp>>, Memory)> = HashSet::new();
    let mut stack = vec![machine.clone()];
    visited.insert(promise_key(machine));

    // Cache of promisable sets, keyed by the acting thread's promise set
    // and the (exact) memory.
    let mut promise_cache: HashMap<(TId, BTreeSet<Timestamp>, Memory), BTreeSet<Msg>> =
        HashMap::new();

    while let Some(m) = stack.pop() {
        stats.states += 1;

        // Phase-2 check: is this memory final (all threads completable)?
        let mut per_thread: Vec<Rc<BTreeSet<RegMap>>> = Vec::with_capacity(m.num_threads());
        let mut all_complete = true;
        for tid in (0..m.num_threads()).map(TId) {
            let set = thread_outcomes(&m, tid, &mut stats);
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
                .map(|l| (l, m.memory().final_value(l)))
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
                outcomes.insert(Outcome {
                    regs,
                    memory: memory.clone(),
                });
            }
        }

        // Expand: all certified promises of all threads.
        for tid in (0..m.num_threads()).map(TId) {
            let key = (tid, m.thread(tid).state.prom.clone(), m.memory().clone());
            let promisable = match promise_cache.get(&key) {
                Some(p) => p.clone(),
                None => {
                    stats.certifications += 1;
                    let p = legacy_promisable(&m, tid);
                    promise_cache.insert(key, p.clone());
                    p
                }
            };
            for msg in promisable {
                let mut next = m.clone();
                next.apply(&Transition::new(tid, TransitionKind::Promise { msg }))
                    .expect("certified promise applies");
                stats.transitions += 1;
                let k = promise_key(&next);
                if visited.insert(k) {
                    stack.push(next);
                }
            }
        }
    }

    // Serial search: all compute time is wall time.
    stats.cpu_time = start.elapsed();
    stats.wall_time = stats.cpu_time;
    Exploration { outcomes, stats }
}

fn promise_key(m: &Machine) -> (Vec<BTreeSet<Timestamp>>, Memory) {
    (
        m.threads().iter().map(|t| t.state.prom.clone()).collect(),
        m.memory().clone(),
    )
}

/// Phase 2 with a fresh exact-keyed memo per (state, thread), as the
/// seed's `thread_outcomes` had.
fn thread_outcomes(m: &Machine, tid: TId, stats: &mut Stats) -> Rc<BTreeSet<RegMap>> {
    let code = &m.program().threads()[tid.0];
    let mut memory = m.memory().clone();
    let mut dfs = LegacyThreadDfs {
        m,
        tid,
        code,
        memo: HashMap::new(),
    };
    let mem_len = memory.len();
    let result = dfs.run(m.thread(tid), &mut memory, stats);
    debug_assert_eq!(memory.len(), mem_len, "phase 2 must not append writes");
    result
}

struct LegacyThreadDfs<'a> {
    m: &'a Machine,
    tid: TId,
    code: &'a promising_core::ThreadCode,
    memo: HashMap<ThreadInstance, Rc<BTreeSet<RegMap>>>,
}

impl LegacyThreadDfs<'_> {
    fn run(
        &mut self,
        thread: &ThreadInstance,
        memory: &mut Memory,
        stats: &mut Stats,
    ) -> Rc<BTreeSet<RegMap>> {
        if let Some(hit) = self.memo.get(thread) {
            return Rc::clone(hit);
        }
        let mut out = BTreeSet::new();
        if thread.is_done() {
            if !thread.state.has_promises() && thread.state.stuck.is_none() {
                out.insert(observable_regs(thread));
            }
        } else if thread.state.stuck.is_some() {
            stats.bound_hits += 1;
        } else {
            let mut steps = Vec::new();
            enabled_steps(
                self.m.config(),
                self.code,
                self.tid,
                thread,
                memory,
                &mut steps,
            );
            for kind in steps {
                if kind.appends_write() {
                    continue; // non-promise mode: no new writes
                }
                let mut th = thread.clone();
                apply_step(self.m.config(), self.code, self.tid, &kind, &mut th, memory)
                    .expect("enabled step applies");
                stats.transitions += 1;
                let sub = self.run(&th, memory, stats);
                out.extend(sub.iter().cloned());
            }
        }
        let rc = Rc::new(out);
        self.memo.insert(thread.clone(), Rc::clone(&rc));
        rc
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
    use promising_core::{Arch, Config};
    use promising_explorer::explore_promise_first;
    use promising_workloads::{by_spec, init_for};

    #[test]
    fn legacy_agrees_with_optimised_on_workloads() {
        // The seed's search has no thread-symmetry reduction, so its
        // final-memory count is the unreduced engine's (POR off). With
        // POR on, the engine counts one final memory per orbit: SLA-1's
        // two identical clients leave 4 of them, and the rows without a
        // symmetry class keep the seed's count.
        for (spec, orbits) in [
            ("SLA-1", Some(4)),
            ("PCS-1-1", None),
            ("STC-100-010-000", None),
        ] {
            let w = by_spec(spec).expect("spec parses");
            let machine = |config: Config| {
                promising_core::Machine::with_init(w.program.clone(), config, init_for(&w))
            };
            let m = machine(w.config(Arch::Arm));
            let legacy = explore_promise_first_legacy(&m);
            let fast = explore_promise_first(&m);
            let unreduced = explore_promise_first(&machine(w.config(Arch::Arm).with_por(false)));
            assert_eq!(legacy.outcomes, fast.outcomes, "{spec}");
            assert_eq!(legacy.outcomes, unreduced.outcomes, "{spec}");
            assert_eq!(
                legacy.stats.final_memories, unreduced.stats.final_memories,
                "{spec}"
            );
            assert_eq!(
                fast.stats.final_memories,
                orbits.unwrap_or(legacy.stats.final_memories),
                "{spec}"
            );
        }
    }

    #[test]
    fn legacy_agrees_on_litmus_mp() {
        let (program, _) = promising_core::parse_program(
            "store(x, 1)\ndmb.sy\nstore(y, 1)\n---\nr1 = load(y)\nr2 = load(x)",
        )
        .expect("parses");
        let m = promising_core::Machine::new(std::sync::Arc::new(program), Config::arm());
        let legacy = explore_promise_first_legacy(&m);
        let fast = explore_promise_first(&m);
        assert_eq!(legacy.outcomes, fast.outcomes);
    }
}
