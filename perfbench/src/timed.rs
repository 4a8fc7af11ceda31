//! [`Timed`]: a [`SearchModel`] decorator that times every hook the
//! engine calls on the wrapped model, from outside the model.
//!
//! Each worker thread accumulates into its own thread-local
//! [`HookTimes`] (no shared atomics on the hot path). When a worker's
//! search ends the engine calls [`SearchModel::drain_cache`] on that
//! worker's thread, which hands the accumulator to the decorator; hooks
//! the engine calls on the caller's thread before the workers start (the
//! root fingerprint) are collected by [`Timed::take`]. Hook calls are
//! aggregated per search, never recorded one by one: flat `apply` alone
//! fires ~400k times on SLR-2.

use promising_core::{Config, Fingerprint, Footprint};
use promising_explorer::{SearchModel, Stats};
use std::cell::RefCell;
use std::collections::BTreeSet;
use std::sync::Mutex;
use std::time::Instant;

/// The timed hooks, in report order.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Hook {
    /// [`SearchModel::expand`].
    Expand,
    /// [`SearchModel::outcome`].
    Outcome,
    /// [`SearchModel::apply`].
    Apply,
    /// [`SearchModel::fingerprint`].
    Fingerprint,
    /// [`SearchModel::reduce`].
    Reduce,
    /// [`SearchModel::is_final`].
    IsFinal,
}

impl Hook {
    /// Every hook, indexed by `hook as usize`.
    pub const ALL: [Hook; 6] = [
        Hook::Expand,
        Hook::Outcome,
        Hook::Apply,
        Hook::Fingerprint,
        Hook::Reduce,
        Hook::IsFinal,
    ];

    /// The hook's method name.
    pub fn name(self) -> &'static str {
        match self {
            Hook::Expand => "expand",
            Hook::Outcome => "outcome",
            Hook::Apply => "apply",
            Hook::Fingerprint => "fingerprint",
            Hook::Reduce => "reduce",
            Hook::IsFinal => "is_final",
        }
    }
}

/// Summed time and call count per hook.
#[derive(Clone, Copy, Default, Debug)]
pub struct HookTimes {
    ns: [u64; 6],
    calls: [u64; 6],
}

impl HookTimes {
    /// Seconds spent in `hook`, summed over workers.
    pub fn secs(&self, hook: Hook) -> f64 {
        self.ns[hook as usize] as f64 * 1e-9
    }

    /// Calls of `hook`.
    pub fn calls(&self, hook: Hook) -> u64 {
        self.calls[hook as usize]
    }

    /// Seconds spent in all hooks.
    pub fn total_secs(&self) -> f64 {
        self.ns.iter().sum::<u64>() as f64 * 1e-9
    }

    fn add(&mut self, other: &HookTimes) {
        for i in 0..self.ns.len() {
            self.ns[i] += other.ns[i];
            self.calls[i] += other.calls[i];
        }
    }
}

thread_local! {
    static LOCAL: RefCell<HookTimes> = RefCell::new(HookTimes::default());
}

fn take_local() -> HookTimes {
    LOCAL.with(|l| std::mem::take(&mut *l.borrow_mut()))
}

fn timed<R>(hook: Hook, f: impl FnOnce() -> R) -> R {
    let begun = Instant::now();
    let r = f();
    let ns = begun.elapsed().as_nanos() as u64;
    LOCAL.with(|l| {
        let mut l = l.borrow_mut();
        l.ns[hook as usize] += ns;
        l.calls[hook as usize] += 1;
    });
    r
}

/// `M` with every hook timed; behaviour is `M`'s exactly.
pub struct Timed<M> {
    inner: M,
    drained: Mutex<HookTimes>,
}

impl<M> Timed<M> {
    /// Wrap `inner`, discarding anything this thread recorded before.
    pub fn new(inner: M) -> Timed<M> {
        take_local();
        Timed {
            inner,
            drained: Mutex::new(HookTimes::default()),
        }
    }

    /// The hook times of the finished search: every worker's drained
    /// accumulator plus what the calling thread recorded outside them.
    pub fn take(&self) -> HookTimes {
        let mut all = std::mem::take(&mut *self.drained.lock().expect("no hook panics holding it"));
        all.add(&take_local());
        all
    }
}

impl<M: SearchModel> SearchModel for Timed<M> {
    type State = M::State;
    type Transition = M::Transition;
    type Exact = M::Exact;
    type Out = M::Out;
    type Cache = M::Cache;

    const DEADLOCK_ON_EMPTY: bool = M::DEADLOCK_ON_EMPTY;

    fn config(&self) -> &Config {
        self.inner.config()
    }

    fn root(&self, stats: &mut Stats) -> M::State {
        self.inner.root(stats)
    }

    fn cache(&self) -> M::Cache {
        self.inner.cache()
    }

    fn walk_cache(&self) -> M::Cache {
        self.inner.walk_cache()
    }

    fn fingerprint(&self, s: &M::State) -> Fingerprint {
        timed(Hook::Fingerprint, || self.inner.fingerprint(s))
    }

    fn exact_key(&self, s: &M::State) -> M::Exact {
        self.inner.exact_key(s)
    }

    fn approx_state_bytes(&self, s: &M::State) -> usize {
        self.inner.approx_state_bytes(s)
    }

    fn outcome(
        &self,
        s: &M::State,
        cache: &mut M::Cache,
        stats: &mut Stats,
        deadline: Option<Instant>,
        out: &mut BTreeSet<M::Out>,
    ) {
        timed(Hook::Outcome, || {
            self.inner.outcome(s, cache, stats, deadline, out)
        })
    }

    fn is_final(&self, s: &M::State, stats: &mut Stats) -> bool {
        timed(Hook::IsFinal, || self.inner.is_final(s, stats))
    }

    fn expand(
        &self,
        s: &M::State,
        cache: &mut M::Cache,
        stats: &mut Stats,
        deadline: Option<Instant>,
    ) -> Vec<M::Transition> {
        timed(Hook::Expand, || {
            self.inner.expand(s, cache, stats, deadline)
        })
    }

    fn apply(&self, s: &M::State, t: &M::Transition, stats: &mut Stats) -> M::State {
        timed(Hook::Apply, || self.inner.apply(s, t, stats))
    }

    fn footprint(&self, s: &M::State, t: &M::Transition) -> Footprint {
        self.inner.footprint(s, t)
    }

    fn independent(&self, s: &M::State, a: &M::Transition, b: &M::Transition) -> bool {
        self.inner.independent(s, a, b)
    }

    fn reduce(&self, s: &M::State, transitions: &mut Vec<M::Transition>) {
        timed(Hook::Reduce, || self.inner.reduce(s, transitions))
    }

    fn drain_cache(&self, cache: &mut M::Cache, stats: &mut Stats) {
        self.inner.drain_cache(cache, stats);
        let local = take_local();
        self.drained
            .lock()
            .expect("no hook panics holding it")
            .add(&local);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use promising_core::Machine;
    use promising_explorer::{CertMode, Engine, NaiveModel, PromiseFirstModel};
    use promising_flat::{FlatMachine, FlatModel};
    use promising_litmus::{by_name, DEFAULT_FUEL};

    const TESTS: [&str; 4] = ["MP+po+po", "SB+po+po", "LB+po+po", "MP+dmb.sy+addr"];

    /// Run `model` plain and decorated; the outcome digests and state
    /// counts must match, and the decorated run must have timed hooks.
    fn same<M: SearchModel<Out = promising_core::Outcome>>(name: &str, plain: M, decorated: M) {
        let want = Engine::new(plain).run();
        let engine = Engine::new(Timed::new(decorated));
        let got = engine.run();
        let hooks = engine.model().take();
        assert_eq!(got.outcomes_digest(), want.outcomes_digest(), "{name}");
        assert_eq!(got.stats.states, want.stats.states, "{name}");
        assert_eq!(got.stats.por_pruned, want.stats.por_pruned, "{name}");
        assert!(hooks.calls(Hook::Expand) > 0, "{name}: expand untimed");
        assert!(hooks.calls(Hook::Outcome) >= got.stats.states, "{name}");
        assert!(hooks.total_secs() <= got.stats.cpu_time.as_secs_f64() * 1.01 + 1e-3);
    }

    #[test]
    fn decorator_delegates_on_catalogue_tests() {
        for name in TESTS {
            let test = by_name(name).expect("catalogue test");
            for workers in [1, 2] {
                let config = Config::for_arch(test.arch)
                    .with_loop_fuel(test.loop_fuel.unwrap_or(DEFAULT_FUEL))
                    .with_workers(workers);
                let m = Machine::with_init(test.program.clone(), config.clone(), test.init.clone());
                same(name, PromiseFirstModel::new(&m), PromiseFirstModel::new(&m));
                same(
                    name,
                    NaiveModel::new(&m, CertMode::Online),
                    NaiveModel::new(&m, CertMode::Online),
                );
                let f = FlatMachine::with_init(test.program.clone(), config, test.init.clone());
                same(name, FlatModel::new(&f), FlatModel::new(&f));
            }
        }
    }
}
