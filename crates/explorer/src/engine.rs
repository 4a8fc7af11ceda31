//! The generic search engine: one exploration loop for every strategy.
//!
//! Historically each search discipline (naive interleaving, promise-first,
//! Flat-lite) hand-rolled the same pop–expand–dedup–push cycle with its
//! own deadline checks, visited set, memo wiring, and result type. A
//! strategy is now a [`SearchModel`] — a state type, a fingerprint, an
//! expansion function, and an outcome extractor — and [`Engine`] owns
//! everything else:
//!
//! * the work frontier ([`crate::frontier::drive`]): serial LIFO stack,
//!   or for `Config::workers > 1` one locked pool of per-worker deques
//!   that idle workers steal from;
//! * the sharded visited set with 128-bit fingerprint dedup (each
//!   successor inserted as it is applied) and the opt-in exact-key
//!   paranoid mode, which keeps each state's exact key boxed in its slot;
//! * per-worker caches (e.g. the naive strategy's shared [`CertMemo`]),
//!   built once per worker and never crossing threads;
//! * the [`SearchBudget`]: wall-clock deadline, global state budget, and
//!   approximate memory budget, reported via `stats.stop` (a structured
//!   [`StopReason`], `stats.truncated()` for the boolean view);
//! * [`Stats`] accounting, including the `cpu_time`/`wall_time` split.
//!
//! Two schedulers run on any model:
//!
//! * [`Engine::run`] — exhaustive search. The outcome set is complete and
//!   independent of worker count and pop order (the visited set only ever
//!   suppresses re-expansion).
//! * [`Engine::sample`] — seeded random-walk sampling for state spaces
//!   where exhaustive search is out of reach. Every walk follows real
//!   model transitions, so the sampled outcome set is always a **sound
//!   under-approximation** (a subset) of the exhaustive set; a fixed
//!   `(n_traces, seed)` pair is **deterministic** regardless of worker
//!   count, because each trace derives its own RNG from the seed and the
//!   trace index alone.
//!
//! Both run the same per-state hook sequence (budget checks, `outcome`,
//! `is_final`, `expand`, `reduce`); they differ only in what they do
//! with the transitions it returns: `run` deduplicates and queues every
//! successor, `sample` follows one at random.
//!
//! [`CertMemo`]: promising_core::CertMemo

use crate::frontier::{drive, effective_workers, Ctx, ShardedVisited, WorkerReport};
use crate::stats::{Stats, StopReason};
use promising_core::{Config, Fingerprint, Footprint, FpHasher};
use std::collections::BTreeSet;
use std::fmt;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// Result of an exploration (exhaustive or sampled), generic over the
/// outcome type `O`. Every strategy in this workspace instantiates it
/// with [`promising_core::Outcome`]; the parameter exists so future
/// models can observe richer final states without forking the engine.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Exploration<O = promising_core::Outcome> {
    /// The set of observable outcomes of all complete executions found.
    pub outcomes: BTreeSet<O>,
    /// Search statistics.
    pub stats: Stats,
}

impl<O: Ord + fmt::Display> Exploration<O> {
    /// The outcome set as a canonical JSON array of strings: outcomes in
    /// their `Ord` order, rendered via `Display`. Byte-identical for any
    /// worker count and pop order (the `BTreeSet` is already canonically
    /// sorted) — the benchmark tables emit this so `--json` snapshots
    /// diff cleanly across runs.
    pub fn outcomes_json(&self) -> String {
        let mut out = String::from("[");
        for (i, o) in self.outcomes.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            out.push('"');
            for c in o.to_string().chars() {
                match c {
                    '"' => out.push_str("\\\""),
                    '\\' => out.push_str("\\\\"),
                    c => out.push(c),
                }
            }
            out.push('"');
        }
        out.push(']');
        out
    }

    /// A 128-bit hex digest of the canonically sorted outcome set —
    /// a compact stand-in for [`Exploration::outcomes_json`] when the
    /// full set is too large to embed in a snapshot.
    pub fn outcomes_digest(&self) -> String {
        let mut h = FpHasher::new();
        h.write_len(self.outcomes.len());
        for o in &self.outcomes {
            let s = o.to_string();
            h.write_len(s.len());
            for b in s.bytes() {
                h.write_u32(b as u32);
            }
        }
        let fp = h.finish128();
        let mut out = String::new();
        let _ = write!(out, "{:032x}", fp.0);
        out
    }
}

/// Resource bounds for a search: a wall-clock deadline, a global
/// visited-state budget, and an approximate memory budget. Any bound,
/// when hit, records the corresponding [`StopReason`] on `stats.stop`
/// and stops all workers; the outcome set is then a lower bound (the
/// paper's "ooT" cells).
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct SearchBudget {
    /// Stop once this much wall-clock time has elapsed
    /// ([`StopReason::DeadlineExceeded`]). The deadline also reaches
    /// *inside* certification and phase-2 searches via the model's
    /// `expand`/`outcome` hooks.
    pub deadline: Option<Duration>,
    /// Stop once this many states have been visited, summed across all
    /// workers (and across walk steps when sampling) —
    /// [`StopReason::StateBudget`].
    pub max_states: Option<u64>,
    /// Stop once the *approximate* resident bytes of the visited set and
    /// frontier cross this cap ([`StopReason::MemoryBudget`]): each
    /// retained state is charged its [`SearchModel::approx_state_bytes`]
    /// plus the visited-set entry overhead. The estimate is deliberately
    /// cheap (no heap walking), so big rows degrade gracefully instead
    /// of getting OOM-killed; it does not bound transient allocations
    /// inside a single expansion. Sampling runs retain only one walk
    /// state per worker and are never memory-bounded.
    pub max_bytes: Option<u64>,
}

impl SearchBudget {
    /// No bounds: run to exhaustion.
    pub const UNBOUNDED: SearchBudget = SearchBudget {
        deadline: None,
        max_states: None,
        max_bytes: None,
    };

    /// Budget with only a wall-clock deadline (`None` = unbounded).
    pub fn deadline(deadline: Option<Duration>) -> SearchBudget {
        SearchBudget {
            deadline,
            ..SearchBudget::UNBOUNDED
        }
    }

    /// Budget with only a state cap.
    pub fn max_states(max_states: u64) -> SearchBudget {
        SearchBudget {
            max_states: Some(max_states),
            ..SearchBudget::UNBOUNDED
        }
    }

    /// Budget with only an approximate memory cap.
    pub fn max_bytes(max_bytes: u64) -> SearchBudget {
        SearchBudget {
            max_bytes: Some(max_bytes),
            ..SearchBudget::UNBOUNDED
        }
    }

    /// Replace the deadline.
    pub fn with_deadline(mut self, deadline: Option<Duration>) -> SearchBudget {
        self.deadline = deadline;
        self
    }

    /// Replace the state cap.
    pub fn with_max_states(mut self, max_states: Option<u64>) -> SearchBudget {
        self.max_states = max_states;
        self
    }

    /// Replace the approximate memory cap.
    pub fn with_max_bytes(mut self, max_bytes: Option<u64>) -> SearchBudget {
        self.max_bytes = max_bytes;
        self
    }

    /// Scale every finite bound by `factor` (saturating) — the batch
    /// runner's escalating-retry ladder.
    #[must_use]
    pub fn scaled(self, factor: u32) -> SearchBudget {
        SearchBudget {
            deadline: self.deadline.map(|d| d.saturating_mul(factor)),
            max_states: self.max_states.map(|s| s.saturating_mul(factor as u64)),
            max_bytes: self.max_bytes.map(|b| b.saturating_mul(factor as u64)),
        }
    }
}

/// A search discipline over some transition system: what the generic
/// [`Engine`] needs to explore it.
///
/// The engine calls the hooks in a fixed order per popped state: budget
/// checks, [`outcome`](SearchModel::outcome) (every state — models whose
/// outcomes only exist at leaves check for themselves),
/// [`is_final`](SearchModel::is_final), then
/// [`expand`](SearchModel::expand) + [`apply`](SearchModel::apply) with
/// fingerprint dedup on each successor. A hook that records a stop
/// reason via [`Stats::note_stop`] (certification outran the deadline,
/// say) cancels the whole search immediately, so a truncated frontier is
/// never half-explored silently.
pub trait SearchModel: Sync {
    /// A node of the search graph (cheap to clone: COW machine state).
    type State: Clone + Send;
    /// One enabled step out of a state.
    type Transition;
    /// Exact state identity, stored beside fingerprints in paranoid mode
    /// to turn silent fingerprint collisions into loud panics (`Send`:
    /// the visited set holding the keys is shared across workers).
    type Exact: Eq + fmt::Debug + Send;
    /// An observable outcome of a complete execution.
    type Out: Ord + Send;
    /// Per-worker scratch shared across all states a worker expands
    /// (memo tables etc.). Built by [`cache`](SearchModel::cache) on the
    /// worker's own thread, so it may hold non-`Send` data.
    type Cache;

    /// Whether an interior (non-final) state with no enabled transition
    /// counts as a deadlock in `stats.deadlocks`. `false` for strategies
    /// where running out of transitions is the normal end of the search
    /// (promise-first: no more certifiable promises).
    const DEADLOCK_ON_EMPTY: bool = true;

    /// The machine configuration driving worker count and paranoid mode.
    fn config(&self) -> &Config;

    /// Build the root state (e.g. after draining deterministic internal
    /// steps, counted on `stats`).
    fn root(&self, stats: &mut Stats) -> Self::State;

    /// Build one per-worker cache for the exhaustive scheduler.
    fn cache(&self) -> Self::Cache;

    /// Build one per-worker cache for the sampling scheduler. Defaults
    /// to [`cache`](SearchModel::cache); override when sampling changes
    /// what is worth memoising — walks revisit states across traces
    /// (there is no visited set), so caches that could never hit twice
    /// under exhaustive dedup can pay for themselves here.
    fn walk_cache(&self) -> Self::Cache {
        self.cache()
    }

    /// 128-bit dedup fingerprint of a state.
    fn fingerprint(&self, s: &Self::State) -> Fingerprint;

    /// Exact dedup key of a state (only evaluated in paranoid mode).
    fn exact_key(&self, s: &Self::State) -> Self::Exact;

    /// Approximate resident size of a retained state, in bytes — feeds
    /// the [`SearchBudget::max_bytes`] accounting. The default is the
    /// shallow `size_of`; models whose states own heap data should add
    /// their dominant heap terms (an estimate is fine — the budget is
    /// a degradation trigger, not an allocator).
    fn approx_state_bytes(&self, _s: &Self::State) -> usize {
        std::mem::size_of::<Self::State>()
    }

    /// Record the outcomes observable at `s` (often none). May record
    /// a stop reason if internal work outran `deadline`.
    fn outcome(
        &self,
        s: &Self::State,
        cache: &mut Self::Cache,
        stats: &mut Stats,
        deadline: Option<Instant>,
        out: &mut BTreeSet<Self::Out>,
    );

    /// Whether `s` is a leaf (terminated or stuck — count `bound_hits`
    /// on `stats` as appropriate); leaves are not expanded.
    fn is_final(&self, s: &Self::State, stats: &mut Stats) -> bool;

    /// The transitions to branch on from `s`. May record a stop reason
    /// if enumeration (certification) outran `deadline`, in which case
    /// the returned set is discarded and the search stops.
    fn expand(
        &self,
        s: &Self::State,
        cache: &mut Self::Cache,
        stats: &mut Stats,
        deadline: Option<Instant>,
    ) -> Vec<Self::Transition>;

    /// Apply `t` to `s`, producing the successor state (counting applied
    /// transitions on `stats`).
    fn apply(&self, s: &Self::State, t: &Self::Transition, stats: &mut Stats) -> Self::State;

    /// The partial-order-reduction [`Footprint`] of `t` at `s`: acting
    /// agent, locations touched, append/certification flags. The default
    /// is [`Footprint::opaque`] — dependent with everything — so a model
    /// that does not override it claims no independent pairs. The engine
    /// prunes only through [`reduce`](SearchModel::reduce).
    fn footprint(&self, _s: &Self::State, _t: &Self::Transition) -> Footprint {
        Footprint::opaque()
    }

    /// Whether `a` and `b` are *independent* at `s`: wherever both are
    /// enabled they commute to the same state and neither enables or
    /// disables the other. The default derives the answer from the
    /// transitions' [`footprint`](SearchModel::footprint)s; `false`
    /// makes no claim (the relation is conservative).
    fn independent(&self, s: &Self::State, a: &Self::Transition, b: &Self::Transition) -> bool {
        self.footprint(s, a).independent_with(&self.footprint(s, b))
    }

    /// Partial-order reduction: shrink the expansion of `s` to a
    /// *persistent subset* of `transitions` — one whose exploration
    /// provably reaches every outcome the full set reaches. Called by
    /// both schedulers only when [`Config::por`] is set; the engine
    /// counts removed transitions in `stats.por_pruned`. The default
    /// keeps everything (sound for any model).
    fn reduce(&self, _s: &Self::State, _transitions: &mut Vec<Self::Transition>) {}

    /// Called once per worker when its search ends, before the worker's
    /// results are merged: fold any counters the per-worker cache
    /// accumulated (e.g. certification-memo hit rates) into its `Stats`.
    /// The default does nothing.
    fn drain_cache(&self, _cache: &mut Self::Cache, _stats: &mut Stats) {}
}

/// Assumed per-entry bookkeeping cost of a visited-set slot beyond the
/// stored key/value themselves (hash-table control bytes, load-factor
/// slack). Part of the deliberately-approximate memory accounting.
const VISITED_SLOT_OVERHEAD: usize = 16;

/// Per-worker accumulator used by both schedulers.
struct Local<M: SearchModel> {
    stats: Stats,
    outcomes: BTreeSet<M::Out>,
    cache: M::Cache,
}

/// The bounds every visited state is checked against, fixed for one
/// [`Engine::run`] or [`Engine::sample`] call.
struct Bounds {
    /// States visited so far, summed over workers.
    states: AtomicU64,
    max_states: u64,
    deadline: Option<Instant>,
}

/// What [`Engine::visit`] decided for one state.
enum Visit<T> {
    /// A bound fired or a hook truncated: stop the whole search.
    Stop,
    /// A final state, or one without transitions: nothing to expand.
    Leaf,
    /// The transitions to branch on, after partial-order reduction.
    Branch(Vec<T>),
}

/// The generic exploration engine: a [`SearchModel`] plus a
/// [`SearchBudget`]. See the module docs for what the engine owns.
pub struct Engine<M: SearchModel> {
    model: M,
    budget: SearchBudget,
}

impl<M: SearchModel> Engine<M> {
    /// An unbounded engine over `model`.
    pub fn new(model: M) -> Engine<M> {
        Engine {
            model,
            budget: SearchBudget::UNBOUNDED,
        }
    }

    /// Set the resource budget.
    pub fn with_budget(mut self, budget: SearchBudget) -> Engine<M> {
        self.budget = budget;
        self
    }

    /// The underlying model.
    pub fn model(&self) -> &M {
        &self.model
    }

    /// Exhaustively explore the model's state space. Complete (every
    /// reachable outcome is found) unless `stats.truncated()`; the
    /// outcome set is identical for every worker count and pop order.
    pub fn run(&self) -> Exploration<M::Out> {
        let start = Instant::now();
        let bounds = self.bounds(start);
        let max_bytes = self.budget.max_bytes.unwrap_or(u64::MAX);
        // Approximate resident bytes: every retained state is charged its
        // model-estimated size plus the visited-set entry (fingerprint,
        // optional exact key, hash-table slot overhead). Charged at
        // insertion and never released — retained states stay resident
        // for the whole search.
        let total_bytes = AtomicU64::new(0);
        let config = self.model.config();
        // A visited-set entry is one `(Fingerprint, Option<Box<Exact>>)`
        // map slot plus, in paranoid mode, the boxed exact key.
        let entry_bytes = (std::mem::size_of::<(Fingerprint, Option<Box<M::Exact>>)>()
            + VISITED_SLOT_OVERHEAD
            + if config.paranoid {
                std::mem::size_of::<M::Exact>()
            } else {
                0
            }) as u64;
        let workers = effective_workers(config.workers);
        let visited: ShardedVisited<M::Exact> = ShardedVisited::new(config.paranoid, workers);
        let model = &self.model;

        let mut pre_stats = Stats::default();
        let root = model.root(&mut pre_stats);
        let mut roots = Vec::new();
        if visited.insert(model.fingerprint(&root), || model.exact_key(&root)) {
            total_bytes.fetch_add(
                model.approx_state_bytes(&root) as u64 + entry_bytes,
                Ordering::Relaxed,
            );
            roots.push(root);
        }

        let expand = |l: &mut Local<M>, s: M::State, ctx: &mut Ctx<'_, M::State>| {
            let over_memory = || total_bytes.load(Ordering::Relaxed) > max_bytes;
            let transitions = match self.visit(&bounds, l, &s, over_memory) {
                Visit::Stop => {
                    ctx.stop();
                    return;
                }
                Visit::Leaf => return,
                Visit::Branch(transitions) => transitions,
            };
            let mut added = 0u64;
            for t in &transitions {
                let next = model.apply(&s, t, &mut l.stats);
                if visited.insert(model.fingerprint(&next), || model.exact_key(&next)) {
                    added += model.approx_state_bytes(&next) as u64 + entry_bytes;
                    ctx.push(next);
                }
            }
            if added > 0 {
                total_bytes.fetch_add(added, Ordering::Relaxed);
            }
        };
        let step = Self::timed(expand);

        self.finish(
            start,
            pre_stats,
            drive(
                roots,
                workers,
                || self.local(false),
                step,
                Self::seal(model),
            ),
        )
    }

    /// Statistically explore the model's state space with `n_traces`
    /// seeded random walks. Each walk starts at the root and repeatedly
    /// applies one uniformly chosen enabled transition until the state is
    /// final or has no transitions, recording outcomes along the way.
    ///
    /// Guarantees (asserted by `tests/state_layer.rs` over the full
    /// litmus catalogue):
    ///
    /// * **sound under-approximation** — every sampled outcome is an
    ///   outcome of the exhaustive search (walks only take real enabled
    ///   transitions and extract outcomes exactly as `run` does);
    /// * **seeded determinism** — trace `i` draws from an RNG derived
    ///   only from `(seed, i)`, so as long as no budget bound fires the
    ///   result is a pure function of `(n_traces, seed)`, independent of
    ///   worker count and scheduling. A *truncated* run
    ///   (`stats.truncated()`) is still sound, but which walks were cut
    ///   off depends on timing and scheduling, so truncated results are
    ///   not reproducible — size `n_traces` to the budget instead.
    ///
    /// There is no visited set: walks are independent, and revisiting a
    /// state on different walks is expected. The budget still applies
    /// (`max_states` counts walk steps across all traces), except the
    /// memory cap: a walk retains one state.
    pub fn sample(&self, n_traces: u64, seed: u64) -> Exploration<M::Out> {
        let start = Instant::now();
        let bounds = self.bounds(start);
        let workers = effective_workers(self.model.config().workers);
        let model = &self.model;

        // Work items are trace indices; each step runs one full walk.
        let roots: Vec<u64> = (0..n_traces).collect();

        let walk = |l: &mut Local<M>, trace: u64, ctx: &mut Ctx<'_, u64>| {
            let mut rng = SplitMix64::for_trace(seed, trace);
            let mut s = model.root(&mut l.stats);
            // Walks draw from the reduced set: still a subset of the
            // exhaustive outcomes, and `reduce` is a pure function of the
            // state, so seeded determinism holds.
            loop {
                let transitions = match self.visit(&bounds, l, &s, || false) {
                    Visit::Stop => {
                        ctx.stop();
                        return;
                    }
                    Visit::Leaf => break,
                    Visit::Branch(transitions) => transitions,
                };
                let t = &transitions[rng.below(transitions.len())];
                s = model.apply(&s, t, &mut l.stats);
            }
            l.stats.traces += 1;
        };
        let step = Self::timed(walk);

        self.finish(
            start,
            Stats::default(),
            drive(roots, workers, || self.local(true), step, Self::seal(model)),
        )
    }

    fn bounds(&self, start: Instant) -> Bounds {
        Bounds {
            states: AtomicU64::new(0),
            max_states: self.budget.max_states.unwrap_or(u64::MAX),
            deadline: self.budget.deadline.map(|d| start + d),
        }
    }

    /// The per-state hook sequence both schedulers share: count the
    /// state; check the state budget, then `over_memory` (`run`'s memory
    /// budget), then the deadline; record the state's outcomes; stop at
    /// a final state; expand, counting a deadlock when nothing is
    /// enabled; and reduce. A bound that fires records its
    /// [`StopReason`], and so may a hook (its internal work outran the
    /// deadline) — either way the search stops rather than explore a
    /// skewed frontier.
    fn visit(
        &self,
        bounds: &Bounds,
        l: &mut Local<M>,
        s: &M::State,
        over_memory: impl FnOnce() -> bool,
    ) -> Visit<M::Transition> {
        l.stats.states += 1;
        if bounds.states.fetch_add(1, Ordering::Relaxed) + 1 > bounds.max_states {
            l.stats.note_stop(StopReason::StateBudget);
            return Visit::Stop;
        }
        if over_memory() {
            l.stats.note_stop(StopReason::MemoryBudget);
            return Visit::Stop;
        }
        let deadline = bounds.deadline;
        if let Some(at) = deadline {
            if Instant::now() >= at {
                l.stats.note_stop(StopReason::DeadlineExceeded);
                return Visit::Stop;
            }
        }
        let model = &self.model;
        model.outcome(s, &mut l.cache, &mut l.stats, deadline, &mut l.outcomes);
        if l.stats.truncated() {
            return Visit::Stop;
        }
        if model.is_final(s, &mut l.stats) {
            return Visit::Leaf;
        }
        let mut transitions = model.expand(s, &mut l.cache, &mut l.stats, deadline);
        if l.stats.truncated() {
            return Visit::Stop;
        }
        if transitions.is_empty() {
            if M::DEADLOCK_ON_EMPTY {
                l.stats.deadlocks += 1;
            }
            return Visit::Leaf;
        }
        if model.config().por {
            let before = transitions.len();
            model.reduce(s, &mut transitions);
            l.stats.por_pruned += (before - transitions.len()) as u64;
        }
        Visit::Branch(transitions)
    }

    fn local(&self, walking: bool) -> Local<M> {
        Local {
            stats: Stats::default(),
            outcomes: BTreeSet::new(),
            cache: if walking {
                self.model.walk_cache()
            } else {
                self.model.cache()
            },
        }
    }

    /// Wrap a step function so the time spent inside it accrues to the
    /// worker's `cpu_time`. Timing the step (rather than the worker's
    /// lifetime) excludes time spent waiting for work, so summed
    /// `cpu_time` measures compute actually spent, not `workers × wall`.
    fn timed<S>(
        step: impl Fn(&mut Local<M>, S, &mut Ctx<'_, S>),
    ) -> impl Fn(&mut Local<M>, S, &mut Ctx<'_, S>) {
        move |l, s, ctx| {
            let begun = Instant::now();
            step(l, s, ctx);
            l.stats.cpu_time += begun.elapsed();
        }
    }

    /// Reduce a worker's accumulator to its `Send` result, draining any
    /// cache counters — and the driver's per-worker report (steal
    /// counts) — into the worker's stats first.
    fn seal(model: &M) -> impl Fn(Local<M>, WorkerReport) -> (Stats, BTreeSet<M::Out>) + Sync + '_ {
        |mut l, report| {
            model.drain_cache(&mut l.cache, &mut l.stats);
            l.stats.steals += report.steals;
            (l.stats, l.outcomes)
        }
    }

    fn finish(
        &self,
        start: Instant,
        pre_stats: Stats,
        results: Vec<(Stats, BTreeSet<M::Out>)>,
    ) -> Exploration<M::Out> {
        let mut stats = pre_stats;
        let mut outcomes = BTreeSet::new();
        for (s, o) in results {
            stats.absorb(&s);
            outcomes.extend(o);
        }
        stats.wall_time = start.elapsed();
        Exploration { outcomes, stats }
    }
}

/// Sebastiano Vigna's SplitMix64: a tiny, high-quality, seedable PRNG.
/// Used (instead of an external `rand` dependency) to drive the sampling
/// scheduler deterministically.
#[derive(Clone, Copy, Debug)]
pub struct SplitMix64(u64);

impl SplitMix64 {
    /// A generator seeded with `seed`.
    pub fn new(seed: u64) -> SplitMix64 {
        SplitMix64(seed)
    }

    /// The generator for trace `trace` of a sampling run seeded with
    /// `seed`: a pure function of both, so traces are reproducible
    /// independently of which worker runs them.
    pub fn for_trace(seed: u64, trace: u64) -> SplitMix64 {
        // Decorrelate the per-trace streams by mixing the trace index
        // through one SplitMix64 round before using it as an offset.
        let mut ix = SplitMix64(seed ^ trace.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        SplitMix64(ix.next_u64())
    }

    /// The next 64 uniformly distributed bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// A uniformly-ish distributed index below `n` (modulo bias is
    /// negligible for the branching factors involved).
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn below(&mut self, n: usize) -> usize {
        assert!(n > 0, "cannot sample from an empty set");
        (self.next_u64() % n as u64) as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A toy model: states are integers, transitions add 1 or 2, final at
    /// >= limit; the outcome is the exact value reached.
    struct CountUp {
        limit: u64,
        config: Config,
    }

    impl SearchModel for CountUp {
        type State = u64;
        type Transition = u64;
        type Exact = u64;
        type Out = u64;
        type Cache = ();

        fn config(&self) -> &Config {
            &self.config
        }
        fn root(&self, _stats: &mut Stats) -> u64 {
            0
        }
        fn cache(&self) {}
        fn fingerprint(&self, s: &u64) -> Fingerprint {
            let mut h = promising_core::FpHasher::new();
            h.write_u64(*s);
            h.finish128()
        }
        fn exact_key(&self, s: &u64) -> u64 {
            *s
        }
        fn outcome(
            &self,
            s: &u64,
            _cache: &mut (),
            _stats: &mut Stats,
            _deadline: Option<Instant>,
            out: &mut BTreeSet<u64>,
        ) {
            if *s >= self.limit {
                out.insert(*s);
            }
        }
        fn is_final(&self, s: &u64, _stats: &mut Stats) -> bool {
            *s >= self.limit
        }
        fn expand(
            &self,
            _s: &u64,
            _cache: &mut (),
            _stats: &mut Stats,
            _deadline: Option<Instant>,
        ) -> Vec<u64> {
            vec![1, 2]
        }
        fn apply(&self, s: &u64, t: &u64, stats: &mut Stats) -> u64 {
            stats.transitions += 1;
            s + t
        }
    }

    fn engine(limit: u64, workers: usize) -> Engine<CountUp> {
        Engine::new(CountUp {
            limit,
            config: Config::arm().with_workers(workers),
        })
    }

    #[test]
    fn run_is_exhaustive_and_worker_independent() {
        let serial = engine(10, 1).run();
        // +1/+2 walks can land exactly on 10 or overshoot to 11.
        assert_eq!(serial.outcomes, BTreeSet::from([10, 11]));
        assert_eq!(serial.stats.states, 12); // 0..=11 all reachable
        for workers in [2, 4] {
            let par = engine(10, workers).run();
            assert_eq!(par.outcomes, serial.outcomes);
            assert_eq!(par.stats.states, serial.stats.states);
        }
    }

    #[test]
    fn sample_is_subset_and_seed_deterministic() {
        let exhaustive = engine(10, 1).run();
        let a = engine(10, 1).sample(32, 0xC0FFEE);
        assert!(a.outcomes.is_subset(&exhaustive.outcomes));
        assert!(!a.outcomes.is_empty());
        assert_eq!(a.stats.traces, 32);
        // Same seed: identical result, any worker count.
        for workers in [1, 4] {
            let b = engine(10, workers).sample(32, 0xC0FFEE);
            assert_eq!(b.outcomes, a.outcomes);
            assert_eq!(b.stats.traces, a.stats.traces);
            assert_eq!(b.stats.states, a.stats.states);
        }
        // Different seed: almost surely a different walk mix, still valid.
        let c = engine(10, 1).sample(32, 1);
        assert!(c.outcomes.is_subset(&exhaustive.outcomes));
    }

    #[test]
    fn budget_truncates_run() {
        let exp = engine(1 << 20, 1)
            .with_budget(SearchBudget::max_states(100))
            .run();
        assert!(exp.stats.truncated());
        assert_eq!(exp.stats.stop, StopReason::StateBudget);
        assert!(exp.stats.states <= 101);

        let exp = engine(1 << 20, 1)
            .with_budget(SearchBudget::deadline(Some(Duration::ZERO)))
            .run();
        assert!(exp.stats.truncated());
        assert_eq!(exp.stats.stop, StopReason::DeadlineExceeded);
    }

    #[test]
    fn memory_budget_truncates_run() {
        // Each CountUp state is charged size_of::<u64>() + entry
        // overhead, so a 2 KiB cap trips after a few dozen states where
        // the unbounded search would visit ~2^20.
        let exp = engine(1 << 20, 1)
            .with_budget(SearchBudget::max_bytes(2048))
            .run();
        assert!(exp.stats.truncated());
        assert_eq!(exp.stats.stop, StopReason::MemoryBudget);
        assert!(exp.stats.states < 1000);
        // A generous cap never fires.
        let exp = engine(10, 1)
            .with_budget(SearchBudget::max_bytes(1 << 20))
            .run();
        assert_eq!(exp.stats.stop, StopReason::Completed);
        assert_eq!(exp.outcomes, BTreeSet::from([10, 11]));
    }

    #[test]
    fn budget_truncates_sample() {
        let exp = engine(1 << 20, 1)
            .with_budget(SearchBudget::max_states(50))
            .sample(1000, 7);
        assert!(exp.stats.truncated());
        assert_eq!(exp.stats.stop, StopReason::StateBudget);
        assert!(exp.stats.traces < 1000);
    }

    #[test]
    fn scaled_budget_multiplies_every_bound() {
        let b = SearchBudget {
            deadline: Some(Duration::from_secs(2)),
            max_states: Some(100),
            max_bytes: Some(1000),
        }
        .scaled(4);
        assert_eq!(b.deadline, Some(Duration::from_secs(8)));
        assert_eq!(b.max_states, Some(400));
        assert_eq!(b.max_bytes, Some(4000));
        assert_eq!(SearchBudget::UNBOUNDED.scaled(8), SearchBudget::UNBOUNDED);
    }

    /// A wrapper model that panics while expanding the state whose value
    /// equals the trigger — the panic-injection probe used to validate
    /// panic isolation end to end (a buggy model must yield a captured
    /// payload, not a dead process or a hung pool).
    struct PanicOn {
        inner: CountUp,
        trigger: u64,
    }

    impl SearchModel for PanicOn {
        type State = u64;
        type Transition = u64;
        type Exact = u64;
        type Out = u64;
        type Cache = ();

        fn config(&self) -> &Config {
            self.inner.config()
        }
        fn root(&self, stats: &mut Stats) -> u64 {
            self.inner.root(stats)
        }
        fn cache(&self) {}
        fn fingerprint(&self, s: &u64) -> Fingerprint {
            self.inner.fingerprint(s)
        }
        fn exact_key(&self, s: &u64) -> u64 {
            *s
        }
        fn outcome(
            &self,
            s: &u64,
            cache: &mut (),
            stats: &mut Stats,
            deadline: Option<Instant>,
            out: &mut BTreeSet<u64>,
        ) {
            self.inner.outcome(s, cache, stats, deadline, out);
        }
        fn is_final(&self, s: &u64, stats: &mut Stats) -> bool {
            self.inner.is_final(s, stats)
        }
        fn expand(
            &self,
            s: &u64,
            cache: &mut (),
            stats: &mut Stats,
            deadline: Option<Instant>,
        ) -> Vec<u64> {
            assert!(*s != self.trigger, "injected model bug at state {s}");
            self.inner.expand(s, cache, stats, deadline)
        }
        fn apply(&self, s: &u64, t: &u64, stats: &mut Stats) -> u64 {
            self.inner.apply(s, t, stats)
        }
    }

    #[test]
    fn model_panic_is_catchable_with_payload_serial_and_parallel() {
        for workers in [1, 4] {
            let eng = Engine::new(PanicOn {
                inner: CountUp {
                    limit: 64,
                    config: Config::arm().with_workers(workers),
                },
                trigger: 7,
            });
            let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| eng.run()))
                .expect_err("trigger state is reachable; the run must panic");
            let msg = crate::frontier::panic_message(err.as_ref());
            assert!(
                msg.contains("injected model bug at state 7"),
                "payload lost: {msg} (workers={workers})"
            );
        }
    }

    /// A wrapper model whose root expansion stalls for a fixed time —
    /// with several workers, the siblings spend that window parked or
    /// steal-polling, which must NOT accrue to `cpu_time`.
    struct SlowRoot {
        inner: CountUp,
        stall: Duration,
    }

    impl SearchModel for SlowRoot {
        type State = u64;
        type Transition = u64;
        type Exact = u64;
        type Out = u64;
        type Cache = ();

        fn config(&self) -> &Config {
            self.inner.config()
        }
        fn root(&self, stats: &mut Stats) -> u64 {
            self.inner.root(stats)
        }
        fn cache(&self) {}
        fn fingerprint(&self, s: &u64) -> Fingerprint {
            self.inner.fingerprint(s)
        }
        fn exact_key(&self, s: &u64) -> u64 {
            *s
        }
        fn outcome(
            &self,
            s: &u64,
            cache: &mut (),
            stats: &mut Stats,
            deadline: Option<Instant>,
            out: &mut BTreeSet<u64>,
        ) {
            self.inner.outcome(s, cache, stats, deadline, out);
        }
        fn is_final(&self, s: &u64, stats: &mut Stats) -> bool {
            self.inner.is_final(s, stats)
        }
        fn expand(
            &self,
            s: &u64,
            cache: &mut (),
            stats: &mut Stats,
            deadline: Option<Instant>,
        ) -> Vec<u64> {
            if *s == 0 {
                std::thread::sleep(self.stall);
            }
            self.inner.expand(s, cache, stats, deadline)
        }
        fn apply(&self, s: &u64, t: &u64, stats: &mut Stats) -> u64 {
            self.inner.apply(s, t, stats)
        }
    }

    #[test]
    fn parked_workers_do_not_accrue_cpu_under_stealing() {
        // One worker stalls 40ms inside the root expansion while its 3
        // siblings have nothing to pop or steal. If park/steal-backoff
        // time leaked into `cpu_time`, the merged figure would approach
        // workers × wall (≥160ms); timing the step alone keeps it near
        // the single stall. Guards the workers× inflation artifact.
        let stall = Duration::from_millis(40);
        let exp = Engine::new(SlowRoot {
            inner: CountUp {
                limit: 6,
                config: Config::arm().with_workers(4),
            },
            stall,
        })
        .run();
        assert_eq!(exp.outcomes, BTreeSet::from([6, 7]));
        assert!(exp.stats.wall_time >= stall, "{:?}", exp.stats.wall_time);
        assert!(
            exp.stats.cpu_time < 3 * stall,
            "parked siblings accrued cpu: {:?} (wall {:?})",
            exp.stats.cpu_time,
            exp.stats.wall_time
        );
        // absorb() itself maxes wall and sums cpu — unit-covered in
        // stats.rs; here the end-to-end merged numbers stay sane too.
        assert!(exp.stats.cpu_time >= stall - Duration::from_millis(5));
    }

    #[test]
    fn splitmix_streams_are_stable() {
        // Pin the generator so seeded sampling runs stay reproducible
        // across refactors (changing the stream silently changes every
        // recorded sampling result).
        let mut r = SplitMix64::new(0);
        assert_eq!(r.next_u64(), 0xE220_A839_7B1D_CDAF);
        let mut a = SplitMix64::for_trace(42, 0);
        let mut b = SplitMix64::for_trace(42, 1);
        assert_ne!(a.next_u64(), b.next_u64());
    }
}
