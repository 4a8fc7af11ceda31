//! The exploration frontier: a sharded visited set, and a driver that
//! runs the search serially or on scoped worker threads sharing one
//! locked work pool.
//!
//! Every exhaustive strategy in this workspace (naive, promise-first, and
//! Flat-lite's interleaving search) is the same loop: pop a state, expand
//! it, deduplicate successors against a visited set, push the fresh ones.
//! [`drive`] owns that loop; a strategy supplies three closures:
//!
//! * `init` — build the per-worker accumulator (stats, outcomes, memo
//!   tables; may contain non-`Send` data such as `Rc`, since it never
//!   leaves its worker thread);
//! * `step` — expand one state, pushing successors via [`Ctx::push`] and
//!   signalling global cancellation via [`Ctx::stop`] (deadlines);
//! * `finish` — reduce the accumulator plus the driver's [`WorkerReport`]
//!   to a `Send` result, merged by the caller (e.g. via `Stats::absorb`).
//!
//! With `workers == 1` the driver runs a plain LIFO stack with no
//! synchronisation — the serial path pays nothing for the abstraction.
//! With more workers, one mutex guards a deque per worker and the count
//! of states in flight. A worker pops the back of its own deque (LIFO,
//! depth-first); when that is empty it scans the others from a random
//! start and takes the front — the oldest, shallowest state, the biggest
//! subtree — of the first non-empty one (a *steal*). Finishing a step
//! retires it and queues its successors on the worker's own deque in the
//! same critical section that fetches the next state, so a step costs
//! one lock acquisition, and "nothing queued, nothing in flight" — the
//! end of the search — is decided under that one lock. An idle worker
//! waits on a condvar, woken only when stealable work appears or the
//! search ends.
//!
//! One lock is enough because the traffic is light. On a 2-core host a
//! state costs tens of microseconds of expansion (on the Table-2 rows of
//! over 1,000 states, at least 20 µs on average on flat and 90 µs on
//! promise-first), and work rarely moves between workers (at most 13
//! steals per Table-2 row at 2 workers, 104 at 8).
//!
//! Order independence: expanding a state depends only on that state, and
//! the visited set only ever *suppresses* re-expansion of an
//! already-seen state, so the set of expanded states — and therefore the
//! outcome set — is identical for any pop/steal order and worker count.

use crate::engine::SplitMix64;
use promising_core::{Fingerprint, FpBuildHasher};
use std::collections::hash_map::Entry;
use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Condvar, Mutex, MutexGuard, PoisonError};

/// Lock a mutex, resuming it if a panicking worker poisoned it. Every
/// structure guarded here (visited-set shards, the work pool) is kept
/// consistent *within* each critical section — a panic can only strike
/// between data-structure operations (inside `exact()` in paranoid mode,
/// say), never mid-rehash — so the stored data is still valid and the
/// remaining workers can keep draining instead of cascading panics off a
/// poisoned lock.
fn lock_recover<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Render a panic payload as text: the `&str`/`String` payloads produced
/// by `panic!` and `assert!` are shown verbatim; anything else (a
/// `panic_any` value) falls back to a placeholder naming the type
/// opaquely. Used to surface worker panics and to record `Panicked`
/// verdicts in the batch runner.
pub fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "<non-string panic payload>".to_string()
    }
}

/// One visited-set shard: fingerprint → the exact state key, boxed, in
/// paranoid mode and `None` otherwise. The box keeps a slot at 32 bytes
/// however large the key type is.
type Shard<K> = HashMap<Fingerprint, Option<Box<K>>, FpBuildHasher>;

/// A visited set keyed by 128-bit state fingerprints, striped over
/// independently locked shards so parallel workers rarely contend.
///
/// In paranoid mode ([`promising_core::Config::paranoid`]) each entry
/// additionally keeps the exact state key `K`; inserting a *different*
/// state with the same fingerprint panics, turning a silent dedup error
/// into a loud test failure.
pub struct ShardedVisited<K> {
    shards: Vec<Mutex<Shard<K>>>,
    paranoid: bool,
    /// `shards.len() - 1`; shard count is a power of two.
    mask: u64,
}

impl<K: Eq + std::fmt::Debug> ShardedVisited<K> {
    /// A visited set sized for `workers` parallel writers.
    pub fn new(paranoid: bool, workers: usize) -> ShardedVisited<K> {
        let shards = if workers <= 1 {
            1
        } else {
            (workers * 8).next_power_of_two().min(256)
        };
        ShardedVisited {
            shards: (0..shards).map(|_| Mutex::new(Shard::default())).collect(),
            paranoid,
            mask: shards as u64 - 1,
        }
    }

    /// The shard index for a fingerprint. The fingerprint is uniform;
    /// any bit range selects a shard. Use high bits — the identity
    /// hasher folds low bits into the bucket index within the shard.
    fn shard_ix(&self, fp: Fingerprint) -> usize {
        ((((fp.0 >> 64) as u64) >> 32) & self.mask) as usize
    }

    /// Insert a state, returning `true` if it was new. `exact` is only
    /// evaluated in paranoid mode.
    ///
    /// # Panics
    ///
    /// In paranoid mode, panics if `fp` is already present with a
    /// *different* exact key — a fingerprint collision.
    pub fn insert(&self, fp: Fingerprint, exact: impl FnOnce() -> K) -> bool {
        match lock_recover(&self.shards[self.shard_ix(fp)]).entry(fp) {
            Entry::Occupied(e) => {
                if let Some(stored) = e.get() {
                    let fresh = exact();
                    assert!(
                        **stored == fresh,
                        "state fingerprint collision at {fp}:\n  stored: {stored:?}\n  fresh:  {fresh:?}"
                    );
                }
                false
            }
            Entry::Vacant(v) => {
                v.insert(self.paranoid.then(|| Box::new(exact())));
                true
            }
        }
    }

    /// Number of distinct states recorded.
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| lock_recover(s).len()).sum()
    }

    /// Whether no state has been recorded.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// Per-step context: successor buffer and the global cancellation flag.
pub struct Ctx<'a, S> {
    out: Vec<S>,
    stop: &'a AtomicBool,
}

impl<S> Ctx<'_, S> {
    /// Schedule a successor state for expansion.
    pub fn push(&mut self, s: S) {
        self.out.push(s);
    }

    /// Cancel the whole search (deadline hit); workers drain and exit.
    pub fn stop(&self) {
        self.stop.store(true, Ordering::Relaxed);
    }

    /// Whether cancellation was requested.
    pub fn stopped(&self) -> bool {
        self.stop.load(Ordering::Relaxed)
    }
}

/// What the driver observed about one worker's run, handed to `finish`
/// beside the strategy's own accumulator.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct WorkerReport {
    /// States this worker took from a sibling's deque (zero on the
    /// serial path).
    pub steals: u64,
}

/// The queues of a parallel run, guarded by [`Pool::queues`].
struct Queues<S> {
    /// One deque per worker: the owner works its back, thieves its front.
    deques: Vec<VecDeque<S>>,
    /// States taken by a worker whose step has not yet been retired.
    in_flight: usize,
    /// Workers blocked on [`Pool::ready`].
    waiting: usize,
}

impl<S> Queues<S> {
    /// Worker `me`'s next state: the newest of its own, else the oldest
    /// of the first non-empty sibling deque from a random start.
    fn take(&mut self, me: usize, rng: &mut SplitMix64, report: &mut WorkerReport) -> Option<S> {
        if let Some(s) = self.deques[me].pop_back() {
            return Some(s);
        }
        let n = self.deques.len();
        let offset = rng.below(n);
        let s = (0..n)
            .map(|k| (offset + k) % n)
            .filter(|&v| v != me)
            .find_map(|v| self.deques[v].pop_front())?;
        report.steals += 1;
        Some(s)
    }
}

/// The shared state of a parallel run: the queues under one lock, and
/// the condvar idle workers wait on.
struct Pool<S> {
    queues: Mutex<Queues<S>>,
    ready: Condvar,
}

impl<S> Pool<S> {
    /// A pool for `workers` workers, with `roots` dealt round-robin.
    fn new(workers: usize, roots: Vec<S>) -> Pool<S> {
        let mut deques: Vec<VecDeque<S>> = (0..workers).map(|_| VecDeque::new()).collect();
        for (i, s) in roots.into_iter().enumerate() {
            deques[i % workers].push_back(s);
        }
        Pool {
            queues: Mutex::new(Queues {
                deques,
                in_flight: 0,
                waiting: 0,
            }),
            ready: Condvar::new(),
        }
    }

    /// Retire worker `me`'s finished step, if any, queueing its
    /// `successors` on `me`'s deque; then take `me`'s next state,
    /// waiting while the queues are empty but a step is in flight.
    /// `None` means the search is over: drained or cancelled.
    fn next(
        &self,
        me: usize,
        successors: Option<&mut Vec<S>>,
        rng: &mut SplitMix64,
        report: &mut WorkerReport,
        stop: &AtomicBool,
    ) -> Option<S> {
        let mut q = lock_recover(&self.queues);
        if let Some(out) = successors {
            q.in_flight -= 1;
            q.deques[me].extend(out.drain(..));
        }
        let next = loop {
            if stop.load(Ordering::Relaxed) {
                break None;
            }
            if let Some(s) = q.take(me, rng, report) {
                q.in_flight += 1;
                break Some(s);
            }
            if q.in_flight == 0 {
                break None;
            }
            q.waiting += 1;
            q = self.ready.wait(q).unwrap_or_else(PoisonError::into_inner);
            q.waiting -= 1;
        };
        // Wake the waiters only when they have something to do: work to
        // steal, or the search is over. Every notify is a syscall.
        if q.waiting > 0 && (next.is_none() || q.deques.iter().any(|d| !d.is_empty())) {
            self.ready.notify_all();
        }
        next
    }
}

/// Unwind guard around a `step` call: a panicking step is never retired,
/// so without this its siblings would wait forever for the search to
/// drain. The guard's `Drop` (reached only on unwind — the normal path
/// defuses it with `mem::forget`) raises the stop flag and wakes every
/// waiter under the pool lock, so the panic propagates out of
/// `thread::scope` instead of hanging the process.
struct AbortOnPanic<'a, S> {
    pool: &'a Pool<S>,
    stop: &'a AtomicBool,
}

impl<S> Drop for AbortOnPanic<'_, S> {
    fn drop(&mut self) {
        let _q = lock_recover(&self.pool.queues);
        self.stop.store(true, Ordering::Relaxed);
        self.pool.ready.notify_all();
    }
}

/// Run the exploration loop over `roots`.
///
/// Returns one `finish` result per worker (a single-element vector on the
/// serial path). See the module docs for the closure contract.
pub fn drive<S, L, R>(
    roots: Vec<S>,
    workers: usize,
    init: impl Fn() -> L + Sync,
    step: impl Fn(&mut L, S, &mut Ctx<'_, S>) + Sync,
    finish: impl Fn(L, WorkerReport) -> R + Sync,
) -> Vec<R>
where
    S: Send,
    R: Send,
{
    let stop = AtomicBool::new(false);

    if workers <= 1 {
        let mut local = init();
        let mut stack = roots;
        let mut ctx = Ctx {
            out: Vec::new(),
            stop: &stop,
        };
        while let Some(s) = stack.pop() {
            if ctx.stopped() {
                break;
            }
            step(&mut local, s, &mut ctx);
            stack.append(&mut ctx.out);
        }
        return vec![finish(local, WorkerReport::default())];
    }

    let pool = Pool::new(workers, roots);
    std::thread::scope(|scope| {
        let pool = &pool;
        let stop = &stop;
        let handles: Vec<_> = (0..workers)
            .map(|ix| {
                let init = &init;
                let step = &step;
                let finish = &finish;
                scope.spawn(move || {
                    let mut local = init();
                    // Victim selection only — outcome sets are identical
                    // for every steal order, so any fixed seed is fine.
                    let mut rng = SplitMix64::new(0x5EED ^ (ix as u64) << 17);
                    let mut report = WorkerReport::default();
                    let mut ctx = Ctx {
                        out: Vec::new(),
                        stop,
                    };
                    let mut next = pool.next(ix, None, &mut rng, &mut report, stop);
                    while let Some(s) = next {
                        let guard = AbortOnPanic { pool, stop };
                        step(&mut local, s, &mut ctx);
                        std::mem::forget(guard);
                        next = pool.next(ix, Some(&mut ctx.out), &mut rng, &mut report, stop);
                    }
                    finish(local, report)
                })
            })
            .collect();

        // Join every worker before deciding the run's fate: siblings of a
        // panicking worker drain normally (AbortOnPanic raised the stop
        // flag), so nothing is left running. If any worker panicked,
        // re-raise ONE panic that names the first failing worker and
        // carries its payload text — the per-test isolation layer
        // (`catch_unwind` in the harness) turns that into a `Panicked`
        // verdict instead of a dead campaign.
        let mut results = Vec::with_capacity(workers);
        let mut first_panic: Option<(usize, String)> = None;
        for (ix, h) in handles.into_iter().enumerate() {
            match h.join() {
                Ok(r) => results.push(r),
                Err(payload) => {
                    if first_panic.is_none() {
                        first_panic = Some((ix, panic_message(payload.as_ref())));
                    }
                }
            }
        }
        if let Some((ix, msg)) = first_panic {
            panic!("exploration worker {ix} of {workers} panicked: {msg}");
        }
        results
    })
}

/// The effective worker count for a machine configuration: the
/// configured value, with `0` mapped to the available parallelism.
pub fn effective_workers(configured: usize) -> usize {
    if configured == 0 {
        std::thread::available_parallelism().map_or(1, |n| n.get())
    } else {
        configured
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use promising_core::FpHasher;

    fn fp_of(n: u64) -> Fingerprint {
        let mut h = FpHasher::new();
        h.write_u64(n);
        h.finish128()
    }

    /// Exhaustively explore the binary tree of depths below `depth`,
    /// counting nodes; every worker count must agree.
    fn count_tree(workers: usize) -> (u64, usize) {
        let visited: ShardedVisited<u64> = ShardedVisited::new(true, workers);
        let root = 1u64;
        assert!(visited.insert(fp_of(root), || root));
        let results = drive(
            vec![root],
            workers,
            || 0u64,
            |count, node, ctx| {
                *count += 1;
                for child in [node * 2, node * 2 + 1] {
                    if child < 128 && visited.insert(fp_of(child), || child) {
                        ctx.push(child);
                    }
                }
            },
            |count, _report| count,
        );
        (results.iter().sum(), visited.len())
    }

    #[test]
    fn serial_and_parallel_agree() {
        let (serial, serial_seen) = count_tree(1);
        assert_eq!(serial, 127);
        assert_eq!(serial_seen, 127);
        for workers in [2, 4, 8] {
            assert_eq!(count_tree(workers), (serial, serial_seen));
        }
    }

    #[test]
    fn deque_is_lifo_for_owner_and_fifo_for_thief() {
        let pool = Pool::new(2, Vec::new());
        lock_recover(&pool.queues).deques[0].extend(0..10u64);
        let stop = AtomicBool::new(false);
        let mut rng = SplitMix64::new(1);
        let (mut owner, mut thief) = (WorkerReport::default(), WorkerReport::default());
        let first = pool.next(0, None, &mut rng, &mut owner, &stop);
        assert_eq!(first, Some(9), "owner pops newest");
        let stolen = pool.next(1, None, &mut rng, &mut thief, &stop);
        assert_eq!(stolen, Some(0), "thief takes oldest");
        assert_eq!((owner.steals, thief.steals), (0, 1));
        let q = lock_recover(&pool.queues);
        assert_eq!(q.in_flight, 2);
        assert_eq!(q.deques[0], (1..9).collect::<VecDeque<u64>>());
    }

    #[test]
    fn concurrent_owner_and_thieves_conserve_items() {
        // An irregular tree of ~10^5 nodes: each node's fan-out (0-5) is
        // a hash of the node. Eight workers pop, push and steal
        // concurrently; every run must terminate and expand each node
        // exactly once.
        const LIMIT: u64 = 1_000_000_000;
        let tree = |workers: usize| {
            let visited: ShardedVisited<u64> = ShardedVisited::new(false, workers);
            assert!(visited.insert(fp_of(0), || 0));
            let counts = drive(
                vec![0u64],
                workers,
                || 0usize,
                |count, node, ctx| {
                    *count += 1;
                    let fanout = SplitMix64::new(node).next_u64() % 6;
                    for child in (1..=fanout).map(|k| node * 6 + k) {
                        if child < LIMIT && visited.insert(fp_of(child), || child) {
                            ctx.push(child);
                        }
                    }
                },
                |count, _| count,
            );
            assert_eq!(counts.iter().sum::<usize>(), visited.len());
            visited.len()
        };
        let nodes = tree(1);
        assert!(nodes > 90_000, "{nodes}");
        for _ in 0..20 {
            assert_eq!(tree(8), nodes);
        }
    }

    #[test]
    fn wide_fanout_from_one_state_counts_every_state() {
        // One root fans out to 1,500 successors, all queued on one
        // worker's deque at once: every leaf must be expanded exactly
        // once, on any worker count.
        let fanout = 1_500u64;
        for workers in [1, 2, 4] {
            let visited: ShardedVisited<u64> = ShardedVisited::new(false, workers);
            assert!(visited.insert(fp_of(0), || 0));
            let results = drive(
                vec![0u64],
                workers,
                || 0u64,
                |count, node, ctx| {
                    *count += 1;
                    if node == 0 {
                        for child in 1..=fanout {
                            if visited.insert(fp_of(child), || child) {
                                ctx.push(child);
                            }
                        }
                    }
                },
                |count, _| count,
            );
            assert_eq!(results.iter().sum::<u64>(), fanout + 1, "workers={workers}");
            assert_eq!(visited.len(), fanout as usize + 1);
        }
    }

    #[test]
    fn steals_are_reported_when_one_worker_seeds_all_work() {
        // A single root lands on worker 0's deque. Every other worker's
        // deque only ever holds its own successors, so its first state —
        // and hence, if it expanded anything, at least one — was stolen.
        let visited: ShardedVisited<u64> = ShardedVisited::new(false, 4);
        assert!(visited.insert(fp_of(1), || 1));
        let reports = drive(
            vec![1u64],
            4,
            || 0u64,
            |count, node, ctx| {
                *count += 1;
                // Burn a little time so thieves have something to race.
                std::hint::black_box((0..50).sum::<u64>());
                for child in [node * 7 + 1, node * 7 + 2, node * 7 + 3] {
                    if child < 100_000 && visited.insert(fp_of(child), || child) {
                        ctx.push(child);
                    }
                }
            },
            |count, report| (count, report.steals),
        );
        let total: u64 = reports.iter().map(|(c, _)| c).sum();
        assert_eq!(total as usize, visited.len());
        for (ix, &(count, steals)) in reports.iter().enumerate().skip(1) {
            assert!(
                count == 0 || steals >= 1,
                "worker {ix} expanded {count} states without stealing"
            );
        }
    }

    #[test]
    fn revisits_are_suppressed() {
        let visited: ShardedVisited<u64> = ShardedVisited::new(false, 1);
        assert!(visited.insert(fp_of(7), || 7));
        assert!(!visited.insert(fp_of(7), || 7));
        assert_eq!(visited.len(), 1);
    }

    #[test]
    #[should_panic(expected = "fingerprint collision")]
    fn paranoid_mode_detects_collisions() {
        let visited: ShardedVisited<u64> = ShardedVisited::new(true, 1);
        assert!(visited.insert(fp_of(1), || 1));
        // Same fingerprint, different exact key: must panic.
        visited.insert(fp_of(1), || 2);
    }

    #[test]
    fn stop_cancels_parallel_search() {
        let visited: ShardedVisited<u64> = ShardedVisited::new(false, 4);
        let results = drive(
            vec![1u64],
            4,
            || 0u64,
            |count, node, ctx| {
                *count += 1;
                if *count > 10 {
                    ctx.stop();
                    return;
                }
                for child in [node * 2, node * 2 + 1] {
                    if visited.insert(fp_of(child), || child) {
                        ctx.push(child);
                    }
                }
            },
            |count, _| count,
        );
        // Unbounded tree: only cancellation lets this return.
        assert!(results.iter().sum::<u64>() > 0);
    }

    #[test]
    fn effective_workers_resolves_zero() {
        assert!(effective_workers(0) >= 1);
        assert_eq!(effective_workers(3), 3);
    }

    #[test]
    fn worker_panic_surfaces_payload_and_worker_index() {
        // A panicking step (e.g. a paranoid-mode collision assert) must
        // cancel the pool and propagate — naming the failing worker and
        // carrying the original payload — not strand waiting siblings or
        // die with an anonymous "worker panicked".
        let err = std::panic::catch_unwind(|| {
            drive(
                vec![1u64, 2, 3, 4],
                4,
                || (),
                |_, node, ctx| {
                    if node == 3 {
                        panic!("injected step failure");
                    }
                    ctx.push(node + 4);
                },
                |(), _| (),
            )
        })
        .expect_err("a worker panicked; drive must re-raise");
        let msg = panic_message(err.as_ref());
        assert!(msg.contains("exploration worker"), "{msg}");
        assert!(msg.contains("of 4 panicked"), "{msg}");
        assert!(msg.contains("injected step failure"), "{msg}");
    }

    #[test]
    fn visited_set_recovers_from_poisoned_shards() {
        // Paranoid-mode collision asserts panic while holding a shard
        // lock; subsequent inserts on that shard must keep working (the
        // map itself is still consistent — the panic fires between map
        // operations).
        let visited: std::sync::Arc<ShardedVisited<u64>> =
            std::sync::Arc::new(ShardedVisited::new(true, 1));
        assert!(visited.insert(fp_of(1), || 1));
        let v = std::sync::Arc::clone(&visited);
        let poisoner = std::thread::spawn(move || {
            v.insert(fp_of(1), || 2); // collision: panics holding the lock
        });
        assert!(poisoner.join().is_err(), "collision assert must fire");
        // The single shard is now poisoned; inserts still succeed.
        assert!(visited.insert(fp_of(2), || 2));
        assert!(!visited.insert(fp_of(2), || 2));
        assert_eq!(visited.len(), 2);
    }

    #[test]
    fn panic_message_renders_common_payloads() {
        let err = std::panic::catch_unwind(|| panic!("plain {}", "text")).unwrap_err();
        assert_eq!(panic_message(err.as_ref()), "plain text");
        let err = std::panic::catch_unwind(|| std::panic::panic_any(42u32)).unwrap_err();
        assert_eq!(panic_message(err.as_ref()), "<non-string panic payload>");
    }
}
