//! The Flat-lite machine: out-of-order instruction execution over a flat
//! list memory, with explicit branch speculation and squash.
//!
//! Nondeterministic transitions (interleaved across threads):
//!
//! * **speculative fetch** past an unresolved branch (two guesses);
//! * **load satisfy** — binds a load to the current coherence-latest write
//!   (or forwards from an unpropagated po-earlier store);
//! * **store propagate** — appends to memory, out of order where the
//!   architecture allows;
//! * **store-exclusive fail**;
//! * **RMW bind / RMW propagate** — the two halves of a
//!   single-instruction atomic: the bind satisfies the read (and the
//!   acquire strength), the propagate appends the write, gated on no
//!   foreign same-location write having landed in between.
//!
//! Everything else (fetch of non-branches, register computation, branch
//! resolution + mis-speculation squash, fence/isb commit) is deterministic
//! and auto-drained after every transition. This gives the baseline the
//! multiple-steps-per-instruction, speculation-and-squash cost structure
//! of the original Flat model.
//!
//! Compared to the architecture (and to Promising), Flat-lite makes three
//! *conservative* simplifications, documented in docs/architecture.md
//! ("Flat-lite's conservative simplifications"): loads wait for the
//! addresses of all po-earlier accesses to resolve (real ARM lets them
//! satisfy speculatively and restarts on coherence violations), a store
//! exclusive's success register binds only at propagate/fail time (real
//! ARM may assume success early — the §C.1 relaxation), and loads never
//! forward from a pending store exclusive. They make Flat-lite forbid a
//! handful of exotic outcomes that the other two models allow; the litmus
//! harness skips exactly those shapes for Flat.

use crate::instance::{InstOp, InstState, Instance, Src};
use promising_core::config::Arch;
use promising_core::config::Config;
use promising_core::expr::Expr;
use promising_core::fingerprint::{Fingerprint, FpHasher, WordSink};
use promising_core::ids::{Loc, Reg, TId, Timestamp, Val};
use promising_core::memory::{Memory, Msg};
use promising_core::stmt::{
    LocSet, MayAccess, Program, ReadKind, RmwOp, Stmt, StmtId, WriteKind, SCRATCH_REG_BASE,
};
use std::collections::BTreeMap;
use std::fmt;
use std::sync::Arc;

/// One hardware thread.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub struct FlatThread {
    /// Fetched instruction instances, in fetch (program) order along the
    /// current speculative path.
    pub instances: Vec<Instance>,
    /// Continuation to fetch from next.
    pub fetch_cont: Vec<StmtId>,
    /// Remaining taken-loop fetch budget.
    pub fetch_fuel: u32,
    /// Set when the loop bound was exhausted on a *resolved* path.
    pub stuck: bool,
}

/// A nondeterministic Flat transition.
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub enum FlatTransition {
    /// Speculatively fetch past the unresolved branch at the fetch point,
    /// guessing the given direction.
    FetchBranch {
        /// Acting thread.
        tid: TId,
        /// Guessed direction.
        taken: bool,
    },
    /// Satisfy the pending load instance at `idx`.
    Satisfy {
        /// Acting thread.
        tid: TId,
        /// Instance index.
        idx: usize,
    },
    /// Propagate the pending store instance at `idx` to memory.
    Propagate {
        /// Acting thread.
        tid: TId,
        /// Instance index.
        idx: usize,
    },
    /// Fail the pending store-exclusive instance at `idx`.
    FailStx {
        /// Acting thread.
        tid: TId,
        /// Instance index.
        idx: usize,
    },
    /// Bind the read half of the pending RMW instance at `idx`: read the
    /// coherence-latest write, satisfying the acquire strength. A CAS
    /// whose compare fails degrades here to a bare bound read and
    /// retires immediately.
    BindRmw {
        /// Acting thread.
        tid: TId,
        /// Instance index.
        idx: usize,
    },
    /// Propagate the write half of the bound RMW instance at `idx`:
    /// append the updated value, guarded by the exclusive-pairing
    /// invariant (no other thread's write to the location between the
    /// bound read and the append).
    PropagateRmw {
        /// Acting thread.
        tid: TId,
        /// Instance index.
        idx: usize,
    },
}

impl FlatTransition {
    /// The acting thread.
    pub(crate) fn tid(&self) -> TId {
        match self {
            FlatTransition::FetchBranch { tid, .. }
            | FlatTransition::Satisfy { tid, .. }
            | FlatTransition::Propagate { tid, .. }
            | FlatTransition::FailStx { tid, .. }
            | FlatTransition::BindRmw { tid, .. }
            | FlatTransition::PropagateRmw { tid, .. } => *tid,
        }
    }
}

impl fmt::Display for FlatTransition {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FlatTransition::FetchBranch { tid, taken } => {
                write!(
                    f,
                    "{tid}: speculate {}",
                    if *taken { "taken" } else { "not-taken" }
                )
            }
            FlatTransition::Satisfy { tid, idx } => write!(f, "{tid}: satisfy #{idx}"),
            FlatTransition::Propagate { tid, idx } => write!(f, "{tid}: propagate #{idx}"),
            FlatTransition::FailStx { tid, idx } => write!(f, "{tid}: stx-fail #{idx}"),
            FlatTransition::BindRmw { tid, idx } => write!(f, "{tid}: rmw-bind #{idx}"),
            FlatTransition::PropagateRmw { tid, idx } => {
                write!(f, "{tid}: rmw-propagate #{idx}")
            }
        }
    }
}

/// The Flat-lite machine state.
///
/// Each thread sits behind an `Arc` and is mutated through
/// `Arc::make_mut`, so cloning a machine costs one reference-count bump
/// per thread and a step copies only the thread that acts.
#[derive(Clone, Debug)]
pub struct FlatMachine {
    config: Arc<Config>,
    program: Arc<Program>,
    threads: Vec<Arc<FlatThread>>,
    memory: Memory,
}

/// Hashable dynamic state for visited-set deduplication.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub enum FlatStateKey {
    /// Raw state — per-thread instance lists and fetch state plus the
    /// absolute-timestamp memory (used with `Config::por` off, the
    /// unreduced reference).
    Raw {
        /// Per-thread instance lists and fetch state.
        threads: Vec<FlatThread>,
        /// Memory contents.
        memory: Memory,
    },
    /// Canonical per-location word stream
    /// ([`FlatMachine::canonical_words`], used with `Config::por` on):
    /// states that differ only in the interleaving order of appends to
    /// *different* locations share one key, merging them in the visited
    /// set.
    Canon(Vec<u64>),
}

impl FlatMachine {
    /// Initial machine.
    pub fn new(program: Arc<Program>, config: Config) -> FlatMachine {
        FlatMachine::with_init(program, config, BTreeMap::new())
    }

    /// Initial machine with litmus initial values.
    pub fn with_init(
        program: Arc<Program>,
        config: Config,
        init: BTreeMap<Loc, Val>,
    ) -> FlatMachine {
        let threads = program
            .threads()
            .iter()
            .map(|code| {
                Arc::new(FlatThread {
                    instances: Vec::new(),
                    fetch_cont: vec![code.entry()],
                    fetch_fuel: config.loop_fuel,
                    stuck: false,
                })
            })
            .collect();
        let mut m = FlatMachine {
            config: Arc::new(config),
            program,
            threads,
            memory: Memory::with_init(init),
        };
        m.drain();
        m
    }

    /// The configuration.
    pub fn config(&self) -> &Config {
        self.config.as_ref()
    }

    /// The memory.
    pub fn memory(&self) -> &Memory {
        &self.memory
    }

    /// The threads.
    pub fn threads(&self) -> &[Arc<FlatThread>] {
        &self.threads
    }

    /// Exact dedup key (stored by the paranoid visited-set mode to
    /// detect fingerprint collisions). With reductions on
    /// (`Config::por`), this is the canonical word stream of
    /// [`FlatMachine::canonical_words`], so bisimilar states *compare
    /// equal* — merging them is the point, not a collision.
    pub fn state_key(&self) -> FlatStateKey {
        if self.config.por {
            FlatStateKey::Canon(self.canonical_words())
        } else {
            FlatStateKey::Raw {
                threads: self.threads.iter().map(|t| FlatThread::clone(t)).collect(),
                memory: self.memory.clone(),
            }
        }
    }

    /// Canonical per-location encoding of the dynamic state, as an
    /// unambiguous (length-prefixed) word stream.
    ///
    /// Absolute timestamps are replaced by `(location, per-location
    /// index)` pairs and memory by its per-location message streams, so
    /// two states that differ only in the *interleaving order* of
    /// appends to different locations encode identically. This is sound
    /// because Flat-lite's future behaviour observes memory only through
    /// per-location structure:
    ///
    /// * `latest_write_at_most(loc, |M|)` (load satisfy, RMW read) is the
    ///   last message of `loc`'s stream;
    /// * `atomic(loc, tid, tr, |M|+1)` (store-exclusive success) is
    ///   vacuous when the paired read `tr` was to a different location,
    ///   and otherwise quantifies only over `loc`'s messages after `tr`'s
    ///   per-location position;
    /// * `outcome()` reads per-location final values and register values
    ///   stored directly in instance states;
    /// * enabledness scans and the POR reduce look only at
    ///   instance states, resolved addresses and the static may-access
    ///   sets.
    ///
    /// Hence the timestamp order-isomorphism matching messages per
    /// location in stream order is a bisimulation relating two such
    /// states, and deduplicating them preserves the outcome set — this
    /// is the per-location append independence of the POR reduction,
    /// realised as state merging rather than transition pruning. (The
    /// *promising* machine cannot do this: its scalar views cover
    /// timestamp prefixes, so the interleaving order of disjoint appends
    /// is observable there.)
    ///
    /// Instance operations are functions of their source statement except
    /// for branches, exactly as in [`FlatMachine::fingerprint`], so
    /// `(stmt, state)` per instance plus the branch extras is complete.
    ///
    /// # Retired-prefix summarisation
    ///
    /// On top of the timestamp renaming, each thread's maximal fully
    /// *bound* instance prefix is collapsed to what the thread's future
    /// can still observe of it. Every nondeterministic-transition guard
    /// (`load_source`, `store_ready`, `rmw_bind_ready`,
    /// `rmw_propagate_ready`) passes bound instances through with
    /// no effect (a bound store is `Propagated`/`Failed`, so it is never
    /// a forwarding source and satisfies every `need_done` arm; bound
    /// loads/RMWs/fences pass every `is_bound` arm; bound addresses
    /// always evaluate), so a retired prefix influences the future only
    /// through three channels, which the encoding keeps:
    ///
    /// * **register values** — `reg_value`/`eval_at`/`outcome` read the
    ///   nearest po-earlier writer via `written_reg`; the prefix
    ///   collapses to its final register map. User-visible registers
    ///   keep explicit zero entries (`outcome` reports a register iff
    ///   some instance wrote it); scratch registers drop value-0 entries
    ///   (`reg_value` falls back to 0 and `outcome` ignores them);
    /// * **the exclusive-pairing bank** — `stx_pairing`
    ///   walks back to the first exclusive-relevant instance; once that
    ///   walk enters a bound prefix its answer is frozen (every arm is
    ///   final on bound instances), so the prefix collapses to that one
    ///   `Option<Timestamp>`;
    /// * **forwarded sources** — a bound load's `Src::Forward(k)` whose
    ///   source store has propagated at `ts` is observationally
    ///   `Src::Memory(ts)` (`stx_pairing` resolves both identically and
    ///   nothing else reads a bound load's source), so such sources are
    ///   canonicalised to the memory form and suffix-internal forward
    ///   indices are rebased.
    ///
    /// Two states with equal words are therefore bisimilar: equal
    /// suffixes, fetch state, register summaries, banks and per-location
    /// memory streams induce identical enabled transitions with
    /// identical effects, and equal outcomes on termination. This is
    /// what cracks the append-bound retry loops: a retired CAS-retry
    /// iteration leaves only its final register values behind, so
    /// executions that failed the same number of times against
    /// different (dead) old values of the contended word merge.
    pub fn canonical_words(&self) -> Vec<u64> {
        let mut out = Vec::new();
        self.canonical_words_into(&mut out);
        out
    }

    /// Stream the canonical encoding of [`FlatMachine::canonical_words`]
    /// into `out` without materialising a buffer — the dedup hot path
    /// sinks it straight into an [`FpHasher`], so fingerprinting a state
    /// under `Config::por` no longer allocates a per-state word vector.
    pub fn canonical_words_into<W: WordSink>(&self, out: &mut W) {
        // ts -> (loc+1, per-location index); ts 0 (the initial write,
        // distinguished) -> (0, 0).
        let mut next: BTreeMap<Loc, u64> = BTreeMap::new();
        let mut canon: Vec<(u64, u64)> = Vec::with_capacity(self.memory.len());
        let mut streams: BTreeMap<Loc, Vec<&Msg>> = BTreeMap::new();
        for (_, m) in self.memory.iter() {
            let idx = next.entry(m.loc).or_insert(0);
            canon.push((m.loc.0 + 1, *idx));
            *idx += 1;
            streams.entry(m.loc).or_default().push(m);
        }
        let canon_ts = |ts: Timestamp| -> (u64, u64) {
            if ts.is_initial() {
                (0, 0)
            } else {
                canon[ts.0 as usize - 1]
            }
        };
        let ts = |out: &mut W, t: Timestamp| {
            let (a, b) = canon_ts(t);
            out.word(a);
            out.word(b);
        };
        out.word(self.threads.len() as u64);
        for t in &self.threads {
            out.word(t.stuck as u64);
            out.word(t.fetch_fuel as u64);
            out.word(t.fetch_cont.len() as u64);
            for s in &t.fetch_cont {
                out.word(s.0 as u64);
            }
            // Maximal fully-bound prefix: collapsed to its final
            // register map and exclusive-pairing bank (see the doc
            // comment — bound instances are invisible to every
            // transition guard beyond those two channels).
            let live = t
                .instances
                .iter()
                .position(|i| !i.is_bound())
                .unwrap_or(t.instances.len());
            let mut regs: BTreeMap<Reg, Val> = BTreeMap::new();
            for inst in &t.instances[..live] {
                let written: Vec<Reg> = match &inst.op {
                    InstOp::Assign { reg, .. } | InstOp::Load { reg, .. } => vec![*reg],
                    InstOp::Store {
                        succ,
                        exclusive: true,
                        ..
                    } => vec![*succ],
                    InstOp::Rmw { dst, succ, .. } => vec![*dst, *succ],
                    _ => Vec::new(),
                };
                for r in written {
                    let v = inst
                        .written_reg(r)
                        .flatten()
                        .expect("bound instance has its register value");
                    regs.insert(r, v);
                }
            }
            // Scratch registers are invisible to `outcome` and read back
            // as 0 when unwritten, so value-0 entries are the unwritten
            // state; user registers must keep them (`outcome` reports a
            // register iff written).
            regs.retain(|r, v| r.0 < SCRATCH_REG_BASE || v.0 != 0);
            out.word(regs.len() as u64);
            for (r, v) in &regs {
                out.word(r.0 as u64);
                out.word(v.0 as u64);
            }
            // The prefix's exclusive-pairing bank: the answer
            // `stx_pairing` gives once its backward walk crosses into
            // the bound prefix (every arm is final there).
            let mut bank: Option<Timestamp> = None;
            for j in (0..live).rev() {
                let jinst = &t.instances[j];
                match &jinst.op {
                    InstOp::Store {
                        exclusive: true, ..
                    } => break, // interposed: bank stays empty
                    InstOp::Rmw { .. } => {
                        if let InstState::RmwDone {
                            tr, wrote: None, ..
                        } = jinst.state
                        {
                            bank = Some(tr);
                        }
                        break;
                    }
                    InstOp::Load {
                        exclusive: true, ..
                    } => {
                        if let InstState::Satisfied { src, .. } = jinst.state {
                            bank = match src {
                                Src::Memory(t) => Some(t),
                                Src::Forward(k) => match t.instances[k].state {
                                    InstState::Propagated { ts } => Some(ts),
                                    _ => None,
                                },
                            };
                        }
                        break;
                    }
                    _ => {}
                }
            }
            match bank {
                None => out.word(0),
                Some(t) => {
                    out.word(1);
                    ts(out, t);
                }
            }
            out.word((t.instances.len() - live) as u64);
            for inst in &t.instances[live..] {
                out.word(inst.stmt.0 as u64);
                match &inst.op {
                    InstOp::Assign { .. } => out.word(0),
                    InstOp::Load { .. } => out.word(1),
                    InstOp::Store { .. } => out.word(2),
                    InstOp::Fence(_) => out.word(3),
                    InstOp::Isb => out.word(4),
                    InstOp::Rmw { .. } => out.word(6),
                    InstOp::Branch {
                        guess, alt_cont, ..
                    } => {
                        out.word(5);
                        out.word(*guess as u64);
                        out.word(alt_cont.len() as u64);
                        for s in alt_cont {
                            out.word(s.0 as u64);
                        }
                    }
                }
                match inst.state {
                    InstState::Pending => out.word(0),
                    InstState::Done { val } => {
                        out.word(1);
                        out.word(val.0 as u64);
                    }
                    InstState::Satisfied { src, val } => {
                        out.word(2);
                        match src {
                            Src::Memory(t) => {
                                out.word(0);
                                ts(out, t);
                            }
                            // A forwarded source that has since
                            // propagated is observationally a memory
                            // source (`stx_pairing` resolves both to the
                            // same timestamp; nothing else reads a bound
                            // load's source) — canonicalise it so the
                            // distinction doesn't split states.
                            Src::Forward(k) => match t.instances[k].state {
                                InstState::Propagated { ts: pt } => {
                                    out.word(0);
                                    ts(out, pt);
                                }
                                _ => {
                                    debug_assert!(
                                        k >= live,
                                        "unpropagated forward source must be unbound"
                                    );
                                    out.word(1);
                                    out.word((k - live) as u64);
                                }
                            },
                        }
                        out.word(val.0 as u64);
                    }
                    InstState::Propagated { ts: t } => {
                        out.word(3);
                        ts(out, t);
                    }
                    InstState::Failed => out.word(4),
                    InstState::Committed => out.word(5),
                    InstState::Resolved { taken } => {
                        out.word(6);
                        out.word(taken as u64);
                    }
                    InstState::RmwDone { tr, old, wrote } => {
                        out.word(7);
                        ts(out, tr);
                        out.word(old.0 as u64);
                        match wrote {
                            None => out.word(0),
                            Some(t) => {
                                out.word(1);
                                ts(out, t);
                            }
                        }
                    }
                    InstState::RmwBound { tr, old } => {
                        out.word(8);
                        ts(out, tr);
                        out.word(old.0 as u64);
                    }
                }
            }
        }
        out.word(self.memory.init_values().len() as u64);
        for (l, v) in self.memory.init_values() {
            out.word(l.0);
            out.word(v.0 as u64);
        }
        out.word(streams.len() as u64);
        for (l, msgs) in &streams {
            out.word(l.0);
            out.word(msgs.len() as u64);
            for m in msgs {
                out.word(m.val.0 as u64);
                out.word(m.tid.0 as u64);
            }
        }
    }

    /// A 128-bit fingerprint of the dynamic state for visited-set
    /// deduplication (see [`promising_core::fingerprint`]).
    ///
    /// With reductions on (`Config::por`), the fingerprint hashes the
    /// canonical word stream ([`FlatMachine::canonical_words`]) so
    /// bisimilar states merge; otherwise it hashes the raw state with
    /// absolute timestamps.
    ///
    /// Instance operations are functions of their source statement except
    /// for branches (speculation guess + squash continuation), so the
    /// encoding covers `(stmt, state)` per instance plus the branch
    /// extras — much cheaper than hashing the cloned expression trees.
    pub fn fingerprint(&self) -> Fingerprint {
        if self.config.por {
            let mut h = FpHasher::new();
            self.canonical_words_into(&mut h);
            return h.finish128();
        }
        let mut h = FpHasher::new();
        h.write_len(self.threads.len());
        for t in &self.threads {
            h.write_bool(t.stuck);
            h.write_u32(t.fetch_fuel);
            h.write_len(t.fetch_cont.len());
            for s in &t.fetch_cont {
                h.write_u32(s.0);
            }
            h.write_len(t.instances.len());
            for inst in &t.instances {
                h.write_u32(inst.stmt.0);
                match &inst.op {
                    InstOp::Assign { .. } => h.write_u64(0),
                    InstOp::Load { .. } => h.write_u64(1),
                    InstOp::Store { .. } => h.write_u64(2),
                    InstOp::Fence(_) => h.write_u64(3),
                    InstOp::Isb => h.write_u64(4),
                    InstOp::Rmw { .. } => h.write_u64(6),
                    InstOp::Branch {
                        guess, alt_cont, ..
                    } => {
                        h.write_u64(5);
                        h.write_bool(*guess);
                        h.write_len(alt_cont.len());
                        for s in alt_cont {
                            h.write_u32(s.0);
                        }
                    }
                }
                match inst.state {
                    InstState::Pending => h.write_u64(0),
                    InstState::Done { val } => {
                        h.write_u64(1);
                        h.write_i64(val.0);
                    }
                    InstState::Satisfied { src, val } => {
                        h.write_u64(2);
                        match src {
                            Src::Memory(ts) => {
                                h.write_u64(0);
                                h.write_u32(ts.0);
                            }
                            Src::Forward(idx) => {
                                h.write_u64(1);
                                h.write_len(idx);
                            }
                        }
                        h.write_i64(val.0);
                    }
                    InstState::Propagated { ts } => {
                        h.write_u64(3);
                        h.write_u32(ts.0);
                    }
                    InstState::Failed => h.write_u64(4),
                    InstState::Committed => h.write_u64(5),
                    InstState::Resolved { taken } => {
                        h.write_u64(6);
                        h.write_bool(taken);
                    }
                    InstState::RmwDone { tr, old, wrote } => {
                        h.write_u64(7);
                        h.write_u32(tr.0);
                        h.write_i64(old.0);
                        match wrote {
                            None => h.write_bool(false),
                            Some(ts) => {
                                h.write_bool(true);
                                h.write_u32(ts.0);
                            }
                        }
                    }
                    InstState::RmwBound { tr, old } => {
                        h.write_u64(8);
                        h.write_u32(tr.0);
                        h.write_i64(old.0);
                    }
                }
            }
        }
        self.memory.feed(&mut h);
        h.finish128()
    }

    /// Whether some thread exhausted the loop bound on a resolved path.
    pub fn any_stuck(&self) -> bool {
        self.threads.iter().any(|t| t.stuck)
    }

    /// All threads fully done: nothing to fetch, every instance bound.
    pub fn terminated(&self) -> bool {
        self.threads.iter().all(|t| {
            !t.stuck && t.fetch_cont.is_empty() && t.instances.iter().all(Instance::is_bound)
        })
    }

    /// The observable outcome of a terminated machine.
    ///
    /// # Panics
    ///
    /// Panics if the machine is not terminated.
    pub fn outcome(&self) -> promising_core::Outcome {
        assert!(self.terminated(), "outcome of a non-final Flat state");
        let regs = self
            .threads
            .iter()
            .map(|t| {
                let mut map: BTreeMap<Reg, Val> = BTreeMap::new();
                for inst in &t.instances {
                    let written: Vec<Reg> = match &inst.op {
                        InstOp::Assign { reg, .. } | InstOp::Load { reg, .. } => vec![*reg],
                        InstOp::Store {
                            succ,
                            exclusive: true,
                            ..
                        } => vec![*succ],
                        InstOp::Rmw { dst, succ, .. } => vec![*dst, *succ],
                        _ => Vec::new(),
                    };
                    for r in written {
                        if r.0 < SCRATCH_REG_BASE {
                            let v = inst
                                .written_reg(r)
                                .flatten()
                                .expect("bound instance has its value");
                            map.insert(r, v);
                        }
                    }
                }
                map
            })
            .collect();
        let memory = self
            .memory
            .locations()
            .into_iter()
            .map(|l| (l, self.memory.final_value(l)))
            .collect();
        promising_core::Outcome { regs, memory }
    }

    /// The value of register `r` as seen by the instance at `idx` (the
    /// nearest po-earlier writer), `None` if not yet available.
    fn reg_value(&self, tid: TId, idx: usize, r: Reg) -> Option<Val> {
        let t = &self.threads[tid.0];
        for inst in t.instances[..idx].iter().rev() {
            if let Some(v) = inst.written_reg(r) {
                return v;
            }
        }
        Some(Val(0))
    }

    /// Evaluate `e` at instance position `idx`, `None` if some input
    /// register is unavailable.
    fn eval_at(&self, tid: TId, idx: usize, e: &Expr) -> Option<Val> {
        match e {
            Expr::Const(v) => Some(*v),
            Expr::Reg(r) => self.reg_value(tid, idx, *r),
            Expr::Binop(op, a, b) => {
                let va = self.eval_at(tid, idx, a)?;
                let vb = self.eval_at(tid, idx, b)?;
                Some(op.apply(va, vb))
            }
        }
    }

    /// The resolved address of the memory access at `idx`, if available.
    fn addr_of(&self, tid: TId, idx: usize) -> Option<Loc> {
        let inst = &self.threads[tid.0].instances[idx];
        let addr = match &inst.op {
            InstOp::Load { addr, .. } | InstOp::Store { addr, .. } | InstOp::Rmw { addr, .. } => {
                addr
            }
            _ => return None,
        };
        self.eval_at(tid, idx, addr).map(Loc::from)
    }

    // ---- deterministic micro-steps (auto-drained) --------------------

    /// Run every thread's deterministic steps to their fixpoint (see
    /// [`FlatMachine::drain_thread`]). Only the constructor needs this:
    /// [`FlatMachine::apply`] drains the acting thread alone.
    fn drain(&mut self) {
        for tid in (0..self.threads.len()).map(TId) {
            self.drain_thread(tid);
        }
    }

    /// Run thread `tid`'s deterministic steps to a fixpoint: fetch,
    /// assignment execution, branch resolution (with squash), fence/isb
    /// commit.
    ///
    /// Each pass reads only `tid`'s own instances, registers, fetch
    /// state and code — never memory and never another thread — and
    /// writes only `tid`'s thread. So a thread at its fixpoint stays
    /// there until one of its own nondeterministic transitions moves it:
    /// once the constructor has drained every thread, draining just the
    /// acting thread after each step leaves the same state as draining
    /// them all. The passes run in the same order either way, so the
    /// acting thread reaches the same fixpoint too.
    fn drain_thread(&mut self, tid: TId) {
        loop {
            let mut progressed = self.fetch_deterministic(tid);
            progressed |= self.execute_assigns(tid);
            progressed |= self.resolve_branches(tid);
            progressed |= self.commit_fences(tid);
            if !progressed {
                break;
            }
        }
    }

    /// Fetch instructions as long as no unresolved-branch choice is needed.
    fn fetch_deterministic(&mut self, tid: TId) -> bool {
        let program = Arc::clone(&self.program);
        let code = &program.threads()[tid.0];
        let mut progressed = false;
        loop {
            let t = Arc::make_mut(&mut self.threads[tid.0]);
            if t.stuck {
                return progressed;
            }
            // normalize seq/skip
            while let Some(&top) = t.fetch_cont.last() {
                match code.stmt(top) {
                    Stmt::Seq(a, b) => {
                        t.fetch_cont.pop();
                        t.fetch_cont.push(*b);
                        t.fetch_cont.push(*a);
                    }
                    Stmt::Skip => {
                        t.fetch_cont.pop();
                    }
                    _ => break,
                }
            }
            let Some(&top) = t.fetch_cont.last() else {
                return progressed;
            };
            let idx = t.instances.len();
            let op = match code.stmt(top) {
                Stmt::Skip | Stmt::Seq(..) => unreachable!("normalized"),
                Stmt::Assign { reg, expr } => InstOp::Assign {
                    reg: *reg,
                    expr: expr.clone(),
                },
                Stmt::Load {
                    reg,
                    addr,
                    kind,
                    exclusive,
                } => InstOp::Load {
                    reg: *reg,
                    addr: addr.clone(),
                    rk: *kind,
                    exclusive: *exclusive,
                },
                Stmt::Store {
                    succ,
                    addr,
                    data,
                    kind,
                    exclusive,
                } => InstOp::Store {
                    succ: *succ,
                    addr: addr.clone(),
                    data: data.clone(),
                    wk: *kind,
                    exclusive: *exclusive,
                },
                Stmt::Rmw {
                    op,
                    dst,
                    succ,
                    addr,
                    expected,
                    operand,
                    rk,
                    wk,
                } => InstOp::Rmw {
                    op: *op,
                    dst: *dst,
                    succ: *succ,
                    addr: addr.clone(),
                    expected: expected.clone(),
                    operand: operand.clone(),
                    rk: *rk,
                    wk: *wk,
                },
                Stmt::Fence(f) => InstOp::Fence(*f),
                Stmt::Isb => InstOp::Isb,
                Stmt::If {
                    cond,
                    then_branch,
                    else_branch,
                } => {
                    // resolvable now? fetch the right path without a guess
                    let Some(v) = self.eval_at(tid, idx, cond) else {
                        return progressed; // speculation choice needed
                    };
                    let taken = v.as_bool();
                    let t = Arc::make_mut(&mut self.threads[tid.0]);
                    t.fetch_cont.pop();
                    t.fetch_cont
                        .push(if taken { *then_branch } else { *else_branch });
                    t.instances.push(Instance {
                        stmt: top,
                        op: InstOp::Branch {
                            cond: cond.clone(),
                            guess: taken,
                            alt_cont: Vec::new(),
                        },
                        state: InstState::Resolved { taken },
                    });
                    progressed = true;
                    continue;
                }
                Stmt::While { cond, body } => {
                    let Some(v) = self.eval_at(tid, idx, cond) else {
                        return progressed;
                    };
                    let taken = v.as_bool();
                    let t = Arc::make_mut(&mut self.threads[tid.0]);
                    if taken {
                        if t.fetch_fuel == 0 {
                            t.stuck = true;
                            return progressed;
                        }
                        t.fetch_fuel -= 1;
                        t.fetch_cont.push(*body);
                    } else {
                        t.fetch_cont.pop();
                    }
                    t.instances.push(Instance {
                        stmt: top,
                        op: InstOp::Branch {
                            cond: cond.clone(),
                            guess: taken,
                            alt_cont: Vec::new(),
                        },
                        state: InstState::Resolved { taken },
                    });
                    progressed = true;
                    continue;
                }
            };
            t.fetch_cont.pop();
            t.instances.push(Instance::new(top, op));
            progressed = true;
        }
    }

    fn execute_assigns(&mut self, tid: TId) -> bool {
        let mut progressed = false;
        for idx in 0..self.threads[tid.0].instances.len() {
            let inst = &self.threads[tid.0].instances[idx];
            let val = match &inst.op {
                InstOp::Assign { expr, .. } if inst.state == InstState::Pending => {
                    self.eval_at(tid, idx, expr)
                }
                _ => None,
            };
            if let Some(val) = val {
                Arc::make_mut(&mut self.threads[tid.0]).instances[idx].state =
                    InstState::Done { val };
                progressed = true;
            }
        }
        progressed
    }

    /// Resolve speculatively-fetched branches whose inputs are now
    /// available; squash on mis-speculation.
    fn resolve_branches(&mut self, tid: TId) -> bool {
        let mut progressed = false;
        let mut idx = 0;
        while idx < self.threads[tid.0].instances.len() {
            let inst = &self.threads[tid.0].instances[idx];
            let resolved = match &inst.op {
                InstOp::Branch { cond, guess, .. } if inst.state == InstState::Pending => {
                    self.eval_at(tid, idx, cond).map(|v| (v.as_bool(), *guess))
                }
                _ => None,
            };
            if let Some((taken, guessed)) = resolved {
                let t = Arc::make_mut(&mut self.threads[tid.0]);
                if taken != guessed {
                    // mis-speculation: discard everything younger and
                    // refetch down the other path.
                    debug_assert!(
                        t.instances[idx + 1..].iter().all(|i| !matches!(
                            i.state,
                            InstState::Propagated { .. }
                                | InstState::RmwDone { wrote: Some(_), .. }
                        )),
                        "speculative stores must never propagate"
                    );
                    t.instances.truncate(idx + 1);
                    let InstOp::Branch {
                        guess, alt_cont, ..
                    } = &mut t.instances[idx].op
                    else {
                        unreachable!("resolved instance is a branch");
                    };
                    *guess = taken;
                    t.fetch_cont = std::mem::take(alt_cont);
                }
                t.instances[idx].state = InstState::Resolved { taken };
                progressed = true;
            }
            idx += 1;
        }
        progressed
    }

    fn commit_fences(&mut self, tid: TId) -> bool {
        let mut progressed = false;
        for idx in 0..self.threads[tid.0].instances.len() {
            let t = &self.threads[tid.0];
            let inst = &t.instances[idx];
            if inst.state != InstState::Pending {
                continue;
            }
            let ready = match &inst.op {
                InstOp::Fence(f) => {
                    // The read pre-set is satisfied by an RMW's bound
                    // read half (`read_satisfied`); the write pre-set
                    // needs its write half landed (`is_bound`). For
                    // plain loads the two predicates coincide.
                    t.instances[..idx].iter().all(|j| {
                        (!f.pre.includes_reads() || !j.is_load() || j.read_satisfied())
                            && (!f.pre.includes_writes() || !j.is_store() || j.is_bound())
                    })
                }
                InstOp::Isb => {
                    // all po-earlier branches resolved and access addresses
                    // determined (the ctrl/addr half-barriers of ρ7); an
                    // RMW's desugared loop exit is a branch on its success
                    // flag, so unbound RMWs block like unresolved branches
                    t.instances[..idx]
                        .iter()
                        .enumerate()
                        .all(|(j, jinst)| match &jinst.op {
                            InstOp::Branch { .. } => jinst.is_bound(),
                            InstOp::Rmw { .. } => jinst.is_bound(),
                            InstOp::Load { .. } | InstOp::Store { .. } => {
                                self.addr_of(tid, j).is_some()
                            }
                            _ => true,
                        })
                }
                _ => continue,
            };
            if ready {
                Arc::make_mut(&mut self.threads[tid.0]).instances[idx].state = InstState::Committed;
                progressed = true;
            }
        }
        progressed
    }

    // ---- nondeterministic transitions --------------------------------

    /// The satisfy-blocking scan for load `idx`: returns the permitted
    /// source, or `None` if blocked.
    fn load_source(&self, tid: TId, idx: usize) -> Option<(Src, Val)> {
        let t = &self.threads[tid.0];
        let inst = &t.instances[idx];
        let InstOp::Load { rk, .. } = &inst.op else {
            return None;
        };
        let loc = self.addr_of(tid, idx)?;

        // nearest po-earlier unpropagated same-address store (forwarding
        // candidate), and the blocking scan.
        let mut fwd: Option<usize> = None;
        for j in (0..idx).rev() {
            let jinst = &t.instances[j];
            match &jinst.op {
                InstOp::Load { rk: jrk, .. } => {
                    let jloc = self.addr_of(tid, j)?; // unresolved addr blocks
                    if *jrk >= ReadKind::WeakAcquire && !jinst.is_bound() {
                        return None; // acquire orders later reads
                    }
                    if jloc == loc && !jinst.is_bound() && fwd.is_none() {
                        return None; // same-address loads bind in order
                    }
                }
                InstOp::Store { wk, .. } => {
                    let jloc = self.addr_of(tid, j)?;
                    if *rk >= ReadKind::Acquire
                        && *wk >= WriteKind::Release
                        && !matches!(
                            jinst.state,
                            InstState::Propagated { .. } | InstState::Failed
                        )
                    {
                        return None; // [RL]; po; [AQ]
                    }
                    if jloc == loc && fwd.is_none() {
                        match jinst.state {
                            InstState::Propagated { .. } | InstState::Failed => {}
                            _ => {
                                // unpropagated same-address store: must
                                // forward from it (if data ready)
                                fwd = Some(j);
                            }
                        }
                    }
                }
                InstOp::Rmw {
                    rk: jrk, wk: jwk, ..
                } => {
                    // an RMW is both a read and a write for the blocking
                    // rules; it never forwards (conservative, like pending
                    // store exclusives). The acquire strength lives on the
                    // read half: once that is bound (`RmwBound`) po-later
                    // loads may satisfy — the axiomatic `rmw` edge runs
                    // read→write, so nothing orders a later load after the
                    // RMW's *write*.
                    let jloc = self.addr_of(tid, j)?;
                    if *jrk >= ReadKind::WeakAcquire && !jinst.read_satisfied() {
                        return None; // acquire read orders later reads
                    }
                    if *rk >= ReadKind::Acquire && *jwk >= WriteKind::Release && !jinst.is_bound() {
                        return None; // [RL]; po; [AQ]: needs the write half
                    }
                    if jloc == loc && !jinst.is_bound() && fwd.is_none() {
                        return None; // same-address accesses bind in order
                    }
                }
                InstOp::Fence(f) => {
                    if f.post.includes_reads() && !jinst.is_bound() {
                        return None;
                    }
                }
                InstOp::Isb => {
                    if !jinst.is_bound() {
                        return None;
                    }
                }
                InstOp::Branch { .. } | InstOp::Assign { .. } => {}
            }
        }

        match fwd {
            Some(j) => {
                let jinst = &t.instances[j];
                let InstOp::Store {
                    data, exclusive, ..
                } = &jinst.op
                else {
                    unreachable!("forward source is a store");
                };
                // A pending store exclusive may still fail, so its value
                // must never be forwarded (conservative vs ρ13 — see
                // "Flat-lite's conservative simplifications" in
                // docs/architecture.md); the load waits for it to
                // propagate or fail.
                if *exclusive {
                    return None;
                }
                let val = self.eval_at(tid, j, data)?;
                Some((Src::Forward(j), val))
            }
            None => {
                let ts = self
                    .memory
                    .latest_write_at_most(loc, self.memory.max_timestamp());
                let val = self.memory.read(loc, ts).expect("latest write reads back");
                Some((Src::Memory(ts), val))
            }
        }
    }

    /// The propagate-blocking scan for store `idx`: returns the value to
    /// write, or `None` if blocked. Does not check exclusivity success —
    /// see [`FlatMachine::stx_pairing`].
    fn store_ready(&self, tid: TId, idx: usize) -> Option<(Loc, Val)> {
        let t = &self.threads[tid.0];
        let inst = &t.instances[idx];
        let InstOp::Store { data, wk, .. } = &inst.op else {
            return None;
        };
        let loc = self.addr_of(tid, idx)?;
        let val = self.eval_at(tid, idx, data)?;
        for j in (0..idx).rev() {
            let jinst = &t.instances[j];
            match &jinst.op {
                InstOp::Branch { .. } => {
                    if !jinst.is_bound() {
                        return None; // no speculative writes
                    }
                }
                InstOp::Load { rk, .. } => {
                    let jloc = self.addr_of(tid, j)?; // address-po
                    let need_bound = jloc == loc
                        || *rk >= ReadKind::WeakAcquire
                        || *wk >= WriteKind::WeakRelease;
                    if need_bound && !jinst.is_bound() {
                        return None;
                    }
                }
                InstOp::Store { .. } => {
                    let jloc = self.addr_of(tid, j)?; // address-po
                    let need_done = jloc == loc || *wk >= WriteKind::WeakRelease;
                    if need_done
                        && !matches!(
                            jinst.state,
                            InstState::Propagated { .. } | InstState::Failed
                        )
                    {
                        return None;
                    }
                }
                InstOp::Rmw {
                    op: jop, rk: jrk, ..
                } => {
                    let jloc = self.addr_of(tid, j)?;
                    // Write-half edges — same-address ordering, release
                    // pre-views, and RISC-V's ρ12 (the success register
                    // feeds vCAP, and success is decided by the write) —
                    // need the RMW retired. Read-half edges — the acquire
                    // strength of the read (vwNew) and a CAS's compare
                    // guard feeding vCAP as a ctrl from the read — are
                    // discharged as soon as the read binds (`RmwBound`).
                    let need_done = jloc == loc
                        || *wk >= WriteKind::WeakRelease
                        || self.config.arch == Arch::RiscV;
                    if need_done && !jinst.is_bound() {
                        return None;
                    }
                    let need_read = *jrk >= ReadKind::WeakAcquire || *jop == RmwOp::Cas;
                    if need_read && !jinst.read_satisfied() {
                        return None;
                    }
                }
                InstOp::Fence(f) => {
                    if f.post.includes_writes() && !jinst.is_bound() {
                        return None;
                    }
                }
                InstOp::Isb | InstOp::Assign { .. } => {}
            }
        }
        Some((loc, val))
    }

    /// Evaluate `e` at instance position `idx` with register `dst` bound
    /// to `old` — the RMW's operand/expected expressions see the old
    /// value in the destination register, exactly as the promising and
    /// axiomatic models evaluate them after the read half.
    fn eval_at_with(&self, tid: TId, idx: usize, e: &Expr, dst: Reg, old: Val) -> Option<Val> {
        match e {
            Expr::Const(v) => Some(*v),
            Expr::Reg(r) if *r == dst => Some(old),
            Expr::Reg(r) => self.reg_value(tid, idx, *r),
            Expr::Binop(op, a, b) => {
                let va = self.eval_at_with(tid, idx, a, dst, old)?;
                let vb = self.eval_at_with(tid, idx, b, dst, old)?;
                Some(op.apply(va, vb))
            }
        }
    }

    /// The read-bind blocking scan for RMW instance `idx`: the
    /// load-satisfy conditions for a read of strength `rk`, with no
    /// forwarding (conservative, like pending store exclusives — every
    /// po-earlier same-address store must have propagated or failed).
    /// The bind may be speculative: unresolved branches do not block it
    /// (a squash truncates the bound read with no memory effect),
    /// matching the speculative load-exclusive of the desugared LL/SC
    /// build. The CAS `expected` input must resolve (the compare is
    /// decided at bind); the `operand` is only needed at propagate.
    /// Returns the target location, or `None` if blocked.
    fn rmw_bind_ready(&self, tid: TId, idx: usize) -> Option<Loc> {
        let t = &self.threads[tid.0];
        let inst = &t.instances[idx];
        let InstOp::Rmw {
            dst, expected, rk, ..
        } = &inst.op
        else {
            return None;
        };
        let loc = self.addr_of(tid, idx)?;
        if let Some(exp) = expected {
            // dst binds to the old value at bind time
            self.eval_at_with(tid, idx, exp, *dst, Val(0))?;
        }
        for j in (0..idx).rev() {
            let jinst = &t.instances[j];
            match &jinst.op {
                InstOp::Load { rk: jrk, .. } => {
                    let jloc = self.addr_of(tid, j)?;
                    if *jrk >= ReadKind::WeakAcquire && !jinst.is_bound() {
                        return None; // acquire orders later reads
                    }
                    if jloc == loc && !jinst.is_bound() {
                        return None; // same-address reads bind in order
                    }
                }
                InstOp::Store { wk: jwk, .. } => {
                    let jloc = self.addr_of(tid, j)?;
                    if *rk >= ReadKind::Acquire
                        && *jwk >= WriteKind::Release
                        && !matches!(
                            jinst.state,
                            InstState::Propagated { .. } | InstState::Failed
                        )
                    {
                        return None; // [RL]; po; [AQ]
                    }
                    if jloc == loc
                        && !matches!(
                            jinst.state,
                            InstState::Propagated { .. } | InstState::Failed
                        )
                    {
                        return None; // no forwarding into an RMW
                    }
                }
                InstOp::Rmw {
                    rk: jrk, wk: jwk, ..
                } => {
                    let jloc = self.addr_of(tid, j)?;
                    if *jrk >= ReadKind::WeakAcquire && !jinst.read_satisfied() {
                        return None; // acquire read orders later reads
                    }
                    if *rk >= ReadKind::Acquire && *jwk >= WriteKind::Release && !jinst.is_bound() {
                        return None; // [RL]; po; [AQ]: needs the write half
                    }
                    if jloc == loc && !jinst.is_bound() {
                        return None; // same-address accesses bind in order
                    }
                }
                InstOp::Fence(f) => {
                    if f.post.includes_reads() && !jinst.is_bound() {
                        return None;
                    }
                }
                InstOp::Isb => {
                    if !jinst.is_bound() {
                        return None;
                    }
                }
                InstOp::Branch { .. } | InstOp::Assign { .. } => {}
            }
        }
        Some(loc)
    }

    /// The write-propagate blocking scan for the bound RMW instance at
    /// `idx`: the store-propagate conditions for a write of strength
    /// `wk` (unresolved branches block — no speculative writes).
    /// Returns the target location and the updated value to append, or
    /// `None` if blocked. Does not check the exclusive-pairing
    /// invariant — the caller gates on [`Memory::atomic`] over the
    /// bound read timestamp; an interposed foreign write leaves the
    /// propagate permanently disabled (the pairing has failed, the
    /// machine cannot terminate down that branch, and any
    /// interposition-free interleaving remains reachable by binding
    /// later).
    fn rmw_propagate_ready(&self, tid: TId, idx: usize) -> Option<(Loc, Val)> {
        let t = &self.threads[tid.0];
        let inst = &t.instances[idx];
        let InstOp::Rmw {
            op,
            dst,
            operand,
            wk,
            ..
        } = &inst.op
        else {
            return None;
        };
        let InstState::RmwBound { old, .. } = inst.state else {
            return None;
        };
        let loc = self.addr_of(tid, idx)?;
        let opv = self.eval_at_with(tid, idx, operand, *dst, old)?;
        for j in (0..idx).rev() {
            let jinst = &t.instances[j];
            match &jinst.op {
                InstOp::Branch { .. } => {
                    if !jinst.is_bound() {
                        return None; // no speculative writes
                    }
                }
                InstOp::Load { rk: jrk, .. } => {
                    let jloc = self.addr_of(tid, j)?;
                    let need_bound = jloc == loc
                        || *jrk >= ReadKind::WeakAcquire
                        || *wk >= WriteKind::WeakRelease;
                    if need_bound && !jinst.is_bound() {
                        return None;
                    }
                }
                InstOp::Store { .. } => {
                    let jloc = self.addr_of(tid, j)?;
                    let need_done = jloc == loc || *wk >= WriteKind::WeakRelease;
                    if need_done
                        && !matches!(
                            jinst.state,
                            InstState::Propagated { .. } | InstState::Failed
                        )
                    {
                        return None;
                    }
                }
                InstOp::Rmw {
                    op: jop, rk: jrk, ..
                } => {
                    let jloc = self.addr_of(tid, j)?;
                    let need_done = jloc == loc
                        || *wk >= WriteKind::WeakRelease
                        || self.config.arch == Arch::RiscV;
                    if need_done && !jinst.is_bound() {
                        return None;
                    }
                    let need_read = *jrk >= ReadKind::WeakAcquire || *jop == RmwOp::Cas;
                    if need_read && !jinst.read_satisfied() {
                        return None;
                    }
                }
                InstOp::Fence(f) => {
                    if f.post.includes_writes() && !jinst.is_bound() {
                        return None;
                    }
                }
                InstOp::Isb | InstOp::Assign { .. } => {}
            }
        }
        Some((loc, op.apply(old, opv)))
    }

    /// Find the paired load exclusive for store exclusive `idx` (ρ11): the
    /// most recent po-earlier load exclusive with no interposing store
    /// exclusive. Returns its read timestamp if it is bound.
    fn stx_pairing(&self, tid: TId, idx: usize) -> Option<Timestamp> {
        let t = &self.threads[tid.0];
        for j in (0..idx).rev() {
            let jinst = &t.instances[j];
            match &jinst.op {
                InstOp::Store {
                    exclusive: true, ..
                } => return None, // interposed
                InstOp::Rmw { .. } => {
                    // a successful RMW consumes the pairing bank (like an
                    // interposed store exclusive); a CAS compare failure
                    // leaves its read charged in the bank. A bound-but-
                    // unpropagated RMW's fate is undecided: the walk
                    // answers `None` until its write half resolves.
                    return match jinst.state {
                        InstState::RmwDone {
                            tr, wrote: None, ..
                        } => Some(tr),
                        _ => None,
                    };
                }
                InstOp::Load {
                    exclusive: true, ..
                } => {
                    return match jinst.state {
                        InstState::Satisfied { src, .. } => match src {
                            Src::Memory(ts) => Some(ts),
                            Src::Forward(k) => match t.instances[k].state {
                                InstState::Propagated { ts } => Some(ts),
                                _ => None, // wait for the source to propagate
                            },
                        },
                        _ => None,
                    };
                }
                _ => {}
            }
        }
        None
    }

    // ---- partial-order-reduction metadata ----------------------------

    /// The resolved target location of the memory access instance at
    /// `idx` (load, store, or RMW), if its address is available — the
    /// location a `Satisfy`/`Propagate`/`BindRmw`/`PropagateRmw`
    /// transition on it touches. Used by the frozen-read POR rule.
    pub fn access_target(&self, tid: TId, idx: usize) -> Option<Loc> {
        self.addr_of(tid, idx)
    }

    /// Over-approximation of the locations thread `tid` may still
    /// *append* to from this state: resolved addresses of its unbound
    /// store/RMW instances (an unresolved address means
    /// [`MayAccess::Any`]), plus the static may-write sets of everything
    /// it can still fetch — the remaining fetch continuation and, for
    /// every unresolved branch, the alternative continuation a squash
    /// would refetch.
    pub fn thread_future_writes(&self, tid: TId) -> MayAccess {
        self.thread_future_accesses(tid, false)
    }

    /// Over-approximation of the locations thread `tid` may still *read*
    /// from this state (unbound loads/RMWs + fetchable code), in the same
    /// way as [`FlatMachine::thread_future_writes`].
    pub fn thread_future_reads(&self, tid: TId) -> MayAccess {
        self.thread_future_accesses(tid, true)
    }

    fn thread_future_accesses(&self, tid: TId, reads: bool) -> MayAccess {
        let t = &self.threads[tid.0];
        let code = &self.program.threads()[tid.0];
        let stmt_set = |id: StmtId| {
            if reads {
                code.may_read(id)
            } else {
                code.may_write(id)
            }
        };
        let mut out = MayAccess::none();
        for &id in &t.fetch_cont {
            out.absorb(stmt_set(id));
        }
        for (idx, inst) in t.instances.iter().enumerate() {
            if inst.is_bound() {
                continue;
            }
            let relevant = match &inst.op {
                InstOp::Load { .. } => reads,
                InstOp::Store { .. } => !reads,
                // A bound-but-unpropagated RMW is a pending *append* but
                // no longer a future read — its read half has already
                // bound. The DPOR persistent sets rely on the write side
                // staying conservative here.
                InstOp::Rmw { .. } => !reads || !inst.read_satisfied(),
                InstOp::Branch { alt_cont, .. } => {
                    // unresolved: a squash would refetch the other path
                    for &id in alt_cont {
                        out.absorb(stmt_set(id));
                    }
                    false
                }
                _ => false,
            };
            if relevant {
                match self.addr_of(tid, idx) {
                    Some(loc) => out.absorb(&MayAccess::Locs(LocSet::of(loc))),
                    None => out = MayAccess::Any,
                }
            }
        }
        out
    }

    /// Enumerate the enabled nondeterministic transitions.
    pub fn enabled(&self) -> Vec<FlatTransition> {
        let mut out = Vec::new();
        for tid in (0..self.threads.len()).map(TId) {
            let t = &self.threads[tid.0];
            if t.stuck {
                continue;
            }
            // speculation choice at the fetch point?
            if let Some(&top) = t.fetch_cont.last() {
                let code = &self.program.threads()[tid.0];
                match code.stmt(top) {
                    Stmt::If { .. } => {
                        out.push(FlatTransition::FetchBranch { tid, taken: true });
                        out.push(FlatTransition::FetchBranch { tid, taken: false });
                    }
                    Stmt::While { .. } => {
                        if t.fetch_fuel > 0 {
                            out.push(FlatTransition::FetchBranch { tid, taken: true });
                        }
                        out.push(FlatTransition::FetchBranch { tid, taken: false });
                    }
                    _ => {}
                }
            }
            for idx in 0..t.instances.len() {
                let inst = &t.instances[idx];
                if let InstState::RmwBound { tr, .. } = inst.state {
                    // write-propagate of a bound RMW, gated by the
                    // exclusive-pairing invariant: no foreign write to
                    // the location may have landed since the bound read
                    // (if one has, the pairing failed and the propagate
                    // stays disabled).
                    if let Some((loc, _)) = self.rmw_propagate_ready(tid, idx) {
                        let fresh = Timestamp(self.memory.max_timestamp().0 + 1);
                        if self.memory.atomic(loc, tid, tr, fresh) {
                            out.push(FlatTransition::PropagateRmw { tid, idx });
                        }
                    }
                    continue;
                }
                if inst.state != InstState::Pending {
                    continue;
                }
                match &inst.op {
                    InstOp::Load { .. } if self.load_source(tid, idx).is_some() => {
                        out.push(FlatTransition::Satisfy { tid, idx });
                    }
                    InstOp::Rmw { .. } if self.rmw_bind_ready(tid, idx).is_some() => {
                        out.push(FlatTransition::BindRmw { tid, idx });
                    }
                    InstOp::Store { exclusive, .. } => {
                        if *exclusive {
                            out.push(FlatTransition::FailStx { tid, idx });
                        }
                        if self.store_ready(tid, idx).is_some() {
                            if *exclusive {
                                let fresh = Timestamp(self.memory.max_timestamp().0 + 1);
                                if let Some(tr) = self.stx_pairing(tid, idx) {
                                    if let Some((loc, _)) = self.store_ready(tid, idx) {
                                        if self.memory.atomic(loc, tid, tr, fresh) {
                                            out.push(FlatTransition::Propagate { tid, idx });
                                        }
                                    }
                                }
                            } else {
                                out.push(FlatTransition::Propagate { tid, idx });
                            }
                        }
                    }
                    _ => {}
                }
            }
        }
        out
    }

    /// Apply a transition (must be enabled) and auto-drain the acting
    /// thread — the only thread a step can move off its drain fixpoint,
    /// since the deterministic steps read and write only their own
    /// thread.
    ///
    /// # Panics
    ///
    /// Panics if the transition is not enabled in this state.
    pub fn apply(&mut self, tr: &FlatTransition) {
        match tr {
            FlatTransition::FetchBranch { tid, taken } => {
                let code = Arc::clone(&self.program);
                let code = &code.threads()[tid.0];
                let t = Arc::make_mut(&mut self.threads[tid.0]);
                let top = *t.fetch_cont.last().expect("fetch point exists");
                match code.stmt(top).clone() {
                    Stmt::If {
                        cond,
                        then_branch,
                        else_branch,
                    } => {
                        let mut alt = t.fetch_cont.clone();
                        alt.pop();
                        t.fetch_cont.pop();
                        if *taken {
                            alt.push(else_branch);
                            t.fetch_cont.push(then_branch);
                        } else {
                            alt.push(then_branch);
                            t.fetch_cont.push(else_branch);
                        }
                        t.instances.push(Instance::new(
                            top,
                            InstOp::Branch {
                                cond,
                                guess: *taken,
                                alt_cont: alt,
                            },
                        ));
                    }
                    Stmt::While { cond, body } => {
                        let mut alt = t.fetch_cont.clone();
                        if *taken {
                            alt.pop(); // alternative: exit the loop
                            t.fetch_fuel -= 1;
                            t.fetch_cont.push(body);
                        } else {
                            t.fetch_cont.pop(); // alternative: enter the loop
                            alt.push(body);
                        }
                        t.instances.push(Instance::new(
                            top,
                            InstOp::Branch {
                                cond,
                                guess: *taken,
                                alt_cont: alt,
                            },
                        ));
                    }
                    other => panic!("fetch point is not a branch: {other:?}"),
                }
            }
            FlatTransition::Satisfy { tid, idx } => {
                let (src, val) = self
                    .load_source(*tid, *idx)
                    .expect("satisfy transition enabled");
                Arc::make_mut(&mut self.threads[tid.0]).instances[*idx].state =
                    InstState::Satisfied { src, val };
            }
            FlatTransition::Propagate { tid, idx } => {
                let (loc, val) = self
                    .store_ready(*tid, *idx)
                    .expect("propagate transition enabled");
                let ts = self.memory.push(Msg::new(loc, val, *tid));
                Arc::make_mut(&mut self.threads[tid.0]).instances[*idx].state =
                    InstState::Propagated { ts };
            }
            FlatTransition::FailStx { tid, idx } => {
                Arc::make_mut(&mut self.threads[tid.0]).instances[*idx].state = InstState::Failed;
            }
            FlatTransition::BindRmw { tid, idx } => {
                let loc = self
                    .rmw_bind_ready(*tid, *idx)
                    .expect("bind transition enabled");
                let InstOp::Rmw { dst, expected, .. } = &self.threads[tid.0].instances[*idx].op
                else {
                    unreachable!("rmw transition targets an rmw instance");
                };
                // bind the read half to the coherence-latest write; the
                // compare (CAS) is decided here, against the bound old
                // value — a failed compare degrades to a bare bound read
                // and retires immediately, nothing written.
                let tr = self
                    .memory
                    .latest_write_at_most(loc, self.memory.max_timestamp());
                let old = self.memory.read(loc, tr).expect("latest write reads back");
                let compare_failed = match expected {
                    None => false,
                    Some(exp) => {
                        let ev = self
                            .eval_at_with(*tid, *idx, exp, *dst, old)
                            .expect("rmw_bind_ready resolved the inputs");
                        old != ev
                    }
                };
                Arc::make_mut(&mut self.threads[tid.0]).instances[*idx].state = if compare_failed {
                    InstState::RmwDone {
                        tr,
                        old,
                        wrote: None,
                    }
                } else {
                    InstState::RmwBound { tr, old }
                };
            }
            FlatTransition::PropagateRmw { tid, idx } => {
                let (loc, val) = self
                    .rmw_propagate_ready(*tid, *idx)
                    .expect("propagate transition enabled");
                let InstState::RmwBound { tr, old } = self.threads[tid.0].instances[*idx].state
                else {
                    unreachable!("rmw propagate targets a bound rmw");
                };
                // the enabledness gate checked `Memory::atomic(loc, tid,
                // tr, fresh)`, so the append lands adjacent to the bound
                // read in the location's stream — the pairing invariant.
                let tw = self.memory.push(Msg::new(loc, val, *tid));
                Arc::make_mut(&mut self.threads[tid.0]).instances[*idx].state =
                    InstState::RmwDone {
                        tr,
                        old,
                        wrote: Some(tw),
                    };
            }
        }
        self.drain_thread(tr.tid());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use promising_core::parse_program;
    use std::collections::{HashSet, VecDeque};

    /// What a state-graph walk exercised.
    #[derive(Default)]
    struct Seen {
        /// Applied transitions, by kind.
        kinds: BTreeMap<&'static str, usize>,
        /// Mis-speculated branches resolved (guess flipped, younger
        /// instances squashed).
        squashes: usize,
        /// Steps after which some fence or `isb` had committed.
        commits: usize,
        /// Steps after which some CAS had failed its compare.
        compare_failures: usize,
        stuck_states: usize,
    }

    fn kind(tr: &FlatTransition) -> &'static str {
        match tr {
            FlatTransition::FetchBranch { .. } => "FetchBranch",
            FlatTransition::Satisfy { .. } => "Satisfy",
            FlatTransition::Propagate { .. } => "Propagate",
            FlatTransition::FailStx { .. } => "FailStx",
            FlatTransition::BindRmw { .. } => "BindRmw",
            FlatTransition::PropagateRmw { .. } => "PropagateRmw",
        }
    }

    /// Pending branches of `before` whose guess `after` flipped.
    fn squashes(before: &FlatThread, after: &FlatThread) -> usize {
        let flipped = |(a, b): &(&Instance, &Instance)| match (&a.op, &b.op) {
            (InstOp::Branch { guess: g, .. }, InstOp::Branch { guess: h, .. }) => {
                a.state == InstState::Pending && g != h
            }
            _ => false,
        };
        before
            .instances
            .iter()
            .zip(&after.instances)
            .filter(flipped)
            .count()
    }

    /// Whether some thread has more instances satisfying `p` in `after`
    /// than in `before`.
    fn gained(before: &FlatMachine, after: &FlatMachine, p: fn(&Instance) -> bool) -> bool {
        let count = |t: &FlatThread| t.instances.iter().filter(|i| p(i)).count();
        before
            .threads
            .iter()
            .zip(&after.threads)
            .any(|(a, b)| count(b) > count(a))
    }

    /// Breadth-first search over the whole Flat state graph of `src`
    /// (every enabled transition, no reduction), with `Config::por` on
    /// and off. At every state, for every enabled transition:
    ///
    /// * applying it to a clone leaves the parent's `state_key` and
    ///   `fingerprint` unchanged — the copy-on-write threads are never
    ///   written through a shared `Arc`;
    /// * draining *every* thread of the successor leaves its
    ///   `state_key` unchanged — draining only the acting thread after a
    ///   step already reached the all-thread fixpoint.
    fn walk(src: &str, config: Config) -> Seen {
        let (program, _) = parse_program(src).expect("test program parses");
        let program = Arc::new(program);
        let mut seen = Seen::default();
        for por in [true, false] {
            let root = FlatMachine::new(Arc::clone(&program), config.clone().with_por(por));
            let mut visited: HashSet<FlatStateKey> = HashSet::from([root.state_key()]);
            let mut queue = VecDeque::from([root]);
            while let Some(s) = queue.pop_front() {
                seen.stuck_states += s.any_stuck() as usize;
                let (key, fp) = (s.state_key(), s.fingerprint());
                for tr in s.enabled() {
                    let mut next = s.clone();
                    next.apply(&tr);
                    assert_eq!(s.state_key(), key, "applying {tr} changed its parent");
                    assert_eq!(s.fingerprint(), fp, "applying {tr} changed its parent");
                    let next_key = next.state_key();
                    let mut drained = next.clone();
                    drained.drain();
                    assert_eq!(
                        drained.state_key(),
                        next_key,
                        "a thread was off its drain fixpoint after {tr}"
                    );
                    *seen.kinds.entry(kind(&tr)).or_default() += 1;
                    seen.squashes += (s.threads.iter().zip(&next.threads))
                        .map(|(a, b)| squashes(a, b))
                        .sum::<usize>();
                    seen.commits += gained(&s, &next, |i| i.state == InstState::Committed) as usize;
                    seen.compare_failures += gained(&s, &next, |i| {
                        matches!(i.state, InstState::RmwDone { wrote: None, .. })
                    }) as usize;
                    if visited.insert(next_key) {
                        queue.push_back(next);
                    }
                }
            }
        }
        seen
    }

    #[test]
    fn speculation_and_squash_keep_parents_and_drain_fixpoints() {
        // PPOCA: a store, a forwarded load and an address-dependent load
        // fetched past an unresolved branch, squashed when the guess
        // was wrong.
        let ppoca = walk(
            "store(x, 1)\ndmb.sy\nstore(y, 1)\n---\n\
             r0 = load(y)\n\
             if (r0 == 1) { store(z, 1)\nr1 = load(z)\nr2 = load(x + (r1 - r1)) }\n\
             r3 = r0 + 1",
            Config::arm(),
        );
        // MP+ctrl, with work on both arms of the branch.
        let mp_ctrl = walk(
            "store(x, 1)\nstore(y, 1)\n---\n\
             r1 = load(y)\n\
             if (r1 == 0) { r4 = 1 } else { r5 = r1 + 1 }\n\
             r2 = load(x)",
            Config::arm(),
        );
        for seen in [ppoca, mp_ctrl] {
            assert!(seen.kinds["FetchBranch"] > 0 && seen.squashes > 0);
        }
    }

    #[test]
    fn fences_and_isb_keep_parents_and_drain_fixpoints() {
        let seen = walk(
            "store(x, 1)\ndmb.st\nstore(y, 1)\n---\n\
             r1 = load(y)\n\
             if (r1 == 1) { isb }\n\
             r2 = load(x)\n\
             dmb.ld\n\
             fence(rw, w)\n\
             store(z, r2)",
            Config::arm(),
        );
        assert!(seen.commits > 0 && seen.squashes > 0);
    }

    #[test]
    fn exclusives_keep_parents_and_drain_fixpoints() {
        let seen = walk(
            "r1 = loadx(x)\nr2 = storex(x, r1 + 1)\nr5 = r2 + 1\n---\n\
             r3 = loadx_acq(x)\nr4 = storex_rel(x, r3 + 2)\n---\n\
             store(x, 7)",
            Config::arm(),
        );
        assert!(seen.kinds["FailStx"] > 0 && seen.kinds["Propagate"] > 0);
    }

    #[test]
    fn rmws_keep_parents_and_drain_fixpoints() {
        // Two CASes race for x, so one compare fails; a fetch-add's
        // operand and two assignments depend on the old values read.
        for config in [Config::arm(), Config::riscv()] {
            let seen = walk(
                "r1 = cas_acq(x, 0, 1)\nr2 = amo_add(y, r1 + 1)\nr5 = r2 + 1\n---\n\
                 r3 = cas(x, 0, 2)\nr4 = amo_swap_rel(x, 5)\nr6 = r3 + r4",
                config,
            );
            assert!(seen.kinds["BindRmw"] > 0 && seen.kinds["PropagateRmw"] > 0);
            assert!(seen.compare_failures > 0);
        }
    }

    #[test]
    fn exhausted_loops_keep_parents_and_drain_fixpoints() {
        // The loop count is the value read, so reading 5 exhausts the
        // fuel on a resolved path. (The count must not be re-read from
        // memory: with POR off such a spin loop has an infinite graph.)
        let seen = walk(
            "r1 = load(x)\nwhile (r1 != 0) { r1 = r1 - 1 }\nr2 = r1 + 1\n---\n\
             store(x, 1)\nstore(x, 5)",
            Config::arm().with_loop_fuel(2),
        );
        assert!(seen.kinds["FetchBranch"] > 0 && seen.squashes > 0 && seen.stuck_states > 0);
    }
}
