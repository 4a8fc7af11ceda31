//! The machine: thread pool × memory, and the operational rules of Fig. 5.
//!
//! Transitions come in three layers, mirroring the paper:
//!
//! * *thread-local steps* (`read`, `fulfil`, `exclusive-failure`, `fence`,
//!   `isb`, `register`, `branch`, `while`, …) — [`Machine::thread_steps`] /
//!   [`Machine::apply`];
//! * *thread steps* add `promise`;
//! * *machine steps* are thread steps filtered by certification (r24) —
//!   [`Machine::machine_steps`], using [`crate::certify::find_and_certify`].
//!
//! Deterministic statements (assignments, branches, fences, `isb`,
//! non-shared accesses) are exposed as a single [`TransitionKind::Internal`]
//! step; the nondeterministic choices are the read timestamp of a load,
//! which promise a store fulfils (or a fresh normal write), the failure of
//! a store exclusive, and promises themselves.

use crate::config::{Arch, Config};
use crate::expr::Expr;
use crate::fingerprint::{Fingerprint, FpHasher};
use crate::ids::{Loc, Reg, TId, Timestamp, Val, View};
use crate::memory::{Memory, Msg};
use crate::stmt::{
    LocSet, MayAccess, Program, ReadKind, RmwOp, Stmt, StmtId, ThreadCode, WriteKind,
};
use crate::thread::{ExclBank, Forward, LocEntries, RegEntry, Scalars, StuckReason, ThreadState};
use std::collections::BTreeMap;
use std::fmt;
use std::ops::Deref;
use std::sync::Arc;

/// A continuation: the stack of statement ids still to run (next on top).
///
/// The stack is behind an [`Arc`] with copy-on-write mutation, so
/// cloning a thread — which the engines do once per transition — is a
/// reference-count bump, and only the acting thread's stack is copied.
/// The thread-local searches step one owned thread in place and undo on
/// backtrack, so their stack is copied once per query. Reads go through
/// [`Deref`] to `[StmtId]`.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub struct Cont(Arc<Vec<StmtId>>);

impl Cont {
    /// A continuation from the given stack (next statement last).
    pub fn new(stack: Vec<StmtId>) -> Cont {
        Cont(Arc::new(stack))
    }

    /// Push a statement on top. Copy-on-write.
    pub fn push(&mut self, s: StmtId) {
        Arc::make_mut(&mut self.0).push(s);
    }

    /// Pop the top statement. Copy-on-write.
    pub fn pop(&mut self) -> Option<StmtId> {
        Arc::make_mut(&mut self.0).pop()
    }

    fn truncate(&mut self, len: usize) {
        Arc::make_mut(&mut self.0).truncate(len);
    }
}

/// How many statements a step may pop from below the part of the
/// continuation it leaves untouched before its undo record falls back
/// to keeping the whole previous stack. A step pops its own statement
/// and at most one enclosing `Seq`, unless `skip`s sit in between.
const CONT_UNDO_CAP: usize = 3;

/// What a step did to a continuation, enough to put it back.
#[derive(Debug)]
enum ContUndo {
    /// The step left `cont[..floor]` untouched and popped `popped[..n]`
    /// from above it, in pop order; everything above `floor` now was
    /// pushed by the step.
    Popped {
        floor: u32,
        n: u8,
        popped: [StmtId; CONT_UNDO_CAP],
    },
    /// The whole previous stack, for a step that popped more.
    Whole(Cont),
}

impl ContUndo {
    fn new(cont: &Cont) -> ContUndo {
        ContUndo::Popped {
            floor: cont.len() as u32,
            n: 0,
            popped: [StmtId(0); CONT_UNDO_CAP],
        }
    }

    /// Pop `cont`, remembering a statement popped from below the floor.
    fn pop(&mut self, cont: &mut Cont) -> Option<StmtId> {
        let len = cont.len();
        let s = cont.pop()?;
        if let ContUndo::Popped { floor, n, popped } = self {
            if len == *floor as usize {
                if usize::from(*n) < CONT_UNDO_CAP {
                    popped[usize::from(*n)] = s;
                    *n += 1;
                    *floor -= 1;
                } else {
                    let mut prev = cont.to_vec();
                    prev.push(s);
                    prev.extend(popped.iter().rev());
                    *self = ContUndo::Whole(Cont::new(prev));
                }
            }
        }
        Some(s)
    }

    fn restore(self, cont: &mut Cont) {
        match self {
            ContUndo::Popped { floor, n, popped } => {
                if n == 0 && cont.len() == floor as usize {
                    return;
                }
                cont.truncate(floor as usize);
                for &s in popped[..usize::from(n)].iter().rev() {
                    cont.push(s);
                }
            }
            ContUndo::Whole(prev) => *cont = prev,
        }
    }
}

impl Deref for Cont {
    type Target = [StmtId];

    fn deref(&self) -> &[StmtId] {
        &self.0
    }
}

/// A thread of the pool: its continuation (a stack of statement ids; the
/// next statement is the last element) and its state (`Thread ≝ St × TState`).
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub struct ThreadInstance {
    /// Remaining code, as a stack of arena ids (next on top).
    pub cont: Cont,
    /// The thread state.
    pub state: ThreadState,
}

impl ThreadInstance {
    fn new(code: &ThreadCode, fuel: u32) -> ThreadInstance {
        let mut cont = Cont::new(vec![code.entry()]);
        let mut undo = ContUndo::new(&cont);
        normalize(code, &mut cont, &mut undo);
        ThreadInstance {
            cont,
            state: ThreadState::new(fuel),
        }
    }

    /// Whether the thread has run its whole program (promises may remain).
    pub fn is_done(&self) -> bool {
        self.cont.is_empty()
    }

    /// Fold the thread (continuation + state) into a state fingerprint.
    pub fn feed(&self, h: &mut FpHasher) {
        h.write_len(self.cont.len());
        for s in self.cont.iter() {
            h.write_u32(s.0);
        }
        self.state.feed(h);
    }
}

/// One nondeterministic choice a thread can take.
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub enum TransitionKind {
    /// Run the next deterministic statement (assignment, fence, `isb`,
    /// branch, loop test, or an access to a non-shared location).
    Internal,
    /// The next load reads from timestamp `t` (the `read` rule).
    Read {
        /// Timestamp read from.
        t: Timestamp,
    },
    /// The next store fulfils the outstanding promise at `t` (the `fulfil`
    /// rule).
    Fulfil {
        /// Promise being fulfilled.
        t: Timestamp,
    },
    /// The next store executes as a *normal write*: a promise at the end of
    /// memory immediately followed by its fulfilment (r20).
    WriteNormal,
    /// The next store exclusive fails (the `exclusive-failure` rule).
    ExclFail,
    /// The next single-instruction RMW reads from `tr` and atomically
    /// writes: fulfilling the outstanding promise `tw`, or (`tw = None`)
    /// as a *normal write* at the end of memory (r20). The read and the
    /// write happen in one transition; `atomic(M, l, tid, tr, tw)` must
    /// hold, exactly as for a paired exclusive. A CAS observing a
    /// non-expected value takes a [`TransitionKind::Read`] instead (the
    /// read half alone, no write).
    Rmw {
        /// Timestamp the read half reads from.
        tr: Timestamp,
        /// Promise fulfilled by the write half (`None`: fresh normal
        /// write at the end of memory).
        tw: Option<Timestamp>,
    },
    /// Promise the write `msg`, appending it to memory (the `promise` rule).
    Promise {
        /// The promised message.
        msg: Msg,
    },
}

impl TransitionKind {
    /// Whether applying this transition appends a *fresh* write to memory
    /// (a store or RMW executing as a normal write, r20) — as opposed to
    /// fulfilling an existing promise. The promise-first phase-2 searches
    /// skip exactly these.
    pub fn appends_write(&self) -> bool {
        matches!(
            self,
            TransitionKind::WriteNormal | TransitionKind::Rmw { tw: None, .. }
        )
    }
}

/// A transition: a thread plus its choice.
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct Transition {
    /// Acting thread.
    pub tid: TId,
    /// The choice taken.
    pub kind: TransitionKind,
}

impl Transition {
    /// Convenience constructor.
    pub fn new(tid: TId, kind: TransitionKind) -> Transition {
        Transition { tid, kind }
    }
}

/// What a successfully applied transition did (for traces and debugging).
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum StepEvent {
    /// Register assignment `r := v`.
    Assigned(Reg, Val),
    /// A branch (or loop test) evaluated, taking the given direction.
    Branched(bool),
    /// A fence executed.
    Fenced,
    /// An `isb` executed.
    Isb,
    /// A non-shared-location load observed the given value.
    LocalRead(Loc, Val),
    /// A non-shared-location store.
    LocalWrite(Loc, Val),
    /// A (shared) load read `loc = val` from timestamp `t`.
    DidRead {
        /// Location read.
        loc: Loc,
        /// Value obtained.
        val: Val,
        /// Timestamp read from.
        t: Timestamp,
    },
    /// A store fulfilled (or normally wrote) `loc = val` at `t`.
    DidWrite {
        /// Location written.
        loc: Loc,
        /// Value written.
        val: Val,
        /// Timestamp of the write.
        t: Timestamp,
        /// The store's pre-view (used by §B's promise qualification).
        pre_view: View,
    },
    /// A store exclusive failed.
    ExclFailed,
    /// A single-instruction RMW read `old` from `tr` and atomically wrote
    /// `new` at `tw`. `pre_view` is the write's pre-view *joined with the
    /// read's post-view* — i.e. the §B promise-qualification bound
    /// `νpre ⊔ coh-before-the-write` minus the pre-transition coherence
    /// view, which certification joins back in.
    DidRmw {
        /// Location updated.
        loc: Loc,
        /// Value the read half obtained.
        old: Val,
        /// Value the write half wrote.
        new: Val,
        /// Timestamp read from.
        tr: Timestamp,
        /// Timestamp written at.
        tw: Timestamp,
        /// Write pre-view ⊔ read post-view (see above).
        pre_view: View,
    },
    /// A promise was made at timestamp `t`.
    Promised(Msg, Timestamp),
    /// The loop bound was exhausted; the thread is stuck.
    LoopBoundHit,
}

/// Errors from applying a transition that is not enabled.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum StepError {
    /// The thread has no code left.
    ThreadDone,
    /// The thread is stuck (loop bound exhausted).
    ThreadStuck,
    /// The transition kind does not match the thread's next statement.
    WrongShape,
    /// The read timestamp is not a write to the load's location.
    NoSuchWrite,
    /// The read would violate the no-newer-seen-write condition (r2/r12).
    ReadSuperseded,
    /// The fulfilled timestamp is not an outstanding promise of the thread,
    /// or its message does not match the store.
    NotAPromise,
    /// The store's pre-view/coherence constraint `νpre ⊔ coh(l) < t` fails.
    TooLate,
    /// A store exclusive is not atomic with its paired load exclusive, or
    /// is unpaired.
    NotAtomic,
    /// A promise names a different thread.
    ForeignPromise,
    /// The transition is a thread step but not a machine step: its
    /// post-state is not certified (r24), or it is a promise
    /// certification cannot justify. [`Machine::apply`] never returns
    /// this; checked stepping such as the explorer's `Session` does.
    NotCertified,
}

impl fmt::Display for StepError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let msg = match self {
            StepError::ThreadDone => "thread has terminated",
            StepError::ThreadStuck => "thread is stuck (loop bound exhausted)",
            StepError::WrongShape => "transition does not match the next statement",
            StepError::NoSuchWrite => "timestamp is not a write to the load's location",
            StepError::ReadSuperseded => "read would violate the view/coherence constraint",
            StepError::NotAPromise => "timestamp is not a matching outstanding promise",
            StepError::TooLate => "store pre-view/coherence is not below the timestamp",
            StepError::NotAtomic => "store exclusive is unpaired or not atomic",
            StepError::ForeignPromise => "promise names a different thread",
            StepError::NotCertified => "step is not certified (not a machine step)",
        };
        f.write_str(msg)
    }
}

impl std::error::Error for StepError {}

/// The machine state `⟨T⃗, M⟩` (Fig. 2): a thread pool and a memory.
///
/// All slow-changing structure (configuration, program, continuation
/// stacks, thread-state maps, memory) is structurally shared behind
/// [`Arc`]s, so `Machine::clone` — the per-transition cost of every
/// exploration strategy — is O(threads) reference-count bumps, and
/// [`Machine::apply`] copies only the pieces the step actually mutates.
#[derive(Clone, Debug)]
pub struct Machine {
    config: Arc<Config>,
    program: Arc<Program>,
    threads: Vec<ThreadInstance>,
    memory: Memory,
}

impl Machine {
    /// Initial machine for `program` (all locations initially 0).
    pub fn new(program: Arc<Program>, config: Config) -> Machine {
        Machine::with_init(program, config, BTreeMap::new())
    }

    /// Initial machine with explicit initial values (litmus init section).
    pub fn with_init(program: Arc<Program>, config: Config, init: BTreeMap<Loc, Val>) -> Machine {
        let threads = program
            .threads()
            .iter()
            .map(|code| ThreadInstance::new(code, config.loop_fuel))
            .collect();
        Machine {
            config: Arc::new(config),
            program,
            threads,
            memory: Memory::with_init(init),
        }
    }

    /// The configuration.
    pub fn config(&self) -> &Config {
        self.config.as_ref()
    }

    /// The program under execution.
    pub fn program(&self) -> &Arc<Program> {
        &self.program
    }

    /// The memory.
    pub fn memory(&self) -> &Memory {
        &self.memory
    }

    /// The threads, in thread-id order.
    pub fn threads(&self) -> &[ThreadInstance] {
        &self.threads
    }

    /// A single thread.
    ///
    /// # Panics
    ///
    /// Panics if `tid` is out of range.
    pub fn thread(&self, tid: TId) -> &ThreadInstance {
        &self.threads[tid.0]
    }

    /// Number of threads.
    pub fn num_threads(&self) -> usize {
        self.threads.len()
    }

    /// The next statement of a thread, if any.
    pub fn head(&self, tid: TId) -> Option<(StmtId, &Stmt)> {
        let t = &self.threads[tid.0];
        let id = *t.cont.last()?;
        Some((id, self.program.threads()[tid.0].stmt(id)))
    }

    /// Whether every thread has terminated with an empty promise set:
    /// a *valid* final state (§D).
    pub fn terminated(&self) -> bool {
        self.threads
            .iter()
            .all(|t| t.is_done() && !t.state.has_promises() && t.state.stuck.is_none())
    }

    /// Whether some thread hit the loop bound (the trace is incomplete and
    /// must not contribute an outcome).
    pub fn any_stuck(&self) -> bool {
        self.threads.iter().any(|t| t.state.stuck.is_some())
    }

    /// The raw *thread-local* steps currently enabled for `tid` (no
    /// promises, no certification filtering).
    pub fn thread_steps(&self, tid: TId) -> Vec<TransitionKind> {
        let code = &self.program.threads()[tid.0];
        let mut out = Vec::new();
        enabled_steps(
            &self.config,
            code,
            tid,
            &self.threads[tid.0],
            &self.memory,
            &mut out,
        );
        out
    }

    /// Whether `tid`'s only enabled thread-local step is the
    /// deterministic [`TransitionKind::Internal`] — equivalent to
    /// `thread_steps(tid) == [Internal]` but without enumerating read
    /// candidates or allocating. The explorers use this to drain
    /// deterministic steps eagerly.
    pub fn internal_only(&self, tid: TId) -> bool {
        let thread = &self.threads[tid.0];
        if thread.state.stuck.is_some() {
            return false;
        }
        let Some(&top) = thread.cont.last() else {
            return false;
        };
        match self.program.threads()[tid.0].stmt(top) {
            Stmt::Skip | Stmt::Seq(..) => unreachable!("continuation is normalized"),
            Stmt::Assign { .. }
            | Stmt::Fence(_)
            | Stmt::Isb
            | Stmt::If { .. }
            | Stmt::While { .. } => true,
            Stmt::Load { addr, .. } | Stmt::Store { addr, .. } | Stmt::Rmw { addr, .. } => {
                let (loc, _) = eval_addr(addr, &thread.state);
                !self.config.shared.is_shared(loc)
            }
        }
    }

    /// Apply a transition, returning what happened.
    ///
    /// # Errors
    ///
    /// Returns a [`StepError`] (leaving the machine unchanged) if the
    /// transition is not enabled in the current state.
    pub fn apply(&mut self, tr: &Transition) -> Result<StepEvent, StepError> {
        let code = Arc::clone(&self.program);
        let code = &code.threads()[tr.tid.0];
        apply_step(
            &self.config,
            code,
            tr.tid,
            &tr.kind,
            &mut self.threads[tr.tid.0],
            &mut self.memory,
        )
        .map(|(event, _)| event)
    }

    /// The *machine steps* of Fig. 5: thread steps filtered so that the
    /// post-state is certified (r24), plus certified promises (via
    /// `find_and_certify`, Thm 6.4).
    ///
    /// Threads with an empty promise set are trivially certified after any
    /// non-promise step, so only promising threads pay for certification.
    pub fn machine_steps(&self) -> Vec<Transition> {
        let mut out = Vec::new();
        for tid in (0..self.threads.len()).map(TId) {
            let cert = crate::certify::find_and_certify(self, tid);
            if self.threads[tid.0].state.has_promises() {
                for k in cert.certified_first_steps {
                    out.push(Transition::new(tid, k));
                }
            } else {
                for k in self.thread_steps(tid) {
                    out.push(Transition::new(tid, k));
                }
            }
            for msg in cert.promisable {
                out.push(Transition::new(tid, TransitionKind::Promise { msg }));
            }
        }
        out
    }

    /// Whether thread `tid`'s *remaining* code can never write a shared
    /// location (checked against the precomputed per-statement
    /// [`MayAccess`] may-write sets of its continuation). Such a
    /// thread is a *pure observer*: every step it will ever take is
    /// thread-local or a read — it can never append to memory, promise,
    /// or influence any other thread. The partial-order reduction
    /// collapses the interleavings of co-enabled pure observers.
    pub fn thread_is_pure_observer(&self, tid: TId) -> bool {
        let code = &self.program.threads()[tid.0];
        self.threads[tid.0]
            .cont
            .iter()
            .all(|&id| !code.may_write(id).any_shared(&self.config.shared))
    }

    /// The union of the may-read sets of thread `tid`'s remaining
    /// continuation: every location any future step of the thread could
    /// possibly read.
    pub fn thread_may_reads(&self, tid: TId) -> MayAccess {
        let code = &self.program.threads()[tid.0];
        let mut acc = MayAccess::none();
        for &id in self.threads[tid.0].cont.iter() {
            acc.absorb(code.may_read(id));
            if acc == MayAccess::Any {
                break;
            }
        }
        acc
    }

    /// The union of the may-write sets of thread `tid`'s remaining
    /// continuation.
    pub fn thread_may_writes(&self, tid: TId) -> MayAccess {
        let code = &self.program.threads()[tid.0];
        let mut acc = MayAccess::none();
        for &id in self.threads[tid.0].cont.iter() {
            acc.absorb(code.may_write(id));
            if acc == MayAccess::Any {
                break;
            }
        }
        acc
    }

    /// The *certification scope* of thread `tid`: the set of locations a
    /// certification run of the thread could ever touch — the union of
    /// [`Machine::thread_may_reads`] and [`Machine::thread_may_writes`]
    /// (certification reads at may-read locations, appends and checks
    /// interposition at may-write ones). `None` when any remaining
    /// access has a dynamic address ([`MayAccess::Any`]): the scope is
    /// unknown, and certification memo keys cover the whole memory.
    pub fn thread_cert_scope(&self, tid: TId) -> Option<LocSet> {
        let mut scope = self.thread_may_reads(tid);
        scope.absorb(&self.thread_may_writes(tid));
        match scope {
            MayAccess::Any => None,
            MayAccess::Locs(locs) => Some(locs),
        }
    }

    /// The exact dynamic state (continuations, thread states, memory) as
    /// a hashable key. Used by the *paranoid* dedup mode
    /// ([`crate::config::Config::paranoid`]) to detect fingerprint
    /// collisions; the normal mode stores only [`Machine::fingerprint`].
    /// Cheap: the clones are structural shares.
    pub fn state_key(&self) -> StateKey {
        StateKey {
            threads: self.threads.clone(),
            memory: self.memory.clone(),
        }
    }

    /// A 128-bit fingerprint of the dynamic state, for visited-set
    /// deduplication. Two machines running the same program under the
    /// same configuration are behaviourally identical whenever their
    /// fingerprinted components agree; collisions across *different*
    /// states are possible but vanishingly rare (see
    /// [`crate::fingerprint`]).
    pub fn fingerprint(&self) -> Fingerprint {
        let mut h = FpHasher::new();
        h.write_len(self.threads.len());
        for t in &self.threads {
            t.feed(&mut h);
        }
        self.memory.feed(&mut h);
        h.finish128()
    }
}

/// The dynamic part of a machine state (hashable, for visited-set dedup).
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub struct StateKey {
    /// Thread continuations and states.
    pub threads: Vec<ThreadInstance>,
    /// Memory contents.
    pub memory: Memory,
}

/// Drain administrative structure from the top of a continuation:
/// `Seq(a, b)` unfolds to `a` then `b`; `skip` is dropped.
fn normalize(code: &ThreadCode, cont: &mut Cont, undo: &mut ContUndo) {
    while let Some(&top) = cont.last() {
        match code.stmt(top) {
            Stmt::Seq(a, b) => {
                undo.pop(cont);
                cont.push(*b);
                cont.push(*a);
            }
            Stmt::Skip => {
                undo.pop(cont);
            }
            _ => break,
        }
    }
}

fn eval_addr(addr: &Expr, state: &ThreadState) -> (Loc, View) {
    let (v, view) = addr.eval(&state.regs);
    (Loc::from(v), view)
}

/// The pre-view of a load (r10, r6, ρ4):
/// `νpre = νaddr ⊔ vrNew ⊔ (rk ⊒ acq ? vRel)`.
fn load_pre_view(state: &ThreadState, rk: ReadKind, v_addr: View) -> View {
    v_addr
        .join(state.vr_new)
        .join(View::when(rk >= ReadKind::Acquire, state.v_rel))
}

/// The pre-view of a store (r10, r6, r23, ρ1, ρ14):
/// `νpre = νaddr ⊔ νdata ⊔ vwNew ⊔ vCAP ⊔ (wk ⊒ wrel ? vrOld ⊔ vwOld)
///        ⊔ ((a = RISC-V ∧ xcl) ? xclb.view)`.
fn store_pre_view(
    arch: Arch,
    s: &Scalars,
    wk: WriteKind,
    exclusive: bool,
    v_addr: View,
    v_data: View,
) -> View {
    let xclb_view = match (arch, exclusive, &s.xclb) {
        (Arch::RiscV, true, Some(x)) => x.view,
        _ => View::ZERO,
    };
    v_addr
        .join(v_data)
        .join(s.vw_new)
        .join(s.v_cap)
        .join(View::when(
            wk >= WriteKind::WeakRelease,
            s.vr_old.join(s.vw_old),
        ))
        .join(xclb_view)
}

/// The data view of an RMW's write half, as in its canonical desugaring:
/// the fetch-ops read the old value, swap and CAS write the operand alone.
fn rmw_data_view(op: RmwOp, v_op: View, v_old: View) -> View {
    match op {
        RmwOp::Cas | RmwOp::Swp => v_op,
        _ => v_op.join(v_old),
    }
}

/// Timestamps a load of `loc` may read from (the `read` rule's side
/// conditions): the latest same-location write at or below
/// `νpre ⊔ coh(loc)`, and every same-location write above that bound.
fn read_candidates<'m>(
    state: &ThreadState,
    memory: &'m Memory,
    loc: Loc,
    v_pre: View,
) -> impl Iterator<Item = Timestamp> + 'm {
    let bound = v_pre.join(state.coh(loc));
    let tmin = memory.latest_write_at_most(loc, bound.timestamp());
    std::iter::once(tmin).chain(memory.writes_to(loc).filter(move |t| t.0 > bound.0))
}

impl Scalars {
    /// The `read` rule's update of the scalar views and the exclusives
    /// bank, for a load of kind `rk` reading `t` with post-view `v_post`.
    fn absorb_read(
        &mut self,
        rk: ReadKind,
        exclusive: bool,
        v_addr: View,
        v_post: View,
        t: Timestamp,
    ) {
        self.vr_old = self.vr_old.join(v_post);
        if rk >= ReadKind::WeakAcquire {
            self.vr_new = self.vr_new.join(v_post);
            self.vw_new = self.vw_new.join(v_post);
        }
        self.v_cap = self.v_cap.join(v_addr);
        if exclusive {
            self.xclb = Some(ExclBank {
                time: t,
                view: v_post,
            });
        }
    }
}

/// The state update of the `read` rule (Fig. 5), shared by `Load` and the
/// read half of `Rmw`: validates the timestamp against the
/// no-newer-seen-write condition (r2/r12) *before* mutating, then writes
/// the register, bumps coherence and the scalar views, and (for
/// exclusives) charges the exclusives bank. Returns the value read and
/// the read's post-view.
#[allow(clippy::too_many_arguments)]
fn apply_read_effects(
    config: &Config,
    memory: &Memory,
    st: &mut ThreadState,
    reg: Reg,
    rk: ReadKind,
    exclusive: bool,
    loc: Loc,
    v_addr: View,
    t: Timestamp,
) -> Result<(Val, View), StepError> {
    let Some(val) = memory.read(loc, t) else {
        return Err(StepError::NoSuchWrite);
    };
    let v_pre = load_pre_view(st, rk, v_addr);
    // ∀t'. t < t' ≤ (νpre ⊔ coh(l)) ⇒ M(t').loc ≠ l
    let bound = v_pre.join(st.coh(loc));
    if memory.has_write_between(loc, t, bound.timestamp()) {
        return Err(StepError::ReadSuperseded);
    }
    let v_post = v_pre.join(st.read_view(config.arch, rk, loc, t));
    st.regs.set(reg, val, v_post);
    st.bump_coh(loc, v_post);
    let mut s = st.scalars();
    s.absorb_read(rk, exclusive, v_addr, v_post, t);
    st.set_scalars(s);
    Ok((val, v_post))
}

/// The state update of the `fulfil` rule (Fig. 5) *after* the
/// promise-matching and atomicity checks, shared by `Store` and the write
/// half of `Rmw`: enforces the pre-view/coherence constraint (`TooLate`),
/// removes the promise, writes the success register (exclusives), bumps
/// coherence/`vwOld`/`vCAP`/`vRel`, refreshes the forward bank, and
/// clears the exclusives bank. Returns the write's pre-view.
#[allow(clippy::too_many_arguments)]
fn apply_write_effects(
    config: &Config,
    st: &mut ThreadState,
    succ: Reg,
    wk: WriteKind,
    exclusive: bool,
    loc: Loc,
    v_addr: View,
    v_data: View,
    t: Timestamp,
) -> Result<View, StepError> {
    let v_pre = store_pre_view(config.arch, &st.scalars(), wk, exclusive, v_addr, v_data);
    if v_pre.join(st.coh(loc)).timestamp() >= t {
        return Err(StepError::TooLate);
    }
    let v_post = t.view();
    st.prom.remove(&t);
    if exclusive {
        let v_succ = match config.arch {
            Arch::RiscV => v_post,
            Arch::Arm => View::ZERO,
        };
        st.regs.set(succ, Val::SUCCESS, v_succ);
    }
    st.bump_coh(loc, v_post);
    st.vw_old = st.vw_old.join(v_post);
    st.v_cap = st.v_cap.join(v_addr);
    if wk >= WriteKind::Release {
        st.v_rel = st.v_rel.join(v_post);
    }
    st.set_fwd(
        loc,
        Forward {
            time: t,
            view: v_addr.join(v_data),
            exclusive,
        },
    );
    if exclusive {
        st.xclb = None;
    }
    Ok(v_pre)
}

/// Classify and enumerate the enabled thread-local steps of one thread
/// against a memory, outside a full machine, into `out` (cleared
/// first). Exploration engines use this to run threads in isolation
/// (certification, promise-first phase 2), reusing one buffer per depth.
pub fn enabled_steps(
    config: &Config,
    code: &ThreadCode,
    tid: TId,
    thread: &ThreadInstance,
    memory: &Memory,
    out: &mut Vec<TransitionKind>,
) {
    out.clear();
    if thread.state.stuck.is_some() {
        return;
    }
    let Some(&top) = thread.cont.last() else {
        return;
    };
    let state = &thread.state;
    match code.stmt(top) {
        Stmt::Skip | Stmt::Seq(..) => unreachable!("continuation is normalized"),
        Stmt::Assign { .. } | Stmt::Fence(_) | Stmt::Isb | Stmt::If { .. } | Stmt::While { .. } => {
            out.push(TransitionKind::Internal);
        }
        Stmt::Load { addr, kind, .. } => {
            let (loc, v_addr) = eval_addr(addr, state);
            if !config.shared.is_shared(loc) {
                out.push(TransitionKind::Internal);
                return;
            }
            let v_pre = load_pre_view(state, *kind, v_addr);
            out.extend(
                read_candidates(state, memory, loc, v_pre).map(|t| TransitionKind::Read { t }),
            );
        }
        Stmt::Store {
            addr,
            data,
            kind,
            exclusive,
            ..
        } => {
            let (loc, v_addr) = eval_addr(addr, state);
            if !config.shared.is_shared(loc) {
                out.push(TransitionKind::Internal);
                return;
            }
            let (val, v_data) = data.eval(&state.regs);
            let v_pre = store_pre_view(
                config.arch,
                &state.scalars(),
                *kind,
                *exclusive,
                v_addr,
                v_data,
            );
            let floor = v_pre.join(state.coh(loc));
            // Fulfil an outstanding promise with a matching message.
            for &t in &state.prom {
                if floor.timestamp() >= t {
                    continue;
                }
                let matches = memory.get(t).is_some_and(|m| m.loc == loc && m.val == val);
                if !matches {
                    continue;
                }
                if *exclusive {
                    match &state.xclb {
                        Some(x) if memory.atomic(loc, tid, x.time, t) => {}
                        _ => continue,
                    }
                }
                out.push(TransitionKind::Fulfil { t });
            }
            // Normal write at the end of memory (always beats the views).
            let fresh = Timestamp(memory.max_timestamp().0 + 1);
            let normal_ok = if *exclusive {
                match &state.xclb {
                    Some(x) => memory.atomic(loc, tid, x.time, fresh),
                    None => false,
                }
            } else {
                true
            };
            debug_assert!(floor.timestamp() < fresh);
            if normal_ok {
                out.push(TransitionKind::WriteNormal);
            }
            if *exclusive {
                out.push(TransitionKind::ExclFail);
            }
        }
        Stmt::Rmw {
            op,
            dst,
            addr,
            expected,
            operand,
            rk,
            wk,
            ..
        } => {
            let (loc, v_addr) = eval_addr(addr, state);
            if !config.shared.is_shared(loc) {
                out.push(TransitionKind::Internal);
                return;
            }
            let v_pre = load_pre_view(state, *rk, v_addr);
            for tr in read_candidates(state, memory, loc, v_pre) {
                let old = memory.read(loc, tr).expect("candidate reads back");
                // the read half's effect on what the compare, the data
                // and the write placement read: `dst`, the scalar views
                // and `coh(loc)`, computed on copies
                let v_old = v_pre.join(state.read_view(config.arch, *rk, loc, tr));
                let mut after = state.scalars();
                after.absorb_read(*rk, true, v_addr, v_old, tr);
                if let Some(exp) = expected {
                    let (ev, v_exp) = exp.eval_with(&state.regs, *dst, (old, v_old));
                    after.v_cap = after.v_cap.join(v_old).join(v_exp);
                    if old != ev {
                        // compare failure: the read half alone
                        out.push(TransitionKind::Read { t: tr });
                        continue;
                    }
                }
                let (opv, v_op) = operand.eval_with(&state.regs, *dst, (old, v_old));
                let new = op.apply(old, opv);
                let v_data = rmw_data_view(*op, v_op, v_old);
                let floor = store_pre_view(config.arch, &after, *wk, true, v_addr, v_data)
                    .join(state.coh(loc))
                    .join(v_old);
                // fulfil an outstanding promise with a matching message
                for &t in &state.prom {
                    if floor.timestamp() >= t {
                        continue;
                    }
                    let matches = memory.get(t).is_some_and(|m| m.loc == loc && m.val == new);
                    if matches && memory.atomic(loc, tid, tr, t) {
                        out.push(TransitionKind::Rmw { tr, tw: Some(t) });
                    }
                }
                // normal write at the end of memory: permitted whenever no
                // other thread's write to `loc` interposes after `tr`
                let fresh = Timestamp(memory.max_timestamp().0 + 1);
                debug_assert!(floor.timestamp() < fresh);
                if memory.atomic(loc, tid, tr, fresh) {
                    out.push(TransitionKind::Rmw { tr, tw: None });
                }
            }
        }
    }
}

/// The undo record of one step: what [`apply_step`] overwrote, enough
/// for [`Undo::restore`] to put the thread and memory back exactly. It
/// is fixed-size, so a search that steps one owned thread and memory in
/// place and undoes on backtrack allocates nothing per step, unless a
/// step pops more than three statements off the continuation.
#[derive(Debug)]
pub struct Undo {
    scalars: Scalars,
    /// The registers the step may write, with their previous entries.
    regs: [Option<(Reg, RegEntry)>; 2],
    /// The location the step accesses, with the thread's entries there.
    loc: Option<(Loc, LocEntries)>,
    /// The outstanding promise the step may fulfil.
    fulfilled: Option<Timestamp>,
    cont: ContUndo,
    mem_len: usize,
    mem_digest: FpHasher,
}

impl Undo {
    /// Save what applying `kind` to `thread` and `memory` may overwrite.
    fn record(
        code: &ThreadCode,
        kind: &TransitionKind,
        thread: &ThreadInstance,
        memory: &Memory,
    ) -> Undo {
        let st = &thread.state;
        let head = match kind {
            TransitionKind::Promise { .. } => None,
            _ => thread.cont.last().map(|&top| code.stmt(top)),
        };
        let (written, addr) = match head {
            Some(Stmt::Assign { reg, .. }) => ([Some(*reg), None], None),
            Some(Stmt::Load { reg, addr, .. }) => ([Some(*reg), None], Some(addr)),
            Some(Stmt::Store { succ, addr, .. }) => ([Some(*succ), None], Some(addr)),
            Some(Stmt::Rmw {
                dst, succ, addr, ..
            }) => ([Some(*dst), Some(*succ)], Some(addr)),
            _ => ([None, None], None),
        };
        let fulfilled = match kind {
            TransitionKind::Fulfil { t } | TransitionKind::Rmw { tw: Some(t), .. } => {
                st.prom.contains(t).then_some(*t)
            }
            _ => None,
        };
        Undo {
            scalars: st.scalars(),
            regs: written.map(|r| r.map(|r| (r, st.regs.entry(r)))),
            loc: addr.map(|a| {
                let (l, _) = eval_addr(a, st);
                (l, st.loc_entries(l))
            }),
            fulfilled,
            cont: ContUndo::new(&thread.cont),
            mem_len: memory.len(),
            mem_digest: memory.digest(),
        }
    }

    /// Put `thread` and `memory` back as they were before the step this
    /// record was made for. Promises above the restored memory are
    /// dropped: the step made them. Nothing shared is copied unless the
    /// step changed it.
    pub fn restore(self, thread: &mut ThreadInstance, memory: &mut Memory) {
        memory.truncate(self.mem_len, self.mem_digest);
        let st = &mut thread.state;
        st.set_scalars(self.scalars);
        for (r, e) in self.regs.into_iter().flatten() {
            st.regs.restore(r, e);
        }
        if let Some((l, e)) = self.loc {
            st.restore_loc(l, e);
        }
        if let Some(t) = self.fulfilled {
            st.prom.insert(t);
        }
        while st.prom.last().is_some_and(|t| t.0 as usize > self.mem_len) {
            st.prom.pop_last();
        }
        self.cont.restore(&mut thread.cont);
    }
}

/// Apply one transition to a single thread (+ memory). This is the
/// authoritative implementation of Fig. 5's rules; [`Machine::apply`], the
/// certification engine, and the exploration engines all use it.
///
/// Returns what happened and the step's [`Undo`] record. The
/// thread-local searches step one thread and memory in place and undo on
/// backtrack; [`Machine::apply`] drops the record.
///
/// # Errors
///
/// Returns a [`StepError`] if the transition is not enabled, leaving the
/// thread and memory unchanged.
pub fn apply_step(
    config: &Config,
    code: &ThreadCode,
    tid: TId,
    kind: &TransitionKind,
    thread: &mut ThreadInstance,
    memory: &mut Memory,
) -> Result<(StepEvent, Undo), StepError> {
    let mut undo = Undo::record(code, kind, thread, memory);
    match step(config, code, tid, kind, thread, memory, &mut undo.cont) {
        Ok(event) => Ok((event, undo)),
        Err(e) => {
            undo.restore(thread, memory);
            Err(e)
        }
    }
}

/// The rules of Fig. 5, applied in place. May leave partial effects on
/// `Err`; [`apply_step`] undoes them.
fn step(
    config: &Config,
    code: &ThreadCode,
    tid: TId,
    kind: &TransitionKind,
    thread: &mut ThreadInstance,
    memory: &mut Memory,
    cont_undo: &mut ContUndo,
) -> Result<StepEvent, StepError> {
    if thread.state.stuck.is_some() {
        return Err(StepError::ThreadStuck);
    }
    if let TransitionKind::Promise { msg } = kind {
        // promise: append to memory, record the timestamp (r18).
        if msg.tid != tid {
            return Err(StepError::ForeignPromise);
        }
        let t = memory.push(*msg);
        thread.state.prom.insert(t);
        return Ok(StepEvent::Promised(*msg, t));
    }
    let Some(&top) = thread.cont.last() else {
        return Err(StepError::ThreadDone);
    };
    let event = match (code.stmt(top), kind) {
        (Stmt::Assign { reg, expr }, TransitionKind::Internal) => {
            let (v, view) = expr.eval(&thread.state.regs);
            thread.state.regs.set(*reg, v, view);
            cont_undo.pop(&mut thread.cont);
            StepEvent::Assigned(*reg, v)
        }
        (Stmt::Fence(f), TransitionKind::Internal) => {
            // fence rule: ν1 = (R ⊑ K1 ? vrOld) ⊔ (W ⊑ K1 ? vwOld);
            // vrNew ⊔= (R ⊑ K2 ? ν1); vwNew ⊔= (W ⊑ K2 ? ν1).
            let st = &mut thread.state;
            let v1 = View::when(f.pre.includes_reads(), st.vr_old)
                .join(View::when(f.pre.includes_writes(), st.vw_old));
            if f.post.includes_reads() {
                st.vr_new = st.vr_new.join(v1);
            }
            if f.post.includes_writes() {
                st.vw_new = st.vw_new.join(v1);
            }
            cont_undo.pop(&mut thread.cont);
            StepEvent::Fenced
        }
        (Stmt::Isb, TransitionKind::Internal) => {
            // isb rule: vrNew ⊔= vCAP (ρ7).
            thread.state.vr_new = thread.state.vr_new.join(thread.state.v_cap);
            cont_undo.pop(&mut thread.cont);
            StepEvent::Isb
        }
        (
            Stmt::If {
                cond,
                then_branch,
                else_branch,
            },
            TransitionKind::Internal,
        ) => {
            // branch rule: evaluate, merge the condition's view into vCAP
            // (r22), continue with the chosen branch.
            let (v, view) = cond.eval(&thread.state.regs);
            thread.state.v_cap = thread.state.v_cap.join(view);
            cont_undo.pop(&mut thread.cont);
            thread.cont.push(if v.as_bool() {
                *then_branch
            } else {
                *else_branch
            });
            StepEvent::Branched(v.as_bool())
        }
        (Stmt::While { cond, body }, TransitionKind::Internal) => {
            // while unfolds to a branch (Fig. 5): same vCAP update; taken
            // iterations consume loop fuel.
            let (v, view) = cond.eval(&thread.state.regs);
            thread.state.v_cap = thread.state.v_cap.join(view);
            if v.as_bool() {
                if thread.state.fuel == 0 {
                    thread.state.stuck = Some(StuckReason::LoopBoundExceeded);
                    return Ok(StepEvent::LoopBoundHit);
                }
                thread.state.fuel -= 1;
                // keep the While on the stack beneath the body
                thread.cont.push(*body);
                StepEvent::Branched(true)
            } else {
                cont_undo.pop(&mut thread.cont);
                StepEvent::Branched(false)
            }
        }
        (Stmt::Load { reg, addr, .. }, TransitionKind::Internal) => {
            // non-shared location: a register read (§7 optimisation).
            let (loc, v_addr) = eval_addr(addr, &thread.state);
            if config.shared.is_shared(loc) {
                return Err(StepError::WrongShape);
            }
            let (v, v_loc) = thread
                .state
                .local(loc)
                .unwrap_or((memory.initial(loc), View::ZERO));
            thread.state.regs.set(*reg, v, v_addr.join(v_loc));
            cont_undo.pop(&mut thread.cont);
            StepEvent::LocalRead(loc, v)
        }
        (
            Stmt::Store {
                succ, addr, data, ..
            },
            TransitionKind::Internal,
        ) => {
            // non-shared location: a register write (§7 optimisation).
            let (loc, v_addr) = eval_addr(addr, &thread.state);
            if config.shared.is_shared(loc) {
                return Err(StepError::WrongShape);
            }
            let (v, v_data) = data.eval(&thread.state.regs);
            thread.state.set_local(loc, v, v_addr.join(v_data));
            thread.state.regs.set(*succ, Val::SUCCESS, View::ZERO);
            cont_undo.pop(&mut thread.cont);
            StepEvent::LocalWrite(loc, v)
        }
        (
            Stmt::Rmw {
                op,
                dst,
                succ,
                addr,
                expected,
                operand,
                ..
            },
            TransitionKind::Internal,
        ) => {
            // non-shared location: a register read-modify-write (§7
            // optimisation); trivially atomic, so it always succeeds
            // except for a failed CAS compare.
            let (loc, v_addr) = eval_addr(addr, &thread.state);
            if config.shared.is_shared(loc) {
                return Err(StepError::WrongShape);
            }
            let st = &mut thread.state;
            let (old, v_loc) = st.local(loc).unwrap_or((memory.initial(loc), View::ZERO));
            let v_old = v_addr.join(v_loc);
            st.regs.set(*dst, old, v_old);
            let compare_failed = match expected {
                None => false,
                Some(exp) => {
                    let (ev, v_exp) = exp.eval(&st.regs);
                    // the desugared compare guard merges its inputs into vCAP
                    st.v_cap = st.v_cap.join(v_old).join(v_exp);
                    old != ev
                }
            };
            let event = if compare_failed {
                st.regs.set(*succ, Val::FAIL, View::ZERO);
                StepEvent::LocalRead(loc, old)
            } else {
                let (opv, v_op) = operand.eval(&st.regs);
                let new = op.apply(old, opv);
                let v_data = rmw_data_view(*op, v_op, v_old);
                st.set_local(loc, new, v_addr.join(v_data));
                st.regs.set(*succ, Val::SUCCESS, View::ZERO);
                StepEvent::LocalWrite(loc, new)
            };
            cont_undo.pop(&mut thread.cont);
            event
        }
        (
            Stmt::Load {
                reg,
                addr,
                kind: rk,
                exclusive,
            },
            TransitionKind::Read { t },
        ) => {
            let t = *t;
            let (loc, v_addr) = eval_addr(addr, &thread.state);
            if !config.shared.is_shared(loc) {
                return Err(StepError::WrongShape);
            }
            let (val, _) = apply_read_effects(
                config,
                memory,
                &mut thread.state,
                *reg,
                *rk,
                *exclusive,
                loc,
                v_addr,
                t,
            )?;
            cont_undo.pop(&mut thread.cont);
            StepEvent::DidRead { loc, val, t }
        }
        (
            Stmt::Rmw {
                op,
                dst,
                succ,
                addr,
                expected,
                rk,
                ..
            },
            TransitionKind::Read { t },
        ) => {
            // CAS compare-failure: the read half alone (the desugared
            // loop's `else` branch). Only enabled when the value read
            // differs from the expected value.
            let t = *t;
            let (loc, v_addr) = eval_addr(addr, &thread.state);
            if !config.shared.is_shared(loc) || *op != RmwOp::Cas {
                return Err(StepError::WrongShape);
            }
            let Some(old) = memory.read(loc, t) else {
                return Err(StepError::NoSuchWrite);
            };
            let expected = expected.as_ref().expect("CAS carries an expected value");
            let (ev, _) = expected.eval_with(&thread.state.regs, *dst, (old, View::ZERO));
            if old == ev {
                return Err(StepError::WrongShape);
            }
            let st = &mut thread.state;
            let (_, v_old) =
                apply_read_effects(config, memory, st, *dst, *rk, true, loc, v_addr, t)?;
            // the desugared compare guard merges its inputs into vCAP (r22)
            let (_, v_exp) = expected.eval(&st.regs);
            st.v_cap = st.v_cap.join(v_old).join(v_exp);
            st.regs.set(*succ, Val::FAIL, View::ZERO);
            cont_undo.pop(&mut thread.cont);
            StepEvent::DidRead { loc, val: old, t }
        }
        (
            Stmt::Rmw {
                op,
                dst,
                succ,
                addr,
                expected,
                operand,
                rk,
                wk,
            },
            TransitionKind::Rmw { tr, tw },
        ) => {
            let (loc, v_addr) = eval_addr(addr, &thread.state);
            if !config.shared.is_shared(loc) {
                return Err(StepError::WrongShape);
            }
            let Some(old) = memory.read(loc, *tr) else {
                return Err(StepError::NoSuchWrite);
            };
            if let Some(exp) = expected {
                if old != exp.eval_with(&thread.state.regs, *dst, (old, View::ZERO)).0 {
                    // the compare fails: only the read-only transition is
                    // enabled for this timestamp
                    return Err(StepError::WrongShape);
                }
            }
            let st = &mut thread.state;
            let (_, v_old) =
                apply_read_effects(config, memory, st, *dst, *rk, true, loc, v_addr, *tr)?;
            if let Some(exp) = expected {
                // the desugared compare guard merges its inputs into vCAP
                let (_, v_exp) = exp.eval(&st.regs);
                st.v_cap = st.v_cap.join(v_old).join(v_exp);
            }
            let (opv, v_op) = operand.eval(&st.regs);
            let new = op.apply(old, opv);
            let v_data = rmw_data_view(*op, v_op, v_old);
            // the write placement: fulfil `tw`, or a fresh normal write at
            // the end of memory (r20)
            let t = match tw {
                Some(t) => *t,
                None => Timestamp(memory.max_timestamp().0 + 1),
            };
            if tw.is_some()
                && (!st.prom.contains(&t) || memory.get(t) != Some(&Msg::new(loc, new, tid)))
            {
                return Err(StepError::NotAPromise);
            }
            // the read half charged the exclusives bank, so the pairing
            // check is exactly the exclusive-pair `atomic` predicate
            match &st.xclb {
                Some(x) if memory.atomic(loc, tid, x.time, t) => {}
                _ => return Err(StepError::NotAtomic),
            }
            if tw.is_none() {
                let pushed = memory.push(Msg::new(loc, new, tid));
                debug_assert_eq!(pushed, t);
                st.prom.insert(t);
            }
            let v_pre = apply_write_effects(config, st, *succ, *wk, true, loc, v_addr, v_data, t)?;
            // the desugared loop exit branches on the success register,
            // which on RISC-V carries the write's view (ρ12)
            let (_, v_succ) = st.regs.get(*succ);
            st.v_cap = st.v_cap.join(v_succ);
            cont_undo.pop(&mut thread.cont);
            StepEvent::DidRmw {
                loc,
                old,
                new,
                tr: *tr,
                tw: t,
                pre_view: v_pre.join(v_old),
            }
        }
        (
            Stmt::Store {
                succ,
                addr,
                data,
                kind: wk,
                exclusive,
            },
            TransitionKind::Fulfil { .. } | TransitionKind::WriteNormal,
        ) => {
            let (loc, v_addr) = eval_addr(addr, &thread.state);
            if !config.shared.is_shared(loc) {
                return Err(StepError::WrongShape);
            }
            let (val, v_data) = data.eval(&thread.state.regs);
            // For a normal write, first promise at the end of memory (r20).
            let t = match kind {
                TransitionKind::Fulfil { t } => *t,
                TransitionKind::WriteNormal => {
                    let t = memory.push(Msg::new(loc, val, tid));
                    thread.state.prom.insert(t);
                    t
                }
                _ => unreachable!(),
            };
            // fulfil pre-conditions
            if !thread.state.prom.contains(&t) || memory.get(t) != Some(&Msg::new(loc, val, tid)) {
                return Err(StepError::NotAPromise);
            }
            if *exclusive {
                match &thread.state.xclb {
                    Some(x) if memory.atomic(loc, tid, x.time, t) => {}
                    _ => return Err(StepError::NotAtomic),
                }
            }
            let v_pre = apply_write_effects(
                config,
                &mut thread.state,
                *succ,
                *wk,
                *exclusive,
                loc,
                v_addr,
                v_data,
                t,
            )?;
            cont_undo.pop(&mut thread.cont);
            StepEvent::DidWrite {
                loc,
                val,
                t,
                pre_view: v_pre,
            }
        }
        (
            Stmt::Store {
                succ, exclusive, ..
            },
            TransitionKind::ExclFail,
        ) => {
            if !*exclusive {
                return Err(StepError::WrongShape);
            }
            thread.state.regs.set(*succ, Val::FAIL, View::ZERO);
            thread.state.xclb = None;
            cont_undo.pop(&mut thread.cont);
            StepEvent::ExclFailed
        }
        _ => return Err(StepError::WrongShape),
    };
    normalize(code, &mut thread.cont, cont_undo);
    Ok(event)
}

impl fmt::Display for TransitionKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TransitionKind::Internal => write!(f, "internal"),
            TransitionKind::Read { t } => write!(f, "read@{t}"),
            TransitionKind::Fulfil { t } => write!(f, "fulfil@{t}"),
            TransitionKind::WriteNormal => write!(f, "write"),
            TransitionKind::ExclFail => write!(f, "excl-fail"),
            TransitionKind::Rmw { tr, tw: Some(t) } => write!(f, "rmw@{tr}->fulfil@{t}"),
            TransitionKind::Rmw { tr, tw: None } => write!(f, "rmw@{tr}->write"),
            TransitionKind::Promise { msg } => write!(f, "promise {msg}"),
        }
    }
}

impl fmt::Display for Transition {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}: {}", self.tid, self.kind)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stmt::CodeBuilder;

    fn x() -> Loc {
        Loc(0)
    }
    fn y() -> Loc {
        Loc(1)
    }

    /// Build the MP writer thread: store x 37; dmb.sy; store y 42.
    fn mp_writer() -> ThreadCode {
        let mut b = CodeBuilder::new();
        let s1 = b.store(Expr::val(0), Expr::val(37));
        let s2 = b.dmb_sy();
        let s3 = b.store(Expr::val(1), Expr::val(42));
        b.finish_seq(&[s1, s2, s3])
    }

    fn mp_reader_plain() -> ThreadCode {
        let mut b = CodeBuilder::new();
        let l1 = b.load(Reg(1), Expr::val(1));
        let l2 = b.load(Reg(2), Expr::val(0));
        b.finish_seq(&[l1, l2])
    }

    fn machine_of(threads: Vec<ThreadCode>) -> Machine {
        Machine::new(Arc::new(Program::new(threads)), Config::arm())
    }

    fn run_writer(m: &mut Machine) {
        // store x 37 (normal write), fence, store y 42
        m.apply(&Transition::new(TId(0), TransitionKind::WriteNormal))
            .unwrap();
        m.apply(&Transition::new(TId(0), TransitionKind::Internal))
            .unwrap();
        m.apply(&Transition::new(TId(0), TransitionKind::WriteNormal))
            .unwrap();
    }

    #[test]
    fn mp_relaxed_outcome_reachable_via_old_read() {
        // §4.1: after a,b,c, Thread 2 reads y = 42 then the *initial* x = 0.
        let mut m = machine_of(vec![mp_writer(), mp_reader_plain()]);
        run_writer(&mut m);
        assert_eq!(m.memory().len(), 2);
        // d reads y = 42 at timestamp 2
        m.apply(&Transition::new(
            TId(1),
            TransitionKind::Read { t: Timestamp(2) },
        ))
        .unwrap();
        assert_eq!(m.thread(TId(1)).state.regs.value(Reg(1)), Val(42));
        // e may still read the initial x = 0 (timestamp 0)
        let steps = m.thread_steps(TId(1));
        assert!(steps.contains(&TransitionKind::Read { t: Timestamp::ZERO }));
        m.apply(&Transition::new(
            TId(1),
            TransitionKind::Read { t: Timestamp::ZERO },
        ))
        .unwrap();
        assert_eq!(m.thread(TId(1)).state.regs.value(Reg(2)), Val(0));
        assert!(m.terminated());
    }

    #[test]
    fn mp_with_dmb_forbids_stale_read() {
        // §4.1 r7: dmb.sy between the loads forbids r1=42 ∧ r2=0.
        let mut b = CodeBuilder::new();
        let l1 = b.load(Reg(1), Expr::val(1));
        let f = b.dmb_sy();
        let l2 = b.load(Reg(2), Expr::val(0));
        let reader = b.finish_seq(&[l1, f, l2]);
        let mut m = machine_of(vec![mp_writer(), reader]);
        run_writer(&mut m);
        m.apply(&Transition::new(
            TId(1),
            TransitionKind::Read { t: Timestamp(2) },
        ))
        .unwrap();
        m.apply(&Transition::new(TId(1), TransitionKind::Internal))
            .unwrap(); // dmb.sy
        let steps = m.thread_steps(TId(1));
        assert_eq!(steps, vec![TransitionKind::Read { t: Timestamp(1) }]);
    }

    #[test]
    fn mp_with_address_dependency_forbids_stale_read() {
        // §4.1 r10: address dependency x + (r1 - r1) orders the loads.
        let mut b = CodeBuilder::new();
        let l1 = b.load(Reg(1), Expr::val(1));
        let l2 = b.load(Reg(2), Expr::val(0).with_dep(Reg(1)));
        let reader = b.finish_seq(&[l1, l2]);
        let mut m = machine_of(vec![mp_writer(), reader]);
        run_writer(&mut m);
        m.apply(&Transition::new(
            TId(1),
            TransitionKind::Read { t: Timestamp(2) },
        ))
        .unwrap();
        let steps = m.thread_steps(TId(1));
        assert_eq!(steps, vec![TransitionKind::Read { t: Timestamp(1) }]);
    }

    #[test]
    fn coherence_prevents_rereading_older_write() {
        // §4.1 r11/r12: after e reads x = 37 via a dependency, a later
        // independent load f of x must not read the initial 0.
        let mut b = CodeBuilder::new();
        let l1 = b.load(Reg(1), Expr::val(1));
        let l2 = b.load(Reg(2), Expr::val(0).with_dep(Reg(1)));
        let l3 = b.load(Reg(3), Expr::val(0));
        let reader = b.finish_seq(&[l1, l2, l3]);
        let mut m = machine_of(vec![mp_writer(), reader]);
        run_writer(&mut m);
        m.apply(&Transition::new(
            TId(1),
            TransitionKind::Read { t: Timestamp(2) },
        ))
        .unwrap();
        m.apply(&Transition::new(
            TId(1),
            TransitionKind::Read { t: Timestamp(1) },
        ))
        .unwrap();
        // f: pre-view is 0 but coh(x) = 2 forbids the initial write
        let steps = m.thread_steps(TId(1));
        assert_eq!(steps, vec![TransitionKind::Read { t: Timestamp(1) }]);
    }

    #[test]
    fn store_forwarding_gives_smaller_view() {
        // §4.1 store forwarding: Thread 2 = load y; store y 51; load y;
        // load x with addr dep on the second load — can still read x = 0.
        let mut b = CodeBuilder::new();
        let d = b.load(Reg(0), Expr::val(1));
        let e = b.store(Expr::val(1), Expr::val(51));
        let f_ = b.load(Reg(1), Expr::val(1));
        let g = b.load(Reg(2), Expr::val(0).with_dep(Reg(1)));
        let reader = b.finish_seq(&[d, e, f_, g]);
        let mut m = machine_of(vec![mp_writer(), reader]);
        run_writer(&mut m);
        // d reads y = 42@2
        m.apply(&Transition::new(
            TId(1),
            TransitionKind::Read { t: Timestamp(2) },
        ))
        .unwrap();
        // e writes y = 51@3
        m.apply(&Transition::new(TId(1), TransitionKind::WriteNormal))
            .unwrap();
        // f reads its own write by forwarding: post-view is the forward
        // view 0, not 3.
        m.apply(&Transition::new(
            TId(1),
            TransitionKind::Read { t: Timestamp(3) },
        ))
        .unwrap();
        let (v, view) = m.thread(TId(1)).state.regs.get(Reg(1));
        assert_eq!(v, Val(51));
        assert_eq!(view, View::ZERO);
        // g can read the initial x = 0
        let steps = m.thread_steps(TId(1));
        assert!(steps.contains(&TransitionKind::Read { t: Timestamp::ZERO }));
    }

    #[test]
    fn promise_then_fulfil_lb_cycle() {
        // §4.2 LB: T1: r1 = load x; store y r1 — T2: r2 = load y; store x 42.
        let mut b = CodeBuilder::new();
        let a = b.load(Reg(1), Expr::val(0));
        let s = b.store(Expr::val(1), Expr::reg(Reg(1)));
        let t1 = b.finish_seq(&[a, s]);
        let mut b = CodeBuilder::new();
        let c = b.load(Reg(2), Expr::val(1));
        let d = b.store(Expr::val(0), Expr::val(42));
        let t2 = b.finish_seq(&[c, d]);
        let mut m = machine_of(vec![t1, t2]);
        // T2 promises x = 42 at timestamp 1
        m.apply(&Transition::new(
            TId(1),
            TransitionKind::Promise {
                msg: Msg::new(x(), Val(42), TId(1)),
            },
        ))
        .unwrap();
        assert!(m.thread(TId(1)).state.has_promises());
        // T1 reads x = 42 and writes y = 42
        m.apply(&Transition::new(
            TId(0),
            TransitionKind::Read { t: Timestamp(1) },
        ))
        .unwrap();
        m.apply(&Transition::new(TId(0), TransitionKind::WriteNormal))
            .unwrap();
        // T2 reads y = 42 … must NOT be able to fulfil afterwards if it
        // read too new? Here there is no dependency, so it can.
        m.apply(&Transition::new(
            TId(1),
            TransitionKind::Read { t: Timestamp(2) },
        ))
        .unwrap();
        let steps = m.thread_steps(TId(1));
        assert!(steps.contains(&TransitionKind::Fulfil { t: Timestamp(1) }));
        m.apply(&Transition::new(
            TId(1),
            TransitionKind::Fulfil { t: Timestamp(1) },
        ))
        .unwrap();
        assert!(m.terminated());
        assert_eq!(m.thread(TId(0)).state.regs.value(Reg(1)), Val(42));
        assert_eq!(m.thread(TId(1)).state.regs.value(Reg(2)), Val(42));
    }

    #[test]
    fn data_dependency_blocks_fulfilment() {
        // §4.2: store x + data dependency: T2: r2 = load y; store x (42+(r2-r2))
        // cannot fulfil a promise made before reading y = 42.
        let mut b = CodeBuilder::new();
        let a = b.load(Reg(1), Expr::val(0));
        let s = b.store(Expr::val(1), Expr::reg(Reg(1)));
        let t1 = b.finish_seq(&[a, s]);
        let mut b = CodeBuilder::new();
        let c = b.load(Reg(2), Expr::val(1));
        let d = b.store(Expr::val(0), Expr::val(42).with_dep(Reg(2)));
        let t2 = b.finish_seq(&[c, d]);
        let mut m = machine_of(vec![t1, t2]);
        m.apply(&Transition::new(
            TId(1),
            TransitionKind::Promise {
                msg: Msg::new(x(), Val(42), TId(1)),
            },
        ))
        .unwrap();
        m.apply(&Transition::new(
            TId(0),
            TransitionKind::Read { t: Timestamp(1) },
        ))
        .unwrap();
        m.apply(&Transition::new(TId(0), TransitionKind::WriteNormal))
            .unwrap();
        // T2 reads y = 42@2 — now r2 has view 2, so the store's pre-view is
        // 2 ≥ 1 and the promise cannot be fulfilled.
        m.apply(&Transition::new(
            TId(1),
            TransitionKind::Read { t: Timestamp(2) },
        ))
        .unwrap();
        let steps = m.thread_steps(TId(1));
        assert!(!steps.contains(&TransitionKind::Fulfil { t: Timestamp(1) }));
        // it can only do a (wrong-valued) fresh write — promise stays
        // unfulfilled, so this trace is discarded.
        assert_eq!(
            m.apply(&Transition::new(
                TId(1),
                TransitionKind::Fulfil { t: Timestamp(1) }
            )),
            Err(StepError::TooLate)
        );
    }

    #[test]
    fn control_dependency_blocks_fulfilment_via_vcap() {
        // §4.2 control dependency: if ((r2 - r2) == 0) store x 42.
        let mut b = CodeBuilder::new();
        let c = b.load(Reg(2), Expr::val(1));
        let st = b.store(Expr::val(0), Expr::val(42));
        let br = b.if_then(
            Expr::reg(Reg(2)).sub(Expr::reg(Reg(2))).eq(Expr::val(0)),
            st,
        );
        let t2 = b.finish_seq(&[c, br]);
        let mut b = CodeBuilder::new();
        let a = b.load(Reg(1), Expr::val(0));
        let s = b.store(Expr::val(1), Expr::reg(Reg(1)));
        let t1 = b.finish_seq(&[a, s]);
        let mut m = machine_of(vec![t1, t2]);
        m.apply(&Transition::new(
            TId(1),
            TransitionKind::Promise {
                msg: Msg::new(x(), Val(42), TId(1)),
            },
        ))
        .unwrap();
        m.apply(&Transition::new(
            TId(0),
            TransitionKind::Read { t: Timestamp(1) },
        ))
        .unwrap();
        m.apply(&Transition::new(TId(0), TransitionKind::WriteNormal))
            .unwrap();
        m.apply(&Transition::new(
            TId(1),
            TransitionKind::Read { t: Timestamp(2) },
        ))
        .unwrap();
        // branch merges r2's view into vCAP
        m.apply(&Transition::new(TId(1), TransitionKind::Internal))
            .unwrap();
        assert_eq!(m.thread(TId(1)).state.v_cap, View(2));
        let steps = m.thread_steps(TId(1));
        assert!(!steps.contains(&TransitionKind::Fulfil { t: Timestamp(1) }));
    }

    #[test]
    fn release_acquire_forbids_mp_stale_read() {
        // §A.1: store release + load acquire forbid the MP weak outcome
        // without any barrier.
        let mut b = CodeBuilder::new();
        let s1 = b.store(Expr::val(0), Expr::val(37));
        let s2 = b.store_rel(Expr::val(1), Expr::val(42));
        let t1 = b.finish_seq(&[s1, s2]);
        let mut b = CodeBuilder::new();
        let l1 = b.load_acq(Reg(1), Expr::val(1));
        let l2 = b.load(Reg(2), Expr::val(0));
        let t2 = b.finish_seq(&[l1, l2]);
        let mut m = machine_of(vec![t1, t2]);
        m.apply(&Transition::new(TId(0), TransitionKind::WriteNormal))
            .unwrap();
        m.apply(&Transition::new(TId(0), TransitionKind::WriteNormal))
            .unwrap();
        // acquire-read y = 42@2: post-view 2 flows into vrNew
        m.apply(&Transition::new(
            TId(1),
            TransitionKind::Read { t: Timestamp(2) },
        ))
        .unwrap();
        let steps = m.thread_steps(TId(1));
        assert_eq!(steps, vec![TransitionKind::Read { t: Timestamp(1) }]);
    }

    #[test]
    fn exclusive_pair_success_and_failure() {
        let mut b = CodeBuilder::new();
        let l = b.load_excl(Reg(1), Expr::val(0));
        let s = b.store_excl(Reg(2), Expr::val(0), Expr::reg(Reg(1)).add(Expr::val(1)));
        let t1 = b.finish_seq(&[l, s]);
        let mut m = machine_of(vec![t1]);
        m.apply(&Transition::new(
            TId(0),
            TransitionKind::Read { t: Timestamp::ZERO },
        ))
        .unwrap();
        let steps = m.thread_steps(TId(0));
        assert!(steps.contains(&TransitionKind::WriteNormal));
        assert!(steps.contains(&TransitionKind::ExclFail));
        m.apply(&Transition::new(TId(0), TransitionKind::WriteNormal))
            .unwrap();
        assert_eq!(m.thread(TId(0)).state.regs.value(Reg(2)), Val::SUCCESS);
        assert_eq!(m.memory().final_value(x()), Val(1));
    }

    #[test]
    fn store_exclusive_fails_without_pairing() {
        let mut b = CodeBuilder::new();
        let s = b.store_excl(Reg(2), Expr::val(0), Expr::val(1));
        let t1 = b.finish_seq(&[s]);
        let mut m = machine_of(vec![t1]);
        // no load exclusive has run: xclb is none, success impossible
        let steps = m.thread_steps(TId(0));
        assert_eq!(steps, vec![TransitionKind::ExclFail]);
        m.apply(&Transition::new(TId(0), TransitionKind::ExclFail))
            .unwrap();
        assert_eq!(m.thread(TId(0)).state.regs.value(Reg(2)), Val::FAIL);
    }

    #[test]
    fn loop_fuel_marks_thread_stuck() {
        let mut b = CodeBuilder::new();
        let body = b.skip();
        let w = b.while_loop(Expr::val(1), body);
        let t1 = b.finish(w);
        let cfg = Config::arm().with_loop_fuel(2);
        let mut m = Machine::new(Arc::new(Program::new(vec![t1])), cfg);
        for _ in 0..2 {
            m.apply(&Transition::new(TId(0), TransitionKind::Internal))
                .unwrap();
        }
        let ev = m
            .apply(&Transition::new(TId(0), TransitionKind::Internal))
            .unwrap();
        assert_eq!(ev, StepEvent::LoopBoundHit);
        assert!(m.any_stuck());
        assert!(m.thread_steps(TId(0)).is_empty());
    }

    #[test]
    fn rmw_fetch_add_is_one_transition() {
        let mut b = CodeBuilder::new();
        let r = b.fetch_add(Reg(1), Expr::val(0), Expr::val(5));
        let t0 = b.finish_seq(&[r]);
        let mut m = machine_of(vec![t0]);
        let steps = m.thread_steps(TId(0));
        assert_eq!(
            steps,
            vec![TransitionKind::Rmw {
                tr: Timestamp::ZERO,
                tw: None
            }]
        );
        m.apply(&Transition::new(TId(0), steps[0].clone())).unwrap();
        assert!(m.terminated());
        assert_eq!(m.thread(TId(0)).state.regs.value(Reg(1)), Val(0));
        assert_eq!(m.memory().final_value(x()), Val(5));
    }

    #[test]
    fn disabled_rmw_transition_leaves_machine_untouched() {
        // A disabled RMW normal write must leave memory and the thread
        // untouched: interactive steppers feed user-picked transitions
        // to apply.
        let mut b = CodeBuilder::new();
        let r = b.fetch_add(Reg(1), Expr::val(0), Expr::val(1));
        let t0 = b.finish_seq(&[r]);
        let mut b = CodeBuilder::new();
        let s1 = b.store(Expr::val(0), Expr::val(7));
        let t1 = b.finish_seq(&[s1]);
        let mut m = machine_of(vec![t0, t1]);
        m.apply(&Transition::new(TId(1), TransitionKind::WriteNormal))
            .unwrap();
        let before_len = m.memory().len();
        let before_fp = m.fingerprint();
        // reading the initial write with T1's write interposing: the
        // atomicity check fails, and nothing may have been appended
        let err = m.apply(&Transition::new(
            TId(0),
            TransitionKind::Rmw {
                tr: Timestamp::ZERO,
                tw: None,
            },
        ));
        assert_eq!(err, Err(StepError::NotAtomic));
        assert_eq!(m.memory().len(), before_len);
        assert_eq!(m.fingerprint(), before_fp);
    }

    #[test]
    fn disabled_store_exclusive_leaves_machine_untouched() {
        // A store exclusive with no paired load exclusive cannot write
        // normally. The rule appends the write before the pairing check
        // fails; the undo must take it and its promise back out.
        let mut b = CodeBuilder::new();
        let s = b.store_excl(Reg(2), Expr::val(0), Expr::val(1));
        let t0 = b.finish_seq(&[s]);
        let mut m = machine_of(vec![t0]);
        let before_len = m.memory().len();
        let before_fp = m.fingerprint();
        let err = m.apply(&Transition::new(TId(0), TransitionKind::WriteNormal));
        assert_eq!(err, Err(StepError::NotAtomic));
        assert_eq!(m.memory().len(), before_len);
        assert_eq!(m.fingerprint(), before_fp);
    }

    #[test]
    fn undo_restores_a_continuation_past_its_inline_capacity() {
        // `(((r1 := 1; skip); skip); skip); skip` leaves four `skip`s
        // under the assignment: the step pops all five statements, more
        // than the undo record keeps inline.
        let mut b = CodeBuilder::new();
        let mut s = b.assign(Reg(1), Expr::val(1));
        for _ in 0..4 {
            let k = b.skip();
            s = b.then(s, k);
        }
        let m = machine_of(vec![b.finish(s)]);
        let (mut thread, mut memory) = (m.thread(TId(0)).clone(), m.memory().clone());
        assert_eq!(thread.cont.len(), 5);
        let code = &m.program().threads()[0];
        let (_, undo) = apply_step(
            m.config(),
            code,
            TId(0),
            &TransitionKind::Internal,
            &mut thread,
            &mut memory,
        )
        .unwrap();
        assert!(thread.is_done());
        undo.restore(&mut thread, &mut memory);
        assert_eq!(&thread, m.thread(TId(0)));
    }

    #[test]
    fn shared_loc_optimisation_turns_private_accesses_internal() {
        let mut b = CodeBuilder::new();
        let s = b.store(Expr::val(5), Expr::val(9));
        let l = b.load(Reg(1), Expr::val(5));
        let t1 = b.finish_seq(&[s, l]);
        let cfg = Config::arm().with_shared_locs([y()]);
        let mut m = Machine::new(Arc::new(Program::new(vec![t1])), cfg);
        assert_eq!(m.thread_steps(TId(0)), vec![TransitionKind::Internal]);
        m.apply(&Transition::new(TId(0), TransitionKind::Internal))
            .unwrap();
        m.apply(&Transition::new(TId(0), TransitionKind::Internal))
            .unwrap();
        assert_eq!(m.thread(TId(0)).state.regs.value(Reg(1)), Val(9));
        assert!(m.memory().is_empty());
    }

    #[test]
    fn may_access_sets_straddle_the_bitmask_boundary() {
        // r1 = load(r0); store(63, 1); r2 = load(64); store(200, 2);
        // r3 = load(3): a dynamic address first, then constant ones on
        // both sides of the 64-location bitmask boundary.
        let locs = |ls: &[u64]| MayAccess::Locs(ls.iter().map(|&l| Loc(l)).collect());
        let mut b = CodeBuilder::new();
        let dynamic = b.load(Reg(1), Expr::reg(Reg(0)));
        let low_store = b.store(Expr::val(63), Expr::val(1));
        let spill_load = b.load(Reg(2), Expr::val(64));
        let spill_store = b.store(Expr::val(200), Expr::val(2));
        let low_load = b.load(Reg(3), Expr::val(3));
        let code = b.finish_seq(&[dynamic, low_store, spill_load, spill_store, low_load]);

        // per-statement tables, and their unions at the entry
        assert_eq!(*code.may_read(dynamic), MayAccess::Any);
        assert_eq!(*code.may_write(dynamic), MayAccess::none());
        assert_eq!(*code.may_write(low_store), locs(&[63]));
        assert_eq!(*code.may_read(spill_load), locs(&[64]));
        assert_eq!(*code.may_write(spill_store), locs(&[200]));
        assert_eq!(*code.may_read(low_load), locs(&[3]));
        assert_eq!(*code.may_read(code.entry()), MayAccess::Any);
        assert_eq!(*code.may_write(code.entry()), locs(&[63, 200]));

        // intersection, with and without `Any`
        let writes = code.may_write(code.entry());
        assert!(!writes.intersects(&locs(&[3, 64])));
        assert!(writes.intersects(&locs(&[64, 200])));
        assert!(writes.intersects(&MayAccess::Any) && MayAccess::Any.intersects(writes));
        assert!(!MayAccess::Any.intersects(&MayAccess::none()));
        assert!(MayAccess::Any.intersects(&MayAccess::Any));

        // union across the boundary, then absorbed by `Any`
        let mut acc = writes.clone();
        acc.absorb(code.may_read(spill_load));
        acc.absorb(code.may_read(low_load));
        assert_eq!(acc, locs(&[3, 63, 64, 200]));
        acc.absorb(&MayAccess::Any);
        assert_eq!(acc, MayAccess::Any);
        acc.absorb(&locs(&[5]));
        assert_eq!(acc, MayAccess::Any);

        // the certification scope is unknown while the dynamic load
        // remains, and the union of the constant locations after it ran
        let mut m = Machine::new(Arc::new(Program::new(vec![code])), Config::arm());
        assert_eq!(m.thread_may_reads(TId(0)), MayAccess::Any);
        assert_eq!(m.thread_cert_scope(TId(0)), None);
        m.apply(&Transition::new(
            TId(0),
            TransitionKind::Read { t: Timestamp::ZERO },
        ))
        .unwrap();
        assert_eq!(m.thread_may_reads(TId(0)), locs(&[3, 64]));
        assert_eq!(m.thread_may_writes(TId(0)), locs(&[63, 200]));
        let scope: LocSet = [Loc(3), Loc(63), Loc(64), Loc(200)].into_iter().collect();
        assert_eq!(m.thread_cert_scope(TId(0)), Some(scope));
    }
}
