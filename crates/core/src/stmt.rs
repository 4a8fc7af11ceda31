//! Statements and programs of the calculus (Fig. 1).
//!
//! Statements are stored in a per-thread *arena* and referenced by
//! [`StmtId`]. This makes thread continuations (stacks of `StmtId`) cheap to
//! clone, hash and compare — essential for exhaustive state-space search.

use crate::config::SharedLocs;
use crate::expr::{Expr, Op};
use crate::ids::{Loc, Reg, Val};
use std::collections::BTreeSet;
use std::fmt;

/// Read kinds (`rk ∈ RK`, Fig. 1), ordered `Plain ⊑ WeakAcquire ⊑ Acquire`.
///
/// `WeakAcquire` is ARMv8.3's LDAPR-style weak acquire (`wacq`); `Acquire`
/// is the strong load acquire (`acq`, ARM LDAR / RISC-V `.aq`).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug, Default)]
pub enum ReadKind {
    /// Plain load (`pln`).
    #[default]
    Plain,
    /// Weak acquire (`wacq`).
    WeakAcquire,
    /// Strong acquire (`acq`).
    Acquire,
}

/// Write kinds (`wk ∈ WK`, Fig. 1), ordered `Plain ⊑ WeakRelease ⊑ Release`.
///
/// Only RISC-V features weak releases (§A.1); the model is uniform.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug, Default)]
pub enum WriteKind {
    /// Plain store (`pln`).
    #[default]
    Plain,
    /// Weak release (`wrel`).
    WeakRelease,
    /// Strong release (`rel`).
    Release,
}

/// The set of access directions a fence side talks about (`K ∈ FK`, Fig. 1).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub enum AccessSet {
    /// Reads only.
    R,
    /// Writes only.
    W,
    /// Reads and writes.
    RW,
}

impl AccessSet {
    /// `R ⊑ self`: does the set include reads?
    pub fn includes_reads(self) -> bool {
        matches!(self, AccessSet::R | AccessSet::RW)
    }

    /// `W ⊑ self`: does the set include writes?
    pub fn includes_writes(self) -> bool {
        matches!(self, AccessSet::W | AccessSet::RW)
    }
}

/// A memory fence `fence_{K1,K2}` in RISC-V syntax (Fig. 5's `fence` rule):
/// orders program-order-earlier accesses in `pre` before program-order-later
/// accesses in `post`.
///
/// The ARM barriers are macros (§A.3): `dmb.sy = fence_{RW,RW}`,
/// `dmb.ld = fence_{R,RW}`, `dmb.st = fence_{W,W}`. RISC-V's `fence.tso` is
/// the sequence `fence_{R,R}; fence_{RW,W}`.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct Fence {
    /// Which earlier accesses are ordered (`K1`).
    pub pre: AccessSet,
    /// Which later accesses they are ordered before (`K2`).
    pub post: AccessSet,
}

impl Fence {
    /// ARM `dmb.sy` / RISC-V `fence rw,rw`: the full barrier.
    pub const FULL: Fence = Fence {
        pre: AccessSet::RW,
        post: AccessSet::RW,
    };
    /// ARM `dmb.ld` / RISC-V `fence r,rw`.
    pub const LD: Fence = Fence {
        pre: AccessSet::R,
        post: AccessSet::RW,
    };
    /// ARM `dmb.st` / RISC-V `fence w,w`.
    pub const ST: Fence = Fence {
        pre: AccessSet::W,
        post: AccessSet::W,
    };
    /// RISC-V `fence w,r` (mentioned in §A.1 as an additional barrier).
    pub const WR: Fence = Fence {
        pre: AccessSet::W,
        post: AccessSet::R,
    };
    /// RISC-V `fence r,r`.
    pub const RR: Fence = Fence {
        pre: AccessSet::R,
        post: AccessSet::R,
    };
    /// RISC-V `fence rw,w`.
    pub const RWW: Fence = Fence {
        pre: AccessSet::RW,
        post: AccessSet::W,
    };
}

/// The update performed by a single-instruction atomic read-modify-write
/// (ARMv8.1 LSE `CAS`/`SWP`/`LD<op>`, RISC-V `AMO<op>`).
///
/// Every op reads the old value into the destination register and
/// atomically stores a new value; `Cas` additionally compares the old
/// value against an expected value and only writes on a match.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub enum RmwOp {
    /// Compare-and-swap: write the operand iff the old value equals the
    /// expected value (ARM `CAS`, RISC-V `lr/sc` idiom).
    Cas,
    /// Atomic exchange (ARM `SWP`, RISC-V `amoswap`).
    Swp,
    /// Atomic add (ARM `LDADD`, RISC-V `amoadd`).
    FetchAdd,
    /// Atomic bitwise and (ARM `LDCLR`-family, RISC-V `amoand`).
    FetchAnd,
    /// Atomic bitwise or (ARM `LDSET`, RISC-V `amoor`).
    FetchOr,
    /// Atomic bitwise xor (ARM `LDEOR`, RISC-V `amoxor`).
    FetchXor,
    /// Atomic signed maximum (ARM `LDSMAX`, RISC-V `amomax`).
    FetchMax,
}

impl RmwOp {
    /// All ops, for generators and property tests.
    pub const ALL: [RmwOp; 7] = [
        RmwOp::Cas,
        RmwOp::Swp,
        RmwOp::FetchAdd,
        RmwOp::FetchAnd,
        RmwOp::FetchOr,
        RmwOp::FetchXor,
        RmwOp::FetchMax,
    ];

    /// The value written by a successful RMW with this op.
    pub fn apply(self, old: Val, operand: Val) -> Val {
        match self {
            // a *successful* CAS writes the operand (the "new" value)
            RmwOp::Cas | RmwOp::Swp => operand,
            RmwOp::FetchAdd => Op::Add.apply(old, operand),
            RmwOp::FetchAnd => Op::BitAnd.apply(old, operand),
            RmwOp::FetchOr => Op::BitOr.apply(old, operand),
            RmwOp::FetchXor => Op::BitXor.apply(old, operand),
            RmwOp::FetchMax => Op::Max.apply(old, operand),
        }
    }

    /// The data expression of the canonical desugaring: what the store
    /// exclusive of the retry loop writes, given the loaded old value in
    /// `old` (see [`desugar_rmws`]).
    pub fn data_expr(self, old: Reg, operand: Expr) -> Expr {
        match self {
            RmwOp::Cas | RmwOp::Swp => operand,
            RmwOp::FetchAdd => Expr::binop(Op::Add, Expr::reg(old), operand),
            RmwOp::FetchAnd => Expr::binop(Op::BitAnd, Expr::reg(old), operand),
            RmwOp::FetchOr => Expr::binop(Op::BitOr, Expr::reg(old), operand),
            RmwOp::FetchXor => Expr::binop(Op::BitXor, Expr::reg(old), operand),
            RmwOp::FetchMax => Expr::binop(Op::Max, Expr::reg(old), operand),
        }
    }

    /// The concrete-syntax mnemonic (without an ordering suffix).
    pub fn mnemonic(self) -> &'static str {
        match self {
            RmwOp::Cas => "cas",
            RmwOp::Swp => "amo_swap",
            RmwOp::FetchAdd => "amo_add",
            RmwOp::FetchAnd => "amo_and",
            RmwOp::FetchOr => "amo_or",
            RmwOp::FetchXor => "amo_xor",
            RmwOp::FetchMax => "amo_max",
        }
    }
}

/// An index into a thread's statement arena.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct StmtId(pub u32);

/// A statement (`s ∈ St`, Fig. 1).
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub enum Stmt {
    /// `skip`.
    Skip,
    /// Register assignment `r := e`.
    Assign {
        /// Destination register.
        reg: Reg,
        /// Assigned expression.
        expr: Expr,
    },
    /// `r := load_{xcl,rk} [e]`.
    Load {
        /// Destination register.
        reg: Reg,
        /// Address expression.
        addr: Expr,
        /// Acquire strength.
        kind: ReadKind,
        /// Load exclusive (load reserve)?
        exclusive: bool,
    },
    /// `r_succ := store_{xcl,wk} [e1] e2`. Non-exclusive stores also write a
    /// success bit (always 0) to `succ`, "to an otherwise unused register"
    /// (§3); the builder allocates a scratch register for them.
    Store {
        /// Success-bit register (`rsucc`).
        succ: Reg,
        /// Address expression.
        addr: Expr,
        /// Data expression.
        data: Expr,
        /// Release strength.
        kind: WriteKind,
        /// Store exclusive (store conditional)?
        exclusive: bool,
    },
    /// A single-instruction atomic read-modify-write (ARMv8.1 LSE /
    /// RISC-V AMO): atomically read the old value into `dst` and store the
    /// updated value, in one machine transition. Semantically equivalent
    /// to the canonical load-/store-exclusive retry loop
    /// ([`desugar_rmws`]) executed without interruption; the machine
    /// reuses the exclusive-pair machinery (pairing bank, `atomic`
    /// predicate) internally.
    ///
    /// The address must not depend on `dst` (the desugaring would
    /// re-evaluate it after the load clobbers `dst`).
    Rmw {
        /// The update performed.
        op: RmwOp,
        /// Destination register: receives the value read (the "old" value).
        dst: Reg,
        /// Success-flag register: 0 on a successful write, 1 when a CAS
        /// observed a non-expected value and wrote nothing (other ops
        /// always succeed).
        succ: Reg,
        /// Address expression.
        addr: Expr,
        /// CAS only: the expected value, compared against the old value
        /// (evaluated after `dst` holds the old value, like the desugared
        /// guard). `None` for every other op.
        expected: Option<Expr>,
        /// The operand: the stored value for `Cas`/`Swp`, the second
        /// argument of the fetch-op otherwise.
        operand: Expr,
        /// Acquire strength of the read half.
        rk: ReadKind,
        /// Release strength of the write half.
        wk: WriteKind,
    },
    /// A `fence_{K1,K2}` barrier (covers the ARM `dmb.*` macros).
    Fence(Fence),
    /// ARM `isb` (no RISC-V equivalent, §A.1).
    Isb,
    /// Sequential composition `s1; s2`.
    Seq(StmtId, StmtId),
    /// Conditional `if (e) s1 s2`.
    If {
        /// Branch condition.
        cond: Expr,
        /// Taken when `cond ≠ 0`.
        then_branch: StmtId,
        /// Taken when `cond = 0`.
        else_branch: StmtId,
    },
    /// Loop `while (e) s`.
    While {
        /// Loop condition.
        cond: Expr,
        /// Loop body.
        body: StmtId,
    },
}

/// An over-approximation of the locations a statement subtree may access
/// (its *may-read* or *may-write* set), precomputed per arena node when a
/// [`ThreadCode`] is finished. Used by the partial-order reduction to
/// decide whether a thread's remaining continuation can ever write (or
/// read) a location — an access whose address expression is not a
/// constant may touch [`MayAccess::Any`] location.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum MayAccess {
    /// Some access's address is dynamic: any location may be touched.
    Any,
    /// Only the listed locations may be touched (possibly none).
    Locs(BTreeSet<Loc>),
}

impl MayAccess {
    /// The empty set.
    pub fn none() -> MayAccess {
        MayAccess::Locs(BTreeSet::new())
    }

    /// Whether `loc` may be touched.
    pub fn contains(&self, loc: Loc) -> bool {
        match self {
            MayAccess::Any => true,
            MayAccess::Locs(s) => s.contains(&loc),
        }
    }

    /// Whether no location may be touched.
    pub fn is_empty(&self) -> bool {
        matches!(self, MayAccess::Locs(s) if s.is_empty())
    }

    /// Whether any *shared* location may be touched (under the given
    /// shared-location declaration). A thread whose remaining code
    /// cannot write any shared location is a *pure observer*: its steps
    /// never append to memory, promise, or affect any other thread.
    pub fn any_shared(&self, shared: &SharedLocs) -> bool {
        match self {
            MayAccess::Any => true,
            MayAccess::Locs(s) => s.iter().any(|&l| shared.is_shared(l)),
        }
    }

    /// Whether the sets may share a location.
    pub fn intersects(&self, other: &MayAccess) -> bool {
        match (self, other) {
            (MayAccess::Any, o) | (o, MayAccess::Any) => o != &MayAccess::none(),
            (MayAccess::Locs(a), MayAccess::Locs(b)) => a.iter().any(|l| b.contains(l)),
        }
    }

    /// Merge `other` into `self`.
    pub fn absorb(&mut self, other: &MayAccess) {
        match (&mut *self, other) {
            (MayAccess::Any, _) => {}
            (_, MayAccess::Any) => *self = MayAccess::Any,
            (MayAccess::Locs(a), MayAccess::Locs(b)) => a.extend(b.iter().copied()),
        }
    }

    /// The set a single address expression may denote.
    pub fn of_addr(addr: &Expr) -> MayAccess {
        match addr {
            Expr::Const(v) => MayAccess::Locs(BTreeSet::from([Loc::from(*v)])),
            _ => MayAccess::Any,
        }
    }
}

/// The may-read/may-write sets of every node in a statement arena.
/// Children are always allocated before their parents (the builders
/// append bottom-up), so one forward pass suffices.
fn may_access_tables(stmts: &[Stmt]) -> (Vec<MayAccess>, Vec<MayAccess>) {
    let mut reads: Vec<MayAccess> = Vec::with_capacity(stmts.len());
    let mut writes: Vec<MayAccess> = Vec::with_capacity(stmts.len());
    for s in stmts {
        let (r, w) = match s {
            Stmt::Skip | Stmt::Assign { .. } | Stmt::Fence(_) | Stmt::Isb => {
                (MayAccess::none(), MayAccess::none())
            }
            Stmt::Load { addr, .. } => (MayAccess::of_addr(addr), MayAccess::none()),
            Stmt::Store { addr, .. } => (MayAccess::none(), MayAccess::of_addr(addr)),
            Stmt::Rmw { addr, .. } => (MayAccess::of_addr(addr), MayAccess::of_addr(addr)),
            Stmt::Seq(a, b) => {
                let mut r = reads[a.0 as usize].clone();
                r.absorb(&reads[b.0 as usize]);
                let mut w = writes[a.0 as usize].clone();
                w.absorb(&writes[b.0 as usize]);
                (r, w)
            }
            Stmt::If {
                then_branch,
                else_branch,
                ..
            } => {
                let mut r = reads[then_branch.0 as usize].clone();
                r.absorb(&reads[else_branch.0 as usize]);
                let mut w = writes[then_branch.0 as usize].clone();
                w.absorb(&writes[else_branch.0 as usize]);
                (r, w)
            }
            Stmt::While { body, .. } => (
                reads[body.0 as usize].clone(),
                writes[body.0 as usize].clone(),
            ),
        };
        reads.push(r);
        writes.push(w);
    }
    (reads, writes)
}

/// The code of a single thread: a statement arena plus its entry point.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct ThreadCode {
    stmts: Vec<Stmt>,
    entry: StmtId,
    /// Per-statement may-read sets (parallel to `stmts`).
    may_read: Vec<MayAccess>,
    /// Per-statement may-write sets (parallel to `stmts`).
    may_write: Vec<MayAccess>,
}

impl ThreadCode {
    /// Look up a statement by id.
    ///
    /// # Panics
    ///
    /// Panics if `id` does not belong to this thread's arena.
    pub fn stmt(&self, id: StmtId) -> &Stmt {
        &self.stmts[id.0 as usize]
    }

    /// The entry statement of the thread.
    pub fn entry(&self) -> StmtId {
        self.entry
    }

    /// The precomputed may-write set of the subtree rooted at `id`: an
    /// over-approximation of the locations it can store to.
    ///
    /// # Panics
    ///
    /// Panics if `id` does not belong to this thread's arena.
    pub fn may_write(&self, id: StmtId) -> &MayAccess {
        &self.may_write[id.0 as usize]
    }

    /// The precomputed may-read set of the subtree rooted at `id`: an
    /// over-approximation of the locations it can load from.
    ///
    /// # Panics
    ///
    /// Panics if `id` does not belong to this thread's arena.
    pub fn may_read(&self, id: StmtId) -> &MayAccess {
        &self.may_read[id.0 as usize]
    }

    /// Number of statements in the arena.
    pub fn len(&self) -> usize {
        self.stmts.len()
    }

    /// Whether the arena holds only the entry `skip` of an empty thread.
    pub fn is_empty(&self) -> bool {
        matches!(self.stmt(self.entry), Stmt::Skip)
    }

    /// Number of store statements in the arena (used by the axiomatic
    /// model's value-pool chain bound). RMWs count: each successful RMW
    /// produces one write.
    pub fn store_count(&self) -> usize {
        self.stmts
            .iter()
            .filter(|s| matches!(s, Stmt::Store { .. } | Stmt::Rmw { .. }))
            .count()
    }

    /// Whether the arena holds a `while` loop. Without one, a path runs
    /// each statement at most once, so the thread makes at most
    /// [`ThreadCode::store_count`] writes per execution.
    pub fn has_loop(&self) -> bool {
        self.stmts.iter().any(|s| matches!(s, Stmt::While { .. }))
    }

    /// Number of single-instruction RMW statements in the arena.
    pub fn rmw_count(&self) -> usize {
        self.stmts
            .iter()
            .filter(|s| matches!(s, Stmt::Rmw { .. }))
            .count()
    }

    /// Count of "instruction-like" statements (loads, stores, fences, isb,
    /// assignments) — the analogue of the paper's Table 1 LOC column.
    pub fn instruction_count(&self) -> usize {
        self.stmts
            .iter()
            .filter(|s| {
                matches!(
                    s,
                    Stmt::Load { .. }
                        | Stmt::Store { .. }
                        | Stmt::Rmw { .. }
                        | Stmt::Fence(_)
                        | Stmt::Isb
                        | Stmt::Assign { .. }
                )
            })
            .count()
    }
}

/// A complete program: a parallel composition of threads (`p ::= s1 ‖ … ‖ sn`).
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Program {
    threads: Vec<ThreadCode>,
}

impl Program {
    /// Build a program from per-thread code.
    pub fn new(threads: Vec<ThreadCode>) -> Program {
        Program { threads }
    }

    /// The threads of the program, in thread-id order.
    pub fn threads(&self) -> &[ThreadCode] {
        &self.threads
    }

    /// Number of threads.
    pub fn num_threads(&self) -> usize {
        self.threads.len()
    }

    /// Total instruction count across threads (Table 1's LOC analogue).
    pub fn instruction_count(&self) -> usize {
        self.threads.iter().map(ThreadCode::instruction_count).sum()
    }

    /// Total single-instruction RMW count across threads.
    pub fn rmw_count(&self) -> usize {
        self.threads.iter().map(ThreadCode::rmw_count).sum()
    }
}

/// Builder for a single thread's code.
///
/// Statement constructors return [`StmtId`]s; [`CodeBuilder::finish`] takes
/// the entry statement. The builder provides the surface conveniences of
/// the paper's syntax: plain/acquire/release/exclusive accesses, all
/// barriers, and `seq` for statement lists.
#[derive(Debug, Default)]
pub struct CodeBuilder {
    stmts: Vec<Stmt>,
    scratch: u32,
}

/// Register space reserved for compiler-internal scratch registers (success
/// bits of non-exclusive stores). User code should stay below this.
pub const SCRATCH_REG_BASE: u32 = 1_000_000;

impl CodeBuilder {
    /// Fresh builder.
    pub fn new() -> CodeBuilder {
        CodeBuilder::default()
    }

    fn push(&mut self, s: Stmt) -> StmtId {
        let id = StmtId(self.stmts.len() as u32);
        self.stmts.push(s);
        id
    }

    fn fresh_scratch(&mut self) -> Reg {
        let r = Reg(SCRATCH_REG_BASE + self.scratch);
        self.scratch += 1;
        r
    }

    /// `skip`.
    pub fn skip(&mut self) -> StmtId {
        self.push(Stmt::Skip)
    }

    /// `r := e`.
    pub fn assign(&mut self, reg: Reg, expr: impl Into<Expr>) -> StmtId {
        self.push(Stmt::Assign {
            reg,
            expr: expr.into(),
        })
    }

    /// Plain load `r := load [addr]`.
    pub fn load(&mut self, reg: Reg, addr: impl Into<Expr>) -> StmtId {
        self.load_kind(reg, addr, ReadKind::Plain, false)
    }

    /// Acquire load `r := load_acq [addr]`.
    pub fn load_acq(&mut self, reg: Reg, addr: impl Into<Expr>) -> StmtId {
        self.load_kind(reg, addr, ReadKind::Acquire, false)
    }

    /// Weak-acquire load `r := load_wacq [addr]`.
    pub fn load_wacq(&mut self, reg: Reg, addr: impl Into<Expr>) -> StmtId {
        self.load_kind(reg, addr, ReadKind::WeakAcquire, false)
    }

    /// Load exclusive (load reserve) `r := load_x [addr]`.
    pub fn load_excl(&mut self, reg: Reg, addr: impl Into<Expr>) -> StmtId {
        self.load_kind(reg, addr, ReadKind::Plain, true)
    }

    /// Acquire load exclusive `r := load_x_acq [addr]`.
    pub fn load_excl_acq(&mut self, reg: Reg, addr: impl Into<Expr>) -> StmtId {
        self.load_kind(reg, addr, ReadKind::Acquire, true)
    }

    /// General load with explicit kind and exclusivity.
    pub fn load_kind(
        &mut self,
        reg: Reg,
        addr: impl Into<Expr>,
        kind: ReadKind,
        exclusive: bool,
    ) -> StmtId {
        self.push(Stmt::Load {
            reg,
            addr: addr.into(),
            kind,
            exclusive,
        })
    }

    /// Plain store `store [addr] data`.
    pub fn store(&mut self, addr: impl Into<Expr>, data: impl Into<Expr>) -> StmtId {
        let succ = self.fresh_scratch();
        self.store_kind(succ, addr, data, WriteKind::Plain, false)
    }

    /// Release store `store_rel [addr] data`.
    pub fn store_rel(&mut self, addr: impl Into<Expr>, data: impl Into<Expr>) -> StmtId {
        let succ = self.fresh_scratch();
        self.store_kind(succ, addr, data, WriteKind::Release, false)
    }

    /// Weak-release store `store_wrel [addr] data`.
    pub fn store_wrel(&mut self, addr: impl Into<Expr>, data: impl Into<Expr>) -> StmtId {
        let succ = self.fresh_scratch();
        self.store_kind(succ, addr, data, WriteKind::WeakRelease, false)
    }

    /// Store exclusive (store conditional): `succ := store_x [addr] data`.
    pub fn store_excl(
        &mut self,
        succ: Reg,
        addr: impl Into<Expr>,
        data: impl Into<Expr>,
    ) -> StmtId {
        self.store_kind(succ, addr, data, WriteKind::Plain, true)
    }

    /// Release store exclusive: `succ := store_x_rel [addr] data`.
    pub fn store_excl_rel(
        &mut self,
        succ: Reg,
        addr: impl Into<Expr>,
        data: impl Into<Expr>,
    ) -> StmtId {
        self.store_kind(succ, addr, data, WriteKind::Release, true)
    }

    /// General store with explicit kind and exclusivity.
    pub fn store_kind(
        &mut self,
        succ: Reg,
        addr: impl Into<Expr>,
        data: impl Into<Expr>,
        kind: WriteKind,
        exclusive: bool,
    ) -> StmtId {
        self.push(Stmt::Store {
            succ,
            addr: addr.into(),
            data: data.into(),
            kind,
            exclusive,
        })
    }

    /// General single-instruction RMW with explicit success register and
    /// strengths. `expected` must be `Some` exactly for [`RmwOp::Cas`].
    ///
    /// # Panics
    ///
    /// Panics if `expected` presence does not match the op.
    #[allow(clippy::too_many_arguments)]
    pub fn rmw_kind(
        &mut self,
        op: RmwOp,
        dst: Reg,
        succ: Reg,
        addr: impl Into<Expr>,
        expected: Option<Expr>,
        operand: impl Into<Expr>,
        rk: ReadKind,
        wk: WriteKind,
    ) -> StmtId {
        assert_eq!(
            expected.is_some(),
            op == RmwOp::Cas,
            "expected value iff CAS"
        );
        let addr = addr.into();
        // the desugaring re-evaluates the address after the load clobbers
        // `dst`, so a dst-dependent address has no coherent semantics
        assert!(
            !addr.registers().contains(&dst),
            "RMW address must not depend on the destination register {dst}"
        );
        self.push(Stmt::Rmw {
            op,
            dst,
            succ,
            addr,
            expected,
            operand: operand.into(),
            rk,
            wk,
        })
    }

    /// Plain CAS `dst = cas(addr, expected, new)` (success flag in a
    /// scratch register; success is observable as `dst == expected`).
    pub fn cas(
        &mut self,
        dst: Reg,
        addr: impl Into<Expr>,
        expected: impl Into<Expr>,
        new: impl Into<Expr>,
    ) -> StmtId {
        self.cas_kind(dst, addr, expected, new, ReadKind::Plain, WriteKind::Plain)
    }

    /// Acquire CAS `dst = cas_acq(addr, expected, new)`.
    pub fn cas_acq(
        &mut self,
        dst: Reg,
        addr: impl Into<Expr>,
        expected: impl Into<Expr>,
        new: impl Into<Expr>,
    ) -> StmtId {
        self.cas_kind(
            dst,
            addr,
            expected,
            new,
            ReadKind::Acquire,
            WriteKind::Plain,
        )
    }

    /// Release CAS `dst = cas_rel(addr, expected, new)`.
    pub fn cas_rel(
        &mut self,
        dst: Reg,
        addr: impl Into<Expr>,
        expected: impl Into<Expr>,
        new: impl Into<Expr>,
    ) -> StmtId {
        self.cas_kind(
            dst,
            addr,
            expected,
            new,
            ReadKind::Plain,
            WriteKind::Release,
        )
    }

    /// Acquire-release CAS `dst = cas_acq_rel(addr, expected, new)`.
    pub fn cas_acq_rel(
        &mut self,
        dst: Reg,
        addr: impl Into<Expr>,
        expected: impl Into<Expr>,
        new: impl Into<Expr>,
    ) -> StmtId {
        self.cas_kind(
            dst,
            addr,
            expected,
            new,
            ReadKind::Acquire,
            WriteKind::Release,
        )
    }

    /// CAS with explicit strengths (success flag in a scratch register).
    pub fn cas_kind(
        &mut self,
        dst: Reg,
        addr: impl Into<Expr>,
        expected: impl Into<Expr>,
        new: impl Into<Expr>,
        rk: ReadKind,
        wk: WriteKind,
    ) -> StmtId {
        let succ = self.fresh_scratch();
        self.rmw_kind(
            RmwOp::Cas,
            dst,
            succ,
            addr,
            Some(expected.into()),
            new,
            rk,
            wk,
        )
    }

    /// Non-CAS atomic `dst = amo_<op>(addr, operand)` with explicit
    /// strengths.
    ///
    /// # Panics
    ///
    /// Panics if `op` is [`RmwOp::Cas`] (use [`CodeBuilder::cas_kind`]).
    pub fn amo_kind(
        &mut self,
        op: RmwOp,
        dst: Reg,
        addr: impl Into<Expr>,
        operand: impl Into<Expr>,
        rk: ReadKind,
        wk: WriteKind,
    ) -> StmtId {
        let succ = self.fresh_scratch();
        self.rmw_kind(op, dst, succ, addr, None, operand, rk, wk)
    }

    /// Plain atomic exchange `dst = amo_swap(addr, operand)`.
    pub fn swp(&mut self, dst: Reg, addr: impl Into<Expr>, operand: impl Into<Expr>) -> StmtId {
        self.amo_kind(
            RmwOp::Swp,
            dst,
            addr,
            operand,
            ReadKind::Plain,
            WriteKind::Plain,
        )
    }

    /// Plain atomic fetch-add `dst = amo_add(addr, operand)`.
    pub fn fetch_add(
        &mut self,
        dst: Reg,
        addr: impl Into<Expr>,
        operand: impl Into<Expr>,
    ) -> StmtId {
        self.amo_kind(
            RmwOp::FetchAdd,
            dst,
            addr,
            operand,
            ReadKind::Plain,
            WriteKind::Plain,
        )
    }

    /// A `fence_{K1,K2}` barrier (or an ARM `dmb.*` via the [`Fence`]
    /// constants).
    pub fn fence(&mut self, f: Fence) -> StmtId {
        self.push(Stmt::Fence(f))
    }

    /// ARM `dmb.sy`.
    pub fn dmb_sy(&mut self) -> StmtId {
        self.fence(Fence::FULL)
    }

    /// ARM `dmb.ld`.
    pub fn dmb_ld(&mut self) -> StmtId {
        self.fence(Fence::LD)
    }

    /// ARM `dmb.st`.
    pub fn dmb_st(&mut self) -> StmtId {
        self.fence(Fence::ST)
    }

    /// RISC-V `fence.tso`, the macro `fence_{R,R}; fence_{RW,W}` (§A.3).
    pub fn fence_tso(&mut self) -> StmtId {
        let a = self.fence(Fence::RR);
        let b = self.fence(Fence::RWW);
        self.push(Stmt::Seq(a, b))
    }

    /// ARM `isb`.
    pub fn isb(&mut self) -> StmtId {
        self.push(Stmt::Isb)
    }

    /// `s1; s2`.
    pub fn then(&mut self, s1: StmtId, s2: StmtId) -> StmtId {
        self.push(Stmt::Seq(s1, s2))
    }

    /// Right-nested sequence of statements; empty input yields `skip`.
    pub fn seq(&mut self, stmts: &[StmtId]) -> StmtId {
        match stmts.split_last() {
            None => self.skip(),
            Some((&last, rest)) => {
                let mut acc = last;
                for &s in rest.iter().rev() {
                    acc = self.push(Stmt::Seq(s, acc));
                }
                acc
            }
        }
    }

    /// `if (cond) then_branch else_branch`.
    pub fn if_else(
        &mut self,
        cond: impl Into<Expr>,
        then_branch: StmtId,
        else_branch: StmtId,
    ) -> StmtId {
        self.push(Stmt::If {
            cond: cond.into(),
            then_branch,
            else_branch,
        })
    }

    /// `if (cond) then_branch skip`.
    pub fn if_then(&mut self, cond: impl Into<Expr>, then_branch: StmtId) -> StmtId {
        let e = self.skip();
        self.if_else(cond, then_branch, e)
    }

    /// `while (cond) body`.
    pub fn while_loop(&mut self, cond: impl Into<Expr>, body: StmtId) -> StmtId {
        self.push(Stmt::While {
            cond: cond.into(),
            body,
        })
    }

    /// Finish the thread with the given entry statement.
    pub fn finish(self, entry: StmtId) -> ThreadCode {
        assert!(
            (entry.0 as usize) < self.stmts.len(),
            "entry statement out of range"
        );
        let (may_read, may_write) = may_access_tables(&self.stmts);
        ThreadCode {
            stmts: self.stmts,
            entry,
            may_read,
            may_write,
        }
    }

    /// Finish the thread as the sequence of the given statements.
    pub fn finish_seq(mut self, stmts: &[StmtId]) -> ThreadCode {
        let entry = self.seq(stmts);
        self.finish(entry)
    }
}

/// Register space used by [`desugar_rmws`] for its retry-loop flags:
/// above [`SCRATCH_REG_BASE`] (so the flags stay hidden from outcomes)
/// and disjoint from the scratch registers the original builder may have
/// allocated.
pub const DESUGAR_REG_BASE: u32 = 2_000_000;

/// Rewrite every [`Stmt::Rmw`] of `code` into its canonical
/// load-/store-exclusive retry loop:
///
/// ```text
/// flag = 0
/// while (flag == 0) {
///     dst = loadx_rk(addr)
///     // CAS only:
///     if (dst == expected) { succ = storex_wk(addr, new); if (succ == 0) { flag = 1 } }
///     else                 { succ = 1; flag = 1 }
///     // other ops:
///     succ = storex_wk(addr, op(dst, operand)); if (succ == 0) { flag = 1 }
/// }
/// ```
///
/// This is the reference semantics of the single-instruction RMW: its
/// outcome sets equal the desugared loop's on every strategy and
/// architecture (`tests/rmw_equivalence.rs`), but each desugared RMW
/// costs a fuel-bounded loop of exclusive attempts (extra transitions,
/// failure branches) instead of one transition — the LL/SC-vs-LSE
/// ablation measures exactly that gap.
pub fn desugar_rmws(code: &ThreadCode) -> ThreadCode {
    let mut d = Desugarer {
        b: CodeBuilder::new(),
        fresh: 0,
    };
    let entry = d.copy(code, code.entry());
    d.b.finish(entry)
}

/// [`desugar_rmws`] applied to every thread of a program.
pub fn desugar_program_rmws(program: &Program) -> Program {
    Program::new(program.threads().iter().map(desugar_rmws).collect())
}

struct Desugarer {
    b: CodeBuilder,
    fresh: u32,
}

impl Desugarer {
    fn fresh_flag(&mut self) -> Reg {
        let r = Reg(DESUGAR_REG_BASE + self.fresh);
        self.fresh += 1;
        r
    }

    fn copy(&mut self, code: &ThreadCode, id: StmtId) -> StmtId {
        match code.stmt(id).clone() {
            Stmt::Skip => self.b.skip(),
            Stmt::Assign { reg, expr } => self.b.assign(reg, expr),
            Stmt::Load {
                reg,
                addr,
                kind,
                exclusive,
            } => self.b.load_kind(reg, addr, kind, exclusive),
            Stmt::Store {
                succ,
                addr,
                data,
                kind,
                exclusive,
            } => self.b.store_kind(succ, addr, data, kind, exclusive),
            Stmt::Fence(f) => self.b.fence(f),
            Stmt::Isb => self.b.isb(),
            Stmt::Seq(a, c) => {
                let a = self.copy(code, a);
                let c = self.copy(code, c);
                self.b.then(a, c)
            }
            Stmt::If {
                cond,
                then_branch,
                else_branch,
            } => {
                let t = self.copy(code, then_branch);
                let e = self.copy(code, else_branch);
                self.b.if_else(cond, t, e)
            }
            Stmt::While { cond, body } => {
                let body = self.copy(code, body);
                self.b.while_loop(cond, body)
            }
            Stmt::Rmw {
                op,
                dst,
                succ,
                addr,
                expected,
                operand,
                rk,
                wk,
            } => {
                let flag = self.fresh_flag();
                let b = &mut self.b;
                let init = b.assign(flag, Expr::val(0));
                let ld = b.load_kind(dst, addr.clone(), rk, true);
                let data = op.data_expr(dst, operand);
                let stx = b.store_kind(succ, addr, data, wk, true);
                let set = b.assign(flag, Expr::val(1));
                let on_success = b.if_then(Expr::reg(succ).eq(Expr::val(0)), set);
                let attempt = b.then(stx, on_success);
                let body = match expected {
                    None => b.then(ld, attempt),
                    Some(exp) => {
                        let fail_succ = b.assign(succ, Expr::val(1));
                        let fail_set = b.assign(flag, Expr::val(1));
                        let fail = b.then(fail_succ, fail_set);
                        let guard = b.if_else(Expr::reg(dst).eq(exp), attempt, fail);
                        b.then(ld, guard)
                    }
                };
                let w = b.while_loop(Expr::reg(flag).eq(Expr::val(0)), body);
                b.then(init, w)
            }
        }
    }
}

impl fmt::Display for StmtId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "s{}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::Reg;

    #[test]
    fn kinds_are_ordered_as_in_the_paper() {
        assert!(ReadKind::Plain < ReadKind::WeakAcquire);
        assert!(ReadKind::WeakAcquire < ReadKind::Acquire);
        assert!(WriteKind::Plain < WriteKind::WeakRelease);
        assert!(WriteKind::WeakRelease < WriteKind::Release);
    }

    #[test]
    fn access_sets_decompose() {
        assert!(AccessSet::RW.includes_reads() && AccessSet::RW.includes_writes());
        assert!(AccessSet::R.includes_reads() && !AccessSet::R.includes_writes());
        assert!(!AccessSet::W.includes_reads() && AccessSet::W.includes_writes());
    }

    #[test]
    fn builder_seq_of_empty_is_skip() {
        let mut b = CodeBuilder::new();
        let s = b.seq(&[]);
        let code = b.finish(s);
        assert!(matches!(code.stmt(code.entry()), Stmt::Skip));
    }

    #[test]
    fn builder_seq_nests_right() {
        let mut b = CodeBuilder::new();
        let s1 = b.skip();
        let s2 = b.skip();
        let s3 = b.skip();
        let seq = b.seq(&[s1, s2, s3]);
        let code = b.finish(seq);
        match code.stmt(code.entry()) {
            Stmt::Seq(a, rest) => {
                assert_eq!(*a, s1);
                match code.stmt(*rest) {
                    Stmt::Seq(b_, c) => {
                        assert_eq!(*b_, s2);
                        assert_eq!(*c, s3);
                    }
                    other => panic!("expected Seq, got {other:?}"),
                }
            }
            other => panic!("expected Seq, got {other:?}"),
        }
    }

    #[test]
    fn plain_stores_get_scratch_success_registers() {
        let mut b = CodeBuilder::new();
        let s1 = b.store(Expr::val(0), Expr::val(1));
        let s2 = b.store(Expr::val(0), Expr::val(2));
        let code = b.finish_seq(&[s1, s2]);
        let succs: Vec<Reg> = code
            .stmts
            .iter()
            .filter_map(|s| match s {
                Stmt::Store { succ, .. } => Some(*succ),
                _ => None,
            })
            .collect();
        assert_eq!(succs.len(), 2);
        assert_ne!(succs[0], succs[1]);
        assert!(succs.iter().all(|r| r.0 >= SCRATCH_REG_BASE));
    }

    #[test]
    fn instruction_count_counts_memory_ops_and_fences() {
        let mut b = CodeBuilder::new();
        let l = b.load(Reg(0), Expr::val(0));
        let f = b.dmb_sy();
        let s = b.store(Expr::val(1), Expr::val(1));
        let code = b.finish_seq(&[l, f, s]);
        assert_eq!(code.instruction_count(), 3);
    }

    #[test]
    fn fence_tso_is_the_two_fence_macro() {
        let mut b = CodeBuilder::new();
        let t = b.fence_tso();
        let code = b.finish(t);
        match code.stmt(code.entry()) {
            Stmt::Seq(a, b_) => {
                assert_eq!(*code.stmt(*a), Stmt::Fence(Fence::RR));
                assert_eq!(*code.stmt(*b_), Stmt::Fence(Fence::RWW));
            }
            other => panic!("expected Seq, got {other:?}"),
        }
    }
}
