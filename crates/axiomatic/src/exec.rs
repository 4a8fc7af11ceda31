//! Per-thread symbolic unfolding into candidate-execution events.
//!
//! herd-style candidate generation (§8, §D): each thread is unfolded into
//! all of its *local traces* — sequences of memory events where every load
//! is annotated with a value chosen from a per-location *value pool*, and
//! every store exclusive branches on success/failure. Dependencies
//! (`addr`, `data`, `ctrl`) are tracked by tainting registers with the
//! events their values derive from.
//!
//! The value pool is computed as a fixpoint: starting from the initial
//! values, repeatedly unfold all threads and add every value any store
//! writes, until no new values appear or the iteration count exceeds the
//! number of writes an execution can hold: summed over threads, the
//! thread's store count, times `loop_fuel + 1` if it has a loop. No
//! allowed execution has a longer chain of writes each sourcing a read the
//! next depends on, so later iterations add no readable value. Writes on
//! paths that run out of loop fuel enter the pools too: such a path
//! yields no trace, but a write it makes before the loop can still be
//! read in a complete execution.

use crate::AxError;
use promising_core::config::Arch;
use promising_core::expr::Expr;
use promising_core::ids::{Loc, Reg, TId, Val};
use promising_core::stmt::{Fence, ReadKind, RmwOp, Stmt, StmtId, ThreadCode, WriteKind};
use std::collections::{BTreeMap, BTreeSet};

/// A memory-model event of a candidate execution.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Event {
    /// Originating thread; `None` for the initial writes.
    pub tid: Option<TId>,
    /// Position in its thread's program order (meaningless for init).
    pub po: usize,
    /// What the event is.
    pub kind: EventKind,
    /// Events (trace-local indices) the *address* derives from.
    pub addr_deps: BTreeSet<usize>,
    /// Events the written *data* derives from (stores only).
    pub data_deps: BTreeSet<usize>,
    /// Events any program-order-earlier branch condition derives from.
    pub ctrl_deps: BTreeSet<usize>,
}

/// Event payloads.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum EventKind {
    /// A read of `loc` obtaining `val`.
    Read {
        /// Location read.
        loc: Loc,
        /// Value obtained.
        val: Val,
        /// Acquire strength.
        rk: ReadKind,
        /// Load exclusive?
        exclusive: bool,
    },
    /// A write of `val` to `loc`.
    Write {
        /// Location written.
        loc: Loc,
        /// Value written.
        val: Val,
        /// Release strength.
        wk: WriteKind,
        /// (Successful) store exclusive?
        exclusive: bool,
    },
    /// A fence.
    Fence(Fence),
    /// An ARM `isb`.
    Isb,
}

impl EventKind {
    /// The location accessed, if a memory access.
    pub fn loc(&self) -> Option<Loc> {
        match self {
            EventKind::Read { loc, .. } | EventKind::Write { loc, .. } => Some(*loc),
            _ => None,
        }
    }

    /// Is this a read?
    pub fn is_read(&self) -> bool {
        matches!(self, EventKind::Read { .. })
    }

    /// Is this a write?
    pub fn is_write(&self) -> bool {
        matches!(self, EventKind::Write { .. })
    }
}

/// One local trace of a thread: its events in program order, its final
/// registers, and its successful load/store-exclusive pairs.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct LocalTrace {
    /// Events in program order (trace-local indices).
    pub events: Vec<Event>,
    /// Final register valuation (including scratch registers; filtered at
    /// outcome assembly).
    pub final_regs: BTreeMap<Reg, Val>,
    /// Successful exclusive pairs `(load index, store index)`.
    pub rmw: Vec<(usize, usize)>,
}

/// The location and value of a write event.
fn written(ev: &Event) -> Option<(Loc, Val)> {
    match ev.kind {
        EventKind::Write { loc, val, .. } => Some((loc, val)),
        _ => None,
    }
}

/// Per-location pools of readable values (initial values are implicit and
/// always readable).
pub type ValuePools = BTreeMap<Loc, BTreeSet<Val>>;

/// Resource caps for the enumeration (the axiomatic model is
/// litmus-test-scale by design, like herd; these keep it honest).
#[derive(Clone, Copy, Debug)]
pub struct Limits {
    /// Maximum local traces per thread.
    pub max_traces: usize,
    /// Maximum value-pool fixpoint iterations.
    pub max_pool_iters: usize,
    /// Maximum pool size per location.
    pub max_pool_size: usize,
    /// Maximum candidate executions checked.
    pub max_candidates: u64,
}

impl Default for Limits {
    fn default() -> Limits {
        Limits {
            max_traces: 200_000,
            max_pool_iters: 64,
            max_pool_size: 256,
            max_candidates: 50_000_000,
        }
    }
}

struct Unfolder<'a> {
    code: &'a ThreadCode,
    tid: TId,
    arch: Arch,
    pools: &'a ValuePools,
    init: &'a BTreeMap<Loc, Val>,
    limits: &'a Limits,
    out: Unfolding,
}

/// One thread's unfolding: its complete traces, plus the writes made by
/// the paths discarded for running out of loop fuel.
#[derive(Default)]
struct Unfolding {
    traces: Vec<LocalTrace>,
    dropped_writes: BTreeSet<(Loc, Val)>,
}

/// The symbolic state of one unfolding path.
#[derive(Clone)]
struct Path {
    cont: Vec<StmtId>,
    regs: BTreeMap<Reg, (Val, BTreeSet<usize>)>,
    ctrl: BTreeSet<usize>,
    events: Vec<Event>,
    rmw: Vec<(usize, usize)>,
    pending_ldx: Option<usize>,
    fuel: u32,
}

impl Path {
    fn eval(&self, e: &Expr) -> (Val, BTreeSet<usize>) {
        match e {
            Expr::Const(v) => (*v, BTreeSet::new()),
            Expr::Reg(r) => self
                .regs
                .get(r)
                .cloned()
                .unwrap_or((Val(0), BTreeSet::new())),
            Expr::Binop(op, a, b) => {
                let (va, da) = self.eval(a);
                let (vb, db) = self.eval(b);
                let mut deps = da;
                deps.extend(db);
                (op.apply(va, vb), deps)
            }
        }
    }

    fn normalize(&mut self, code: &ThreadCode) {
        while let Some(&top) = self.cont.last() {
            match code.stmt(top) {
                Stmt::Seq(a, b) => {
                    self.cont.pop();
                    let (a, b) = (*a, *b);
                    self.cont.push(b);
                    self.cont.push(a);
                }
                Stmt::Skip => {
                    self.cont.pop();
                }
                _ => break,
            }
        }
    }
}

/// Unfold one thread into all of its local traces under the given pools.
///
/// # Errors
///
/// Returns [`AxError::TraceOverflow`] if the number of traces exceeds the
/// limit.
pub fn unfold_thread(
    code: &ThreadCode,
    tid: TId,
    arch: Arch,
    pools: &ValuePools,
    init: &BTreeMap<Loc, Val>,
    loop_fuel: u32,
    limits: &Limits,
) -> Result<Vec<LocalTrace>, AxError> {
    unfold(code, tid, arch, pools, init, loop_fuel, limits).map(|u| u.traces)
}

fn unfold(
    code: &ThreadCode,
    tid: TId,
    arch: Arch,
    pools: &ValuePools,
    init: &BTreeMap<Loc, Val>,
    loop_fuel: u32,
    limits: &Limits,
) -> Result<Unfolding, AxError> {
    let mut u = Unfolder {
        code,
        tid,
        arch,
        pools,
        init,
        limits,
        out: Unfolding::default(),
    };
    let mut path = Path {
        cont: vec![code.entry()],
        regs: BTreeMap::new(),
        ctrl: BTreeSet::new(),
        events: Vec::new(),
        rmw: Vec::new(),
        pending_ldx: None,
        fuel: loop_fuel,
    };
    path.normalize(code);
    u.go(path)?;
    Ok(u.out)
}

impl Unfolder<'_> {
    fn readable_values(&self, loc: Loc) -> BTreeSet<Val> {
        let mut vals: BTreeSet<Val> = self.pools.get(&loc).cloned().unwrap_or_default();
        vals.insert(self.init.get(&loc).copied().unwrap_or(Val(0)));
        vals
    }

    fn emit(&mut self, path: Path) -> Result<(), AxError> {
        if self.out.traces.len() >= self.limits.max_traces {
            return Err(AxError::TraceOverflow(self.limits.max_traces));
        }
        self.out.traces.push(LocalTrace {
            events: path.events,
            final_regs: path.regs.iter().map(|(&r, (v, _))| (r, *v)).collect(),
            rmw: path.rmw,
        });
        Ok(())
    }

    fn go(&mut self, mut path: Path) -> Result<(), AxError> {
        loop {
            path.normalize(self.code);
            let Some(&top) = path.cont.last() else {
                return self.emit(path);
            };
            match self.code.stmt(top).clone() {
                Stmt::Skip | Stmt::Seq(..) => unreachable!("normalized"),
                Stmt::Assign { reg, expr } => {
                    let v = path.eval(&expr);
                    path.regs.insert(reg, v);
                    path.cont.pop();
                }
                Stmt::Fence(f) => {
                    let po = path.events.len();
                    path.events.push(Event {
                        tid: Some(self.tid),
                        po,
                        kind: EventKind::Fence(f),
                        addr_deps: BTreeSet::new(),
                        data_deps: BTreeSet::new(),
                        ctrl_deps: path.ctrl.clone(),
                    });
                    path.cont.pop();
                }
                Stmt::Isb => {
                    let po = path.events.len();
                    path.events.push(Event {
                        tid: Some(self.tid),
                        po,
                        kind: EventKind::Isb,
                        addr_deps: BTreeSet::new(),
                        data_deps: BTreeSet::new(),
                        ctrl_deps: path.ctrl.clone(),
                    });
                    path.cont.pop();
                }
                Stmt::If {
                    cond,
                    then_branch,
                    else_branch,
                } => {
                    let (v, deps) = path.eval(&cond);
                    path.ctrl.extend(deps);
                    path.cont.pop();
                    path.cont.push(if v.as_bool() {
                        then_branch
                    } else {
                        else_branch
                    });
                }
                Stmt::While { cond, body } => {
                    let (v, deps) = path.eval(&cond);
                    path.ctrl.extend(deps);
                    if v.as_bool() {
                        if path.fuel == 0 {
                            // bounded out: the path is not a complete
                            // execution and yields no trace, but its writes
                            // still feed the value pools
                            self.out
                                .dropped_writes
                                .extend(path.events.iter().filter_map(written));
                            return Ok(());
                        }
                        path.fuel -= 1;
                        path.cont.push(body);
                    } else {
                        path.cont.pop();
                    }
                }
                Stmt::Load {
                    reg,
                    addr,
                    kind,
                    exclusive,
                } => {
                    let (av, addr_deps) = path.eval(&addr);
                    let loc = Loc::from(av);
                    path.cont.pop();
                    // The address registers feed vCAP in the operational
                    // model, which orders *stores*; axiomatically this is
                    // the (addr; po); [W] row, derived relationally — no
                    // state needed here beyond the recorded addr_deps.
                    let values = self.readable_values(loc);
                    for v in values {
                        let mut p = path.clone();
                        let idx = p.events.len();
                        p.events.push(Event {
                            tid: Some(self.tid),
                            po: idx,
                            kind: EventKind::Read {
                                loc,
                                val: v,
                                rk: kind,
                                exclusive,
                            },
                            addr_deps: addr_deps.clone(),
                            data_deps: BTreeSet::new(),
                            ctrl_deps: p.ctrl.clone(),
                        });
                        p.regs.insert(reg, (v, BTreeSet::from([idx])));
                        if exclusive {
                            p.pending_ldx = Some(idx);
                        }
                        self.go(p)?;
                    }
                    return Ok(());
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
                    let (av, addr_deps) = path.eval(&addr);
                    let loc = Loc::from(av);
                    path.cont.pop();
                    for old in self.readable_values(loc) {
                        let mut p = path.clone();
                        let ridx = p.events.len();
                        p.events.push(Event {
                            tid: Some(self.tid),
                            po: ridx,
                            kind: EventKind::Read {
                                loc,
                                val: old,
                                rk,
                                exclusive: true,
                            },
                            addr_deps: addr_deps.clone(),
                            data_deps: BTreeSet::new(),
                            ctrl_deps: p.ctrl.clone(),
                        });
                        p.regs.insert(dst, (old, BTreeSet::from([ridx])));
                        // CAS: the desugared compare guard taints control
                        // on both branches (it feeds vCAP operationally)
                        let success = match &expected {
                            None => true,
                            Some(exp) => {
                                let (ev, deps) = p.eval(exp);
                                p.ctrl.insert(ridx);
                                p.ctrl.extend(deps);
                                old == ev
                            }
                        };
                        if !success {
                            // compare failure: the read half alone; the
                            // read stays charged in the pairing bank
                            p.regs.insert(succ, (Val::FAIL, BTreeSet::new()));
                            p.pending_ldx = Some(ridx);
                            self.go(p)?;
                            continue;
                        }
                        let (opv, op_deps) = p.eval(&operand);
                        let new = op.apply(old, opv);
                        let widx = p.events.len();
                        let mut data_deps = op_deps;
                        if !matches!(op, RmwOp::Cas | RmwOp::Swp) {
                            // the fetch-ops' data reads the old value
                            data_deps.insert(ridx);
                        }
                        p.events.push(Event {
                            tid: Some(self.tid),
                            po: widx,
                            kind: EventKind::Write {
                                loc,
                                val: new,
                                wk,
                                exclusive: true,
                            },
                            addr_deps: addr_deps.clone(),
                            data_deps,
                            ctrl_deps: p.ctrl.clone(),
                        });
                        p.rmw.push((ridx, widx));
                        // ρ12: the success register's dependency — none on
                        // ARM, the write itself on RISC-V; branching on it
                        // (the desugared loop exit) taints control there.
                        let succ_deps = match self.arch {
                            Arch::Arm => BTreeSet::new(),
                            Arch::RiscV => BTreeSet::from([widx]),
                        };
                        if self.arch == Arch::RiscV {
                            p.ctrl.insert(widx);
                        }
                        p.regs.insert(succ, (Val::SUCCESS, succ_deps));
                        p.pending_ldx = None;
                        self.go(p)?;
                    }
                    return Ok(());
                }
                Stmt::Store {
                    succ,
                    addr,
                    data,
                    kind,
                    exclusive,
                } => {
                    let (av, addr_deps) = path.eval(&addr);
                    let (dv, data_deps) = path.eval(&data);
                    let loc = Loc::from(av);
                    path.cont.pop();
                    if !exclusive {
                        let idx = path.events.len();
                        path.events.push(Event {
                            tid: Some(self.tid),
                            po: idx,
                            kind: EventKind::Write {
                                loc,
                                val: dv,
                                wk: kind,
                                exclusive: false,
                            },
                            addr_deps,
                            data_deps,
                            ctrl_deps: path.ctrl.clone(),
                        });
                        continue;
                    }
                    // store exclusive: fail branch always; success branch
                    // only when paired with a pending load exclusive.
                    {
                        let mut p = path.clone();
                        p.regs.insert(succ, (Val::FAIL, BTreeSet::new()));
                        p.pending_ldx = None;
                        self.go(p)?;
                    }
                    if let Some(ldx) = path.pending_ldx {
                        let mut p = path;
                        let idx = p.events.len();
                        p.events.push(Event {
                            tid: Some(self.tid),
                            po: idx,
                            kind: EventKind::Write {
                                loc,
                                val: dv,
                                wk: kind,
                                exclusive: true,
                            },
                            addr_deps,
                            data_deps,
                            ctrl_deps: p.ctrl.clone(),
                        });
                        p.rmw.push((ldx, idx));
                        // ρ12: the success register's dependency — none on
                        // ARM (view 0), the store-exclusive write itself on
                        // RISC-V (view = the write's timestamp).
                        let succ_deps = match self.arch {
                            Arch::Arm => BTreeSet::new(),
                            Arch::RiscV => BTreeSet::from([idx]),
                        };
                        p.regs.insert(succ, (Val::SUCCESS, succ_deps));
                        p.pending_ldx = None;
                        self.go(p)?;
                    }
                    return Ok(());
                }
            }
        }
    }
}

/// Compute the per-location value pools by fixpoint (see module docs).
///
/// # Errors
///
/// Propagates unfolding overflows and reports pool divergence.
pub fn value_pools(
    program: &promising_core::Program,
    arch: Arch,
    init: &BTreeMap<Loc, Val>,
    loop_fuel: u32,
    limits: &Limits,
) -> Result<ValuePools, AxError> {
    // The fixpoint may diverge (mutually recursive `r + 1` increments), so
    // it stops after `chain_bound` iterations. The pools are complete by
    // then, by the no-thin-air property the ARM and RISC-V axiomatic
    // models share:
    //
    // 1. In an allowed execution, a write's location and value, and
    //    whether it is reached at all, depend only on the po-earlier reads
    //    that flow into its address, its data or an earlier branch. Every
    //    other read can take the initial value without changing the path.
    //    That path may later run out of loop fuel, which is why the writes
    //    of fuel-dropped paths are pooled too.
    // 2. Order writes by "sources a read this write depends on". Within a
    //    thread that chain lies in `dob`: addr, data, `ctrl;[W]` (ctrl is
    //    cumulative) and `(addr|data);rfi`. Across threads the link is
    //    `rfe`. A cycle would be an `ob` cycle, which the external axiom
    //    forbids.
    // 3. So fixpoint iteration k reaches every write of depth ≤ k (the
    //    longest chain ending in it), and depth is at most the execution's
    //    write count.
    //
    // A thread without a loop runs each `Store`/`Rmw` of its arena at most
    // once; one with a loop runs each at most `loop_fuel + 1` times. Values
    // pooled within the bound that no execution writes are harmless: no
    // candidate write event matches them, so their reads are pruned.
    let chain_bound: usize = program
        .threads()
        .iter()
        .map(|code| {
            let runs = if code.has_loop() {
                loop_fuel as usize + 1
            } else {
                1
            };
            code.store_count() * runs
        })
        .sum::<usize>()
        + 1;
    let mut pools = ValuePools::new();
    for iter in 0.. {
        if iter >= chain_bound {
            return Ok(pools);
        }
        if iter >= limits.max_pool_iters {
            return Err(AxError::PoolDiverged(limits.max_pool_iters));
        }
        let mut next = pools.clone();
        for (i, code) in program.threads().iter().enumerate() {
            let u = unfold(code, TId(i), arch, &pools, init, loop_fuel, limits)?;
            let traced = u.traces.iter().flat_map(|tr| &tr.events);
            let writes = traced.filter_map(written).chain(u.dropped_writes);
            for (loc, val) in writes {
                let pool = next.entry(loc).or_default();
                pool.insert(val);
                if pool.len() > limits.max_pool_size {
                    return Err(AxError::PoolOverflow(limits.max_pool_size));
                }
            }
        }
        if next == pools {
            return Ok(pools);
        }
        pools = next;
    }
    unreachable!("loop returns")
}

#[cfg(test)]
mod tests {
    use super::*;
    use promising_core::stmt::CodeBuilder;
    use promising_core::{Expr, Program};

    fn limits() -> Limits {
        Limits::default()
    }

    #[test]
    fn straight_line_store_has_one_trace() {
        let mut b = CodeBuilder::new();
        let s = b.store(Expr::val(0), Expr::val(1));
        let code = b.finish_seq(&[s]);
        let traces = unfold_thread(
            &code,
            TId(0),
            Arch::Arm,
            &ValuePools::new(),
            &BTreeMap::new(),
            8,
            &limits(),
        )
        .unwrap();
        assert_eq!(traces.len(), 1);
        assert_eq!(traces[0].events.len(), 1);
        assert!(traces[0].events[0].kind.is_write());
    }

    #[test]
    fn loads_branch_over_pool_values() {
        let mut b = CodeBuilder::new();
        let l = b.load(Reg(1), Expr::val(0));
        let code = b.finish_seq(&[l]);
        let mut pools = ValuePools::new();
        pools.insert(Loc(0), BTreeSet::from([Val(1), Val(2)]));
        let traces = unfold_thread(
            &code,
            TId(0),
            Arch::Arm,
            &pools,
            &BTreeMap::new(),
            8,
            &limits(),
        )
        .unwrap();
        // initial 0 plus pool values 1, 2
        assert_eq!(traces.len(), 3);
        let finals: BTreeSet<i64> = traces.iter().map(|t| t.final_regs[&Reg(1)].0).collect();
        assert_eq!(finals, BTreeSet::from([0, 1, 2]));
    }

    #[test]
    fn control_dependencies_taint_later_events() {
        // r1 = load x; if (r1) { store y 1 }
        let mut b = CodeBuilder::new();
        let l = b.load(Reg(1), Expr::val(0));
        let st = b.store(Expr::val(1), Expr::val(1));
        let br = b.if_then(Expr::reg(Reg(1)), st);
        let code = b.finish_seq(&[l, br]);
        let mut pools = ValuePools::new();
        pools.insert(Loc(0), BTreeSet::from([Val(1)]));
        let traces = unfold_thread(
            &code,
            TId(0),
            Arch::Arm,
            &pools,
            &BTreeMap::new(),
            8,
            &limits(),
        )
        .unwrap();
        let taken: Vec<_> = traces.iter().filter(|t| t.events.len() == 2).collect();
        assert_eq!(taken.len(), 1);
        assert_eq!(taken[0].events[1].ctrl_deps, BTreeSet::from([0]));
    }

    #[test]
    fn exclusive_success_records_rmw_and_arch_deps() {
        let mut b = CodeBuilder::new();
        let l = b.load_excl(Reg(1), Expr::val(0));
        let s = b.store_excl(Reg(2), Expr::val(0), Expr::reg(Reg(1)).add(Expr::val(1)));
        let st2 = b.store(Expr::val(1), Expr::reg(Reg(2)));
        let code = b.finish_seq(&[l, s, st2]);
        for arch in [Arch::Arm, Arch::RiscV] {
            let traces = unfold_thread(
                &code,
                TId(0),
                arch,
                &ValuePools::new(),
                &BTreeMap::new(),
                8,
                &limits(),
            )
            .unwrap();
            // success and failure branches
            assert_eq!(traces.len(), 2);
            let success = traces
                .iter()
                .find(|t| !t.rmw.is_empty())
                .expect("success branch");
            assert_eq!(success.rmw, vec![(0, 1)]);
            // the dependent store of the success bit:
            let dep_store = success.events.last().unwrap();
            match arch {
                Arch::Arm => assert!(dep_store.data_deps.is_empty()),
                Arch::RiscV => assert_eq!(dep_store.data_deps, BTreeSet::from([1])),
            }
        }
    }

    #[test]
    fn while_loops_are_fuel_bounded_and_incomplete_paths_discarded() {
        // while (r1 == 0) { r1 = load x } with pool {0}: never terminates,
        // every path is discarded.
        let mut b = CodeBuilder::new();
        let l = b.load(Reg(1), Expr::val(0));
        let w = b.while_loop(Expr::reg(Reg(1)).eq(Expr::val(0)), l);
        let code = b.finish(w);
        let traces = unfold_thread(
            &code,
            TId(0),
            Arch::Arm,
            &ValuePools::new(),
            &BTreeMap::new(),
            4,
            &limits(),
        )
        .unwrap();
        assert!(traces.is_empty());
    }

    #[test]
    fn pool_fixpoint_propagates_values_across_threads() {
        // T0: store x 1 — T1: r1 = load x; store y r1
        let mut b = CodeBuilder::new();
        let s = b.store(Expr::val(0), Expr::val(1));
        let t0 = b.finish_seq(&[s]);
        let mut b = CodeBuilder::new();
        let l = b.load(Reg(1), Expr::val(0));
        let s = b.store(Expr::val(1), Expr::reg(Reg(1)));
        let t1 = b.finish_seq(&[l, s]);
        let program = Program::new(vec![t0, t1]);
        let pools = value_pools(&program, Arch::Arm, &BTreeMap::new(), 8, &limits()).unwrap();
        assert_eq!(pools[&Loc(0)], BTreeSet::from([Val(1)]));
        // y can be written 0 (from init x) or 1 (from T0's write)
        assert_eq!(pools[&Loc(1)], BTreeSet::from([Val(0), Val(1)]));
    }

    #[test]
    fn loop_free_threads_are_not_charged_loop_fuel() {
        // An execution holds at most the two RMW writes, so the pools stop
        // after three rounds at any fuel instead of gaining a `+1` value
        // per round until the iteration limit.
        let (program, _) = promising_core::parse_program(
            "r1 = amo_add_acq(x, 1)\nr2 = load(y)\n---\nr3 = amo_add_acq(y, 1)\nr4 = load(x)",
        )
        .unwrap();
        for arch in [Arch::Arm, Arch::RiscV] {
            let pools = value_pools(&program, arch, &BTreeMap::new(), 64, &limits()).unwrap();
            assert!(pools.values().all(|p| p.len() <= 3), "{pools:?}");
        }
    }

    #[test]
    fn looping_threads_are_charged_loop_fuel() {
        // One store in a loop writes x = 1, 2, 3 in turn, each from the
        // last, before r1 reads 3: a bound of one write per store would
        // stop the pool at {1, 2} and lose the only execution.
        let (program, _) =
            promising_core::parse_program("while (r1 != 3) {\nr1 = load(x)\nstore(x, r1 + 1)\n}")
                .unwrap();
        let pools = value_pools(&program, Arch::Arm, &BTreeMap::new(), 4, &limits()).unwrap();
        assert!(pools[&Loc(0)].contains(&Val(3)), "{pools:?}");
    }
}
