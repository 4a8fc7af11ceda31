//! Instruction instances of the Flat-lite machine.
//!
//! Unlike Promising's single-step instructions, a Flat instruction is an
//! *instance* that is fetched (possibly speculatively), executes in several
//! steps (address/data resolution, satisfy or propagate), and is finally
//! bound. This mirrors the abstract-microarchitectural structure of the
//! Flat model of Pulte et al. [POPL 2018] that the paper benchmarks
//! against.

use promising_core::expr::Expr;
use promising_core::ids::{Reg, Timestamp, Val};
use promising_core::stmt::{Fence, ReadKind, RmwOp, StmtId, WriteKind};

/// What an instance does.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub enum InstOp {
    /// Register assignment.
    Assign {
        /// Destination.
        reg: Reg,
        /// Source expression.
        expr: Expr,
    },
    /// A load.
    Load {
        /// Destination register.
        reg: Reg,
        /// Address expression.
        addr: Expr,
        /// Acquire strength.
        rk: ReadKind,
        /// Load exclusive?
        exclusive: bool,
    },
    /// A store.
    Store {
        /// Success register (meaningful for exclusives).
        succ: Reg,
        /// Address expression.
        addr: Expr,
        /// Data expression.
        data: Expr,
        /// Release strength.
        wk: WriteKind,
        /// Store exclusive?
        exclusive: bool,
    },
    /// A single-instruction atomic RMW, executed in two phases: a
    /// read-bind step binds the old value from the coherence-latest
    /// write (satisfying the acquire strength of the read half), and a
    /// later write-propagate step appends the updated value — guarded
    /// by the exclusive-pairing invariant that no other thread's write
    /// to the location lands in between. Conservative like the
    /// store-exclusive handling: it never forwards from unpropagated
    /// stores, and the success flag binds only when the write half
    /// resolves.
    Rmw {
        /// The update performed.
        op: RmwOp,
        /// Old-value destination register.
        dst: Reg,
        /// Success-flag register.
        succ: Reg,
        /// Address expression.
        addr: Expr,
        /// CAS only: expected value.
        expected: Option<Expr>,
        /// Stored value / fetch-op operand.
        operand: Expr,
        /// Acquire strength of the read half.
        rk: ReadKind,
        /// Release strength of the write half.
        wk: WriteKind,
    },
    /// A fence.
    Fence(Fence),
    /// An ARM `isb`.
    Isb,
    /// A (conditional or loop) branch, fetched with a speculation guess.
    Branch {
        /// The branch condition.
        cond: Expr,
        /// The guessed direction.
        guess: bool,
        /// The fetch continuation for the direction *not* guessed, for
        /// squashing on mis-speculation.
        alt_cont: Vec<StmtId>,
    },
}

/// Where a satisfied load got its value.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum Src {
    /// From memory at the given timestamp.
    Memory(Timestamp),
    /// Forwarded from the po-earlier store instance at this index.
    Forward(usize),
}

/// The lifecycle state of an instance.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum InstState {
    /// Fetched, nothing done yet.
    Pending,
    /// Assignment executed.
    Done {
        /// Computed value.
        val: Val,
    },
    /// Load satisfied (value bound; never restarted in Flat-lite).
    Satisfied {
        /// Source of the value.
        src: Src,
        /// The value read.
        val: Val,
    },
    /// Store propagated to memory.
    Propagated {
        /// Timestamp in memory.
        ts: Timestamp,
    },
    /// Store exclusive failed.
    Failed,
    /// RMW read half bound: read `old` at `tr`, write half still
    /// pending. The read's acquire strength is satisfied here, so
    /// po-later loads blocked only on the acquire may now bind — the
    /// `rmw` edge of the axiomatic model runs read→write, the wrong
    /// direction to order anything po-later after the *write*.
    RmwBound {
        /// Timestamp the read half read from.
        tr: Timestamp,
        /// The old value read.
        old: Val,
    },
    /// RMW retired: read `old` at `tr`, and (unless a CAS compare
    /// failed) wrote at `wrote`.
    RmwDone {
        /// Timestamp the read half read from.
        tr: Timestamp,
        /// The old value read.
        old: Val,
        /// Timestamp of the write (`None`: CAS compare failure, nothing
        /// written).
        wrote: Option<Timestamp>,
    },
    /// Fence or `isb` committed.
    Committed,
    /// Branch resolved.
    Resolved {
        /// Actual direction.
        taken: bool,
    },
}

/// One instruction instance.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub struct Instance {
    /// The statement this instance was fetched from.
    pub stmt: StmtId,
    /// Its operation.
    pub op: InstOp,
    /// Its lifecycle state.
    pub state: InstState,
}

impl Instance {
    /// Fresh pending instance.
    pub fn new(stmt: StmtId, op: InstOp) -> Instance {
        Instance {
            stmt,
            op,
            state: InstState::Pending,
        }
    }

    /// Whether the instance has reached a final state (its effects are
    /// bound and it can never change again). A bound-but-unpropagated
    /// RMW is *not* final: its write half is still a pending append.
    pub fn is_bound(&self) -> bool {
        !matches!(self.state, InstState::Pending | InstState::RmwBound { .. })
    }

    /// Whether the instance's *read half* is bound. For loads this is
    /// [`is_bound`](Self::is_bound); for RMWs the read binds at
    /// `RmwBound`, before the write half propagates. Instances without
    /// a read half are vacuously satisfied.
    pub fn read_satisfied(&self) -> bool {
        match &self.op {
            InstOp::Load { .. } => self.is_bound(),
            InstOp::Rmw { .. } => matches!(
                self.state,
                InstState::RmwBound { .. } | InstState::RmwDone { .. }
            ),
            _ => true,
        }
    }

    /// The value this instance wrote to `r`, if it writes `r` and the
    /// value is available yet.
    pub fn written_reg(&self, r: Reg) -> Option<Option<Val>> {
        match &self.op {
            InstOp::Assign { reg, .. } if *reg == r => Some(match self.state {
                InstState::Done { val } => Some(val),
                _ => None,
            }),
            InstOp::Load { reg, .. } if *reg == r => Some(match self.state {
                InstState::Satisfied { val, .. } => Some(val),
                _ => None,
            }),
            InstOp::Store {
                succ, exclusive, ..
            } if *exclusive && *succ == r => Some(match self.state {
                // The success value is bound when the store exclusive
                // propagates (success) or fails. This is the conservative
                // reading of ARM's success dependency (see "Flat-lite's
                // conservative simplifications" in docs/architecture.md).
                InstState::Propagated { .. } => Some(Val::SUCCESS),
                InstState::Failed => Some(Val::FAIL),
                _ => None,
            }),
            InstOp::Rmw { dst, .. } if *dst == r => Some(match self.state {
                // The old value is visible as soon as the read half
                // binds — po-later dependents need not wait for the
                // write to land.
                InstState::RmwBound { old, .. } | InstState::RmwDone { old, .. } => Some(old),
                _ => None,
            }),
            InstOp::Rmw { succ, .. } if *succ == r => Some(match self.state {
                InstState::RmwDone { wrote, .. } => Some(if wrote.is_some() {
                    Val::SUCCESS
                } else {
                    Val::FAIL
                }),
                _ => None,
            }),
            _ => None,
        }
    }

    /// Is this a load instance (RMWs count: they read)?
    pub fn is_load(&self) -> bool {
        matches!(self.op, InstOp::Load { .. } | InstOp::Rmw { .. })
    }

    /// Is this a store instance (RMWs count: they may write)?
    pub fn is_store(&self) -> bool {
        matches!(self.op, InstOp::Store { .. } | InstOp::Rmw { .. })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use promising_core::ids::Reg;

    #[test]
    fn pending_instances_are_unbound() {
        let i = Instance::new(
            StmtId(0),
            InstOp::Assign {
                reg: Reg(0),
                expr: Expr::val(1),
            },
        );
        assert!(!i.is_bound());
    }

    #[test]
    fn written_reg_distinguishes_not_mine_and_not_ready() {
        let mut i = Instance::new(
            StmtId(0),
            InstOp::Assign {
                reg: Reg(0),
                expr: Expr::val(1),
            },
        );
        assert_eq!(i.written_reg(Reg(1)), None); // not my register
        assert_eq!(i.written_reg(Reg(0)), Some(None)); // mine, not ready
        i.state = InstState::Done { val: Val(1) };
        assert_eq!(i.written_reg(Reg(0)), Some(Some(Val(1))));
    }

    #[test]
    fn exclusive_store_success_register_binds_at_propagate_or_fail() {
        let mut i = Instance::new(
            StmtId(0),
            InstOp::Store {
                succ: Reg(2),
                addr: Expr::val(0),
                data: Expr::val(1),
                wk: WriteKind::Plain,
                exclusive: true,
            },
        );
        assert_eq!(i.written_reg(Reg(2)), Some(None));
        i.state = InstState::Failed;
        assert_eq!(i.written_reg(Reg(2)), Some(Some(Val::FAIL)));
        i.state = InstState::Propagated { ts: Timestamp(1) };
        assert_eq!(i.written_reg(Reg(2)), Some(Some(Val::SUCCESS)));
    }

    #[test]
    fn rmw_old_value_binds_at_read_half_success_at_write_half() {
        let mut i = Instance::new(
            StmtId(0),
            InstOp::Rmw {
                op: RmwOp::FetchAdd,
                dst: Reg(1),
                succ: Reg(2),
                addr: Expr::val(0),
                expected: None,
                operand: Expr::val(1),
                rk: ReadKind::Acquire,
                wk: WriteKind::Plain,
            },
        );
        assert!(!i.read_satisfied());
        i.state = InstState::RmwBound {
            tr: Timestamp(0),
            old: Val(7),
        };
        // Read half bound: old value visible, success still pending,
        // and the instance as a whole is not final.
        assert!(i.read_satisfied());
        assert!(!i.is_bound());
        assert_eq!(i.written_reg(Reg(1)), Some(Some(Val(7))));
        assert_eq!(i.written_reg(Reg(2)), Some(None));
        i.state = InstState::RmwDone {
            tr: Timestamp(0),
            old: Val(7),
            wrote: Some(Timestamp(1)),
        };
        assert!(i.is_bound());
        assert_eq!(i.written_reg(Reg(2)), Some(Some(Val::SUCCESS)));
    }

    #[test]
    fn non_exclusive_store_does_not_write_success() {
        let i = Instance::new(
            StmtId(0),
            InstOp::Store {
                succ: Reg(2),
                addr: Expr::val(0),
                data: Expr::val(1),
                wk: WriteKind::Plain,
                exclusive: false,
            },
        );
        assert_eq!(i.written_reg(Reg(2)), None);
    }
}
