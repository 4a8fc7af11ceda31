//! The surface-language AST: C11-flavoured atomics over the shared
//! expression language of `promising-core`.
//!
//! A program is a parallel composition of threads; a thread is a
//! statement list. Accesses carry a C11 [`Ordering`] instead of the
//! hardware acquire/release strengths — the two compilation schemes
//! ([`compile`](mod@crate::compile)) lower orderings to per-architecture
//! instruction sequences following the IMM mappings.

use promising_core::{Expr, Reg, RmwOp};
use std::fmt;

/// C11 memory orderings (plus `na` for non-atomic accesses).
///
/// `na` and `rlx` compile identically on both architectures (a plain
/// access); the language keeps them distinct because they differ at the
/// language level (data races on `na` accesses are undefined behaviour in
/// C11 — the operational model here gives them the `rlx` semantics).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug, Default)]
pub enum Ordering {
    /// Non-atomic (plain) access.
    #[default]
    NotAtomic,
    /// `memory_order_relaxed`.
    Relaxed,
    /// `memory_order_acquire`.
    Acquire,
    /// `memory_order_release`.
    Release,
    /// `memory_order_acq_rel`.
    AcqRel,
    /// `memory_order_seq_cst`.
    SeqCst,
}

impl Ordering {
    /// All orderings, for generators and property tests.
    pub const ALL: [Ordering; 6] = [
        Ordering::NotAtomic,
        Ordering::Relaxed,
        Ordering::Acquire,
        Ordering::Release,
        Ordering::AcqRel,
        Ordering::SeqCst,
    ];

    /// The surface keyword.
    pub fn keyword(self) -> &'static str {
        match self {
            Ordering::NotAtomic => "na",
            Ordering::Relaxed => "rlx",
            Ordering::Acquire => "acq",
            Ordering::Release => "rel",
            Ordering::AcqRel => "acq_rel",
            Ordering::SeqCst => "sc",
        }
    }

    /// Parse a surface keyword.
    pub fn from_keyword(kw: &str) -> Option<Ordering> {
        Ordering::ALL.into_iter().find(|o| o.keyword() == kw)
    }

    /// Does the ordering include acquire semantics (for RMWs)?
    pub fn is_acquire(self) -> bool {
        matches!(
            self,
            Ordering::Acquire | Ordering::AcqRel | Ordering::SeqCst
        )
    }

    /// Does the ordering include release semantics (for RMWs)?
    pub fn is_release(self) -> bool {
        matches!(
            self,
            Ordering::Release | Ordering::AcqRel | Ordering::SeqCst
        )
    }

    /// Valid on a load? (C11: loads are `rlx`/`acq`/`sc`, or non-atomic.)
    pub fn valid_for_load(self) -> bool {
        matches!(
            self,
            Ordering::NotAtomic | Ordering::Relaxed | Ordering::Acquire | Ordering::SeqCst
        )
    }

    /// Valid on a store? (C11: stores are `rlx`/`rel`/`sc`, or non-atomic.)
    pub fn valid_for_store(self) -> bool {
        matches!(
            self,
            Ordering::NotAtomic | Ordering::Relaxed | Ordering::Release | Ordering::SeqCst
        )
    }

    /// Valid on an RMW? (Always atomic: everything except `na`.)
    pub fn valid_for_rmw(self) -> bool {
        self != Ordering::NotAtomic
    }

    /// Valid on a fence? (C11 fences: `acq`/`rel`/`acq_rel`/`sc`.)
    pub fn valid_for_fence(self) -> bool {
        matches!(
            self,
            Ordering::Acquire | Ordering::Release | Ordering::AcqRel | Ordering::SeqCst
        )
    }
}

impl fmt::Display for Ordering {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.keyword())
    }
}

/// A surface-language statement.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum Stmt {
    /// `skip`.
    Skip,
    /// `r = e`.
    Assign {
        /// Destination register.
        reg: Reg,
        /// Assigned expression.
        expr: Expr,
    },
    /// `r = load(addr, ord)` (omitted ordering: non-atomic).
    Load {
        /// Destination register.
        reg: Reg,
        /// Address expression (location names intern via the shared
        /// [`promising_core::LocTable`]; dependency idioms like
        /// `x + (r1 - r1)` are allowed).
        addr: Expr,
        /// C11 ordering (must satisfy [`Ordering::valid_for_load`]).
        ord: Ordering,
    },
    /// `store(addr, data, ord)` (omitted ordering: non-atomic).
    Store {
        /// Address expression.
        addr: Expr,
        /// Data expression.
        data: Expr,
        /// C11 ordering (must satisfy [`Ordering::valid_for_store`]).
        ord: Ordering,
    },
    /// An atomic read-modify-write:
    /// `r = cas(addr, expected, new, ord)`, `r = swap(addr, v, ord)`,
    /// `r = fetch_add(addr, v, ord)`, … The destination register receives
    /// the old value (CAS success is observable as `r == expected`).
    Rmw {
        /// The update performed.
        op: RmwOp,
        /// Destination register (old value).
        dst: Reg,
        /// Address expression (must not depend on `dst`).
        addr: Expr,
        /// CAS only: the expected value.
        expected: Option<Expr>,
        /// Stored value (`cas`/`swap`) or second fetch-op argument.
        operand: Expr,
        /// C11 ordering (must satisfy [`Ordering::valid_for_rmw`]).
        ord: Ordering,
    },
    /// `fence(ord)` — a standalone C11 fence.
    Fence(Ordering),
    /// `if (cond) { … } else { … }`.
    If {
        /// Branch condition.
        cond: Expr,
        /// Taken when `cond ≠ 0`.
        then_branch: Vec<Stmt>,
        /// Taken when `cond = 0`.
        else_branch: Vec<Stmt>,
    },
    /// `while (cond) { … }`.
    While {
        /// Loop condition.
        cond: Expr,
        /// Loop body.
        body: Vec<Stmt>,
    },
}

/// The surface spelling of an RMW op (no ordering suffix; the ordering is
/// a trailing argument in the surface language).
pub fn rmw_surface_name(op: RmwOp) -> &'static str {
    match op {
        RmwOp::Cas => "cas",
        RmwOp::Swp => "swap",
        RmwOp::FetchAdd => "fetch_add",
        RmwOp::FetchAnd => "fetch_and",
        RmwOp::FetchOr => "fetch_or",
        RmwOp::FetchXor => "fetch_xor",
        RmwOp::FetchMax => "fetch_max",
    }
}

/// One thread: a statement list.
#[derive(Clone, PartialEq, Eq, Debug, Default)]
pub struct Thread(pub Vec<Stmt>);

/// A surface-language program: a parallel composition of threads.
#[derive(Clone, PartialEq, Eq, Debug, Default)]
pub struct Program {
    threads: Vec<Thread>,
}

impl Program {
    /// Build a program from per-thread statement lists.
    pub fn new(threads: Vec<Thread>) -> Program {
        Program { threads }
    }

    /// The threads, in thread-id order.
    pub fn threads(&self) -> &[Thread] {
        &self.threads
    }

    /// Number of threads.
    pub fn num_threads(&self) -> usize {
        self.threads.len()
    }

    /// Total number of memory accesses + fences (the language-level
    /// analogue of [`promising_core::Program::instruction_count`]).
    pub fn access_count(&self) -> usize {
        fn count(stmts: &[Stmt]) -> usize {
            stmts
                .iter()
                .map(|s| match s {
                    Stmt::Load { .. } | Stmt::Store { .. } | Stmt::Rmw { .. } | Stmt::Fence(_) => 1,
                    Stmt::If {
                        then_branch,
                        else_branch,
                        ..
                    } => count(then_branch) + count(else_branch),
                    Stmt::While { body, .. } => count(body),
                    Stmt::Skip | Stmt::Assign { .. } => 0,
                })
                .sum()
        }
        self.threads.iter().map(|t| count(&t.0)).sum()
    }
}

fn fmt_args(f: &mut fmt::Formatter<'_>, args: &[&dyn fmt::Display], ord: Ordering) -> fmt::Result {
    write!(f, "(")?;
    for (i, a) in args.iter().enumerate() {
        if i > 0 {
            write!(f, ", ")?;
        }
        write!(f, "{a}")?;
    }
    if ord != Ordering::NotAtomic {
        write!(f, ", {ord}")?;
    }
    write!(f, ")")
}

fn fmt_stmt(f: &mut fmt::Formatter<'_>, s: &Stmt, indent: usize) -> fmt::Result {
    let pad = "    ".repeat(indent);
    match s {
        Stmt::Skip => writeln!(f, "{pad}skip"),
        Stmt::Assign { reg, expr } => writeln!(f, "{pad}{reg} = {expr}"),
        Stmt::Load { reg, addr, ord } => {
            write!(f, "{pad}{reg} = load")?;
            fmt_args(f, &[addr], *ord)?;
            writeln!(f)
        }
        Stmt::Store { addr, data, ord } => {
            write!(f, "{pad}store")?;
            fmt_args(f, &[addr, data], *ord)?;
            writeln!(f)
        }
        Stmt::Rmw {
            op,
            dst,
            addr,
            expected,
            operand,
            ord,
        } => {
            write!(f, "{pad}{dst} = {}", rmw_surface_name(*op))?;
            match expected {
                Some(e) => fmt_args(f, &[addr, e, operand], *ord)?,
                None => fmt_args(f, &[addr, operand], *ord)?,
            }
            writeln!(f)
        }
        Stmt::Fence(ord) => writeln!(f, "{pad}fence({ord})"),
        Stmt::If {
            cond,
            then_branch,
            else_branch,
        } => {
            writeln!(f, "{pad}if ({cond}) {{")?;
            for s in then_branch {
                fmt_stmt(f, s, indent + 1)?;
            }
            if else_branch.is_empty() {
                writeln!(f, "{pad}}}")
            } else {
                writeln!(f, "{pad}}} else {{")?;
                for s in else_branch {
                    fmt_stmt(f, s, indent + 1)?;
                }
                writeln!(f, "{pad}}}")
            }
        }
        Stmt::While { cond, body } => {
            writeln!(f, "{pad}while ({cond}) {{")?;
            for s in body {
                fmt_stmt(f, s, indent + 1)?;
            }
            writeln!(f, "{pad}}}")
        }
    }
}

impl fmt::Display for Stmt {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt_stmt(f, self, 0)
    }
}

impl fmt::Display for Thread {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for s in &self.0 {
            fmt_stmt(f, s, 0)?;
        }
        Ok(())
    }
}

impl fmt::Display for Program {
    /// Pretty-print in the surface syntax (re-parseable up to location
    /// names, which print as raw addresses).
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (i, t) in self.threads.iter().enumerate() {
            if i > 0 {
                writeln!(f, "---")?;
            }
            write!(f, "{t}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ordering_keywords_round_trip() {
        for o in Ordering::ALL {
            assert_eq!(Ordering::from_keyword(o.keyword()), Some(o));
        }
        assert_eq!(Ordering::from_keyword("seq_cst"), None);
    }

    #[test]
    fn ordering_validity_tables() {
        assert!(Ordering::SeqCst.valid_for_load());
        assert!(!Ordering::Release.valid_for_load());
        assert!(!Ordering::AcqRel.valid_for_store());
        assert!(Ordering::Release.valid_for_store());
        assert!(!Ordering::NotAtomic.valid_for_rmw());
        assert!(Ordering::AcqRel.valid_for_rmw());
        assert!(!Ordering::Relaxed.valid_for_fence());
        assert!(Ordering::AcqRel.valid_for_fence());
    }

    #[test]
    fn access_count_recurses_into_blocks() {
        let p = Program::new(vec![Thread(vec![
            Stmt::Fence(Ordering::SeqCst),
            Stmt::If {
                cond: Expr::val(1),
                then_branch: vec![Stmt::Load {
                    reg: Reg(1),
                    addr: Expr::val(0),
                    ord: Ordering::Relaxed,
                }],
                else_branch: vec![],
            },
        ])]);
        assert_eq!(p.access_count(), 2);
    }
}
