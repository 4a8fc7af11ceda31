//! # Promising-ARM/RISC-V
//!
//! A Rust implementation of the operational concurrency model of
//! *"Promising-ARM/RISC-V: A Simpler and Faster Operational Concurrency
//! Model"* (Pulte, Pichon-Pharabod, Kang, Lee, Hur — PLDI 2019).
//!
//! The model computes the relaxed-memory behaviours of ARMv8 and RISC-V
//! assembly-like programs *incrementally* and *in program order*: memory is
//! a growing list of timestamped writes, loads may read "old" writes
//! subject to per-thread *views*, and early (out-of-order) writes are
//! modelled by *promises* validated by thread-local *certification*.
//!
//! ## Quick start
//!
//! ```
//! use promising_core::{CodeBuilder, Config, Expr, Machine, Program, Reg};
//! use promising_core::{TId, Timestamp, Transition, TransitionKind, Val};
//! use std::sync::Arc;
//!
//! // Message passing: P0: store x 37; dmb.sy; store y 42
//! //                  P1: r1 := load y; r2 := load x
//! let mut b = CodeBuilder::new();
//! let s1 = b.store(Expr::val(0), Expr::val(37));
//! let s2 = b.dmb_sy();
//! let s3 = b.store(Expr::val(1), Expr::val(42));
//! let p0 = b.finish_seq(&[s1, s2, s3]);
//!
//! let mut b = CodeBuilder::new();
//! let l1 = b.load(Reg(1), Expr::val(1));
//! let l2 = b.load(Reg(2), Expr::val(0));
//! let p1 = b.finish_seq(&[l1, l2]);
//!
//! let mut m = Machine::new(Arc::new(Program::new(vec![p0, p1])), Config::arm());
//! // Run the writer…
//! m.apply(&Transition::new(TId(0), TransitionKind::WriteNormal))?;
//! m.apply(&Transition::new(TId(0), TransitionKind::Internal))?;
//! m.apply(&Transition::new(TId(0), TransitionKind::WriteNormal))?;
//! // …then the reader may read y = 42 and still the *initial* x = 0:
//! m.apply(&Transition::new(TId(1), TransitionKind::Read { t: Timestamp(2) }))?;
//! m.apply(&Transition::new(TId(1), TransitionKind::Read { t: Timestamp::ZERO }))?;
//! assert_eq!(m.thread(TId(1)).state.regs.value(Reg(1)), Val(42));
//! assert_eq!(m.thread(TId(1)).state.regs.value(Reg(2)), Val(0));
//! # Ok::<(), promising_core::StepError>(())
//! ```
//!
//! Exhaustive and interactive exploration live in the companion
//! `promising-explorer` crate; the reference axiomatic model in
//! `promising-axiomatic`; the Flat baseline in `promising-flat`.

#![warn(missing_docs)]

pub mod certify;
pub mod config;
pub mod expr;
pub mod fingerprint;
pub mod ids;
pub mod lex;
pub mod machine;
pub mod memory;
pub mod outcome;
pub mod parser;
pub mod pretty;
pub mod stmt;
pub mod thread;

pub use certify::{
    find_and_certify, find_and_certify_with, find_promises_with, CertMemo, CertResult,
};
pub use config::{Arch, Config, SharedLocs};
pub use expr::{Expr, Op};
pub use fingerprint::{
    Fingerprint, FpBuildHasher, FpHashMap, FpHasher, FpIdentityHasher, WordSink,
};
pub use ids::{Loc, Reg, TId, Timestamp, Val, View};
pub use lex::{LocTable, Tokens};
pub use machine::{
    apply_step, enabled_steps, has_dead_promise, Cont, Machine, StateKey, StepError, StepEvent,
    ThreadInstance, Transition, TransitionKind, Undo,
};
pub use memory::{Memory, Msg};
pub use outcome::Outcome;
pub use parser::{parse_program, parse_thread, ParseError};
pub use stmt::{
    desugar_program_rmws, desugar_rmws, AccessSet, CodeBuilder, Fence, LocSet, MayAccess, Program,
    ReadKind, RmwOp, Stmt, StmtId, ThreadCode, WriteKind,
};
pub use thread::{ExclBank, Forward, RegFile, StuckReason, ThreadState};

/// A fieldless marker: the return type of the explorer's
/// `SearchModel::footprint` hook. No search calls that hook — every
/// reduction goes through `SearchModel::reduce` and the per-thread
/// [`MayAccess`] sets — and the marker stays only while the benchmark
/// package's `Timed` decorator still delegates the hook.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct Footprint;
