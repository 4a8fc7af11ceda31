//! **Flat-lite**: a reimplementation of the essential structure of the
//! Flat operational model (Pulte, Flur, et al. — the baseline the paper's
//! evaluation compares against).
//!
//! Flat executes each instruction in *multiple steps*, *out of order*, and
//! with *explicit branch speculation* that sometimes has to be squashed —
//! precisely the microarchitectural complexity that Promising-ARM/RISC-V
//! removes. This crate reproduces that structure over the same calculus:
//!
//! * instructions become [`Instance`]s fetched along a speculative path;
//! * loads *satisfy* (possibly forwarding from unpropagated stores, and
//!   before program-order-earlier instructions have executed);
//! * stores *propagate* to a flat list memory out of order;
//! * branches resolve and mis-speculation discards younger instances.
//!
//! The exhaustive explorer ([`explore_flat`]) interleaves every such
//! micro-step across threads, which is why its search space (and run time)
//! explodes compared to the promise-first Promising search — the effect
//! Tables 2 and 3 of the paper quantify.
//!
//! See "Flat-lite's conservative simplifications" in
//! docs/architecture.md for the three documented conservative
//! simplifications relative to the original Flat (restart-free load
//! binding; late store-exclusive success binding; no forwarding from a
//! pending store exclusive).
//!
//! ```
//! use promising_core::{parse_program, Config, Reg, Val};
//! use promising_flat::{explore_flat, FlatMachine};
//! use std::sync::Arc;
//!
//! let (program, _) = parse_program(
//!     "store(x, 1)\ndmb.sy\nstore(y, 1)\n---\nr1 = load(y)\nr2 = load(x)",
//! )?;
//! let m = FlatMachine::new(Arc::new(program), Config::arm());
//! let result = explore_flat(&m);
//! // out-of-order satisfaction exhibits the weak MP outcome
//! assert!(result
//!     .outcomes
//!     .iter()
//!     .any(|o| o.reg(1, Reg(1)) == Val(1) && o.reg(1, Reg(2)) == Val(0)));
//! # Ok::<(), promising_core::ParseError>(())
//! ```

#![warn(missing_docs)]

pub mod explore;
pub mod instance;
pub mod machine;

pub use explore::{explore_flat, explore_flat_budget, FlatExploration, FlatModel, FlatStats};
pub use instance::{InstOp, InstState, Instance, Src};
pub use machine::{FlatMachine, FlatStateKey, FlatThread, FlatTransition};
