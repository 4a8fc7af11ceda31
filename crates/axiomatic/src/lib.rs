//! The unified ARMv8/RISC-V **axiomatic** memory model of the paper's §D
//! (Fig. 6), implemented herd-style: enumerate candidate executions
//! (per-thread unfoldings × reads-from × coherence), keep those satisfying
//! the `internal`, `external` and `atomic` axioms.
//!
//! This is the reference the operational Promising model is proven
//! equivalent to in the paper's Coq development (Theorems 6.1/D.1); here
//! the equivalence is checked *experimentally* on the litmus catalogue,
//! the generated suites, and proptest-random programs — mirroring the
//! paper's own validation of the executable model against herd on ~6,500
//! ARM and ~7,000 RISC-V litmus tests (§7).
//!
//! ```
//! use promising_axiomatic::{enumerate_outcomes, AxConfig};
//! use promising_core::{parse_program, Arch, Reg, Val};
//!
//! let (program, _) = parse_program(
//!     "store(x, 1)\ndmb.sy\nstore(y, 1)\n---\nr1 = load(y)\ndmb.sy\nr2 = load(x)",
//! )?;
//! let result = enumerate_outcomes(&program, &AxConfig::new(Arch::Arm)).unwrap();
//! // fully-fenced MP forbids r1 = 1 ∧ r2 = 0
//! assert!(!result
//!     .outcomes
//!     .iter()
//!     .any(|o| o.reg(1, Reg(1)) == Val(1) && o.reg(1, Reg(2)) == Val(0)));
//! # Ok::<(), promising_core::ParseError>(())
//! ```

#![warn(missing_docs)]

pub mod exec;
pub mod model;
pub mod relations;

pub use exec::{Event, EventKind, Limits, LocalTrace, ValuePools};
pub use model::{enumerate_outcomes, AxConfig, AxResult, AxStats};
pub use relations::Relation;

use std::fmt;

/// Errors from the axiomatic enumeration (resource caps — the enumeration
/// itself is total on bounded programs).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum AxError {
    /// A thread has more local traces than the limit.
    TraceOverflow(usize),
    /// A location's value pool exceeded the size limit.
    PoolOverflow(usize),
    /// The value-pool fixpoint did not converge within the iteration limit.
    PoolDiverged(usize),
    /// More candidates than the limit were generated.
    CandidateOverflow(u64),
}

impl fmt::Display for AxError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AxError::TraceOverflow(n) => write!(f, "more than {n} local traces for one thread"),
            AxError::PoolOverflow(n) => write!(f, "value pool exceeded {n} values"),
            AxError::PoolDiverged(n) => {
                write!(f, "value-pool fixpoint did not converge in {n} iterations")
            }
            AxError::CandidateOverflow(n) => write!(f, "more than {n} candidate executions"),
        }
    }
}

impl std::error::Error for AxError {}

#[cfg(test)]
mod tests {
    use super::*;
    use promising_core::{parse_program, Arch, Config, Machine, Reg, Val};
    use promising_explorer::explore;
    use std::collections::BTreeSet;
    use std::sync::Arc;

    fn ax_pairs(src: &str, arch: Arch, r1: (usize, Reg), r2: (usize, Reg)) -> BTreeSet<(i64, i64)> {
        let (program, _) = parse_program(src).unwrap();
        let res = enumerate_outcomes(&program, &AxConfig::new(arch)).unwrap();
        res.outcomes
            .iter()
            .map(|o| (o.reg(r1.0, r1.1).0, o.reg(r2.0, r2.1).0))
            .collect()
    }

    const MP_PLAIN: &str = "store(x, 1)\ndmb.sy\nstore(y, 1)\n---\nr1 = load(y)\nr2 = load(x)";
    const MP_DMB: &str =
        "store(x, 1)\ndmb.sy\nstore(y, 1)\n---\nr1 = load(y)\ndmb.sy\nr2 = load(x)";
    const MP_ADDR: &str =
        "store(x, 1)\ndmb.sy\nstore(y, 1)\n---\nr1 = load(y)\nr2 = load(x + (r1 - r1))";
    const LB: &str = "r1 = load(x)\nstore(y, r1)\n---\nr2 = load(y)\nstore(x, 1)";
    const SB: &str = "store(x, 1)\nr1 = load(y)\n---\nstore(y, 1)\nr2 = load(x)";
    const SB_DMB: &str =
        "store(x, 1)\ndmb.sy\nr1 = load(y)\n---\nstore(y, 1)\ndmb.sy\nr2 = load(x)";
    /// A write made before a spin loop: it must enter the value pools
    /// though the paths that read it only within the loop run out of fuel.
    const STORE_THEN_SPIN: &str = "store(y, 1)\nr1 = load(x)\nwhile (r1 != 1) { r1 = load(x) }\n---\nr2 = load(y)\nstore(x, r2)";
    /// Loop-free RMWs: the pool bound must not charge loop fuel to them.
    const SB_AMO_ACQ: &str =
        "r1 = amo_add_acq(x, 1)\nr2 = load(y)\n---\nr3 = amo_add_acq(y, 1)\nr4 = load(x)";

    #[test]
    fn mp_plain_allows_weak_outcome() {
        let set = ax_pairs(MP_PLAIN, Arch::Arm, (1, Reg(1)), (1, Reg(2)));
        assert!(set.contains(&(1, 0)));
        assert_eq!(set.len(), 4);
    }

    #[test]
    fn mp_dmb_and_addr_forbid_weak_outcome() {
        for src in [MP_DMB, MP_ADDR] {
            let set = ax_pairs(src, Arch::Arm, (1, Reg(1)), (1, Reg(2)));
            assert!(!set.contains(&(1, 0)), "{src} must forbid 1/0");
            assert_eq!(set.len(), 3);
        }
    }

    #[test]
    fn lb_allows_cycle_only_without_double_dependency() {
        // LB with data dep on T0 only: (1, 1) allowed via T1's early store.
        let set = ax_pairs(LB, Arch::Arm, (0, Reg(1)), (1, Reg(2)));
        assert!(set.contains(&(1, 1)));
        // LB+datas (dependency both sides) forbids it.
        let lb_datas = "r1 = load(x)\nstore(y, r1)\n---\nr2 = load(y)\nstore(x, r2 - r2 + 1)";
        let set = ax_pairs(lb_datas, Arch::Arm, (0, Reg(1)), (1, Reg(2)));
        assert!(!set.contains(&(1, 1)), "LB+datas must be forbidden");
    }

    #[test]
    fn sb_weak_outcome_needs_fences() {
        let set = ax_pairs(SB, Arch::Arm, (0, Reg(1)), (1, Reg(2)));
        assert!(set.contains(&(0, 0)));
        let set = ax_pairs(SB_DMB, Arch::Arm, (0, Reg(1)), (1, Reg(2)));
        assert!(!set.contains(&(0, 0)), "SB+dmbs must forbid 0/0");
    }

    #[test]
    fn coherence_axiom_forbids_corr_violation() {
        let corr = "store(x, 1)\n---\nr1 = load(x)\nr2 = load(x)";
        let set = ax_pairs(corr, Arch::Arm, (1, Reg(1)), (1, Reg(2)));
        assert!(!set.contains(&(1, 0)));
        assert_eq!(set, BTreeSet::from([(0, 0), (0, 1), (1, 1)]));
    }

    #[test]
    fn atomicity_axiom_enforced() {
        // §A.2 example: T0: r1 = loadx x; r2 = storex x 42
        //               T1: store x 37; store x 51; r3 = load x
        // r1 = 37 ∧ r2 = success ∧ r3 = 42 forbidden.
        let src =
            "r1 = loadx(x)\nr2 = storex(x, 42)\n---\nstore(x, 37)\nstore(x, 51)\nr3 = load(x)";
        let (program, _) = parse_program(src).unwrap();
        let res = enumerate_outcomes(&program, &AxConfig::new(Arch::Arm)).unwrap();
        assert!(!res.outcomes.iter().any(|o| o.reg(0, Reg(1)) == Val(37)
            && o.reg(0, Reg(2)) == Val::SUCCESS
            && o.reg(1, Reg(3)) == Val(42)));
        // the interleaving where the stx lands right after 37 and 51
        // overwrites it is allowed: r1 = 37, success, r3 = 51
        assert!(res.outcomes.iter().any(|o| o.reg(0, Reg(1)) == Val(37)
            && o.reg(0, Reg(2)) == Val::SUCCESS
            && o.reg(1, Reg(3)) == Val(51)));
    }

    #[test]
    fn release_acquire_message_passing() {
        let src = "store(x, 1)\nstore_rel(y, 1)\n---\nr1 = load_acq(y)\nr2 = load(x)";
        for arch in [Arch::Arm, Arch::RiscV] {
            let set = ax_pairs(src, arch, (1, Reg(1)), (1, Reg(2)));
            assert!(!set.contains(&(1, 0)), "rel/acq MP forbids 1/0 on {arch:?}");
        }
    }

    #[test]
    fn agreement_with_operational_model_on_classics() {
        // Theorem 6.1, experimentally: identical outcome sets.
        let sources = [
            MP_PLAIN,
            MP_DMB,
            MP_ADDR,
            LB,
            SB,
            SB_DMB,
            STORE_THEN_SPIN,
            SB_AMO_ACQ,
        ];
        for src in sources {
            for arch in [Arch::Arm, Arch::RiscV] {
                let (program, _) = parse_program(src).unwrap();
                let program = Arc::new(program);
                let ax = enumerate_outcomes(&program, &AxConfig::new(arch)).unwrap();
                let op = explore(&Machine::new(Arc::clone(&program), Config::for_arch(arch)));
                assert_eq!(
                    ax.outcomes, op.outcomes,
                    "axiomatic and promising disagree on {src} ({arch:?})"
                );
            }
        }
    }

    #[test]
    fn init_values_respected() {
        let (program, locs) = parse_program("r1 = load(x)").unwrap();
        let mut config = AxConfig::new(Arch::Arm);
        config.init.insert(locs.get("x").unwrap(), Val(7));
        let res = enumerate_outcomes(&program, &config).unwrap();
        assert_eq!(res.outcomes.len(), 1);
        assert!(res.outcomes.iter().all(|o| o.reg(0, Reg(1)) == Val(7)));
    }
}
