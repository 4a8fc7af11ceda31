//! Property-based validation of the paper's theorems on randomly
//! generated programs (proptest):
//!
//! * **Theorem 6.1 / D.1** — Promising and the axiomatic model compute the
//!   same outcome sets, on both architectures;
//! * **Theorem 6.2 / D.2** — certification does not change the outcome
//!   set (online filtering vs promises-only);
//! * **Theorem 6.3 / D.3** — the RISC-V model has no deadlocks;
//! * **Theorem 7.1** — promise-first search equals naive interleaving
//!   search;
//! * view monotonicity — thread views and coherence entries only grow
//!   along any execution, the premise of certification's dead-promise cut.

use promising_axiomatic::{enumerate_outcomes, AxConfig};
use promising_core::stmt::CodeBuilder;
use promising_core::{
    Arch, Config, Expr, Machine, Program, Reg, StmtId, TId, ThreadCode, Transition,
};
use promising_explorer::{explore_naive, explore_promise_first, CertMode};
use proptest::prelude::*;
use std::sync::Arc;

/// A small statement recipe the generator draws from. Locations are 0/1,
/// values 1/2, registers per-slot.
#[derive(Clone, Debug)]
enum Recipe {
    Store { loc: i64, val: i64, release: bool },
    Load { loc: i64, acquire: bool },
    LoadDep { loc: i64 },
    FenceSy,
    FenceLd,
    FenceSt,
    Isb,
    CtrlStore { loc: i64, val: i64 },
    ExclPair { loc: i64 },
}

fn recipe_strategy() -> impl Strategy<Value = Recipe> {
    prop_oneof![
        (0..2i64, 1..3i64, any::<bool>()).prop_map(|(loc, val, release)| Recipe::Store {
            loc,
            val,
            release
        }),
        (0..2i64, any::<bool>()).prop_map(|(loc, acquire)| Recipe::Load { loc, acquire }),
        (0..2i64).prop_map(|loc| Recipe::LoadDep { loc }),
        Just(Recipe::FenceSy),
        Just(Recipe::FenceLd),
        Just(Recipe::FenceSt),
        Just(Recipe::Isb),
        (0..2i64, 1..3i64).prop_map(|(loc, val)| Recipe::CtrlStore { loc, val }),
        (0..2i64).prop_map(|loc| Recipe::ExclPair { loc }),
    ]
}

fn build_thread(recipes: &[Recipe], arch: Arch) -> ThreadCode {
    let mut b = CodeBuilder::new();
    let mut stmts: Vec<StmtId> = Vec::new();
    let mut reg = 1u32;
    let mut last_load: Option<Reg> = None;
    for r in recipes {
        match r {
            Recipe::Store { loc, val, release } => {
                stmts.push(if *release {
                    b.store_rel(Expr::val(*loc), Expr::val(*val))
                } else {
                    b.store(Expr::val(*loc), Expr::val(*val))
                });
            }
            Recipe::Load { loc, acquire } => {
                let dst = Reg(reg);
                reg += 1;
                stmts.push(if *acquire {
                    b.load_acq(dst, Expr::val(*loc))
                } else {
                    b.load(dst, Expr::val(*loc))
                });
                last_load = Some(dst);
            }
            Recipe::LoadDep { loc } => {
                let dst = Reg(reg);
                reg += 1;
                let addr = match last_load {
                    Some(src) => Expr::val(*loc).with_dep(src),
                    None => Expr::val(*loc),
                };
                stmts.push(b.load(dst, addr));
                last_load = Some(dst);
            }
            Recipe::FenceSy => stmts.push(b.dmb_sy()),
            Recipe::FenceLd => stmts.push(b.dmb_ld()),
            Recipe::FenceSt => stmts.push(b.dmb_st()),
            Recipe::Isb => {
                // isb is ARM-only syntax; substitute a fence on RISC-V
                stmts.push(if arch == Arch::Arm {
                    b.isb()
                } else {
                    b.fence(promising_core::Fence::RR)
                });
            }
            Recipe::CtrlStore { loc, val } => {
                let st = b.store(Expr::val(*loc), Expr::val(*val));
                let cond = match last_load {
                    Some(src) => Expr::reg(src).eq(Expr::reg(src)),
                    None => Expr::val(1),
                };
                stmts.push(b.if_then(cond, st));
            }
            Recipe::ExclPair { loc } => {
                let dst = Reg(reg);
                let succ = Reg(reg + 1);
                reg += 2;
                stmts.push(b.load_excl(dst, Expr::val(*loc)));
                stmts.push(b.store_excl(succ, Expr::val(*loc), Expr::reg(dst).add(Expr::val(1))));
                last_load = Some(dst);
            }
        }
    }
    b.finish_seq(&stmts)
}

fn program_strategy() -> impl Strategy<Value = Vec<Vec<Recipe>>> {
    proptest::collection::vec(proptest::collection::vec(recipe_strategy(), 1..4), 2..3)
}

fn to_program(recipes: &[Vec<Recipe>], arch: Arch) -> Arc<Program> {
    Arc::new(Program::new(
        recipes.iter().map(|r| build_thread(r, arch)).collect(),
    ))
}

proptest! {
    /// Theorem 6.1/D.1, experimentally: same outcome sets as the
    /// axiomatic model, on both architectures.
    #[test]
    fn promising_equals_axiomatic(recipes in program_strategy(), riscv in any::<bool>()) {
        let arch = if riscv { Arch::RiscV } else { Arch::Arm };
        let program = to_program(&recipes, arch);
        let op = explore_promise_first(&Machine::new(
            Arc::clone(&program),
            Config::for_arch(arch).with_loop_fuel(8),
        ));
        let mut ax_cfg = AxConfig::new(arch);
        ax_cfg.loop_fuel = 8;
        let ax = enumerate_outcomes(&program, &ax_cfg).expect("axiomatic enumeration");
        prop_assert_eq!(
            &op.outcomes, &ax.outcomes,
            "promising vs axiomatic mismatch on {:?} ({:?})", recipes, arch
        );
    }

}

proptest! {
    #![proptest_config(ProptestConfig { cases: 32, ..ProptestConfig::default() })]

    /// Theorem 7.1: promise-first search equals the naive interleaving
    /// search.
    #[test]
    fn promise_first_equals_naive(recipes in program_strategy()) {
        let program = to_program(&recipes, Arch::Arm);
        let m = Machine::new(program, Config::arm().with_loop_fuel(8));
        let fast = explore_promise_first(&m);
        let slow = explore_naive(&m, CertMode::Online);
        prop_assert_eq!(fast.outcomes, slow.outcomes);
    }

    /// Theorem 6.2/D.2: certification filtering does not change outcomes.
    #[test]
    fn certification_mode_does_not_change_outcomes(recipes in program_strategy()) {
        let program = to_program(&recipes, Arch::Arm);
        let m = Machine::new(program, Config::arm().with_loop_fuel(8));
        let online = explore_naive(&m, CertMode::Online);
        let lazy = explore_naive(&m, CertMode::PromisesOnly);
        prop_assert_eq!(online.outcomes, lazy.outcomes);
    }

    /// Theorem 6.3/D.3: the RISC-V model never deadlocks — every explored
    /// state with outstanding promises retains an enabled certified step.
    #[test]
    fn riscv_has_no_deadlocks(recipes in program_strategy()) {
        let program = to_program(&recipes, Arch::RiscV);
        let m = Machine::new(program, Config::riscv().with_loop_fuel(8));
        let exp = explore_naive(&m, CertMode::Online);
        prop_assert_eq!(exp.stats.deadlocks, 0, "RISC-V deadlock found");
    }

    /// Views are monotone: along any execution, every scalar view of
    /// every thread only grows, and no `coh` entry shrinks or disappears.
    /// The walk picks among the machine steps and the raw
    /// `Machine::thread_steps` of every thread, which certification and
    /// phase 2 take without certifying; the dead-promise cut relies on
    /// `vwNew`, `vCAP` and `coh` never falling along either.
    #[test]
    fn views_are_monotone(recipes in program_strategy(), seed in any::<u64>()) {
        let program = to_program(&recipes, Arch::Arm);
        let mut m = Machine::new(program, Config::arm().with_loop_fuel(8));
        let mut rng = seed;
        for _ in 0..40 {
            let mut steps = m.machine_steps();
            for tid in (0..m.num_threads()).map(TId) {
                steps.extend(m.thread_steps(tid).into_iter().map(|k| Transition::new(tid, k)));
            }
            if steps.is_empty() {
                break;
            }
            rng = rng.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            let pick: &Transition = &steps[(rng >> 33) as usize % steps.len()];
            let before: Vec<_> = m
                .threads()
                .iter()
                .map(|t| {
                    let s = &t.state;
                    let views = (s.vr_old, s.vw_old, s.vr_new, s.vw_new, s.v_cap, s.v_rel);
                    (views, s.coh_entries().collect::<Vec<_>>())
                })
                .collect();
            m.apply(pick).expect("enabled step applies");
            for (t, (b, coh)) in m.threads().iter().zip(before) {
                let s = &t.state;
                prop_assert!(s.vr_old >= b.0 && s.vw_old >= b.1 && s.vr_new >= b.2);
                prop_assert!(s.vw_new >= b.3 && s.v_cap >= b.4 && s.v_rel >= b.5);
                for (loc, v) in coh {
                    prop_assert!(
                        s.coh_entries().any(|(l, now)| l == loc && now >= v),
                        "coh({:?}) fell below {:?} after {:?}", loc, v, pick
                    );
                }
            }
        }
    }
}

/// ARM store-exclusive deadlocks (§4.3) are real: reproduce one
/// deterministically, and show RISC-V does not have it on the same shape.
#[test]
fn arm_exclusive_deadlock_exists_but_not_on_riscv() {
    // T0: r1 = ldx x; r2 = stx x (r1+1); store p (1 - r1 - r2)
    // T1: store x 2
    // On ARM, T0 may promise p = 1 (it relies on the stx succeeding);
    // if T1's write then interposes, the stx can no longer pair
    // atomically and the promise is stuck.
    let mk_t0 = || {
        let mut b = CodeBuilder::new();
        let l = b.load_excl(Reg(1), Expr::val(0));
        let s = b.store_excl(Reg(2), Expr::val(0), Expr::reg(Reg(1)).add(Expr::val(1)));
        let p = b.store(
            Expr::val(1),
            Expr::val(1).sub(Expr::reg(Reg(1))).sub(Expr::reg(Reg(2))),
        );
        b.finish_seq(&[l, s, p])
    };
    let mk_t1 = || {
        let mut b = CodeBuilder::new();
        let s = b.store(Expr::val(0), Expr::val(2));
        b.finish_seq(&[s])
    };
    let arm = explore_naive(
        &Machine::new(
            Arc::new(Program::new(vec![mk_t0(), mk_t1()])),
            Config::arm().with_loop_fuel(4),
        ),
        CertMode::Online,
    );
    assert!(
        arm.stats.deadlocks > 0,
        "the §4.3 ARM deadlock should be reachable"
    );
    let riscv = explore_naive(
        &Machine::new(
            Arc::new(Program::new(vec![mk_t0(), mk_t1()])),
            Config::riscv().with_loop_fuel(4),
        ),
        CertMode::Online,
    );
    assert_eq!(
        riscv.stats.deadlocks, 0,
        "RISC-V must not deadlock (Thm 6.3)"
    );
}
