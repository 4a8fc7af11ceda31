//! Differential RMW battery: every single-instruction [`Stmt::Rmw`]
//! produces *exactly* the outcome set of its canonical loadx/storex
//! retry-loop desugaring ([`desugar_program_rmws`]), across the naive,
//! promise-first, and Flat-lite strategies and both architectures —
//! property-tested over ops, ordering strengths, surrounding code, and
//! seeds. A second property checks the RMW semantics directly against
//! the axiomatic model (the Theorem 6.1 analogue for RMW events). A third
//! checks, on the same random programs and on the litmus catalogue, that
//! every step undoes exactly: the thread-local searches step one thread
//! and memory in place and rely on it.
//!
//! [`Stmt::Rmw`]: promising_core::Stmt::Rmw
//! [`desugar_program_rmws`]: promising_core::stmt::desugar_program_rmws

use promising_axiomatic::{enumerate_outcomes, AxConfig};
use promising_core::stmt::{desugar_program_rmws, CodeBuilder, RmwOp};
use promising_core::{
    apply_step, enabled_steps, Arch, Config, Expr, Fingerprint, FpHasher, Loc, Machine, Memory,
    Msg, Program, ReadKind, Reg, StepEvent, Stmt, StmtId, TId, ThreadCode, ThreadInstance,
    Timestamp, TransitionKind, Val, WriteKind,
};
use promising_explorer::{explore_naive, explore_promise_first, CertMode};
use promising_flat::{explore_flat, FlatMachine};
use promising_litmus::catalogue;
use proptest::prelude::*;
use proptest::TestRng;
use std::collections::BTreeSet;
use std::sync::Arc;

/// Loop fuel for the promising-side comparisons. The desugared retry
/// loops blow up exponentially in fuel under the naive search (that is
/// the point of first-class RMWs); outcome sets are fuel-independent once
/// every RMW gets one iteration, so a small bound loses no coverage.
const FUEL: u32 = 3;

/// Loop fuel for the Flat-lite comparison: Flat speculates each retry
/// iteration (two fetch guesses per unresolved loop test), so even a
/// single desugared CAS costs ~300k states at fuel 3. Fuel is a
/// *per-thread* budget, so it must cover one first-try iteration per
/// desugared RMW of the thread (at most two under
/// [`small_program_strategy`]) — that already covers every outcome.
const FLAT_FUEL: u32 = 2;

/// One generated statement. RMW locations/values are kept tiny so the
/// desugared retry loops stay explorable under the naive strategy.
#[derive(Clone, Debug)]
enum Recipe {
    Store {
        loc: i64,
        val: i64,
        release: bool,
    },
    Load {
        loc: i64,
        acquire: bool,
    },
    FenceSy,
    Rmw {
        op: usize,
        loc: i64,
        operand: i64,
        expected: i64,
        rk: usize,
        wk: usize,
    },
}

fn recipe_strategy() -> impl Strategy<Value = Recipe> {
    prop_oneof![
        (0..2i64, 1..3i64, any::<bool>()).prop_map(|(loc, val, release)| Recipe::Store {
            loc,
            val,
            release
        }),
        (0..2i64, any::<bool>()).prop_map(|(loc, acquire)| Recipe::Load { loc, acquire }),
        Just(Recipe::FenceSy),
        // over-weight RMWs: three arms so roughly half the statements are
        // atomic updates crossing every op × strength combination
        rmw_arm(),
        rmw_arm(),
        rmw_arm(),
    ]
}

fn rmw_arm() -> impl Strategy<Value = Recipe> {
    (
        (0..7usize, 0..2i64),
        (0..3i64, 0..3i64),
        (0..3usize, 0..3usize),
    )
        .prop_map(|((op, loc), (operand, expected), (rk, wk))| Recipe::Rmw {
            op,
            loc,
            operand,
            expected,
            rk,
            wk,
        })
}

fn read_kind(i: usize) -> ReadKind {
    [ReadKind::Plain, ReadKind::WeakAcquire, ReadKind::Acquire][i]
}

fn write_kind(i: usize) -> WriteKind {
    [WriteKind::Plain, WriteKind::WeakRelease, WriteKind::Release][i]
}

fn build_thread(recipes: &[Recipe]) -> ThreadCode {
    let mut b = CodeBuilder::new();
    let mut stmts: Vec<StmtId> = Vec::new();
    let mut reg = 1u32;
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
            }
            Recipe::FenceSy => stmts.push(b.dmb_sy()),
            Recipe::Rmw {
                op,
                loc,
                operand,
                expected,
                rk,
                wk,
            } => {
                let dst = Reg(reg);
                reg += 1;
                let op = RmwOp::ALL[*op];
                stmts.push(if op == RmwOp::Cas {
                    b.cas_kind(
                        dst,
                        Expr::val(*loc),
                        Expr::val(*expected),
                        Expr::val(*operand),
                        read_kind(*rk),
                        write_kind(*wk),
                    )
                } else {
                    b.amo_kind(
                        op,
                        dst,
                        Expr::val(*loc),
                        Expr::val(*operand),
                        read_kind(*rk),
                        write_kind(*wk),
                    )
                });
            }
        }
    }
    b.finish_seq(&stmts)
}

fn program_strategy() -> impl Strategy<Value = Vec<Vec<Recipe>>> {
    proptest::collection::vec(proptest::collection::vec(recipe_strategy(), 1..4), 2..3)
}

/// Smaller programs for the Flat-lite and axiomatic legs (both models
/// pay much more per statement).
fn small_program_strategy() -> impl Strategy<Value = Vec<Vec<Recipe>>> {
    proptest::collection::vec(proptest::collection::vec(recipe_strategy(), 1..3), 2..3)
}

/// Rewrite every statement po-after the first RMW of a thread into a
/// load of the same location. The flat-vs-desugared comparison is only
/// exact on such programs: the desugared retry loop's exit branch is an
/// unresolved branch until the store-exclusive resolves, and Flat-lite
/// conservatively blocks *all* po-later stores behind unresolved
/// branches — so the desugared build over-orders `rmw; po; store`
/// shapes that the first-class RMW (like the promising and axiomatic
/// models, which the unrestricted legs above check) correctly leaves
/// unordered. Po-later *loads* speculate past branches in Flat-lite, so
/// the load-only suffix keeps the two builds step-for-step equivalent.
fn loads_only_after_rmw(mut recipes: Vec<Vec<Recipe>>) -> Vec<Vec<Recipe>> {
    for thread in &mut recipes {
        let mut seen_rmw = false;
        for r in thread {
            if seen_rmw {
                match *r {
                    Recipe::Store { loc, .. } | Recipe::Rmw { loc, .. } => {
                        *r = Recipe::Load {
                            loc,
                            acquire: false,
                        };
                    }
                    Recipe::Load { .. } | Recipe::FenceSy => {}
                }
            } else {
                seen_rmw = matches!(r, Recipe::Rmw { .. });
            }
        }
    }
    recipes
}

/// Programs for the flat-vs-desugared leg: generated shapes with the
/// post-RMW statements flattened to loads (see [`loads_only_after_rmw`]).
fn flat_program_strategy() -> impl Strategy<Value = Vec<Vec<Recipe>>> {
    small_program_strategy().prop_map(loads_only_after_rmw)
}

/// RMW-heavy programs: *every* thread leads with an atomic update,
/// followed by up to two loads or fences — the `rmw; po; ld`
/// neighbourhood the bind/propagate split recovers, crossed over ops,
/// strengths, and locations.
fn rmw_heavy_program_strategy() -> impl Strategy<Value = Vec<Vec<Recipe>>> {
    let thread = (
        rmw_arm(),
        proptest::collection::vec(
            prop_oneof![
                (0..2i64, any::<bool>()).prop_map(|(loc, acquire)| Recipe::Load { loc, acquire }),
                Just(Recipe::FenceSy),
            ],
            0..3,
        ),
    )
        .prop_map(|(rmw, mut tail)| {
            let mut v = vec![rmw];
            v.append(&mut tail);
            v
        });
    proptest::collection::vec(thread, 2..3)
}

fn has_rmw(recipes: &[Vec<Recipe>]) -> bool {
    recipes
        .iter()
        .flatten()
        .any(|r| matches!(r, Recipe::Rmw { .. }))
}

fn to_program(recipes: &[Vec<Recipe>]) -> Arc<Program> {
    Arc::new(Program::new(
        recipes.iter().map(|r| build_thread(r)).collect(),
    ))
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]

    /// The headline differential property: RMW outcome sets equal the
    /// desugared exclusive-retry-loop outcome sets under the naive and
    /// promise-first searches, on both architectures.
    #[test]
    fn rmw_equals_desugared_promising(recipes in program_strategy(), riscv in any::<bool>()) {
        let arch = if riscv { Arch::RiscV } else { Arch::Arm };
        let program = to_program(&recipes);
        let desugared = Arc::new(desugar_program_rmws(&program));
        let config = Config::for_arch(arch).with_loop_fuel(FUEL);

        let fast = explore_promise_first(&Machine::new(Arc::clone(&program), config.clone()));
        let fast_d = explore_promise_first(&Machine::new(Arc::clone(&desugared), config.clone()));
        prop_assert_eq!(
            &fast.outcomes, &fast_d.outcomes,
            "promise-first: rmw vs desugared mismatch on {:?} ({:?})", recipes, arch
        );

        let slow = explore_naive(
            &Machine::new(Arc::clone(&program), config.clone()),
            CertMode::Online,
        );
        prop_assert_eq!(
            &slow.outcomes, &fast.outcomes,
            "naive-rmw vs promise-first-rmw mismatch on {:?} ({:?})", recipes, arch
        );
        let slow_d = explore_naive(&Machine::new(desugared, config), CertMode::Online);
        prop_assert_eq!(
            &slow.outcomes, &slow_d.outcomes,
            "naive: rmw vs desugared mismatch on {:?} ({:?})", recipes, arch
        );
    }

    /// The same property under the Flat-lite baseline, scoped to
    /// programs whose post-RMW statements are loads (see
    /// [`loads_only_after_rmw`] for why the desugared build is only an
    /// exact Flat-lite reference on that fragment).
    #[test]
    fn rmw_equals_desugared_flat(recipes in flat_program_strategy(), riscv in any::<bool>()) {
        let arch = if riscv { Arch::RiscV } else { Arch::Arm };
        let program = to_program(&recipes);
        let desugared = Arc::new(desugar_program_rmws(&program));
        let config = Config::for_arch(arch).with_loop_fuel(FLAT_FUEL);
        let a = explore_flat(&FlatMachine::new(Arc::clone(&program), config.clone()));
        let b = explore_flat(&FlatMachine::new(desugared, config));
        prop_assert_eq!(
            &a.outcomes, &b.outcomes,
            "flat: rmw vs desugared mismatch on {:?} ({:?})", recipes, arch
        );
    }

    /// PR 9 tentpole property: on RMW-heavy `rmw; po; ld*` programs the
    /// split (bind/propagate) flat RMW matches both the desugared
    /// exclusive-pair build under Flat-lite *and* the promise-first
    /// search — i.e. the read half unblocks po-later loads exactly as an
    /// in-flight load-exclusive would, no more and no less.
    #[test]
    fn split_flat_equals_desugared_on_rmw_heavy(
        recipes in rmw_heavy_program_strategy(),
        riscv in any::<bool>(),
    ) {
        let arch = if riscv { Arch::RiscV } else { Arch::Arm };
        let program = to_program(&recipes);
        let desugared = Arc::new(desugar_program_rmws(&program));
        let config = Config::for_arch(arch).with_loop_fuel(FLAT_FUEL);
        let a = explore_flat(&FlatMachine::new(Arc::clone(&program), config.clone()));
        let b = explore_flat(&FlatMachine::new(desugared, config.clone()));
        prop_assert_eq!(
            &a.outcomes, &b.outcomes,
            "flat: rmw vs desugared mismatch on {:?} ({:?})", recipes, arch
        );
        let pf = explore_promise_first(&Machine::new(program, config));
        prop_assert_eq!(
            &a.outcomes, &pf.outcomes,
            "flat vs promise-first mismatch on {:?} ({:?})", recipes, arch
        );
    }
}

proptest! {
    // the axiomatic side enumerates rf/co candidates; keep it smaller
    #![proptest_config(ProptestConfig { cases: 12, ..ProptestConfig::default() })]

    /// Theorem 6.1 extended to RMW events: the operational RMW semantics
    /// agrees with the axiomatic model's read-event/write-event pairs
    /// joined by an `rmw` edge.
    #[test]
    fn rmw_promising_equals_axiomatic(recipes in small_program_strategy(), riscv in any::<bool>()) {
        let arch = if riscv { Arch::RiscV } else { Arch::Arm };
        let program = to_program(&recipes);
        let op = explore_promise_first(&Machine::new(
            Arc::clone(&program),
            Config::for_arch(arch).with_loop_fuel(FUEL),
        ));
        let mut ax_cfg = AxConfig::new(arch);
        ax_cfg.loop_fuel = FUEL;
        let ax = enumerate_outcomes(&program, &ax_cfg).expect("axiomatic enumeration");
        prop_assert_eq!(
            &op.outcomes, &ax.outcomes,
            "promising vs axiomatic mismatch on {:?} ({:?})", recipes, arch
        );
    }
}

/// Regression: an RMW whose operand references its own destination
/// register sees the *old value* there (the desugared load writes `dst`
/// before the data expression evaluates) — in every model. The Flat-lite
/// machine once evaluated the operand against the stale pre-RMW register
/// value instead.
#[test]
fn self_referential_operand_sees_old_value_in_every_model() {
    let mut b = CodeBuilder::new();
    let pre = b.assign(Reg(1), Expr::val(5));
    let add = b.fetch_add(Reg(1), Expr::val(0), Expr::reg(Reg(1)));
    let t0 = b.finish_seq(&[pre, add]);
    let program = Arc::new(Program::new(vec![t0]));
    let config = Config::arm().with_loop_fuel(FUEL);
    let naive = explore_naive(
        &Machine::new(Arc::clone(&program), config.clone()),
        CertMode::Online,
    );
    // dst = old = 0, operand = dst = 0, so x stays 0 (not 0 + stale 5)
    assert!(naive
        .outcomes
        .iter()
        .all(|o| o.loc(promising_core::Loc(0)) == promising_core::Val(0)));
    let flat = explore_flat(&FlatMachine::new(Arc::clone(&program), config));
    assert_eq!(
        naive.outcomes, flat.outcomes,
        "flat diverges on dst-in-operand"
    );
    let ax = enumerate_outcomes(&program, &AxConfig::new(Arch::Arm)).expect("enumeration");
    assert_eq!(
        naive.outcomes, ax.outcomes,
        "axiomatic diverges on dst-in-operand"
    );
}

/// Regression (PR 5 correctness sweep): the read half of a *failed* CAS
/// retains the RMW's acquire strength. An always-failing `cas_acq`
/// reader in an MP shape must forbid the stale read — exactly as its
/// desugared `loadx_acq` retry-loop reference does — on both
/// architectures and in all four models; the plain-CAS variant must stay
/// weak (the failure path must not *add* strength either). The shapes
/// also live in the catalogue (`MP+rel+cas_acq-fail` &c.); this test
/// additionally pins the operational-vs-desugared equivalence.
#[test]
fn failed_cas_keeps_acquire_strength() {
    for arch in [Arch::Arm, Arch::RiscV] {
        for (rk, forbidden) in [
            (ReadKind::Acquire, true),
            (ReadKind::WeakAcquire, true),
            (ReadKind::Plain, false),
        ] {
            let mut b = CodeBuilder::new();
            let s1 = b.store(Expr::val(0), Expr::val(37));
            let s2 = b.store_rel(Expr::val(1), Expr::val(42));
            let t0 = b.finish_seq(&[s1, s2]);
            let mut b = CodeBuilder::new();
            // expected 7 never matches {0, 42}: the CAS always fails
            let c = b.cas_kind(
                Reg(1),
                Expr::val(1),
                Expr::val(7),
                Expr::val(99),
                rk,
                WriteKind::Plain,
            );
            let l = b.load(Reg(2), Expr::val(0));
            let t1 = b.finish_seq(&[c, l]);
            let program = Arc::new(Program::new(vec![t0, t1]));
            let config = Config::for_arch(arch).with_loop_fuel(FUEL);

            let stale = |outcomes: &std::collections::BTreeSet<promising_core::Outcome>| {
                outcomes.iter().any(|o| {
                    o.reg(1, Reg(1)) == promising_core::Val(42)
                        && o.reg(1, Reg(2)) == promising_core::Val(0)
                })
            };
            let label = format!("{}/{rk:?}", arch.name());

            let naive = explore_naive(
                &Machine::new(Arc::clone(&program), config.clone()),
                CertMode::Online,
            );
            assert_eq!(
                stale(&naive.outcomes),
                !forbidden,
                "{label}: naive stale-read verdict"
            );
            let pf = explore_promise_first(&Machine::new(Arc::clone(&program), config.clone()));
            assert_eq!(
                naive.outcomes, pf.outcomes,
                "{label}: promise-first differs"
            );

            // the canonical desugaring (loadx_<rk> retry loop) must agree
            let desugared = Arc::new(desugar_program_rmws(&program));
            let de = explore_naive(
                &Machine::new(Arc::clone(&desugared), config.clone()),
                CertMode::Online,
            );
            assert_eq!(
                naive.outcomes, de.outcomes,
                "{label}: desugared retry loop diverges on CAS failure"
            );

            let flat = explore_flat(&FlatMachine::new(Arc::clone(&program), config));
            assert_eq!(naive.outcomes, flat.outcomes, "{label}: flat differs");

            let ax = enumerate_outcomes(&program, &AxConfig::new(arch)).expect("enumeration");
            assert_eq!(naive.outcomes, ax.outcomes, "{label}: axiomatic differs");
        }
    }
}

/// PR 9 headline regression: the `rmw-acq-po-ld` family. Symmetric SB
/// where each thread's store is an acquire atomic update and the po-later
/// load reads the other location, optionally through an address
/// dependency on the RMW's old value:
///
/// ```text
/// r1 = amo_add_acq(x, 1)        r3 = amo_add_acq(y, 1)
/// r2 = load(y [+ (r1 - r1)])    r4 = load(x [+ (r3 - r3)])
/// ```
///
/// Acquire on an RMW orders po-later loads after the *read* half only;
/// the write half may propagate late, so `[r2=0, r4=0]` is allowed on
/// both architectures (the axiomatic `rmw` edge runs read→write — the
/// wrong direction to close the ob/global-order cycle). The
/// single-step flat RMW used to forbid it by holding po-later loads
/// until the write landed. Asserts the outcome is present and that all
/// models — naive, promise-first, flat, the desugared build (naive and
/// flat), and axiomatic — produce identical outcome sets.
#[test]
fn rmw_acq_po_ld_family_agrees_in_every_model() {
    for arch in [Arch::Arm, Arch::RiscV] {
        for rk in [ReadKind::Acquire, ReadKind::WeakAcquire] {
            for addr_dep in [false, true] {
                let mk = |own: i64, other: i64| {
                    let mut b = CodeBuilder::new();
                    let r = b.amo_kind(
                        RmwOp::FetchAdd,
                        Reg(1),
                        Expr::val(own),
                        Expr::val(1),
                        rk,
                        WriteKind::Plain,
                    );
                    let addr = if addr_dep {
                        Expr::val(other).add(Expr::reg(Reg(1)).sub(Expr::reg(Reg(1))))
                    } else {
                        Expr::val(other)
                    };
                    let l = b.load(Reg(2), addr);
                    b.finish_seq(&[r, l])
                };
                let program = Arc::new(Program::new(vec![mk(0, 1), mk(1, 0)]));
                let desugared = Arc::new(desugar_program_rmws(&program));
                let config = Config::for_arch(arch).with_loop_fuel(FLAT_FUEL);
                let label = format!(
                    "{}/{rk:?}/{}",
                    arch.name(),
                    if addr_dep { "addr" } else { "po" }
                );

                let naive = explore_naive(
                    &Machine::new(Arc::clone(&program), config.clone()),
                    CertMode::Online,
                );
                assert!(
                    naive.outcomes.iter().any(|o| {
                        o.reg(0, Reg(2)) == promising_core::Val(0)
                            && o.reg(1, Reg(2)) == promising_core::Val(0)
                    }),
                    "{label}: both-stale outcome missing from the reference model"
                );

                let pf = explore_promise_first(&Machine::new(Arc::clone(&program), config.clone()));
                assert_eq!(
                    naive.outcomes, pf.outcomes,
                    "{label}: promise-first differs"
                );

                let flat = explore_flat(&FlatMachine::new(Arc::clone(&program), config.clone()));
                assert_eq!(naive.outcomes, flat.outcomes, "{label}: flat differs");

                let de_naive = explore_naive(
                    &Machine::new(Arc::clone(&desugared), config.clone()),
                    CertMode::Online,
                );
                assert_eq!(
                    naive.outcomes, de_naive.outcomes,
                    "{label}: desugared (naive) differs"
                );
                let de_flat = explore_flat(&FlatMachine::new(Arc::clone(&desugared), config));
                assert_eq!(
                    naive.outcomes, de_flat.outcomes,
                    "{label}: desugared (flat) differs"
                );

                let mut ax_cfg = AxConfig::new(arch);
                ax_cfg.loop_fuel = FLAT_FUEL;
                let ax = enumerate_outcomes(&program, &ax_cfg).expect("axiomatic enumeration");
                assert_eq!(naive.outcomes, ax.outcomes, "{label}: axiomatic differs");
            }
        }
    }
}

/// A deterministic sanity check that the generator actually produces RMWs
/// (the properties above would pass vacuously otherwise).
#[test]
fn battery_contains_rmws() {
    let mut rng = proptest::TestRng::new(proptest::seed_for("battery_contains_rmws"));
    let strat = program_strategy();
    let mut seen = 0;
    for _ in 0..50 {
        if has_rmw(&strat.sample(&mut rng)) {
            seen += 1;
        }
    }
    assert!(seen >= 25, "only {seen}/50 sampled programs contain an RMW");
}

/// What the step/undo round trips applied, to check they cover every
/// rule the undo record must put back.
#[derive(Default)]
struct Coverage(BTreeSet<&'static str>);

impl Coverage {
    fn note(&mut self, head: Option<&Stmt>, kind: &TransitionKind, event: &StepEvent) {
        let what = match (event, head) {
            (StepEvent::DidRmw { .. }, Some(Stmt::Rmw { op: RmwOp::Cas, .. })) => "cas success",
            (StepEvent::DidRmw { .. }, Some(Stmt::Rmw { op: RmwOp::Swp, .. })) => "swap",
            (
                StepEvent::DidRmw { .. },
                Some(Stmt::Rmw {
                    op: RmwOp::FetchAdd,
                    ..
                }),
            ) => "fetch-add",
            (StepEvent::DidRmw { .. }, _) => "other rmw",
            (StepEvent::DidRead { .. }, Some(Stmt::Rmw { .. })) => "cas failure",
            (
                StepEvent::DidRead { .. },
                Some(Stmt::Load {
                    exclusive: true, ..
                }),
            ) => "load exclusive",
            (
                StepEvent::DidWrite { .. },
                Some(Stmt::Store {
                    exclusive: true, ..
                }),
            ) => "store exclusive",
            (StepEvent::ExclFailed, _) => "exclusive failure",
            (StepEvent::LoopBoundHit, _) => "loop fuel exhausted",
            (StepEvent::LocalRead(..) | StepEvent::LocalWrite(..), _) => "non-shared location",
            (StepEvent::Promised(..), _) => "promise",
            _ => "other",
        };
        self.0.insert(what);
        if matches!(
            kind,
            TransitionKind::Fulfil { .. } | TransitionKind::Rmw { tw: Some(_), .. }
        ) {
            self.0.insert("fulfil");
        }
    }
}

fn state_fingerprint(thread: &ThreadInstance, memory: &Memory) -> Fingerprint {
    let mut h = FpHasher::new();
    thread.feed(&mut h);
    memory.feed(&mut h);
    h.finish128()
}

/// The transitions tried on `thread`: every enabled step, then a handful
/// of disabled ones (reads, fulfils and RMWs at timestamps that may not
/// fit, the other step shapes) and two promises, one foreign.
fn candidates(
    tid: TId,
    thread: &ThreadInstance,
    memory: &Memory,
    enabled: &[TransitionKind],
) -> Vec<TransitionKind> {
    let len = memory.len() as u32;
    let stamps: BTreeSet<Timestamp> = [0, 1, len, len + 1].into_iter().map(Timestamp).collect();
    let mut out = enabled.to_vec();
    out.extend([
        TransitionKind::Internal,
        TransitionKind::WriteNormal,
        TransitionKind::ExclFail,
    ]);
    for &t in &stamps {
        out.push(TransitionKind::Read { t });
        out.push(TransitionKind::Fulfil { t });
        out.push(TransitionKind::Rmw { tr: t, tw: None });
        for &p in &thread.state.prom {
            out.push(TransitionKind::Rmw { tr: t, tw: Some(p) });
        }
    }
    for owner in [tid, TId(tid.0 + 1)] {
        out.push(TransitionKind::Promise {
            msg: Msg::new(Loc(0), Val(1), owner),
        });
    }
    out
}

/// Apply every candidate to `thread` and `memory` in place and undo it;
/// each must come back exactly: same `Debug` rendering (which copies
/// nothing, unlike a snapshot clone, so the in-place path keeps its
/// uniquely owned maps) and same fingerprint, including memory's running
/// digest. Enabled steps must apply, and `depth` more levels of them are
/// tried underneath before the undo.
fn round_trip(
    config: &Config,
    code: &ThreadCode,
    tid: TId,
    thread: &mut ThreadInstance,
    memory: &mut Memory,
    depth: u32,
    cov: &mut Coverage,
) {
    let before = (
        format!("{thread:?}"),
        format!("{memory:?}"),
        state_fingerprint(thread, memory),
    );
    let mut enabled = Vec::new();
    enabled_steps(config, code, tid, thread, memory, &mut enabled);
    for kind in candidates(tid, thread, memory, &enabled) {
        let head = thread.cont.last().map(|&s| code.stmt(s).clone());
        match apply_step(config, code, tid, &kind, thread, memory) {
            Ok((event, undo)) => {
                cov.note(head.as_ref(), &kind, &event);
                if depth > 0 && enabled.contains(&kind) {
                    round_trip(config, code, tid, thread, memory, depth - 1, cov);
                }
                undo.restore(thread, memory);
            }
            Err(e) => {
                assert!(!enabled.contains(&kind), "enabled step {kind} failed: {e}");
                cov.0.insert("rejected");
            }
        }
        let after = (
            format!("{thread:?}"),
            format!("{memory:?}"),
            state_fingerprint(thread, memory),
        );
        assert_eq!(after, before, "{kind} did not undo exactly");
    }
}

/// Walk `m` at random through its machine steps (promises included, so
/// later states have promises to fulfil). At every state, round-trip
/// every thread on copies of its own thread and memory, two levels deep,
/// and check the copies end `==` to the machine's.
fn walk_round_trips(mut m: Machine, rng: &mut TestRng, len: usize, cov: &mut Coverage) {
    for _ in 0..len {
        let program = Arc::clone(m.program());
        for tid in (0..m.num_threads()).map(TId) {
            let code = &program.threads()[tid.0];
            let (mut thread, mut memory) = (m.thread(tid).clone(), m.memory().clone());
            round_trip(m.config(), code, tid, &mut thread, &mut memory, 2, cov);
            assert_eq!(&thread, m.thread(tid));
            assert_eq!(&memory, m.memory());
            assert_eq!(
                state_fingerprint(&thread, &memory),
                state_fingerprint(m.thread(tid), m.memory())
            );
        }
        let steps = m.machine_steps();
        if steps.is_empty() {
            break;
        }
        let pick = &steps[rng.below(steps.len() as u64) as usize];
        m.apply(pick).expect("machine step applies");
    }
}

/// A round-trip configuration: loop fuel 1, so spins run out within a
/// short walk; with `private`, only location 0 is shared, so accesses to
/// the others take the non-shared rules.
fn round_trip_config(arch: Arch, private: bool) -> Config {
    let config = Config::for_arch(arch).with_loop_fuel(1);
    if private {
        config.with_shared_locs([Loc(0)])
    } else {
        config
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 16, ..ProptestConfig::default() })]

    /// Every step of random RMW programs, and of their exclusive-pair
    /// desugarings (retry loops), undoes exactly.
    #[test]
    fn step_undo_round_trips_on_random_programs(
        recipes in program_strategy(),
        riscv in any::<bool>(),
        private in any::<bool>(),
        seed in any::<u64>(),
    ) {
        let arch = if riscv { Arch::RiscV } else { Arch::Arm };
        let program = to_program(&recipes);
        let desugared = Arc::new(desugar_program_rmws(&program));
        let mut rng = TestRng::new(seed);
        let mut cov = Coverage::default();
        for p in [program, desugared] {
            let m = Machine::new(p, round_trip_config(arch, private));
            walk_round_trips(m, &mut rng, 12, &mut cov);
        }
    }

    /// The same on the RMW-heavy `rmw; po; ld*` programs.
    #[test]
    fn step_undo_round_trips_on_rmw_heavy_programs(
        recipes in rmw_heavy_program_strategy(),
        riscv in any::<bool>(),
        private in any::<bool>(),
        seed in any::<u64>(),
    ) {
        let arch = if riscv { Arch::RiscV } else { Arch::Arm };
        let m = Machine::new(to_program(&recipes), round_trip_config(arch, private));
        walk_round_trips(m, &mut TestRng::new(seed), 12, &mut Coverage::default());
    }
}

/// Every step of every litmus catalogue test, and of the retry loops its
/// RMWs desugar to, undoes exactly, along one random walk per program and
/// sharing mode; the walks reach every rule the undo record must put back.
#[test]
fn step_undo_round_trips_on_the_catalogue() {
    let mut rng = TestRng::new(proptest::seed_for("step_undo_round_trips_on_the_catalogue"));
    let mut cov = Coverage::default();
    for test in catalogue() {
        let desugared = Arc::new(desugar_program_rmws(&test.program));
        let retry_loops = desugared.threads().iter().any(|code| code.has_loop());
        let programs =
            std::iter::once(test.program.clone()).chain(retry_loops.then_some(desugared));
        for program in programs {
            for private in [false, true] {
                let config = round_trip_config(test.arch, private);
                let m = Machine::with_init(Arc::clone(&program), config, test.init.clone());
                walk_round_trips(m, &mut rng, 16, &mut cov);
            }
        }
    }
    for rule in [
        "cas success",
        "cas failure",
        "swap",
        "fetch-add",
        "load exclusive",
        "store exclusive",
        "exclusive failure",
        "fulfil",
        "promise",
        "loop fuel exhausted",
        "non-shared location",
        "rejected",
    ] {
        assert!(
            cov.0.contains(rule),
            "no round trip covered {rule}: {:?}",
            cov.0
        );
    }
}
