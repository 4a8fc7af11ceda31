//! Validation of the search reductions ([`Config::por`]): with them on
//! or off, every exploration strategy must produce *identical* outcome
//! sets — across the named litmus catalogue, the systematically
//! generated suites (shapes × orderings × RMW links), the compiled
//! language corpus on both architectures, and random programs
//! (property-tested). POR off is the unreduced reference: no `reduce`,
//! raw flat states, full certification keys. Anti-rot tests check that
//! the reductions actually fire (observer collapse, delayable-thread
//! collapse, flat state merging, surviving certificates). The building
//! blocks are validated directly too: every transition pair the
//! `SearchModel::independent` hook claims independent must actually
//! commute, state-for-state, with enabledness preserved in both
//! directions, and memoised certification with restricted keys must
//! agree answer-for-answer with fresh certification under POR off.
//! `tests/dpor_agreement.rs` sweeps further selections of the same
//! suites with POR on and off.
//!
//! [`Config::por`]: promising_core::Config

use promising_core::ids::TId;
use promising_core::{
    find_and_certify, find_and_certify_with, Arch, CertMemo, Config, Machine, Transition,
    TransitionKind,
};
use promising_explorer::{explore_naive, CertMode, Engine, NaiveModel, SearchModel, Stats};
use promising_flat::{explore_flat, FlatMachine};
use promising_litmus::{
    catalogue, generate_lang_subsample, generate_rmw_subsample, generate_subsample,
    generate_three_thread_suite, lang_catalogue, run_model_with, LitmusTest, ModelKind,
    DEFAULT_FUEL,
};
use promising_workloads::{by_spec, init_for};
use proptest::prelude::*;
use std::collections::BTreeSet;

/// The two strategies the reduction actually prunes, plus promise-first
/// (whose reduce hook is the default no-op but whose certification keys
/// follow the flag).
const MODELS: [ModelKind; 3] = [
    ModelKind::PromisingNaive,
    ModelKind::Flat,
    ModelKind::Promising,
];

fn assert_por_agreement(test: &LitmusTest) {
    for kind in MODELS {
        if test.flat_conservative && kind == ModelKind::Flat {
            continue;
        }
        let on = run_model_with(test, kind, |c| c.with_por(true)).expect("POR-on run");
        let off = run_model_with(test, kind, |c| c.with_por(false)).expect("POR-off run");
        assert_eq!(
            on.outcomes,
            off.outcomes,
            "{test}: {} POR-on and POR-off outcome sets differ",
            kind.name()
        );
    }
}

#[test]
fn catalogue_por_on_off_agree() {
    for test in catalogue() {
        assert_por_agreement(&test);
    }
}

#[test]
fn generated_suites_por_on_off_agree() {
    // Shapes × link orderings, the three-thread (IRIW/WRC) shapes —
    // where the observer collapse actually fires — and the RMW cross,
    // on both architectures.
    for arch in [Arch::Arm, Arch::RiscV] {
        let mut tests = generate_subsample(arch, 13, arch as usize);
        tests.extend(
            generate_three_thread_suite(arch)
                .into_iter()
                .skip(arch as usize)
                .step_by(5),
        );
        tests.extend(generate_rmw_subsample(arch, 17, arch as usize));
        assert!(tests.len() > 30, "{}: sample too small", arch.name());
        for test in &tests {
            assert_por_agreement(test);
        }
    }
}

#[test]
fn lang_corpus_por_on_off_agree() {
    // The language-level corpus, compiled to both architectures.
    let mut tests = lang_catalogue();
    tests.extend(generate_lang_subsample(29, 0));
    for test in &tests {
        for arch in [Arch::Arm, Arch::RiscV] {
            assert_por_agreement(&test.compile(arch));
        }
    }
}

/// PR 9 anti-rot for the bind/propagate split: the `rmw-acq-po-ld`
/// family introduces a new interleaving point (the write half of an
/// acquire RMW propagating *after* po-later loads bound), and the
/// reduction must neither prune the recovered weak outcome nor invent
/// it. Beyond on ≡ off (which [`catalogue_por_on_off_agree`] already
/// covers), this pins the expectation verdict — the `exists` witness
/// present exactly on the `allowed` entries — with POR on and off, for
/// every strategy.
#[test]
fn rmw_acq_po_ld_family_verdicts_survive_por() {
    let family: Vec<LitmusTest> = catalogue()
        .into_iter()
        .filter(|t| t.name.contains("RMW-acq-ld") || t.name.contains("RMW-audit"))
        .collect();
    assert!(
        family.len() >= 17,
        "family shrank: only {} RMW-acq-ld/RMW-audit entries",
        family.len()
    );
    for test in &family {
        let allowed = test.expect == Some(promising_litmus::Expectation::Allowed);
        for kind in MODELS {
            if test.flat_conservative && kind == ModelKind::Flat {
                continue;
            }
            for por in [true, false] {
                let run = run_model_with(test, kind, |c| c.with_por(por)).expect("family run");
                assert_eq!(
                    test.condition.holds(&run.outcomes),
                    allowed,
                    "{test}: {} (por={por}) verdict flipped",
                    kind.name()
                );
            }
        }
    }
}

#[test]
fn por_actually_prunes_observer_shapes() {
    // Guard against the reduction silently rotting into a no-op: on an
    // IRIW-style multi-observer shape it must both prune transitions and
    // shrink the visited set.
    let test = catalogue()
        .into_iter()
        .find(|t| t.name == "IRIW+po+po")
        .expect("IRIW+po+po in catalogue");
    let config = Config::for_arch(test.arch).with_loop_fuel(test.loop_fuel.unwrap_or(DEFAULT_FUEL));
    let on = explore_naive(
        &Machine::with_init(test.program.clone(), config.clone(), test.init.clone()),
        CertMode::Online,
    );
    let off = explore_naive(
        &Machine::with_init(
            test.program.clone(),
            config.with_por(false),
            test.init.clone(),
        ),
        CertMode::Online,
    );
    assert!(on.stats.por_pruned > 0, "POR never fired on IRIW");
    assert!(
        on.stats.states < off.stats.states,
        "POR did not shrink the visited set on IRIW ({} vs {})",
        on.stats.states,
        off.stats.states
    );
    assert_eq!(off.stats.por_pruned, 0, "POR-off must not prune");
    assert_eq!(on.outcomes, off.outcomes);
}

/// An append-bound program with per-thread locations: each thread
/// repeatedly writes its own location then reads it back. No thread is
/// a pure observer (every thread appends), so only the per-location
/// rules can shrink it: the naive delayable-thread collapse and the flat
/// model's canonical state merging.
fn disjoint_appenders(threads: usize, writes: usize) -> std::sync::Arc<promising_core::Program> {
    use promising_core::{CodeBuilder, Expr, Program, Reg};
    let mut ts = Vec::new();
    for t in 0..threads {
        let mut b = CodeBuilder::new();
        let mut stmts = Vec::new();
        for w in 0..writes {
            stmts.push(b.store(Expr::val(t as i64), Expr::val(w as i64 + 1)));
        }
        stmts.push(b.load(Reg(1), Expr::val(t as i64)));
        ts.push(b.finish_seq(&stmts));
    }
    std::sync::Arc::new(Program::new(ts))
}

#[test]
fn por_actually_prunes_append_bound_shapes() {
    // Guard against the per-location rules silently rotting into a
    // no-op, on both strategies they serve.
    let program = disjoint_appenders(3, 2);

    // Flat: canonical per-location state merging must shrink the
    // visited set (the raw encoding keeps every append interleaving
    // distinct).
    let f_on = explore_flat(&FlatMachine::new(program.clone(), Config::arm()));
    let f_off = explore_flat(&FlatMachine::new(
        program.clone(),
        Config::arm().with_por(false),
    ));
    assert_eq!(f_on.outcomes, f_off.outcomes);
    assert!(
        f_on.stats.states < f_off.stats.states,
        "flat POR did not merge disjoint-append states ({} vs {})",
        f_on.stats.states,
        f_off.stats.states
    );

    // Naive: the delayable-thread reduce must fire (all threads have
    // pairwise-disjoint future footprints here) and shrink the search.
    let n_on = explore_naive(
        &Machine::new(program.clone(), Config::arm()),
        CertMode::Online,
    );
    let n_off = explore_naive(
        &Machine::new(program, Config::arm().with_por(false)),
        CertMode::Online,
    );
    assert_eq!(n_on.outcomes, n_off.outcomes);
    assert!(
        n_on.stats.por_pruned > 0,
        "naive delayable collapse never fired"
    );
    assert_eq!(n_off.stats.por_pruned, 0, "POR-off must not prune");
    assert!(
        n_on.stats.states < n_off.stats.states,
        "naive POR did not shrink the visited set ({} vs {})",
        n_on.stats.states,
        n_off.stats.states
    );
}

#[test]
fn cert_memo_survives_sibling_appends_on_append_bound_workload() {
    // The incremental-recertification acceptance property: on a real
    // append-bound workload the restricted keys must produce *survived*
    // hits (certificates reused across sibling appends to out-of-scope
    // locations), with outcomes unchanged. POR off is the unreduced
    // reference, so it must use full keys only.
    let w = by_spec("STC-100-010-000").expect("spec parses");
    let init = init_for(&w);
    let config = w.config(Arch::Arm);
    let on = explore_naive(
        &Machine::with_init(w.program.clone(), config.clone(), init.clone()),
        CertMode::Online,
    );
    let off = explore_naive(
        &Machine::with_init(w.program.clone(), config.with_por(false), init),
        CertMode::Online,
    );
    assert_eq!(on.outcomes, off.outcomes);
    assert!(
        on.stats.cert_survived > 0,
        "no certificate survived a sibling append (hits {}, misses {})",
        on.stats.cert_hits,
        on.stats.cert_misses
    );
    assert_eq!(
        off.stats.cert_survived, 0,
        "POR-off must not use restricted keys"
    );
}

#[test]
fn sampling_with_por_is_sound_and_deterministic() {
    // `Engine::sample` draws from the reduced transition sets: outcomes
    // must stay a subset of the exhaustive set, and a fixed (n, seed)
    // must be reproducible regardless of worker count — with POR on or
    // off (the walks differ between the two, but each is deterministic).
    for (i, test) in catalogue().into_iter().enumerate() {
        if i % 5 != 0 {
            continue;
        }
        let config =
            Config::for_arch(test.arch).with_loop_fuel(test.loop_fuel.unwrap_or(DEFAULT_FUEL));
        let exhaustive = explore_naive(
            &Machine::with_init(test.program.clone(), config.clone(), test.init.clone()),
            CertMode::Online,
        );
        for por in [true, false] {
            let mk = |workers: usize| {
                let m = Machine::with_init(
                    test.program.clone(),
                    config.clone().with_por(por).with_workers(workers),
                    test.init.clone(),
                );
                Engine::new(NaiveModel::new(&m, CertMode::Online)).sample(12, 0xFEED)
            };
            let a = mk(1);
            assert!(
                a.outcomes.is_subset(&exhaustive.outcomes),
                "{test}: sampled (por={por}) outcomes not a subset"
            );
            let b = mk(4);
            assert_eq!(
                a.outcomes, b.outcomes,
                "{test}: sampling (por={por}) differs across worker counts"
            );
            assert_eq!(a.stats.states, b.stats.states);
        }
    }
}

/// Walk a machine along a seeded random path, and at every state check
/// that each transition pair the model claims independent really
/// commutes: applying them in either order reaches the same fingerprint,
/// and each stays applicable after the other.
fn check_independence_commutation(test: &LitmusTest, seed: u64) {
    let config = Config::for_arch(test.arch).with_loop_fuel(test.loop_fuel.unwrap_or(DEFAULT_FUEL));
    let m = Machine::with_init(test.program.clone(), config, test.init.clone());
    let model = NaiveModel::new(&m, CertMode::Online);
    let mut stats = Stats::default();
    let mut cache = model.cache();
    let mut rng = proptest::TestRng::new(seed);
    let mut state = model.root(&mut stats);
    for _step in 0..12 {
        if model.is_final(&state, &mut stats) {
            break;
        }
        let transitions = model.expand(&state, &mut cache, &mut stats, None);
        if transitions.is_empty() {
            break;
        }
        // check up to 24 independent pairs at this state
        let mut checked = 0;
        'outer: for (i, a) in transitions.iter().enumerate() {
            for b in transitions.iter().skip(i + 1) {
                if !model.independent(&state, a, b) {
                    continue;
                }
                assert!(
                    model.independent(&state, b, a),
                    "{test}: independence is not symmetric for {a} / {b}"
                );
                let sa = model.apply(&state, a, &mut stats);
                let sb = model.apply(&state, b, &mut stats);
                assert!(
                    applicable(&sa, b),
                    "{test}: {b} disabled by supposedly independent {a}"
                );
                assert!(
                    applicable(&sb, a),
                    "{test}: {a} disabled by supposedly independent {b}"
                );
                let sab = model.apply(&sa, b, &mut stats);
                let sba = model.apply(&sb, a, &mut stats);
                assert_eq!(
                    model.fingerprint(&sab),
                    model.fingerprint(&sba),
                    "{test}: independent pair {a} / {b} does not commute"
                );
                checked += 1;
                if checked >= 24 {
                    break 'outer;
                }
            }
        }
        let next = &transitions[(rng.below(transitions.len() as u64)) as usize];
        state = model.apply(&state, next, &mut stats);
    }
}

/// Whether `tr` applies cleanly in (a clone of) `m`.
fn applicable(m: &Machine, tr: &Transition) -> bool {
    m.clone().apply(tr).is_ok()
}

/// Walk a machine along a seeded random path with a certification memo
/// shared across the whole walk (so restricted-key entries persist
/// across sibling appends), and at every state check that the memoised
/// answer agrees with a from-scratch certification of the same state
/// under POR off (full keys only), walked in lockstep.
fn check_memo_agrees_with_fresh(test: &LitmusTest, seed: u64) {
    let config = Config::for_arch(test.arch).with_loop_fuel(test.loop_fuel.unwrap_or(DEFAULT_FUEL));
    let machine =
        |config: Config| Machine::with_init(test.program.clone(), config, test.init.clone());
    let model = NaiveModel::new(&machine(config.clone()), CertMode::Online);
    let reference = NaiveModel::new(&machine(config.clone().with_por(false)), CertMode::Online);
    let mut stats = Stats::default();
    let mut cache = model.cache();
    let mut rng = proptest::TestRng::new(seed);
    let mut state = model.root(&mut stats);
    let mut fresh_state = reference.root(&mut stats);
    let mut memo = CertMemo::for_config(&config);
    for _step in 0..10 {
        assert_eq!(state.fingerprint(), fresh_state.fingerprint());
        for tid in 0..state.program().threads().len() {
            let shared = find_and_certify_with(&state, TId(tid), &mut memo, None);
            let fresh = find_and_certify(&fresh_state, TId(tid));
            if shared.bound_hit || fresh.bound_hit {
                continue; // truncated answers are lower bounds, not exact
            }
            assert_eq!(
                (
                    shared.certified,
                    &shared.promisable,
                    &shared.certified_first_steps
                ),
                (
                    fresh.certified,
                    &fresh.promisable,
                    &fresh.certified_first_steps
                ),
                "{test}: memoised certification of thread {tid} diverges from fresh"
            );
        }
        if model.is_final(&state, &mut stats) {
            break;
        }
        let transitions = model.expand(&state, &mut cache, &mut stats, None);
        if transitions.is_empty() {
            break;
        }
        let next = &transitions[(rng.below(transitions.len() as u64)) as usize];
        state = model.apply(&state, next, &mut stats);
        fresh_state = reference.apply(&fresh_state, next, &mut stats);
    }
    let (hits, misses, _survived) = memo.counters();
    assert!(hits + misses > 0, "{test}: the memo was never consulted");
}

#[test]
fn independent_transitions_commute_on_observer_shapes() {
    // Deterministic check on the shapes with the most cross-thread
    // independence (multi-observer reads).
    for test in catalogue() {
        if !test.name.starts_with("IRIW") && !test.name.starts_with("MP") {
            continue;
        }
        for seed in [1, 2] {
            check_independence_commutation(&test, seed);
        }
    }
}

// ---- property tests ---------------------------------------------------

/// A strategy choosing random generated litmus tests on a random
/// architecture, from one of two mixes: the shape × ordering cross at
/// stride 7 plus the RMW-link cross at stride 11, or the mix biased
/// towards the RMW cross (stride 7; promises + exclusives are what
/// certification actually has to work for) plus shapes at stride 11.
fn generated_test_strategy() -> impl Strategy<Value = LitmusTest> {
    (any::<bool>(), any::<bool>(), 0..10_000usize).prop_map(|(riscv, rmw_bias, ix)| {
        let arch = if riscv { Arch::RiscV } else { Arch::Arm };
        let (shapes, rmws) = if rmw_bias { (11, 7) } else { (7, 11) };
        let mut tests = generate_subsample(arch, shapes, ix % shapes);
        tests.extend(generate_rmw_subsample(arch, rmws, ix % rmws));
        let pick = ix % tests.len();
        tests.swap_remove(pick)
    })
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]

    /// POR-on ≡ POR-off on random generated programs, for the reduced
    /// strategies.
    #[test]
    fn por_on_off_agree_on_random_programs(test in generated_test_strategy()) {
        for kind in [ModelKind::PromisingNaive, ModelKind::Flat] {
            if test.flat_conservative && kind == ModelKind::Flat {
                continue;
            }
            let on = run_model_with(&test, kind, |c| c.with_por(true)).expect("on");
            let off = run_model_with(&test, kind, |c| c.with_por(false)).expect("off");
            prop_assert_eq!(
                &on.outcomes, &off.outcomes,
                "{}: {} POR mismatch", test.name, kind.name()
            );
        }
    }

    /// Claimed-independent transition pairs commute on random programs
    /// and random paths.
    #[test]
    fn independent_pairs_commute_on_random_programs(
        test in generated_test_strategy(),
        seed in 1..u64::MAX,
    ) {
        check_independence_commutation(&test, seed);
    }

    /// Random sampling runs stay subsets of exhaustive with POR enabled,
    /// for arbitrary seeds.
    #[test]
    fn por_sampling_soundness_random_seeds(
        test in generated_test_strategy(),
        seed in any::<u64>(),
    ) {
        let config = Config::for_arch(test.arch)
            .with_loop_fuel(test.loop_fuel.unwrap_or(DEFAULT_FUEL));
        let m = Machine::with_init(test.program.clone(), config, test.init.clone());
        let exhaustive = explore_naive(&m, CertMode::Online);
        let sampled = Engine::new(NaiveModel::new(&m, CertMode::Online)).sample(8, seed);
        prop_assert!(
            sampled.outcomes.is_subset(&exhaustive.outcomes),
            "{}: sampled outcomes escape the exhaustive set", test.name
        );
    }

    /// Restricted-memory memo hits agree with fresh POR-off
    /// certification on random programs and random paths.
    #[test]
    fn restricted_memo_agrees_with_fresh_certification(
        test in generated_test_strategy(),
        seed in 1..u64::MAX,
    ) {
        check_memo_agrees_with_fresh(&test, seed);
    }
}

#[test]
fn observer_collapse_never_starves_outcomes() {
    // A hand-built worst case for the collapse: three pure observers of
    // one writer, where keeping only the lowest-numbered observer at
    // every state must still (eventually) let the others read both the
    // old and new values.
    use promising_core::{CodeBuilder, Expr, Program, Reg};
    use std::sync::Arc;
    let mut b = CodeBuilder::new();
    let s = b.store(Expr::val(0), Expr::val(1));
    let writer = b.finish_seq(&[s]);
    let mut threads = vec![writer];
    for _ in 0..3 {
        let mut b = CodeBuilder::new();
        let l = b.load(Reg(1), Expr::val(0));
        threads.push(b.finish_seq(&[l]));
    }
    let program = Arc::new(Program::new(threads));
    let on = explore_naive(
        &Machine::new(Arc::clone(&program), Config::arm()),
        CertMode::Online,
    );
    let off = explore_naive(
        &Machine::new(Arc::clone(&program), Config::arm().with_por(false)),
        CertMode::Online,
    );
    assert_eq!(on.outcomes, off.outcomes);
    // all 8 old/new combinations across the three observers
    let readings: BTreeSet<Vec<i64>> = on
        .outcomes
        .iter()
        .map(|o| (1..4).map(|t| o.reg(t, promising_core::Reg(1)).0).collect())
        .collect();
    assert_eq!(readings.len(), 8, "some observer reading was starved");
    assert!(on.stats.por_pruned > 0);
}

#[test]
fn footprints_classify_the_transition_zoo() {
    // Spot-check `Machine::transition_footprint` against a machine with
    // a promise outstanding: promises append and are cert-coupled,
    // fulfils are memory-silent but cert-coupled, reads of promising
    // threads are cert-coupled, reads of clean threads are not.
    use promising_core::memory::Msg;
    use promising_core::{CodeBuilder, Expr, Loc, Program, Reg, Val};
    use std::sync::Arc;
    let mut b = CodeBuilder::new();
    let s = b.store(Expr::val(0), Expr::val(1));
    let t0 = b.finish_seq(&[s]);
    let mut b = CodeBuilder::new();
    let l = b.load(Reg(1), Expr::val(0));
    let t1 = b.finish_seq(&[l]);
    let mut m = Machine::new(Arc::new(Program::new(vec![t0, t1])), Config::arm());
    m.apply(&Transition::new(
        TId(0),
        TransitionKind::Promise {
            msg: Msg::new(Loc(0), Val(1), TId(0)),
        },
    ))
    .unwrap();

    let promise = m.transition_footprint(&Transition::new(
        TId(0),
        TransitionKind::Promise {
            msg: Msg::new(Loc(0), Val(1), TId(0)),
        },
    ));
    assert!(promise.appends.contains(Loc(0)) && promise.promise);
    assert_eq!(promise.agent, Some(0));

    let fulfil = m.transition_footprint(&Transition::new(
        TId(0),
        TransitionKind::Fulfil {
            t: promising_core::Timestamp(1),
        },
    ));
    // memory-silent: the message has been visible since promise time
    assert!(fulfil.appends.is_empty() && fulfil.promise);
    assert!(fulfil.writes.is_empty() && fulfil.reads.is_empty());

    let read = m.transition_footprint(&Transition::new(
        TId(1),
        TransitionKind::Read {
            t: promising_core::Timestamp(0),
        },
    ));
    assert!(read.appends.is_empty() && !read.promise);
    assert!(read.reads.contains(Loc(0)));

    // a clean observer's read is independent of the promising thread's
    // fulfil, but not of its promise (a same-location append)
    assert!(read.independent_with(&fulfil));
    assert!(!read.independent_with(&promise));
    assert!(!fulfil.independent_with(&promise));
}
