//! Validation of the search reductions ([`Config::por`]): with them on
//! or off, every exploration strategy must produce *identical* outcome
//! sets, and the reduced search must never visit more states than the
//! unreduced one — across the named litmus catalogue, the systematically
//! generated suites (shapes × orderings × RMW links), the compiled
//! language corpus on both architectures, and random programs
//! (property-tested). POR off is the unreduced reference: no `reduce`,
//! raw flat states, full certification keys. Anti-rot tests check that
//! the reductions actually fire (observer collapse, delayable-thread
//! collapse, flat state merging, surviving certificates), and memoised
//! certification with restricted keys must agree answer-for-answer with
//! fresh certification under POR off. `tests/dpor_agreement.rs` sweeps
//! further selections of the same suites with POR on and off.
//!
//! Promise-first's reduction is thread symmetry: with POR on it expands
//! one state per orbit of identical threads and closes the outcomes
//! under renaming them. No corpus test has identical threads, so the
//! symmetric path is checked on the Table-2 lock rows, on random
//! programs with one thread duplicated, and on identical threads whose
//! root is not symmetric.
//!
//! [`Config::por`]: promising_core::Config

use promising_core::ids::TId;
use promising_core::{
    find_and_certify, find_and_certify_with, Arch, CertMemo, Config, Machine, Program,
};
use promising_explorer::{
    explore_naive, explore_promise_first, CertMode, Engine, Exploration, NaiveModel,
    PromiseFirstModel, SearchModel, Stats,
};
use promising_flat::{explore_flat, FlatMachine};
use promising_litmus::{
    catalogue, generate_lang_subsample, generate_rmw_subsample, generate_subsample,
    generate_three_thread_suite, lang_catalogue, run_model_with, LitmusTest, ModelKind,
    DEFAULT_FUEL,
};
use promising_workloads::{by_spec, init_for};
use proptest::prelude::*;
use std::collections::BTreeSet;
use std::sync::Arc;

/// The two strategies the reduction actually prunes, plus promise-first
/// (whose reduce hook is the default no-op but whose certification keys
/// follow the flag).
const MODELS: [ModelKind; 3] = [
    ModelKind::PromisingNaive,
    ModelKind::Flat,
    ModelKind::Promising,
];

/// Run `test` under `kind` with POR on and off: the outcome sets must be
/// equal and POR on must visit no more states. `Err` names the mismatch.
fn check_por_agreement(test: &LitmusTest, kind: ModelKind) -> Result<(), String> {
    let on = run_model_with(test, kind, |c| c.with_por(true)).expect("POR-on run");
    let off = run_model_with(test, kind, |c| c.with_por(false)).expect("POR-off run");
    if on.outcomes != off.outcomes {
        return Err(format!(
            "{test}: {} POR-on and POR-off outcome sets differ",
            kind.name()
        ));
    }
    if on.states > off.states {
        return Err(format!(
            "{test}: {} POR on visits more states than off ({} vs {})",
            kind.name(),
            on.states,
            off.states
        ));
    }
    Ok(())
}

fn assert_por_agreement(test: &LitmusTest) {
    for kind in MODELS {
        if test.flat_conservative && kind == ModelKind::Flat {
            continue;
        }
        check_por_agreement(test, kind).unwrap_or_else(|e| panic!("{e}"));
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
    // pairwise-disjoint future may-access sets here) and shrink the search.
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

    /// POR-on ≡ POR-off, with POR on visiting no more states, on random
    /// generated programs, for the two strategies with non-trivial
    /// reduce hooks.
    #[test]
    fn por_on_off_agree_on_random_programs(test in generated_test_strategy()) {
        for kind in [ModelKind::PromisingNaive, ModelKind::Flat] {
            if test.flat_conservative && kind == ModelKind::Flat {
                continue;
            }
            prop_assert_eq!(check_por_agreement(&test, kind), Ok(()));
        }
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

    /// Thread symmetry on random programs: a generated test with a copy
    /// of one of its threads appended has a symmetry class, and
    /// promise-first with POR on must still find exactly the POR-off
    /// outcomes, visiting no more states.
    #[test]
    fn promise_first_symmetry_agrees_on_random_programs(
        test in generated_test_strategy(),
        pick in 0..4usize,
    ) {
        let twin = with_duplicate_thread(&test, pick);
        prop_assert_eq!(check_por_agreement(&twin, ModelKind::Promising), Ok(()));
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

// ---- thread symmetry (promise-first) ----------------------------------

/// `test` with a copy of thread `pick % n` appended: the copy and the
/// original run the same code from equal root instances.
fn with_duplicate_thread(test: &LitmusTest, pick: usize) -> LitmusTest {
    let mut threads = test.program.threads().to_vec();
    threads.push(threads[pick % threads.len()].clone());
    LitmusTest {
        name: format!("{}+dup{}", test.name, pick % test.program.num_threads()),
        program: Arc::new(Program::new(threads)),
        lang: None,
        ..test.clone()
    }
}

/// Promise-first on Table-2 row `spec` under the row's ARM configuration
/// with `tweak` applied.
fn promise_first_row(spec: &str, tweak: impl Fn(Config) -> Config) -> Exploration {
    let w = by_spec(spec).expect("spec parses");
    let config = tweak(w.config(Arch::Arm));
    explore_promise_first(&Machine::with_init(w.program.clone(), config, init_for(&w)))
}

#[test]
fn promise_first_symmetry_agrees_on_table2_rows() {
    // Table-2 rows with a symmetry class: k copies of one lock client,
    // or of a producer, pusher or enqueuer. Expanding one state per
    // orbit and closing the outcomes under renaming the copies must
    // give the unreduced outcome set. On the lock rows the reduction
    // must also fire, by exactly the orbit counts, pinned as (POR off,
    // POR on) promise-mode states.
    for (spec, pinned) in [
        ("SLA-1", Some((67, 34))),
        ("SLC-1", Some((1_393, 236))),
        ("SLR-1", Some((1_003, 171))),
        ("TL-1", Some((1_855, 313))),
        ("PCM-1-1-1", None),
        ("STC-100-010-010", None),
        ("STR-100-010-010", None),
        ("QU-100-000-000", None),
    ] {
        let off = promise_first_row(spec, |c| c.with_por(false));
        let on = promise_first_row(spec, |c| c);
        assert_eq!(on.outcomes, off.outcomes, "{spec}: POR on and off differ");
        assert!(on.stats.states <= off.stats.states, "{spec}");
        if let Some(pinned) = pinned {
            assert_eq!(
                (off.stats.states, on.stats.states),
                pinned,
                "{spec}: promise-first states (POR off, POR on)"
            );
        }
    }
    // and the reduced search still agrees with the naive reference
    // (Thm 7.1), which has no symmetry reduction
    let w = by_spec("SLA-1").expect("spec parses");
    let m = Machine::with_init(w.program.clone(), w.config(Arch::Arm), init_for(&w));
    let naive = explore_naive(&m, CertMode::Online);
    assert_eq!(
        promise_first_row("SLA-1", |c| c).outcomes,
        naive.outcomes,
        "SLA-1: promise-first with symmetry vs naive"
    );
}

#[test]
fn promise_first_symmetric_sampling_is_sound_and_deterministic() {
    // Sampling walks close their outcomes under the same renamings: they
    // must stay inside the exhaustive set and, for a fixed seed, give
    // the same result at 1 and 4 workers.
    let w = by_spec("SLC-1").expect("spec parses");
    let machine = |workers: usize| {
        Machine::with_init(
            w.program.clone(),
            w.config(Arch::Arm).with_workers(workers),
            init_for(&w),
        )
    };
    let exhaustive = explore_promise_first(&machine(1));
    let a = Engine::new(PromiseFirstModel::new(&machine(1))).sample(256, 0x5EED);
    assert!(!a.outcomes.is_empty());
    assert!(
        a.outcomes.is_subset(&exhaustive.outcomes),
        "SLC-1: sampled outcomes escape the exhaustive set"
    );
    let b = Engine::new(PromiseFirstModel::new(&machine(4))).sample(256, 0x5EED);
    assert_eq!(a.outcomes, b.outcomes, "SLC-1: 1 vs 4 workers differ");
    assert_eq!(a.stats.states, b.stats.states);
}

#[test]
fn promise_first_does_not_reduce_an_asymmetric_root() {
    // Two copies of `r1 = load(x); store(x, 1)`, where thread 0 (and,
    // in the second machine, thread 1 too) has already promised its
    // store at the root. Renaming the threads does not fix such a root:
    // thread 0 must fulfil at timestamp 1, so it reads x = 0, while
    // thread 1 may read thread 0's 1. Closing the outcomes under the
    // swap would invent thread 0 reading 1.
    use promising_core::{CodeBuilder, Expr, Loc, Msg, Reg, Transition, TransitionKind, Val};
    let copy = || {
        let mut b = CodeBuilder::new();
        let l = b.load(Reg(1), Expr::val(0));
        let s = b.store(Expr::val(0), Expr::val(1));
        b.finish_seq(&[l, s])
    };
    let program = Arc::new(Program::new(vec![copy(), copy()]));
    for promised in [1, 2] {
        let root = |por: bool| {
            let mut m = Machine::new(Arc::clone(&program), Config::arm().with_por(por));
            for tid in (0..promised).map(TId) {
                let msg = Msg::new(Loc(0), Val(1), tid);
                m.apply(&Transition::new(tid, TransitionKind::Promise { msg }))
                    .expect("promise applies");
            }
            m
        };
        let on = explore_promise_first(&root(true));
        let off = explore_promise_first(&root(false));
        let naive = explore_naive(&root(true), CertMode::Online);
        assert_eq!(
            on.outcomes, off.outcomes,
            "{promised} promised: POR on vs off"
        );
        assert_eq!(
            on.outcomes, naive.outcomes,
            "{promised} promised: on vs naive"
        );
        assert!(
            on.outcomes.iter().all(|o| o.reg(0, Reg(1)) == Val(0)),
            "{promised} promised: thread 0 cannot read its own promise"
        );
        assert!(
            on.outcomes.iter().any(|o| o.reg(1, Reg(1)) == Val(1)),
            "{promised} promised: thread 1 reads thread 0's promise"
        );
    }
}
