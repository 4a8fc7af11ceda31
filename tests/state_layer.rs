//! Validation of the structurally-shared state layer and the generic
//! search engine ([`promising_explorer::Engine`]):
//!
//! * **Engine equivalence** — the generic engine must reproduce the
//!   reference searches: outcome sets equal to the seed's independent
//!   promise-first implementation (`promising_bench::legacy`) across the
//!   full litmus catalogue, and the three strategies must agree with
//!   each other (Theorems 6.1/7.1) with serial == parallel state counts.
//! * **Sampling soundness** — `Engine::sample` outcome sets must be
//!   subsets of the exhaustive sets for every catalogue test and every
//!   strategy (a property test randomises seeds and trace counts), and a
//!   fixed seed must be deterministic across runs and worker counts.
//!
//! * **Fingerprint vs exact keys** — on the full litmus catalogue, the
//!   fingerprint-deduplicated searches must produce the same outcome
//!   sets as the paranoid (exact-key, collision-checked) mode, for both
//!   the promise-first and naive strategies. The paranoid runs panic on
//!   any fingerprint collision, so passing also certifies that no
//!   collision-induced dedup happened.
//! * **Serial vs parallel** — per strategy (naive, promise-first,
//!   Flat-lite), exploring with multiple workers must produce exactly
//!   the serial outcome set.
//! * **Per-state promisable sets** — along capped walks of every
//!   catalogue test on both architectures and a stride of the generated
//!   suites, certification's promisable set must equal the seed's
//!   reference, which has no dead-promise cut, at every state.

use promising_core::{find_promises_with, Arch, CertMemo, Config, Machine, TId};
use promising_explorer::{
    explore_naive, explore_naive_budget, explore_promise_first, explore_promise_first_budget,
    CertMode, Engine, NaiveModel, PromiseFirstModel, SearchBudget,
};
use promising_flat::{explore_flat, explore_flat_budget, FlatMachine, FlatModel};
use promising_litmus::{catalogue, generate_subsample, LitmusTest, DEFAULT_FUEL};
use std::collections::{HashSet, VecDeque};

fn config_for(test: &LitmusTest) -> Config {
    Config::for_arch(test.arch).with_loop_fuel(test.loop_fuel.unwrap_or(DEFAULT_FUEL))
}

fn machine_for(test: &LitmusTest, config: Config) -> Machine {
    Machine::with_init(test.program.clone(), config, test.init.clone())
}

#[test]
fn promise_first_fingerprint_and_exact_modes_agree_on_catalogue() {
    for test in catalogue() {
        let fast = explore_promise_first(&machine_for(&test, config_for(&test)));
        // Paranoid: exact keys stored beside fingerprints in every
        // visited set and memo; panics on collision.
        let paranoid =
            explore_promise_first(&machine_for(&test, config_for(&test).with_paranoid(true)));
        assert_eq!(
            fast.outcomes, paranoid.outcomes,
            "{test}: fingerprint vs exact-key outcome sets differ (promise-first)"
        );
        assert_eq!(
            fast.stats.states, paranoid.stats.states,
            "{test}: fingerprint vs exact-key state counts differ (promise-first)"
        );
    }
}

#[test]
fn naive_fingerprint_and_exact_modes_agree_on_catalogue() {
    for test in catalogue() {
        let fast = explore_naive(&machine_for(&test, config_for(&test)), CertMode::Online);
        let paranoid = explore_naive(
            &machine_for(&test, config_for(&test).with_paranoid(true)),
            CertMode::Online,
        );
        assert_eq!(
            fast.outcomes, paranoid.outcomes,
            "{test}: fingerprint vs exact-key outcome sets differ (naive)"
        );
        assert_eq!(
            fast.stats.states, paranoid.stats.states,
            "{test}: fingerprint vs exact-key state counts differ (naive)"
        );
    }
}

#[test]
fn flat_fingerprint_and_exact_modes_agree_on_catalogue() {
    for test in catalogue() {
        if test.flat_conservative {
            continue;
        }
        let fast = explore_flat(&FlatMachine::with_init(
            test.program.clone(),
            config_for(&test),
            test.init.clone(),
        ));
        let paranoid = explore_flat(&FlatMachine::with_init(
            test.program.clone(),
            config_for(&test).with_paranoid(true),
            test.init.clone(),
        ));
        assert_eq!(
            fast.outcomes, paranoid.outcomes,
            "{test}: fingerprint vs exact-key outcome sets differ (flat)"
        );
        assert_eq!(
            fast.stats.states, paranoid.stats.states,
            "{test}: fingerprint vs exact-key state counts differ (flat)"
        );
    }
}

#[test]
fn serial_and_parallel_explorations_agree_per_strategy() {
    // Every 3rd catalogue test keeps the parallel sweep fast while still
    // covering all shapes (MP, LB, SB, IRIW, exclusives, loops).
    for (i, test) in catalogue().into_iter().enumerate() {
        if i % 3 != 0 {
            continue;
        }
        let serial_cfg = config_for(&test);
        let parallel_cfg = config_for(&test).with_workers(4);

        let s = explore_promise_first(&machine_for(&test, serial_cfg.clone()));
        let p = explore_promise_first(&machine_for(&test, parallel_cfg.clone()));
        assert_eq!(
            s.outcomes, p.outcomes,
            "{test}: promise-first 1 vs 4 workers"
        );

        let s = explore_naive(&machine_for(&test, serial_cfg.clone()), CertMode::Online);
        let p = explore_naive(&machine_for(&test, parallel_cfg.clone()), CertMode::Online);
        assert_eq!(s.outcomes, p.outcomes, "{test}: naive 1 vs 4 workers");

        if !test.flat_conservative {
            let s = explore_flat(&FlatMachine::with_init(
                test.program.clone(),
                serial_cfg,
                test.init.clone(),
            ));
            let p = explore_flat(&FlatMachine::with_init(
                test.program.clone(),
                parallel_cfg,
                test.init.clone(),
            ));
            assert_eq!(s.outcomes, p.outcomes, "{test}: flat 1 vs 4 workers");
        }
    }
}

#[test]
fn outcome_json_is_byte_identical_serial_vs_parallel() {
    // Regression (PR 5): the canonical outcome serialisation the table
    // binaries embed in their `--json` snapshots must be byte-identical
    // for every worker count and strategy — `Exploration::outcomes` is a
    // canonically sorted set, so the emitted JSON must never depend on
    // scheduling (it used to be tempting to emit per-worker maps).
    for (i, test) in catalogue().into_iter().enumerate() {
        if i % 3 != 0 {
            continue;
        }
        let serial_pf = explore_promise_first(&machine_for(&test, config_for(&test)));
        let serial_naive = explore_naive(&machine_for(&test, config_for(&test)), CertMode::Online);
        for workers in [2, 4] {
            let par_pf =
                explore_promise_first(&machine_for(&test, config_for(&test).with_workers(workers)));
            assert_eq!(
                serial_pf.outcomes_json(),
                par_pf.outcomes_json(),
                "{test}: promise-first outcome JSON differs at {workers} workers"
            );
            assert_eq!(
                serial_pf.outcomes_digest(),
                par_pf.outcomes_digest(),
                "{test}: promise-first outcome digest differs at {workers} workers"
            );
            let par_naive = explore_naive(
                &machine_for(&test, config_for(&test).with_workers(workers)),
                CertMode::Online,
            );
            assert_eq!(
                serial_naive.outcomes_json(),
                par_naive.outcomes_json(),
                "{test}: naive outcome JSON differs at {workers} workers"
            );
        }
        if !test.flat_conservative {
            let serial_flat = explore_flat(&FlatMachine::with_init(
                test.program.clone(),
                config_for(&test),
                test.init.clone(),
            ));
            let par_flat = explore_flat(&FlatMachine::with_init(
                test.program.clone(),
                config_for(&test).with_workers(4),
                test.init.clone(),
            ));
            assert_eq!(
                serial_flat.outcomes_json(),
                par_flat.outcomes_json(),
                "{test}: flat outcome JSON differs at 4 workers"
            );
        }
    }
}

#[test]
fn outcomes_digest_byte_identical_across_workers_and_reductions() {
    // Satellite of the work-stealing frontier refactor: the digest the
    // bench snapshots embed must not depend on worker count, steal
    // order, or which reduction is active. The visited set only ever
    // suppresses re-expansion, so the outcome set — and therefore the
    // canonical serialisation — must be a pure function of the model.
    // Every 4th catalogue test × POR {on, off} × workers {1, 2, 4} × all
    // three strategies.
    for (i, test) in catalogue().into_iter().enumerate() {
        if i % 4 != 0 {
            continue;
        }
        for por in [true, false] {
            let cfg = |w: usize| config_for(&test).with_por(por).with_workers(w);
            let ref_pf = explore_promise_first(&machine_for(&test, cfg(1)));
            let ref_naive = explore_naive(&machine_for(&test, cfg(1)), CertMode::Online);
            let ref_flat = (!test.flat_conservative).then(|| {
                explore_flat(&FlatMachine::with_init(
                    test.program.clone(),
                    cfg(1),
                    test.init.clone(),
                ))
            });
            for workers in [2, 4] {
                let pf = explore_promise_first(&machine_for(&test, cfg(workers)));
                assert_eq!(
                    ref_pf.outcomes_digest(),
                    pf.outcomes_digest(),
                    "{test}: promise-first digest at {workers} workers (por={por})"
                );
                assert_eq!(
                    ref_pf.outcomes_json(),
                    pf.outcomes_json(),
                    "{test}: promise-first JSON at {workers} workers (por={por})"
                );
                let nv = explore_naive(&machine_for(&test, cfg(workers)), CertMode::Online);
                assert_eq!(
                    ref_naive.outcomes_digest(),
                    nv.outcomes_digest(),
                    "{test}: naive digest at {workers} workers (por={por})"
                );
                if let Some(rf) = &ref_flat {
                    let fl = explore_flat(&FlatMachine::with_init(
                        test.program.clone(),
                        cfg(workers),
                        test.init.clone(),
                    ));
                    assert_eq!(
                        rf.outcomes_digest(),
                        fl.outcomes_digest(),
                        "{test}: flat digest at {workers} workers (por={por})"
                    );
                }
            }
        }
    }
}

#[test]
fn outcome_json_escapes_and_digest_shape() {
    // The serialisation must be valid JSON material: quotes/backslashes
    // escaped (outcome Display never emits them today, but the escape
    // path must not rot) and the digest a fixed-width hex string.
    let test = catalogue().into_iter().next().expect("catalogue nonempty");
    let exp = explore_promise_first(&machine_for(&test, config_for(&test)));
    let json = exp.outcomes_json();
    assert!(json.starts_with('[') && json.ends_with(']'));
    assert_eq!(json.matches('"').count() % 2, 0, "quotes must balance");
    let digest = exp.outcomes_digest();
    assert_eq!(digest.len(), 32);
    assert!(digest.chars().all(|c| c.is_ascii_hexdigit()));
}

#[test]
fn parallel_workloads_agree_with_serial() {
    use promising_core::Arch;
    use promising_workloads::{by_spec, init_for};
    for spec in ["SLA-2", "SLC-1", "PCS-1-1", "STC-100-010-000"] {
        let w = by_spec(spec).expect("spec parses");
        let serial = explore_promise_first(&Machine::with_init(
            w.program.clone(),
            w.config(Arch::Arm),
            init_for(&w),
        ));
        let parallel = explore_promise_first(&Machine::with_init(
            w.program.clone(),
            w.config(Arch::Arm).with_workers(4).with_paranoid(true),
            init_for(&w),
        ));
        assert_eq!(serial.outcomes, parallel.outcomes, "{spec}");
        assert_eq!(
            serial.stats.final_memories, parallel.stats.final_memories,
            "{spec}"
        );
    }
}

#[test]
fn engine_reproduces_legacy_promise_first_on_catalogue() {
    // The seed's promise-first search (exact keys, its own loop —
    // `promising_bench::legacy`) is an independent reference: the generic
    // engine must produce byte-identical outcome sets on the full
    // catalogue.
    for test in catalogue() {
        let m = machine_for(&test, config_for(&test));
        let engine = explore_promise_first(&m);
        let legacy = promising_bench::explore_promise_first_legacy(&m);
        assert_eq!(
            engine.outcomes, legacy.outcomes,
            "{test}: engine vs legacy outcome sets differ"
        );
        assert_eq!(
            engine.stats.final_memories, legacy.stats.final_memories,
            "{test}: engine vs legacy final-memory counts differ"
        );
    }
}

/// Breadth-first over the machine steps of `test` under `arch`'s rules,
/// up to `cap` states: at every visited state, every thread's promisable
/// set from `find_promises_with` (dead-promise cut, fingerprint memo)
/// must equal the one the seed's search computes without the cut
/// (`legacy_promisable`).
fn check_promisable_sets_along_walk(test: &LitmusTest, arch: Arch, cap: usize) {
    let config = Config::for_arch(arch)
        .with_loop_fuel(test.loop_fuel.unwrap_or(DEFAULT_FUEL))
        .with_workers(1);
    let root = Machine::with_init(test.program.clone(), config, test.init.clone());
    let mut seen = HashSet::from([root.fingerprint()]);
    let mut queue = VecDeque::from([root]);
    for _ in 0..cap {
        let Some(m) = queue.pop_front() else {
            return;
        };
        for tid in (0..m.num_threads()).map(TId) {
            let mut memo = CertMemo::for_config(m.config());
            let (promisable, _) = find_promises_with(&m, tid, &mut memo, None);
            assert_eq!(
                promisable,
                promising_bench::legacy::legacy_promisable(&m, tid),
                "{test} under {arch:?} rules: thread {} at {:?}",
                tid.0,
                m.state_key()
            );
        }
        for tr in m.machine_steps() {
            let mut next = m.clone();
            next.apply(&tr).expect("machine step applies");
            if seen.insert(next.fingerprint()) {
                queue.push_back(next);
            }
        }
    }
}

#[test]
fn promisable_sets_match_the_legacy_reference_at_every_walked_state() {
    // An independent per-state check of certification: every catalogue
    // test under both architectures' rules, plus a stride of the
    // generated two-thread suites. The catalogue has no thread that
    // holds a promise across a RISC-V `fence w,r` or `fence r,r`, the
    // fences that raise `vrNew` alone; the generated MP/S/R/2+2W shapes
    // with those fences do.
    for test in catalogue() {
        for arch in [Arch::Arm, Arch::RiscV] {
            check_promisable_sets_along_walk(&test, arch, 48);
        }
    }
    for arch in [Arch::Arm, Arch::RiscV] {
        for test in generate_subsample(arch, 7, 0) {
            check_promisable_sets_along_walk(&test, arch, 48);
        }
    }
}

#[test]
fn budget_entry_points_agree_with_unbounded_on_catalogue() {
    // The budgeted entry points with no bounds must be the plain
    // searches; with generous bounds they must be complete (untruncated)
    // and identical. Every 5th test keeps the sweep fast.
    for (i, test) in catalogue().into_iter().enumerate() {
        if i % 5 != 0 {
            continue;
        }
        let roomy = SearchBudget::max_states(u64::MAX >> 1);
        let m = machine_for(&test, config_for(&test));
        let a = explore_promise_first(&m);
        let b = explore_promise_first_budget(&m, roomy);
        assert!(!b.stats.truncated(), "{test}");
        assert_eq!(a.outcomes, b.outcomes, "{test}: promise-first budget");
        assert_eq!(a.stats.states, b.stats.states, "{test}");

        let a = explore_naive(&m, CertMode::Online);
        let b = explore_naive_budget(&m, CertMode::Online, roomy);
        assert_eq!(a.outcomes, b.outcomes, "{test}: naive budget");
        assert_eq!(a.stats.states, b.stats.states, "{test}");

        if !test.flat_conservative {
            let fm =
                FlatMachine::with_init(test.program.clone(), config_for(&test), test.init.clone());
            let a = explore_flat(&fm);
            let b = explore_flat_budget(&fm, roomy);
            assert_eq!(a.outcomes, b.outcomes, "{test}: flat budget");
            assert_eq!(a.stats.states, b.stats.states, "{test}");
        }
    }
}

/// Sampling seeds vary per test so one lucky seed cannot hide a strategy
/// bug across the whole catalogue.
const SAMPLE_TRACES: u64 = 24;

#[test]
fn sampled_outcomes_subset_of_exhaustive_on_catalogue() {
    // The sampling scheduler's soundness guarantee, checked for all
    // three strategies on every catalogue test: sampled ⊆ exhaustive,
    // and sampled sets are never empty (every walk ends somewhere).
    for (i, test) in catalogue().into_iter().enumerate() {
        let seed = 0xC0FFEE ^ i as u64;
        let m = machine_for(&test, config_for(&test));

        let exhaustive = explore_promise_first(&m);
        let sampled = Engine::new(PromiseFirstModel::new(&m)).sample(SAMPLE_TRACES, seed);
        assert!(
            sampled.outcomes.is_subset(&exhaustive.outcomes),
            "{test}: promise-first sampled ⊄ exhaustive"
        );
        assert!(!sampled.outcomes.is_empty(), "{test}: no sampled outcomes");

        let sampled =
            Engine::new(NaiveModel::new(&m, CertMode::Online)).sample(SAMPLE_TRACES, seed);
        assert!(
            sampled.outcomes.is_subset(&exhaustive.outcomes),
            "{test}: naive sampled ⊄ exhaustive (naive exhaustive == promise-first, Thm 7.1)"
        );

        if !test.flat_conservative {
            let fm =
                FlatMachine::with_init(test.program.clone(), config_for(&test), test.init.clone());
            let exhaustive = explore_flat(&fm);
            let sampled = Engine::new(FlatModel::new(&fm)).sample(SAMPLE_TRACES, seed);
            assert!(
                sampled.outcomes.is_subset(&exhaustive.outcomes),
                "{test}: flat sampled ⊄ exhaustive"
            );
        }
    }
}

#[test]
fn sampling_is_deterministic_across_runs_and_workers() {
    // Fixed (n_traces, seed) must be a pure function: identical outcome
    // sets, walk-step counts, and trace counts across repeat runs and
    // worker counts. Every 4th test keeps the parallel sweep fast.
    for (i, test) in catalogue().into_iter().enumerate() {
        if i % 4 != 0 {
            continue;
        }
        let seed = 7 + i as u64;
        let m = machine_for(&test, config_for(&test));
        let a = Engine::new(PromiseFirstModel::new(&m)).sample(SAMPLE_TRACES, seed);
        let b = Engine::new(PromiseFirstModel::new(&m)).sample(SAMPLE_TRACES, seed);
        assert_eq!(a.outcomes, b.outcomes, "{test}: same-seed runs differ");
        assert_eq!(a.stats.states, b.stats.states, "{test}");
        assert_eq!(a.stats.traces, b.stats.traces, "{test}");

        let mp = machine_for(&test, config_for(&test).with_workers(4));
        let c = Engine::new(PromiseFirstModel::new(&mp)).sample(SAMPLE_TRACES, seed);
        assert_eq!(a.outcomes, c.outcomes, "{test}: 1 vs 4 workers differ");
        assert_eq!(a.stats.states, c.stats.states, "{test}");
    }
}

proptest::proptest! {
    #![proptest_config(proptest::prelude::ProptestConfig {
        cases: 6,
        ..proptest::prelude::ProptestConfig::default()
    })]

    /// Property: for arbitrary seeds and trace counts, sampling is a
    /// sound under-approximation of exhaustive search on representative
    /// catalogue tests of each shape (fences, dependencies, exclusives).
    #[test]
    fn prop_sampled_subset_for_arbitrary_seeds(seed in 0u64..u64::MAX, traces in 1u64..48) {
        for name in ["MP+dmb.sy+addr", "LB+data+data", "LDX-STX-atomicity"] {
            let test = promising_litmus::by_name(name).expect("catalogue test");
            let m = machine_for(&test, config_for(&test));
            let exhaustive = explore_promise_first(&m);
            let sampled = Engine::new(PromiseFirstModel::new(&m)).sample(traces, seed);
            proptest::prop_assert!(
                sampled.outcomes.is_subset(&exhaustive.outcomes),
                "{}: seed {} traces {}: sampled ⊄ exhaustive",
                name,
                seed,
                traces
            );
            proptest::prop_assert_eq!(sampled.stats.traces, traces);
        }
    }
}

#[test]
fn fingerprints_distinguish_catalogue_initial_states() {
    // Distinct programs/initial memories give distinct fingerprints
    // (smoke check of the canonical encoding).
    let mut seen = std::collections::HashMap::new();
    for test in catalogue() {
        let m = machine_for(&test, config_for(&test));
        if let Some(prev) = seen.insert(m.fingerprint(), test.name.clone()) {
            // Identical initial dynamic state is legitimate only if the
            // init sections agree and thread counts agree; catalogue
            // programs differ in code, but the *dynamic* state (conts are
            // per-arena ids) can coincide. Only flag exact dynamic dupes
            // that also share a state key as fine.
            let other = catalogue()
                .into_iter()
                .find(|t| t.name == prev)
                .expect("test exists");
            let m2 = machine_for(&other, config_for(&other));
            assert_eq!(
                m.state_key(),
                m2.state_key(),
                "fingerprint collision between {} and {}",
                test.name,
                prev
            );
        }
    }
}
