//! POR on ≡ off sweeps over the selections written for the per-location
//! reductions: the restricted certification keys, the naive
//! delayable-thread collapse and the flat model's canonical state
//! merging. They are part of [`Config::por`], so each sweep compares the
//! default search against POR off, the unreduced reference, under every
//! strategy: the outcome sets must be identical, and the reduced search
//! must never visit more states than the unreduced one. The
//! `tests/por_agreement.rs` sweeps cover the other selections; the
//! anti-rot and certification-memo tests live there too.
//!
//! [`Config::por`]: promising_core::Config

use promising_core::Arch;
use promising_litmus::{
    catalogue, generate_lang_subsample, generate_rmw_subsample, generate_subsample, lang_catalogue,
    run_model_with, LitmusTest, ModelKind,
};
use proptest::prelude::*;

/// The naive search (delayable-thread collapse + restricted cert keys),
/// Flat (canonical state merging), and promise-first (restricted cert
/// keys only).
const MODELS: [ModelKind; 3] = [
    ModelKind::PromisingNaive,
    ModelKind::Flat,
    ModelKind::Promising,
];

/// Run `test` under `kind` with POR on and off: the outcome sets must be
/// equal and POR on must visit no more states. `Err` names the mismatch.
fn check_on_off(test: &LitmusTest, kind: ModelKind) -> Result<(), String> {
    let on = run_model_with(test, kind, |c| c.with_por(true)).expect("POR-on run");
    let off = run_model_with(test, kind, |c| c.with_por(false)).expect("POR-off run");
    if on.outcomes != off.outcomes {
        return Err(format!("{test}: {} POR outcome sets differ", kind.name()));
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

fn assert_on_off_agree(test: &LitmusTest) {
    for kind in MODELS {
        if test.flat_conservative && kind == ModelKind::Flat {
            continue;
        }
        check_on_off(test, kind).unwrap_or_else(|e| panic!("{e}"));
    }
}

#[test]
fn catalogue_dpor_on_off_agree() {
    for test in catalogue() {
        assert_on_off_agree(&test);
    }
}

#[test]
fn generated_suites_dpor_on_off_agree() {
    // The shape × ordering cross plus the RMW-link cross, on both
    // architectures — RMWs are where the exclusive-pairing bank and the
    // restricted certification keys earn their keep.
    for arch in [Arch::Arm, Arch::RiscV] {
        let mut tests = generate_subsample(arch, 19, arch as usize);
        tests.extend(generate_rmw_subsample(arch, 13, arch as usize));
        assert!(tests.len() > 20, "{}: sample too small", arch.name());
        for test in &tests {
            assert_on_off_agree(test);
        }
    }
}

#[test]
fn lang_corpus_dpor_on_off_agree() {
    let mut tests = lang_catalogue();
    tests.extend(generate_lang_subsample(31, 0));
    for test in &tests {
        for arch in [Arch::Arm, Arch::RiscV] {
            assert_on_off_agree(&test.compile(arch));
        }
    }
}

/// Random generated litmus tests on a random architecture, biased
/// towards the RMW cross (promises + exclusives are what certification
/// actually has to work for).
fn rmw_biased_test_strategy() -> impl Strategy<Value = LitmusTest> {
    (any::<bool>(), 0..10_000usize).prop_map(|(riscv, ix)| {
        let arch = if riscv { Arch::RiscV } else { Arch::Arm };
        let mut tests = generate_rmw_subsample(arch, 7, ix % 7);
        tests.extend(generate_subsample(arch, 11, ix % 11));
        let pick = ix % tests.len();
        tests.swap_remove(pick)
    })
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]

    /// POR on ≡ off on random generated programs, for the two strategies
    /// with non-trivial reduce hooks.
    #[test]
    fn dpor_on_off_agree_on_random_programs(test in rmw_biased_test_strategy()) {
        for kind in [ModelKind::PromisingNaive, ModelKind::Flat] {
            if test.flat_conservative && kind == ModelKind::Flat {
                continue;
            }
            prop_assert_eq!(check_on_off(&test, kind), Ok(()));
        }
    }
}
