//! The litmus corpus the sweep binaries (`litmus_agreement`,
//! `litmus_batch`, `table_lang`) select, so a stride picks the same tests
//! in all of them.

use promising_core::Arch;
use promising_litmus::{
    catalogue, generate_lang_subsample, generate_lang_suite, generate_rmw_subsample,
    generate_subsample, generate_suite, generate_three_thread_suite, lang_catalogue, LangTest,
    LitmusTest,
};
use std::collections::BTreeSet;

/// The hardware tests for `arch`: the generated two- and three-thread
/// suites, then the named catalogue (always in full).
///
/// With `subsample = Some(stride)` the generated suites keep every
/// `stride`-th test, offset per architecture so runs with different
/// strides do not keep re-checking the same prefix shapes. The
/// three-thread suite (IRIW/WRC shapes) is strided too: it exercises
/// cross-thread propagation paths the two-thread suite cannot. The RMW cross
/// is strided separately, because RMW links are a small fraction of the
/// link set and the plain stride alone under-covers them; tests the
/// plain stride already picked are not repeated.
pub fn hardware_corpus(arch: Arch, subsample: Option<usize>) -> Vec<LitmusTest> {
    let mut tests = match subsample {
        Some(stride) => {
            let offset = arch as usize % stride.max(1);
            let mut t = generate_subsample(arch, stride, offset);
            t.extend(
                generate_three_thread_suite(arch)
                    .into_iter()
                    .skip(offset)
                    .step_by(stride.max(1)),
            );
            let have: BTreeSet<String> = t.iter().map(|x| x.name.clone()).collect();
            t.extend(
                generate_rmw_subsample(arch, stride, offset)
                    .into_iter()
                    .filter(|x| !have.contains(&x.name)),
            );
            t
        }
        None => {
            let mut t = generate_suite(arch);
            t.extend(generate_three_thread_suite(arch));
            t
        }
    };
    tests.extend(catalogue().into_iter().filter(|t| t.arch == arch));
    tests
}

/// The language tests: the named language catalogue (always in full,
/// first), then the generated language suite, strided by `subsample`.
/// Part (c) of the generated suite re-derives some named RMW catalogue
/// shapes; those are kept once, as catalogue tests.
pub fn lang_corpus(subsample: Option<usize>) -> Vec<LangTest> {
    let mut tests = lang_catalogue();
    let have: BTreeSet<String> = tests.iter().map(|t| t.name.clone()).collect();
    tests.extend(
        match subsample {
            Some(stride) => generate_lang_subsample(stride, 0),
            None => generate_lang_suite(),
        }
        .into_iter()
        .filter(|t| !have.contains(&t.name)),
    );
    tests
}
