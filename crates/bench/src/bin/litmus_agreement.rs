//! Model-agreement sweep over the full generated litmus suites plus the
//! named catalogue — the analogue of the paper's ~6,500-ARM/~7,000-RISC-V
//! herd validation (§7).
//!
//! Usage:
//!
//! ```text
//! cargo run --release -p promising-bench --bin litmus_agreement -- \
//!     [--subsample STRIDE] [--por-sweep]
//! ```
//!
//! `--subsample STRIDE` keeps every `STRIDE`-th generated test (the
//! named catalogue is always kept in full) for a quicker local check;
//! CI runs the full sweep on every push.
//!
//! `--por-sweep` additionally runs the two POR-reduced models
//! (promising-naive and Flat-lite) with every reduction *off*
//! (`Config::por`, the unreduced reference) on every selected test,
//! asserting the outcome sets are identical to the default runs — the
//! direct `Config::por` soundness sweep CI runs per push.

use promising_bench::cli::{Cli, Opt};
use promising_bench::corpus::{hardware_corpus, lang_corpus};
use promising_core::Arch;
use promising_litmus::{
    check_agreement, check_lang_conformance, run_model_with, LitmusTest, ModelKind,
};
use std::collections::BTreeSet;
use std::time::Instant;

/// POR-on vs POR-off outcome equality for the two reduced models.
/// `flat_on` lets the caller pass the Flat outcome set the agreement
/// check just computed (POR defaults to on there), so the sweep does not
/// re-explore Flat's state space a second time per test.
fn check_por_agreement(
    test: &LitmusTest,
    flat_on: Option<&BTreeSet<promising_core::Outcome>>,
) -> Result<(), String> {
    for kind in [ModelKind::PromisingNaive, ModelKind::Flat] {
        let on = match (kind, flat_on) {
            (ModelKind::Flat, Some(outcomes)) => outcomes.clone(),
            _ => {
                run_model_with(test, kind, |c| c.with_por(true))
                    .map_err(|e| format!("{}: {} POR-on: {e}", test.name, kind.name()))?
                    .outcomes
            }
        };
        let off = run_model_with(test, kind, |c| c.with_por(false))
            .map_err(|e| format!("{}: {} POR-off: {e}", test.name, kind.name()))?;
        if on != off.outcomes {
            return Err(format!(
                "{}: {} default and POR-off outcome sets differ ({} vs {} outcomes)",
                test.name,
                kind.name(),
                on.len(),
                off.outcomes.len(),
            ));
        }
    }
    Ok(())
}

const CLI: Cli = Cli {
    bin: "litmus_agreement",
    opts: &[Opt::Subsample, Opt::Switch("--por-sweep")],
};

fn main() {
    let args = CLI.args();
    let por_sweep = args.switch("--por-sweep");

    let models = [ModelKind::Promising, ModelKind::Axiomatic, ModelKind::Flat];
    let mut total = 0usize;
    let mut disagreements = Vec::new();
    let start = Instant::now();

    for arch in [Arch::Arm, Arch::RiscV] {
        let tests = hardware_corpus(arch, args.subsample);
        println!("{}: {} tests", arch.name(), tests.len());
        for (i, test) in tests.iter().enumerate() {
            let mut flat_on = None;
            match check_agreement(test, &models) {
                Ok(a) => {
                    if !a.agree {
                        disagreements.push(a.mismatch.unwrap_or_else(|| a.test.clone()));
                    }
                    flat_on = a.runs.into_iter().find(|r| r.kind == ModelKind::Flat);
                }
                Err(e) => disagreements.push(format!("{test}: {e}")),
            }
            if por_sweep {
                if let Err(e) = check_por_agreement(test, flat_on.as_ref().map(|r| &r.outcomes)) {
                    disagreements.push(e);
                }
            }
            if (i + 1) % 200 == 0 {
                println!(
                    "  …{}/{} ({:.1}s)",
                    i + 1,
                    tests.len(),
                    start.elapsed().as_secs_f64()
                );
            }
        }
        total += tests.len();
    }

    // The language-level corpus: conformance is stricter than agreement —
    // outcome sets must also coincide *across architectures* (each test
    // compiles to both ARM and RISC-V).
    let lang_tests = lang_corpus(args.subsample);
    println!("lang: {} tests (×2 architectures)", lang_tests.len());
    for test in &lang_tests {
        let mut flat_on: Vec<(Arch, promising_litmus::ModelRun)> = Vec::new();
        match check_lang_conformance(test, &models) {
            Ok(c) => {
                if !c.agree {
                    disagreements.push(c.mismatch.unwrap_or_else(|| c.test.clone()));
                }
                flat_on = c
                    .runs
                    .into_iter()
                    .filter(|(_, r)| r.kind == ModelKind::Flat)
                    .collect();
            }
            Err(e) => disagreements.push(format!("{test}: {e}")),
        }
        if por_sweep {
            for arch in [Arch::Arm, Arch::RiscV] {
                let reuse = flat_on
                    .iter()
                    .find(|(a, _)| *a == arch)
                    .map(|(_, r)| &r.outcomes);
                if let Err(e) = check_por_agreement(&test.compile(arch), reuse) {
                    disagreements.push(e);
                }
            }
        }
    }
    total += lang_tests.len();

    println!(
        "\nchecked {total} litmus tests under {:?} in {:.1}s",
        models.map(|m| m.name()),
        start.elapsed().as_secs_f64()
    );
    if disagreements.is_empty() {
        println!("all models agree on every test");
    } else {
        println!("{} DISAGREEMENTS:", disagreements.len());
        for d in &disagreements {
            println!("  {d}");
        }
        std::process::exit(1);
    }
}
