//! Language-level conformance table: every test of the language corpus
//! (named catalogue + generated suite) compiled to ARM *and* RISC-V and
//! run under the promising, axiomatic, and Flat models — reporting
//! per-architecture state counts and outcome-set sizes, and failing on
//! any cross-model or cross-architecture disagreement or expectation
//! mismatch.
//!
//! Usage:
//!
//! ```text
//! cargo run --release -p promising-bench --bin table_lang -- \
//!     [--subsample STRIDE] [--catalogue-only] [--json PATH]
//! ```
//!
//! * `--subsample STRIDE` — keep every `STRIDE`-th generated test (the
//!   named language catalogue is always kept in full);
//! * `--catalogue-only` — skip the generated suite entirely;
//! * `--json PATH` — write a machine-readable snapshot.

use promising_bench::cli::{Cli, Opt};
use promising_bench::corpus::lang_corpus;
use promising_bench::{host_cpus, Table};
use promising_core::Arch;
use promising_litmus::{check_lang_conformance, lang_catalogue, Expectation, ModelKind};
use std::fmt::Write as _;
use std::time::Instant;

const MODELS: [ModelKind; 3] = [ModelKind::Promising, ModelKind::Axiomatic, ModelKind::Flat];

const CLI: Cli = Cli {
    bin: "table_lang",
    opts: &[Opt::Subsample, Opt::Switch("--catalogue-only"), Opt::Json],
};

fn main() {
    let args = CLI.args();
    // The named catalogue comes first in the corpus, in full.
    let named = lang_catalogue().len();
    let mut corpus = lang_corpus(args.subsample);
    if args.switch("--catalogue-only") {
        corpus.truncate(named);
    }
    let corpus: Vec<_> = corpus
        .into_iter()
        .enumerate()
        .map(|(i, t)| (i < named, t))
        .collect();

    let start = Instant::now();
    let mut table = Table::new(&[
        "test",
        "kind",
        "arm-states",
        "riscv-states",
        "outcomes",
        "agree",
        "verdict",
    ]);
    let mut failures = Vec::new();
    let mut json_rows = Vec::new();

    for (named, test) in &corpus {
        let c = match check_lang_conformance(test, &MODELS) {
            Ok(c) => c,
            Err(e) => {
                failures.push(format!("{test}: {e}"));
                continue;
            }
        };
        if !c.agree {
            failures.push(c.mismatch.clone().unwrap_or_else(|| c.test.clone()));
        }
        let states_of = |arch: Arch| {
            c.runs
                .iter()
                .find(|(a, r)| *a == arch && r.kind == ModelKind::Promising)
                .map(|(_, r)| r.states)
                .unwrap_or(0)
        };
        let outcomes = c.runs.first().map(|(_, r)| r.outcomes.len()).unwrap_or(0);
        let verdict = if test.expect.is_some() {
            // evaluate the condition on the runs conformance already
            // produced — no re-exploration
            let ok = [Arch::Arm, Arch::RiscV].iter().all(|&arch| {
                c.runs
                    .iter()
                    .find(|(a, r)| *a == arch && r.kind == ModelKind::Promising)
                    .map(|(_, r)| {
                        test.condition.holds(&r.outcomes)
                            == (test.expect == Some(Expectation::Allowed))
                    })
                    .unwrap_or(false)
            });
            if !ok {
                failures.push(format!("{}: expectation mismatch", test.name));
            }
            if ok {
                "ok"
            } else {
                "MISMATCH"
            }
        } else {
            "-"
        };
        // only catalogue rows go in the rendered table (the generated
        // suite is hundreds of rows); everything lands in the JSON
        if *named {
            table.row(&[
                test.name.clone(),
                "catalogue".into(),
                states_of(Arch::Arm).to_string(),
                states_of(Arch::RiscV).to_string(),
                outcomes.to_string(),
                c.agree.to_string(),
                verdict.to_string(),
            ]);
        }
        let mut row = String::new();
        let _ = write!(
            row,
            "{{\"test\":\"{}\",\"named\":{},\"arm_states\":{},\"riscv_states\":{},\"outcomes\":{},\"agree\":{},\"verdict\":\"{}\"}}",
            test.name,
            named,
            states_of(Arch::Arm),
            states_of(Arch::RiscV),
            outcomes,
            c.agree,
            verdict
        );
        json_rows.push(row);
    }

    println!("{}", table.render());
    println!(
        "checked {} language tests ({} named + {} generated) × {:?} × [arm, riscv] in {:.1}s",
        corpus.len(),
        corpus.iter().filter(|(n, _)| *n).count(),
        corpus.iter().filter(|(n, _)| !*n).count(),
        MODELS.map(|m| m.name()),
        start.elapsed().as_secs_f64()
    );

    if let Some(path) = args.json {
        let body = format!(
            "{{\"total\":{},\"cores\":{},\"secs\":{:.3},\"rows\":[\n{}\n]}}\n",
            corpus.len(),
            host_cpus(),
            start.elapsed().as_secs_f64(),
            json_rows.join(",\n")
        );
        std::fs::write(&path, body)
            .unwrap_or_else(|e| CLI.fail(&format!("cannot write {path}: {e}")));
        println!("wrote {path}");
    }

    if failures.is_empty() {
        println!("all compilations conform: identical outcome sets on ARM and RISC-V");
    } else {
        println!("{} FAILURES:", failures.len());
        for f in &failures {
            println!("  {f}");
        }
        std::process::exit(1);
    }
}
