//! Closure-frontend conformance sweep: every test of the ported
//! literature corpus (`promising_harness::corpus`) recorded, compiled to
//! ARM *and* RISC-V, and explored under the promising, naive, and Flat
//! strategies — reporting per-architecture state counts and verifying
//! each test's documented outcome set. Fails (non-zero exit) on any
//! mismatch, strategy disagreement, or harness error.
//!
//! Usage:
//!
//! ```text
//! cargo run --release -p promising-bench --bin harness_conformance -- \
//!     [--subsample STRIDE] [--json PATH]
//! ```
//!
//! * `--subsample STRIDE` — keep every `STRIDE`-th corpus test (for
//!   quick CI sweeps);
//! * `--json PATH` — write a machine-readable verdict snapshot.

use promising_bench::cli::{Cli, Opt};
use promising_bench::{host_cpus, Table};
use promising_core::Arch;
use promising_harness::corpus::corpus;
use promising_harness::ModelKind;
use std::fmt::Write as _;
use std::time::Instant;

const CLI: Cli = Cli {
    bin: "harness_conformance",
    opts: &[Opt::Subsample, Opt::Json],
};

fn main() {
    let args = CLI.args();
    let all = corpus();
    let total = all.len();
    let stride = args.subsample.unwrap_or(1).max(1);
    let tests: Vec<_> = all.into_iter().step_by(stride).collect();

    let start = Instant::now();
    let mut table = Table::new(&[
        "test",
        "family",
        "arm-states",
        "riscv-states",
        "outcomes",
        "verdict",
    ]);
    let mut failures = Vec::new();
    let mut json_rows = Vec::new();

    for t in &tests {
        let lt = (t.build)();
        let verdict = t.check_against(&lt);
        let (mut arm_states, mut riscv_states, mut outcomes) = (0u64, 0u64, 0usize);
        if let Ok(m) = lt.matrix() {
            for run in &m.runs {
                if run.model == ModelKind::Promising {
                    match run.arch {
                        Arch::Arm => {
                            arm_states = run.states;
                            outcomes = run.outcomes.len();
                        }
                        Arch::RiscV => riscv_states = run.states,
                    }
                }
            }
        }
        let ok = verdict.is_ok();
        if let Err(e) = verdict {
            failures.push(e);
        }
        table.row(&[
            t.name.to_string(),
            t.family.to_string(),
            arm_states.to_string(),
            riscv_states.to_string(),
            outcomes.to_string(),
            if ok { "ok" } else { "FAIL" }.to_string(),
        ]);
        let mut row = String::new();
        let _ = write!(
            row,
            "{{\"test\":\"{}\",\"family\":\"{}\",\"arm_states\":{arm_states},\
             \"riscv_states\":{riscv_states},\"outcomes\":{outcomes},\
             \"arch_divergent\":{},\"verdict\":\"{}\"}}",
            t.name,
            t.family,
            t.expected_riscv.is_some(),
            if ok { "ok" } else { "FAIL" }
        );
        json_rows.push(row);
    }

    println!("{}", table.render());
    println!(
        "checked {}/{} harness corpus tests × {:?} × [arm, riscv] in {:.1}s",
        tests.len(),
        total,
        promising_harness::STRATEGIES.map(|m| m.name()),
        start.elapsed().as_secs_f64()
    );

    if let Some(path) = args.json {
        let body = format!(
            "{{\"checked\":{},\"total\":{},\"failed\":{},\"cores\":{},\"elapsed_s\":{:.1},\n\"rows\":[\n{}\n]}}\n",
            tests.len(),
            total,
            failures.len(),
            host_cpus(),
            start.elapsed().as_secs_f64(),
            json_rows.join(",\n")
        );
        std::fs::write(&path, body)
            .unwrap_or_else(|e| CLI.fail(&format!("cannot write {path}: {e}")));
        println!("wrote {path}");
    }

    if !failures.is_empty() {
        eprintln!("{} corpus test(s) failed:", failures.len());
        for f in &failures {
            eprintln!("  {f}");
        }
        std::process::exit(1);
    }
}
