//! Fault-tolerant batch litmus campaign runner (the serving-layer
//! counterpart of experiment L1): runs the named catalogues plus the
//! generated hardware and language corpora under a set of models with
//! per-test budgets, a degradation ladder, panic isolation, and a
//! crash-safe resumable result cache.
//!
//! Usage:
//!
//! ```text
//! cargo run --release -p promising-bench --bin litmus_batch -- \
//!     [--subsample STRIDE] [--models promising,axiomatic,flat] \
//!     [--jobs N] [--cache PATH] [--db PATH] \
//!     [--deadline-ms MS] [--max-states N] [--max-bytes N] \
//!     [--retry-scale K] [--sample-traces N] [--seed S] \
//!     [--inject-panic TEST] [--campaign-states N] [--assert-faults]
//! ```
//!
//! The exit status reflects **conformance only**: a nonzero exit means
//! some conclusive verdict contradicted its recorded expectation.
//! Infrastructure failures — caught panics, budget trips, degraded
//! tiers — are recorded in the verdicts and summarised, but do not fail
//! the run. `--assert-faults` additionally requires that at least one
//! panicked and one degraded verdict were recorded (the CI
//! fault-injection smoke check); `--campaign-states N` aborts the
//! campaign after ~N explored states (deterministic kill simulation —
//! rerun with the same `--cache` to resume).

use promising_bench::batch::{
    run_campaign, verdict_db, write_verdict_db, BatchConfig, Tier, TierBudgets,
};
use promising_bench::{cli, corpus};
use promising_core::Arch;
use promising_litmus::{LitmusTest, ModelKind, SearchBudget, StopReason};
use std::path::PathBuf;
use std::str::FromStr;
use std::time::{Duration, Instant};

const USAGE: &str = "usage: litmus_batch [--subsample STRIDE] [--models M,..] [--jobs N] \
                     [--cache PATH] [--db PATH] [--deadline-ms MS] [--max-states N] \
                     [--max-bytes N] [--retry-scale K] [--sample-traces N] [--seed S] \
                     [--inject-panic TEST] [--campaign-states N] [--assert-faults]";

/// The campaign corpus: per architecture the hardware tests, then the
/// language corpus compiled for both architectures — the selection the
/// agreement sweep uses, so verdicts line up with `litmus_agreement`.
fn campaign_corpus(subsample: Option<usize>) -> Vec<LitmusTest> {
    let mut tests: Vec<LitmusTest> = [Arch::Arm, Arch::RiscV]
        .into_iter()
        .flat_map(|arch| corpus::hardware_corpus(arch, subsample))
        .collect();
    for t in corpus::lang_corpus(subsample) {
        for arch in [Arch::Arm, Arch::RiscV] {
            tests.push(t.compile(arch));
        }
    }
    tests
}

fn main() {
    let mut subsample: Option<usize> = None;
    let mut models = vec![ModelKind::Promising, ModelKind::Axiomatic, ModelKind::Flat];
    let mut jobs = std::thread::available_parallelism().map_or(2, |n| n.get().min(8));
    let mut cache: Option<PathBuf> = None;
    let mut db: Option<PathBuf> = None;
    let mut budget = SearchBudget::UNBOUNDED;
    let mut retry_scale = 4u32;
    let mut sample_traces = 256u64;
    let mut seed = 1u64;
    let mut inject_panic: Option<String> = None;
    let mut campaign_states: Option<u64> = None;
    let mut assert_faults = false;

    let mut it = std::env::args().skip(1);
    let need = |it: &mut dyn Iterator<Item = String>, flag: &str| {
        it.next()
            .unwrap_or_else(|| die(&format!("{flag} needs a value")))
    };
    while let Some(a) = it.next() {
        match a.as_str() {
            "--subsample" => subsample = Some(parse(&need(&mut it, "--subsample"), "--subsample")),
            "--models" => {
                models = need(&mut it, "--models")
                    .split(',')
                    .map(|m| {
                        ModelKind::parse(m).unwrap_or_else(|| die(&format!("unknown model: {m}")))
                    })
                    .collect();
            }
            "--jobs" => jobs = parse(&need(&mut it, "--jobs"), "--jobs"),
            "--cache" => cache = Some(PathBuf::from(need(&mut it, "--cache"))),
            "--db" => db = Some(PathBuf::from(need(&mut it, "--db"))),
            "--deadline-ms" => {
                budget = budget.with_deadline(Some(Duration::from_millis(parse(
                    &need(&mut it, "--deadline-ms"),
                    "--deadline-ms",
                ))));
            }
            "--max-states" => {
                budget = budget
                    .with_max_states(Some(parse(&need(&mut it, "--max-states"), "--max-states")));
            }
            "--max-bytes" => {
                budget = budget
                    .with_max_bytes(Some(parse(&need(&mut it, "--max-bytes"), "--max-bytes")));
            }
            "--retry-scale" => {
                retry_scale = parse(&need(&mut it, "--retry-scale"), "--retry-scale")
            }
            "--sample-traces" => {
                sample_traces = parse(&need(&mut it, "--sample-traces"), "--sample-traces");
            }
            "--seed" => seed = parse(&need(&mut it, "--seed"), "--seed"),
            "--inject-panic" => inject_panic = Some(need(&mut it, "--inject-panic")),
            "--campaign-states" => {
                campaign_states = Some(parse(
                    &need(&mut it, "--campaign-states"),
                    "--campaign-states",
                ));
            }
            "--assert-faults" => assert_faults = true,
            other => die(&format!("unknown argument: {other}")),
        }
    }

    let cfg = BatchConfig {
        models,
        jobs,
        budgets: TierBudgets {
            base: budget,
            retry_scale,
            sample_traces,
            sample_seed: seed,
        },
        cache_path: cache,
        inject_panic,
        campaign_state_budget: campaign_states,
    };

    let tests = campaign_corpus(subsample);
    println!(
        "litmus_batch: {} tests × {:?} ({} jobs)",
        tests.len(),
        cfg.models.iter().map(|m| m.name()).collect::<Vec<_>>(),
        cfg.jobs
    );
    let start = Instant::now();
    let report = run_campaign(&tests, &cfg).unwrap_or_else(|e| die(&format!("campaign I/O: {e}")));

    let degraded = report.degraded().count();
    let sampled = report
        .records
        .iter()
        .filter(|r| r.tier == Tier::Sampled)
        .count();
    let panicked = report.panicked().count();
    let inconclusive = report.records.iter().filter(|r| !r.conclusive()).count();
    let mismatches: Vec<_> = report.mismatches().collect();
    println!(
        "{} verdicts in {:.1}s: {} cache hits, {} executed, {} degraded ({} sampled), {} panicked, {} inconclusive",
        report.records.len(),
        start.elapsed().as_secs_f64(),
        report.cache_hits,
        report.executed,
        degraded,
        sampled,
        panicked,
        inconclusive,
    );
    for rec in report.records.iter().filter(|r| r.stop.truncated()) {
        println!(
            "  [{}] {}/{}/{}: stopped: {}",
            rec.tier.name(),
            rec.test,
            rec.arch.name(),
            rec.model.name(),
            rec.stop.name()
        );
    }

    if report.aborted {
        println!("campaign ABORTED by --campaign-states; rerun with the same --cache to resume");
    } else if let Some(path) = &db {
        write_verdict_db(&report.records, path)
            .unwrap_or_else(|e| die(&format!("verdict db: {e}")));
        println!(
            "verdict db: {} ({} bytes)",
            path.display(),
            verdict_db(&report.records).len()
        );
    }

    if assert_faults {
        assert!(
            panicked > 0,
            "--assert-faults: expected at least one panicked verdict"
        );
        assert!(
            report
                .records
                .iter()
                .any(|r| r.tier != Tier::Exhaustive || r.stop != StopReason::Completed),
            "--assert-faults: expected at least one degraded/truncated verdict"
        );
        println!("fault-injection check: panics and degradations recorded, campaign survived");
    }

    if mismatches.is_empty() {
        println!("conformance: all conclusive verdicts match expectations");
    } else {
        println!("{} CONFORMANCE MISMATCHES:", mismatches.len());
        for rec in &mismatches {
            println!(
                "  {}/{}/{} [{}]: holds={:?} vs expectation",
                rec.test,
                rec.arch.name(),
                rec.model.name(),
                rec.tier.name(),
                rec.holds
            );
        }
        std::process::exit(1);
    }
}

fn parse<T: FromStr>(s: &str, flag: &str) -> T {
    cli::parse(s, flag).unwrap_or_else(|e| die(&e))
}

fn die(msg: &str) -> ! {
    cli::die("litmus_batch", msg, USAGE)
}
