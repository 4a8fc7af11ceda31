//! The §8 herd comparison — run times of the Promising explorer vs the
//! axiomatic (herd-style) enumerator on the small lock instances and on
//! representative litmus tests.
//!
//! Usage: `cargo run --release -p promising-bench --bin herd_compare [timeout-secs]`

use promising_axiomatic::{enumerate_outcomes, AxConfig};
use promising_bench::cli::{Cli, Opt};
use promising_bench::{fmt_duration, Table};
use promising_core::{Arch, Machine};
use promising_explorer::{explore_promise_first_budget, SearchBudget};
use promising_litmus::by_name;
use promising_workloads::{by_spec, init_for};
use std::time::Instant;

const CLI: Cli = Cli {
    bin: "herd_compare",
    opts: &[Opt::Timeout(60)],
};

fn main() {
    let timeout = CLI.args().timeout;
    println!(
        "Herd comparison: Promising vs axiomatic candidate enumeration (timeout {}s)\n",
        timeout.as_secs()
    );
    let mut table = Table::new(&["Test", "Promising", "Axiomatic", "Candidates"]);

    // litmus-scale: classic tests where both models apply
    for name in [
        "MP+dmb.sy+addr",
        "SB+dmb.sy+dmb.sy",
        "LB+data+data",
        "IRIW+addr+addr",
        "PPOCA",
        "LDX-STX-atomicity",
    ] {
        let t = by_name(name).expect("catalogue test");
        let m = Machine::with_init(
            t.program.clone(),
            promising_core::Config::for_arch(t.arch).with_loop_fuel(8),
            t.init.clone(),
        );
        let p = explore_promise_first_budget(&m, SearchBudget::deadline(Some(timeout)));
        let mut ax_cfg = AxConfig::new(t.arch);
        ax_cfg.init = t.init.clone();
        let start = Instant::now();
        let ax = enumerate_outcomes(&t.program, &ax_cfg);
        let ax_time = start.elapsed();
        let (ax_cell, cand) = match &ax {
            Ok(r) => (fmt_duration(Some(ax_time)), r.stats.candidates.to_string()),
            Err(e) => (format!("fail: {e}"), "-".into()),
        };
        table.row(&[
            name.to_string(),
            fmt_duration((!p.stats.truncated()).then_some(p.stats.wall_time)),
            ax_cell,
            cand,
        ]);
    }

    // lock-scale: the axiomatic enumerator blows up herd-style
    for spec in ["SLA-1", "SLA-2", "SLC-1", "TL-1"] {
        let w = by_spec(spec).expect("spec parses");
        let init = init_for(&w);
        let m = Machine::with_init(w.program.clone(), w.config(Arch::Arm), init);
        let p = explore_promise_first_budget(&m, SearchBudget::deadline(Some(timeout)));
        let mut ax_cfg = AxConfig::new(Arch::Arm);
        ax_cfg.loop_fuel = w.loop_fuel;
        ax_cfg.limits.max_traces = 2_000_000;
        ax_cfg.limits.max_candidates = 100_000_000;
        let start = Instant::now();
        let ax = enumerate_outcomes(&w.program, &ax_cfg);
        let ax_time = start.elapsed();
        let (ax_cell, cand) = match &ax {
            Ok(r) if ax_time <= timeout => {
                (fmt_duration(Some(ax_time)), r.stats.candidates.to_string())
            }
            Ok(_) => ("ooT".into(), "-".into()),
            Err(e) => (format!("blow-up: {e}"), "-".into()),
        };
        table.row(&[
            spec.to_string(),
            fmt_duration((!p.stats.truncated()).then_some(p.stats.wall_time)),
            ax_cell,
            cand,
        ]);
        eprintln!("  {spec} done");
    }
    println!("{}", table.render());
}
