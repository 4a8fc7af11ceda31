//! Regenerate Table 1 — per-workload size (instruction count as the LOC
//! analogue) and thread counts — plus the `--rmw` ablation columns: the
//! explored state space of each row's single-instruction-RMW build vs
//! its mechanically-desugared LL/SC build (same outcome sets,
//! cross-checked).
//!
//! Usage:
//!
//! ```text
//! cargo run --release -p promising-bench --bin table1 -- \
//!     [timeout-secs] [--json PATH] [--rows A,B,..] [--rmw]
//! ```
//!
//! * `--rmw` — additionally explore every row twice under the naive
//!   (full-interleaving) search: once as written (CAS/fetch-add
//!   instructions) and once with every RMW desugared into its exclusive
//!   retry loop, reporting machine-state counts and the reduction ratio;
//! * `--json PATH` — write a machine-readable snapshot (the committed
//!   `BENCH_rmw.json` is produced this way);
//! * rows without any RMW instruction desugar to themselves and report a
//!   ratio of 1.

use promising_bench::cli::{Cli, Opt};
use promising_bench::{fmt_duration, host_cpus, json_secs, Table};
use promising_core::{Arch, Machine};
use promising_explorer::{explore_naive_budget, CertMode, SearchBudget};
use promising_workloads::{init_for, table1_rows};
use std::fmt::Write as _;
use std::time::Duration;

/// Extra loop fuel handed to the desugared builds (room for retries).
const LLSC_EXTRA_FUEL: u32 = 2;

fn is_row(name: &str) -> bool {
    table1_rows().iter().any(|w| w.name == name)
}

const CLI: Cli = Cli {
    bin: "table1",
    opts: &[
        Opt::Timeout(60),
        Opt::Json,
        Opt::Rows(is_row),
        Opt::Switch("--rmw"),
    ],
};

struct RmwCell {
    rmw_states: u64,
    rmw_secs: Option<f64>,
    llsc_states: u64,
    llsc_secs: Option<f64>,
}

fn main() {
    let args = CLI.args();
    let rmw = args.switch("--rmw");
    if args.json.is_some() && !rmw {
        CLI.fail("--json records the RMW ablation rows: pass --rmw too");
    }
    let mut header = vec!["Test", "Lang", "LOC", "Ts"];
    if rmw {
        header.extend(["N-states(rmw)", "N-states(llsc)", "Reduction"]);
    }
    let mut table = Table::new(&header);
    let mut json_rows: Vec<String> = Vec::new();

    for w in table1_rows() {
        if let Some(rows) = &args.rows {
            if !rows.iter().any(|r| r == &w.name) {
                continue;
            }
        }
        let lang = match w.family {
            "SLA" => "asm-style",
            "SLC" | "PCS" | "PCM" | "TL" | "STC" | "DQ" | "QU" => "C++-style",
            "SLR" | "STR" => "Rust-style",
            _ => "calculus",
        };
        let mut cells = vec![
            w.family.to_string(),
            lang.to_string(),
            w.instruction_count().to_string(),
            w.num_threads().to_string(),
        ];

        let rmw_cell = rmw.then(|| {
            let init = init_for(&w);
            let budget = SearchBudget::deadline(Some(args.timeout));
            let m = Machine::with_init(w.program.clone(), w.config(Arch::Arm), init.clone());
            let a = explore_naive_budget(&m, CertMode::Online, budget);
            // rows without any RMW desugar to themselves: no extra fuel,
            // so their two runs are identical by construction
            let extra = if w.program.rmw_count() > 0 {
                LLSC_EXTRA_FUEL
            } else {
                0
            };
            let l = w.desugared(extra);
            let lm = Machine::with_init(l.program.clone(), l.config(Arch::Arm), init);
            let b = explore_naive_budget(&lm, CertMode::Online, budget);
            if !a.stats.truncated() && !b.stats.truncated() {
                assert_eq!(
                    a.outcomes, b.outcomes,
                    "{}: RMW and LL/SC outcome sets must agree",
                    w.name
                );
            }
            eprintln!(
                "  {}: rmw {} states, llsc {} states",
                w.name, a.stats.states, b.stats.states
            );
            RmwCell {
                rmw_states: a.stats.states,
                rmw_secs: (!a.stats.truncated()).then_some(a.stats.wall_time.as_secs_f64()),
                llsc_states: b.stats.states,
                llsc_secs: (!b.stats.truncated()).then_some(b.stats.wall_time.as_secs_f64()),
            }
        });

        if let Some(r) = &rmw_cell {
            cells.push(r.rmw_states.to_string());
            cells.push(r.llsc_states.to_string());
            cells.push(if r.rmw_secs.is_some() && r.llsc_secs.is_some() {
                format!("{:.2}x", r.llsc_states as f64 / r.rmw_states.max(1) as f64)
            } else {
                "ooT".to_string()
            });
            let mut row = String::new();
            let _ = write!(
                row,
                "    {{\"test\": \"{}\", \"loc\": {}, \"threads\": {}, \"rmw_states\": {}, \"rmw_secs\": {}, \"llsc_states\": {}, \"llsc_secs\": {}}}",
                w.name,
                w.instruction_count(),
                w.num_threads(),
                r.rmw_states,
                json_secs(r.rmw_secs),
                r.llsc_states,
                json_secs(r.llsc_secs),
            );
            json_rows.push(row);
        }
        table.row(&cells);
        if let Some(r) = &rmw_cell {
            let fmt = |c: Option<f64>| fmt_duration(c.map(Duration::from_secs_f64));
            eprintln!(
                "  {}: rmw {} llsc {}",
                w.name,
                fmt(r.rmw_secs),
                fmt(r.llsc_secs)
            );
        }
    }
    println!("Table 1: evaluated workloads (calculus instruction counts)\n");
    println!("{}", table.render());

    if let Some(path) = &args.json {
        let mut out = String::new();
        let _ = writeln!(out, "{{");
        let _ = writeln!(out, "  \"suite\": \"table1-rmw\",");
        let _ = writeln!(out, "  \"timeout_secs\": {},", args.timeout.as_secs());
        let _ = writeln!(out, "  \"cores\": {},", host_cpus());
        let _ = writeln!(out, "  \"llsc_extra_fuel\": {LLSC_EXTRA_FUEL},");
        let _ = writeln!(out, "  \"rows\": [");
        let _ = writeln!(out, "{}", json_rows.join(",\n"));
        let _ = writeln!(out, "  ]");
        let _ = write!(out, "}}");
        std::fs::write(path, out)
            .unwrap_or_else(|e| CLI.fail(&format!("cannot write {path}: {e}")));
        println!("wrote {path}");
    }
}
