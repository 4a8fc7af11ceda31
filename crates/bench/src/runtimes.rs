//! The Table-2/3 runner: exhaustive-search run times per workload row,
//! Promising (promise-first + shared-location optimisation) vs the
//! Flat-lite baseline. The `table2` and `table3` binaries differ only in
//! their row lists, default timeouts and accepted flags.
//!
//! Options, where the binary accepts them:
//!
//! * `--json PATH` — also write a machine-readable snapshot. Outcome
//!   sets appear as canonically sorted digests (`outcomes_digest`), so
//!   only the timing fields vary across runs and worker counts;
//! * `--no-flat` — skip the Flat-lite cells;
//! * `--worker-sweep 1,2,4,8` — re-run the promising side, and the flat
//!   side unless `--no-flat`, once per worker count, assert every
//!   completed cell's outcome digest byte-identical to its side's serial
//!   cell, and emit per-row `worker_sweep` and `flat_worker_sweep`
//!   series. Speedup ratios appear only when the host has more than one
//!   logical core (snapshot-level `cores` / `worker_mode`);
//! * `--rows A,B` — restrict to the named rows;
//! * `--sample N` / `--seed S` — additionally run `N` seeded random
//!   promise walks per row (`Engine::sample`); sampled outcome sets are
//!   checked to be subsets of the exhaustive sets.

use crate::cli::Cli;
use crate::table::{
    completed_secs, fmt_duration, host_cpus, json_secs, sweep_cell_text, sweep_json, worker_mode,
    worker_sweep, SweepCell, Table,
};
use promising_core::{Arch, Config, Machine};
use promising_explorer::{explore_promise_first_budget, Engine, PromiseFirstModel, SearchBudget};
use promising_flat::{explore_flat_budget, FlatMachine};
use promising_workloads::{by_spec, init_for};
use std::fmt::Write as _;
use std::time::Duration;

/// One measured cell: `None` = over the timeout ("ooT").
type Cell = Option<f64>;

/// The text-table cells of a sweep, annotated with speedups over its
/// 1-worker cell where the host can show them.
fn sweep_texts(cells: &[SweepCell], cores: usize) -> impl Iterator<Item = String> + '_ {
    let base = cells.iter().find(|c| c.workers == 1).and_then(|c| c.secs);
    cells.iter().map(move |c| sweep_cell_text(c, base, cores))
}

struct Row {
    spec: String,
    promising: Cell,
    p_cpu: f64,
    p_states: u64,
    /// Canonically sorted outcome-set digest + size: identical for every
    /// worker count and run, so `--json` snapshots diff cleanly.
    p_outcomes: usize,
    p_digest: String,
    /// Why the promising search stopped (`StopReason::name`): explains
    /// a `null` timing — "deadline" (the classic ooT), a resource budget,
    /// or "completed" for a cell that ran to exhaustion.
    p_stop: &'static str,
    /// `None` under `--no-flat`; else seconds, states and stop reason.
    flat: Option<(Cell, u64, &'static str)>,
    /// The `--worker-sweep` series: one cell per requested worker count.
    sweep: Vec<SweepCell>,
    /// The same series for the flat side (empty under `--no-flat`).
    flat_sweep: Vec<SweepCell>,
    sampled: Option<(Cell, usize)>,
}

/// Run the promising and flat searches on every row of `rows` (or of
/// `--rows`), print the text table, and write the `--json` snapshot.
/// The snapshot's `suite` is the binary's name.
pub fn run_time_table(cli: &Cli, title: &str, rows: &[&str]) {
    let args = cli.args();
    let rows: Vec<String> = args
        .rows
        .clone()
        .unwrap_or_else(|| rows.iter().map(|s| s.to_string()).collect());
    let no_flat = args.switch("--no-flat");
    let cores = host_cpus();
    let budget = SearchBudget::deadline(Some(args.timeout));
    let fmt_cell = |c: Cell| fmt_duration(c.map(Duration::from_secs_f64));

    println!("{title} (timeout {}s per cell)\n", args.timeout.as_secs());
    if !args.worker_sweep.is_empty() {
        println!(
            "worker sweep {:?} on {} logical core(s): {} columns\n",
            args.worker_sweep,
            cores,
            worker_mode(cores)
        );
    }
    let mut header: Vec<String> = ["Test", "Promising", "Flat", "P-states", "F-states"]
        .iter()
        .map(|s| s.to_string())
        .collect();
    header.extend(args.worker_sweep.iter().map(|w| format!("Sweep-w{w}")));
    if !no_flat {
        header.extend(args.worker_sweep.iter().map(|w| format!("F-sweep-w{w}")));
    }
    if let Some(n) = args.sample {
        header.push(format!("Sampled({n})"));
    }
    let header_refs: Vec<&str> = header.iter().map(String::as_str).collect();
    let mut table = Table::new(&header_refs);
    let mut done: Vec<Row> = Vec::new();

    for spec in &rows {
        let w = by_spec(spec).unwrap_or_else(|| cli.fail(&format!("unknown workload `{spec}`")));
        let init = init_for(&w);
        let config = w.config(Arch::Arm);
        let machine = |config: Config| Machine::with_init(w.program.clone(), config, init.clone());
        let m = machine(config.clone());
        let p = explore_promise_first_budget(&m, budget);
        if !p.stats.truncated() {
            let violations = w.violations(&p.outcomes);
            if !violations.is_empty() {
                println!("!! {spec}: incorrect states found: {}", violations[0]);
            }
        }

        let sweep = worker_sweep(spec, "promising", &args.worker_sweep, &p, |n| {
            explore_promise_first_budget(&machine(config.clone().with_workers(n)), budget)
        });

        let (flat, flat_sweep) = if no_flat {
            (None, Vec::new())
        } else {
            let flat_config = w.config_unshared(Arch::Arm);
            let flat_run = |config: Config| {
                let fm = FlatMachine::with_init(w.program.clone(), config, init.clone());
                explore_flat_budget(&fm, budget)
            };
            let f = flat_run(flat_config.clone());
            let sweep = worker_sweep(spec, "flat", &args.worker_sweep, &f, |n| {
                flat_run(flat_config.clone().with_workers(n))
            });
            let secs = completed_secs(&f);
            (Some((secs, f.stats.states, f.stats.stop.name())), sweep)
        };

        let sampled = args.sample.map(|n| {
            let s = Engine::new(PromiseFirstModel::new(&m))
                .with_budget(budget)
                .sample(n, args.seed);
            if !p.stats.truncated() {
                assert!(
                    s.outcomes.is_subset(&p.outcomes),
                    "{spec}: sampled outcomes must be a subset of exhaustive"
                );
            }
            (completed_secs(&s), s.outcomes.len())
        });

        let row = Row {
            spec: spec.clone(),
            promising: completed_secs(&p),
            p_cpu: p.stats.cpu_time.as_secs_f64(),
            p_states: p.stats.states,
            p_outcomes: p.outcomes.len(),
            p_digest: p.outcomes_digest(),
            p_stop: p.stats.stop.name(),
            flat,
            sweep,
            flat_sweep,
            sampled,
        };

        let (flat_cell, flat_states) = match row.flat {
            Some((secs, states, _)) => (fmt_cell(secs), states),
            None => ("-".to_string(), 0),
        };
        let mut cells = vec![
            row.spec.clone(),
            fmt_cell(row.promising),
            flat_cell.clone(),
            row.p_states.to_string(),
            flat_states.to_string(),
        ];
        cells.extend(sweep_texts(&row.sweep, cores));
        cells.extend(sweep_texts(&row.flat_sweep, cores));
        if let Some((c, outcomes)) = &row.sampled {
            cells.push(format!("{} ({} outc.)", fmt_cell(*c), outcomes));
        }
        table.row(&cells);
        eprintln!(
            "  {spec}: promising {} flat {flat_cell}",
            fmt_cell(row.promising)
        );
        done.push(row);
    }
    println!("{}", table.render());

    if let Some(path) = &args.json {
        let json = render_json(cli.bin, args.timeout, &done);
        std::fs::write(path, json)
            .unwrap_or_else(|e| cli.fail(&format!("cannot write {path}: {e}")));
        println!("wrote {path}");
    }
}

fn render_json(suite: &str, timeout: Duration, rows: &[Row]) -> String {
    let cores = host_cpus();
    let mut out = String::new();
    let _ = writeln!(out, "{{");
    let _ = writeln!(out, "  \"suite\": \"{suite}\",");
    let _ = writeln!(out, "  \"timeout_secs\": {},", timeout.as_secs());
    // Interpreting the worker columns needs the host's parallelism: on a
    // 1-CPU host they measure scheduling overhead, not scaling, so the
    // sweep is marked "overhead-only" and carries no speedup ratios.
    let _ = writeln!(out, "  \"cores\": {cores},");
    let _ = writeln!(out, "  \"worker_mode\": \"{}\",", worker_mode(cores));
    let _ = writeln!(out, "  \"rows\": [");
    for (i, r) in rows.iter().enumerate() {
        let _ = write!(
            out,
            "    {{\"test\": \"{}\", \"promising_secs\": {}, \"promising_cpu_secs\": {:.6}, \"promising_states\": {}, \"promising_stop\": \"{}\", \"outcome_count\": {}, \"outcomes_digest\": \"{}\"",
            r.spec,
            json_secs(r.promising),
            r.p_cpu,
            r.p_states,
            r.p_stop,
            r.p_outcomes,
            r.p_digest,
        );
        // Un-run cells are omitted entirely — `null` is reserved for a
        // real timeout ("ooT") and must stay distinguishable.
        if let Some((secs, states, stop)) = r.flat {
            let _ = write!(
                out,
                ", \"flat_secs\": {}, \"flat_states\": {states}, \"flat_stop\": \"{stop}\"",
                json_secs(secs),
            );
        }
        out.push_str(&sweep_json("worker_sweep", &r.sweep, cores));
        out.push_str(&sweep_json("flat_worker_sweep", &r.flat_sweep, cores));
        if let Some((cell, outcomes)) = &r.sampled {
            let _ = write!(
                out,
                ", \"sample_secs\": {}, \"sample_outcomes\": {outcomes}",
                json_secs(*cell),
            );
        }
        let _ = writeln!(out, "}}{}", if i + 1 < rows.len() { "," } else { "" });
    }
    let _ = writeln!(out, "  ]");
    let _ = write!(out, "}}");
    out
}
