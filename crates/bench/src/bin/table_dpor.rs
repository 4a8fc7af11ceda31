//! Reduction ablation: visited states of the naive promising search, the
//! Flat-lite baseline and, on rows with identical threads, the
//! promise-first search, with every reduction off (`states_off`,
//! `Config::por` off: the unreduced reference) and on (`states_dpor`,
//! the default). `reduction` is `states_off / states_dpor`. Rows come in
//! three groups:
//!
//! * the **Table-2 heavy rows** (SLC-2, STC, STR, QU) are append-bound:
//!   every thread keeps writing a contended location until it retires,
//!   and appends to the total order of memory never commute. The
//!   reduction attacks them from two sides: the flat model's canonical
//!   per-location state encoding merges interleavings that differ only
//!   in the global order of appends to disjoint locations, and the
//!   naive model's restricted-fingerprint `CertMemo` keys let a
//!   thread's certification survive sibling appends to locations outside
//!   its may-access scope (the `survived` counter);
//! * **read-parallel rows** — IRIW-style multi-observer shapes (the
//!   catalogue entries plus `RF-n-k` fan-outs: one writer of `k`
//!   locations, `n` pure-reader threads), where co-enabled observers
//!   collapse multiplicatively;
//! * **symmetric rows** — Table-2 rows running k copies of one thread
//!   (lock clients, pushers), under promise-first. Its reduction is
//!   thread symmetry: one promise-mode state per orbit of renamings of
//!   the copies, outcomes closed under the renamings. The off cell is
//!   the unreduced state count that Table 2's P-states column no longer
//!   shows on these rows.
//!
//! ```text
//! cargo run --release -p promising-bench --bin table_dpor -- \
//!     [timeout-secs] [--json PATH] [--worker-sweep N,M,..]
//! ```
//!
//! The two cells' outcome sets are checked equal on every row where both
//! complete; the process exits 1 otherwise.
//!
//! `--worker-sweep 1,2,4,8` re-runs each *flat* default cell once per
//! worker count, asserting the outcome digest byte-identical to the
//! serial cell's (`promising_bench::worker_sweep`), and emits a per-row
//! `worker_sweep` series in the JSON. The snapshot-level
//! `cores`/`worker_mode` pair says how to read it: speedup ratios are
//! only printed when the host has more than one logical core.

use promising_bench::cli::{Cli, Opt};
use promising_bench::{
    host_cpus, sweep_cell_text, sweep_json, worker_mode, worker_sweep, SweepCell, Table,
};
use promising_core::{Arch, CodeBuilder, Config, Expr, Loc, Machine, Program, Reg, Val};
use promising_explorer::{
    explore_naive_budget, explore_promise_first_budget, CertMode, Exploration, SearchBudget,
};
use promising_flat::{explore_flat_budget, FlatMachine};
use promising_litmus::{catalogue, DEFAULT_FUEL};
use promising_workloads::{by_spec, init_for};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::Arc;

const CLI: Cli = Cli {
    bin: "table_dpor",
    opts: &[Opt::Timeout(60), Opt::Json, Opt::WorkerSweep],
};

/// The Table-2 heavy rows (append-bound — see the module docs).
const HEAVY: &[&str] = &[
    "SLC-2",
    "STC-100-010-000",
    "STC-100-010-010",
    "STR-100-010-000",
    "STR-100-010-010",
    "QU-100-000-000",
    "QU-100-010-000",
];

/// Table-2 rows with identical threads, run promise-first (the
/// symmetric group — see the module docs).
const SYMMETRIC: &[&str] = &[
    "SLA-2",
    "SLC-1",
    "SLC-2",
    "SLR-2",
    "TL-1",
    "STC-100-010-010",
];

/// Read-parallel fan-outs: (readers, locations-each). The observer
/// collapse compounds in the reader count — the off cell grows by the
/// full multinomial of reader interleavings, the default cell by a sum.
const FANOUTS: &[(usize, usize)] = &[
    (2, 2),
    (3, 2),
    (2, 3),
    (4, 2),
    (3, 3),
    (5, 2),
    (4, 3),
    (6, 2),
];

/// `config` with reductions off, then on.
fn settings(config: &Config) -> [Config; 2] {
    [false, true].map(|por| config.clone().with_por(por))
}

struct Row {
    name: String,
    model: &'static str,
    group: &'static str,
    /// The off and default cells, in [`settings`] order.
    cells: [Exploration; 2],
    /// `--worker-sweep` series for the default cell (flat rows only;
    /// empty when the sweep was not requested or does not apply).
    sweep: Vec<SweepCell>,
}

impl Row {
    fn states(&self, i: usize) -> u64 {
        self.cells[i].stats.states
    }

    /// Off states over default states; `None` unless both completed.
    fn reduction(&self) -> Option<f64> {
        (!self.truncated()).then(|| self.states(0) as f64 / self.states(1).max(1) as f64)
    }

    fn truncated(&self) -> bool {
        self.cells.iter().any(|c| c.stats.truncated())
    }

    /// Whether the cells found the same outcomes (vacuously, unless both
    /// completed).
    fn outcomes_equal(&self) -> bool {
        self.truncated() || self.cells[0].outcomes == self.cells[1].outcomes
    }
}

fn fanout_program(readers: usize, locs: usize) -> Arc<Program> {
    let mut threads = Vec::new();
    let mut b = CodeBuilder::new();
    let stmts: Vec<_> = (0..locs)
        .map(|l| b.store(Expr::val(l as i64), Expr::val(1)))
        .collect();
    threads.push(b.finish_seq(&stmts));
    for _ in 0..readers {
        let mut b = CodeBuilder::new();
        let stmts: Vec<_> = (0..locs)
            .map(|l| b.load(Reg(1 + l as u32), Expr::val((locs - 1 - l) as i64)))
            .collect();
        threads.push(b.finish_seq(&stmts));
    }
    Arc::new(Program::new(threads))
}

/// Geometric mean of the completed rows' ratios; `None` when every row
/// of the group was truncated (the JSON emits `null` then — never a
/// bare NaN token).
fn geo_mean(ratios: impl Iterator<Item = Option<f64>>) -> Option<f64> {
    let ratios: Vec<f64> = ratios.flatten().collect();
    (!ratios.is_empty())
        .then(|| (ratios.iter().map(|r| r.ln()).sum::<f64>() / ratios.len() as f64).exp())
}

fn main() {
    let args = CLI.args();
    let cores = host_cpus();
    let budget = SearchBudget::deadline(Some(args.timeout));
    println!(
        "Reduction ablation: visited states with POR off and on ({}s per cell)\n",
        args.timeout.as_secs()
    );
    if !args.worker_sweep.is_empty() {
        println!(
            "worker sweep {:?} on {} logical core(s): {} columns\n",
            args.worker_sweep,
            cores,
            worker_mode(cores)
        );
    }

    let mut rows: Vec<Row> = Vec::new();
    let mut measure = |name: String,
                       model: &'static str,
                       group: &'static str,
                       cells: [Exploration; 2],
                       sweep: Vec<SweepCell>| {
        let row = Row {
            name,
            model,
            group,
            cells,
            sweep,
        };
        eprintln!(
            "  {model} {}: {} -> {} states, {} survived{}",
            row.name,
            row.states(0),
            row.states(1),
            row.cells[1].stats.cert_survived,
            if row.truncated() { " [truncated]" } else { "" }
        );
        rows.push(row);
    };

    let naive_cells = |program: &Arc<Program>, config: Config, init: &BTreeMap<Loc, Val>| {
        settings(&config).map(|c| {
            let m = Machine::with_init(Arc::clone(program), c, init.clone());
            explore_naive_budget(&m, CertMode::Online, budget)
        })
    };
    let flat_cells =
        |name: &str, program: &Arc<Program>, config: Config, init: &BTreeMap<Loc, Val>| {
            let flat = |c: Config| {
                let m = FlatMachine::with_init(Arc::clone(program), c, init.clone());
                explore_flat_budget(&m, budget)
            };
            let [off, on] = settings(&config);
            let cells = [flat(off), flat(on.clone())];
            let sweep = worker_sweep(name, "flat", &args.worker_sweep, &cells[1], |n| {
                flat(on.clone().with_workers(n))
            });
            (cells, sweep)
        };

    for spec in HEAVY {
        let w = by_spec(spec).expect("heavy row spec parses");
        let init = init_for(&w);
        let cells = naive_cells(&w.program, w.config(Arch::Arm), &init);
        measure(spec.to_string(), "naive", "table2-heavy", cells, Vec::new());
        let (cells, sweep) = flat_cells(spec, &w.program, w.config_unshared(Arch::Arm), &init);
        measure(spec.to_string(), "flat", "table2-heavy", cells, sweep);
    }

    let no_init = BTreeMap::new();
    for &(readers, locs) in FANOUTS {
        let name = format!("RF-{readers}-{locs}");
        let program = fanout_program(readers, locs);
        let cells = naive_cells(&program, Config::arm(), &no_init);
        measure(name.clone(), "naive", "read-parallel", cells, Vec::new());
        let (cells, sweep) = flat_cells(&name, &program, Config::arm(), &no_init);
        measure(name, "flat", "read-parallel", cells, sweep);
    }

    for t in catalogue() {
        if t.arch != Arch::Arm || !t.name.starts_with("IRIW") {
            continue;
        }
        let config = Config::for_arch(t.arch).with_loop_fuel(t.loop_fuel.unwrap_or(DEFAULT_FUEL));
        let cells = naive_cells(&t.program, config, &t.init);
        measure(t.name.clone(), "naive", "read-parallel", cells, Vec::new());
    }

    for spec in SYMMETRIC {
        let w = by_spec(spec).expect("symmetric row spec parses");
        let init = init_for(&w);
        let cells = settings(&w.config(Arch::Arm)).map(|c| {
            let m = Machine::with_init(w.program.clone(), c, init.clone());
            explore_promise_first_budget(&m, budget)
        });
        measure(
            spec.to_string(),
            "promise-first",
            "symmetric",
            cells,
            Vec::new(),
        );
    }

    let mut header: Vec<String> = [
        "Test",
        "Model",
        "Group",
        "States-off",
        "States-dpor",
        "Reduction",
        "Pruned",
        "Cert h/m/surv",
    ]
    .iter()
    .map(|s| s.to_string())
    .collect();
    header.extend(args.worker_sweep.iter().map(|w| format!("Sweep-w{w}")));
    let header_refs: Vec<&str> = header.iter().map(String::as_str).collect();
    let mut table = Table::new(&header_refs);
    let fmt_ratio = |r: Option<f64>| r.map_or("ooT".to_string(), |r| format!("{r:.2}x"));
    for r in &rows {
        let on = &r.cells[1].stats;
        let mut cells = vec![r.name.clone(), r.model.to_string(), r.group.to_string()];
        cells.extend(r.cells.iter().map(|c| {
            if c.stats.truncated() {
                format!("{} (ooT)", c.stats.states)
            } else {
                c.stats.states.to_string()
            }
        }));
        cells.extend([
            fmt_ratio(r.reduction()),
            on.por_pruned.to_string(),
            format!("{}/{}/{}", on.cert_hits, on.cert_misses, on.cert_survived),
        ]);
        let sweep_base = r.sweep.iter().find(|c| c.workers == 1).and_then(|c| c.secs);
        for w in &args.worker_sweep {
            cells.push(match r.sweep.iter().find(|c| c.workers == *w) {
                Some(c) => sweep_cell_text(c, sweep_base, cores),
                None => "-".to_string(),
            });
        }
        table.row(&cells);
    }
    println!("{}", table.render());

    let mean = |group: &str, model: Option<&str>| {
        geo_mean(
            rows.iter()
                .filter(|r| r.group == group && model.is_none_or(|m| r.model == m))
                .map(Row::reduction),
        )
    };
    let means = [
        ("mean_reduction_table2_heavy", mean("table2-heavy", None)),
        (
            "mean_reduction_table2_heavy_flat",
            mean("table2-heavy", Some("flat")),
        ),
        ("mean_reduction_read_parallel", mean("read-parallel", None)),
        ("mean_reduction_symmetric", mean("symmetric", None)),
    ];
    let fmt_mean =
        |m: Option<f64>| m.map_or("- (all rows truncated)".to_string(), |m| format!("{m:.2}x"));
    println!(
        "geometric-mean off -> default state reductions (completed rows): table2-heavy {} (flat {}), read-parallel {}, symmetric {}",
        fmt_mean(means[0].1),
        fmt_mean(means[1].1),
        fmt_mean(means[2].1),
        fmt_mean(means[3].1)
    );

    let mismatches: Vec<&Row> = rows.iter().filter(|r| !r.outcomes_equal()).collect();
    for r in &mismatches {
        eprintln!(
            "MISMATCH: {} {}: the off and default outcome sets differ",
            r.model, r.name
        );
    }

    if let Some(path) = &args.json {
        let mut out = String::new();
        let _ = writeln!(out, "{{");
        let _ = writeln!(out, "  \"suite\": \"table_dpor\",");
        let _ = writeln!(out, "  \"timeout_secs\": {},", args.timeout.as_secs());
        let _ = writeln!(out, "  \"cores\": {cores},");
        let _ = writeln!(out, "  \"worker_mode\": \"{}\",", worker_mode(cores));
        for (key, m) in means {
            let value = m.map_or("null".to_string(), |m| format!("{m:.4}"));
            let _ = writeln!(out, "  \"{key}\": {value},");
        }
        let _ = writeln!(out, "  \"rows\": [");
        let json_ratio = |r: Option<f64>| r.map_or("null".to_string(), |r| format!("{r:.4}"));
        for (i, r) in rows.iter().enumerate() {
            let [off, on] = &r.cells;
            let _ = write!(
                out,
                "    {{\"test\": \"{}\", \"model\": \"{}\", \"group\": \"{}\", \"states_off\": {}, \"states_dpor\": {}, \"reduction\": {}, \"por_pruned\": {}, \"cert_hits\": {}, \"cert_misses\": {}, \"cert_survived\": {}, \"stop_off\": \"{}\", \"stop_dpor\": \"{}\", \"truncated\": {}, \"outcomes_equal\": {}",
                r.name,
                r.model,
                r.group,
                off.stats.states,
                on.stats.states,
                json_ratio(r.reduction()),
                on.stats.por_pruned,
                on.stats.cert_hits,
                on.stats.cert_misses,
                on.stats.cert_survived,
                off.stats.stop.name(),
                on.stats.stop.name(),
                r.truncated(),
                r.outcomes_equal(),
            );
            out.push_str(&sweep_json("worker_sweep", &r.sweep, cores));
            let _ = writeln!(out, "}}{}", if i + 1 < rows.len() { "," } else { "" });
        }
        let _ = writeln!(out, "  ]");
        let _ = write!(out, "}}");
        std::fs::write(path, out)
            .unwrap_or_else(|e| CLI.fail(&format!("cannot write {path}: {e}")));
        println!("wrote {path}");
    }

    if !mismatches.is_empty() {
        std::process::exit(1);
    }
}
