//! The repository benchmark: a closed-loop client that runs one search at
//! a time through the workspace's public API, times it from outside and
//! checks every verdict.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <pf-table2|flat-table2|litmus-operational|litmus-axiomatic> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! A *cell* is one (Table-2 row or corpus test, model) search; a *pass*
//! runs every cell of the workload once, in an order fixed by the seed.
//! A run makes about `--seconds` worth of passes. The untraced run
//! (`--trace 0`) prints the end-to-end metrics; the traced run
//! (`--trace 1`) alternates untraced and traced passes and prints the
//! per-layer metrics. The last line of standard output is one JSON
//! object. The exit status is non-zero on a usage error and on any failed
//! cell: a wrong digest or verdict, a search stopped by its budget, or a
//! panic. README.md lists the workloads, the metrics and which layer
//! should move which metric.

mod pins;
mod stats;
mod timed;
mod trace;

use promising_axiomatic::exec::{unfold_thread, value_pools};
use promising_axiomatic::{enumerate_outcomes, AxConfig, AxStats};
use promising_bench::host_cpus;
use promising_core::{Arch, Config, FpHasher, Machine, Outcome, Program, TId};
use promising_explorer::{
    panic_message, CertMode, Engine, Exploration, NaiveModel, PromiseFirstModel, SearchBudget,
    SearchModel, SplitMix64, Stats,
};
use promising_flat::{FlatMachine, FlatModel};
use promising_litmus::{
    catalogue_for, generate_lang_suite, generate_suite, generate_three_thread_suite,
    lang_catalogue, LitmusTest, DEFAULT_FUEL,
};
use promising_workloads::{by_spec, init_for};
use stats::{median, tail};
use std::collections::{BTreeMap, BTreeSet};
use std::fmt::Write as _;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};
use timed::{Hook, HookTimes, Timed};
use trace::{Layers, Spans};

const USAGE: &str = "usage: perfbench --workload <pf-table2|flat-table2|litmus-operational|litmus-axiomatic> --seed <n> --seconds <s> --trace <0|1>";

/// Exploration workers for the Table-2 workloads (capped at the host's
/// cores); the litmus workloads run serially.
const TABLE2_WORKERS: usize = 2;

/// Wall-clock deadline of one cell's search.
const CELL_DEADLINE: Duration = Duration::from_secs(30);

/// No cell starts later than this after the process starts; the cells
/// left are counted as failed, so a hanging regression still ends the run
/// in time.
const RUN_LIMIT: Duration = Duration::from_secs(150);

/// How far the timed hooks may exceed the engine's own `cpu_time` (they
/// run inside it) before the layer-share check fails.
const LAYER_TOLERANCE: f64 = 0.01;

/// The Table-2 rows, as in the `table2` bench binary.
const ROWS: [&str; 23] = [
    "SLA-1",
    "SLA-2",
    "SLA-3",
    "SLA-4",
    "SLC-1",
    "SLC-2",
    "SLR-1",
    "SLR-2",
    "PCS-1-1",
    "PCS-2-2",
    "PCM-1-1-1",
    "TL-1",
    "STC-100-010-000",
    "STC-100-010-010",
    "STC(opt)-100-010-000",
    "STR-100-010-000",
    "STR-100-010-010",
    "DQ-100-1-0",
    "DQ-110-1-0",
    "DQ(opt)-100-1-0",
    "QU-100-000-000",
    "QU-100-010-000",
    "QU(opt)-100-000-000",
];

/// Rows whose Flat-lite search does not finish within seconds
/// (PCS-2-2 ~23 s, QU-100-010-000 ~25 s, TL-1 over 60 s serially).
const FLAT_SLOW: [&str; 3] = ["PCS-2-2", "QU-100-010-000", "TL-1"];

/// The per-layer metrics of the traced run, in output order, with units.
const PER_LAYER: [(&str, &str); 40] = [
    ("certify.s", "s"),
    ("certify.calls", "count"),
    ("certify.us_per_call", "us"),
    ("certify.memo_lookups", "count"),
    ("certify.memo_hit_rate", "frac"),
    ("certify.memo_survived", "count"),
    ("phase2.s", "s"),
    ("phase2.calls", "count"),
    ("phase2.final_memories", "count"),
    ("phase2.final_frac", "frac"),
    ("flat.apply_s", "s"),
    ("flat.expand_s", "s"),
    ("flat.fingerprint_s", "s"),
    ("flat.reduce_s", "s"),
    ("flat.por_pruned", "count"),
    ("naive.apply_s", "s"),
    ("naive.reduce_s", "s"),
    ("naive.por_pruned", "count"),
    ("engine.searches", "count"),
    ("engine.states", "count"),
    ("engine.transitions", "count"),
    ("engine.self_s", "s"),
    ("engine.self_us_per_search", "us"),
    ("engine.states_per_s", "1/s"),
    ("frontier.steals", "count"),
    ("frontier.busy_frac", "frac"),
    ("frontier.idle_s", "s"),
    ("frontier.speedup_2w", "x"),
    ("axiomatic.s", "s"),
    ("axiomatic.unfold_s", "s"),
    ("axiomatic.check_s", "s"),
    ("axiomatic.trace_combos", "count"),
    ("axiomatic.candidates", "count"),
    ("axiomatic.allowed_frac", "frac"),
    ("axiomatic.slowest10_s", "s"),
    ("workloads.build_s", "s"),
    ("litmus.generate_s", "s"),
    ("lang.compile_s", "s"),
    ("verdict.check_s", "s"),
    ("trace.overhead_frac", "frac"),
];

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Workload {
    PfTable2,
    FlatTable2,
    LitmusOperational,
    LitmusAxiomatic,
}

impl Workload {
    const ALL: [Workload; 4] = [
        Workload::PfTable2,
        Workload::FlatTable2,
        Workload::LitmusOperational,
        Workload::LitmusAxiomatic,
    ];

    fn name(self) -> &'static str {
        match self {
            Workload::PfTable2 => "pf-table2",
            Workload::FlatTable2 => "flat-table2",
            Workload::LitmusOperational => "litmus-operational",
            Workload::LitmusAxiomatic => "litmus-axiomatic",
        }
    }

    fn is_table2(self) -> bool {
        matches!(self, Workload::PfTable2 | Workload::FlatTable2)
    }

    /// Seconds of one pass on a 2-core host. A run makes `--seconds`
    /// divided by this many passes, so every run of a given length pools
    /// the same number of cell times.
    fn nominal_pass_s(self) -> f64 {
        match self {
            Workload::PfTable2 => 1.6,
            Workload::FlatTable2 => 6.0,
            Workload::LitmusOperational => 2.8,
            Workload::LitmusAxiomatic => 18.0,
        }
    }

    /// Set-ups before the first pass and after each pass; the reported
    /// `setup_s` is the median of all of them.
    fn setup_reps(self) -> (usize, usize) {
        if self.is_table2() {
            (11, 5)
        } else {
            (3, 2)
        }
    }
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = || format!("{flag}: invalid value {value:?}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::ALL
                        .into_iter()
                        .find(|w| w.name() == value)
                        .ok_or_else(bad)?,
                )
            }
            "--seed" => seed = Some(value.parse().map_err(|_| bad())?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<f64>()
                        .ok()
                        .filter(|s| *s > 0.0)
                        .ok_or_else(bad)?,
                )
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                })
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    })
}

/// What one cell searches, built during set-up.
enum Subject {
    PromiseFirst(Machine),
    Naive(Machine),
    Flat(FlatMachine),
    Axiomatic(Arc<Program>, AxConfig),
}

impl Subject {
    fn model(&self) -> &'static str {
        match self {
            Subject::PromiseFirst(_) => "promising",
            Subject::Naive(_) => "promising-naive",
            Subject::Flat(_) => "flat",
            Subject::Axiomatic(..) => "axiomatic",
        }
    }
}

/// What a cell's verdict is checked against.
enum Source {
    /// A Table-2 row: its correctness predicate and pinned digest.
    Row {
        spec: &'static str,
        workload: promising_workloads::Workload,
        pin: &'static str,
    },
    /// A corpus test: its recorded expectation (and, per pass, agreement
    /// across models and with the pinned corpus digest).
    Test(LitmusTest),
}

impl Source {
    fn label(&self) -> String {
        match self {
            Source::Row { spec, .. } => spec.to_string(),
            Source::Test(t) => t.to_string(),
        }
    }

    /// Check a completed search's outcome set.
    fn verdict(&self, outcomes: &BTreeSet<Outcome>, digest: &str) -> Result<(), String> {
        match self {
            Source::Row { workload, pin, .. } => {
                if let Some(v) = workload.violations(outcomes).first() {
                    return Err(format!("incorrect state: {v}"));
                }
                if digest != *pin {
                    return Err(format!("outcome digest {digest}, pinned {pin:?}"));
                }
                Ok(())
            }
            Source::Test(t) => match t.verdict(outcomes).1 {
                Some(false) => Err("verdict contradicts the recorded expectation".into()),
                _ => Ok(()),
            },
        }
    }
}

struct Cell {
    /// Index into [`Setup::sources`].
    source: usize,
    /// The search at the workload's worker count.
    subject: Subject,
    /// The same search at one worker (Table-2 workloads only).
    serial: Option<Subject>,
}

/// Build the workload's cells, timing the whole and its layers.
fn timed_setup(
    w: Workload,
    workers: usize,
    setups: &mut Vec<f64>,
    builds: &mut [Vec<f64>; 3],
) -> Setup {
    let begun = Instant::now();
    let s = setup(w, workers);
    setups.push(begun.elapsed().as_secs_f64());
    for (b, v) in builds.iter_mut().zip(s.build) {
        b.push(v);
    }
    s
}

/// Everything built before the first search.
struct Setup {
    sources: Vec<Source>,
    cells: Vec<Cell>,
    /// Seconds in `promising_workloads`, in the `promising_litmus`
    /// generators and catalogue, and in `LangTest::compile`.
    build: [f64; 3],
}

fn setup(w: Workload, workers: usize) -> Setup {
    if w.is_table2() {
        table2_setup(w == Workload::FlatTable2, workers)
    } else {
        corpus_setup(w == Workload::LitmusAxiomatic)
    }
}

fn table2_setup(flat: bool, workers: usize) -> Setup {
    let begun = Instant::now();
    let rows: Vec<_> = ROWS
        .into_iter()
        .filter(|spec| !flat || !FLAT_SLOW.contains(spec))
        .map(|spec| {
            let w = by_spec(spec).unwrap_or_else(|| panic!("unknown Table-2 row {spec}"));
            let init = init_for(&w);
            (spec, w, init)
        })
        .collect();
    let build = begun.elapsed().as_secs_f64();
    let mut setup = Setup {
        sources: Vec::new(),
        cells: Vec::new(),
        build: [build, 0.0, 0.0],
    };
    for (spec, w, init) in rows {
        let subject = |n: usize| {
            if flat {
                let config = w.config_unshared(Arch::Arm).with_workers(n);
                Subject::Flat(FlatMachine::with_init(
                    w.program.clone(),
                    config,
                    init.clone(),
                ))
            } else {
                let config = w.config(Arch::Arm).with_workers(n);
                Subject::PromiseFirst(Machine::with_init(w.program.clone(), config, init.clone()))
            }
        };
        setup.cells.push(Cell {
            source: setup.sources.len(),
            subject: subject(workers),
            serial: Some(subject(1)),
        });
        setup.sources.push(Source::Row {
            spec,
            pin: pins::lookup(pins::TABLE2, spec).unwrap_or(""),
            workload: w,
        });
    }
    setup
}

/// The corpus `litmus_batch` sweeps by default: per architecture the
/// generated two- and three-thread suites and the catalogue, then the
/// language catalogue and suite compiled to both architectures.
fn corpus_setup(axiomatic: bool) -> Setup {
    let begun = Instant::now();
    let mut tests = Vec::new();
    for arch in [Arch::Arm, Arch::RiscV] {
        tests.extend(generate_suite(arch));
        tests.extend(generate_three_thread_suite(arch));
        tests.extend(catalogue_for(arch));
    }
    let mut lang = lang_catalogue();
    let have: BTreeSet<String> = lang.iter().map(|t| t.name.clone()).collect();
    lang.extend(
        generate_lang_suite()
            .into_iter()
            .filter(|t| !have.contains(&t.name)),
    );
    let generate = begun.elapsed().as_secs_f64();
    let begun = Instant::now();
    for t in &lang {
        for arch in [Arch::Arm, Arch::RiscV] {
            tests.push(t.compile(arch));
        }
    }
    let compile = begun.elapsed().as_secs_f64();
    let cells = tests
        .iter()
        .enumerate()
        .flat_map(|(i, t)| test_cells(i, t, axiomatic))
        .collect();
    Setup {
        sources: tests.into_iter().map(Source::Test).collect(),
        cells,
        build: [0.0, generate, compile],
    }
}

/// The cells of corpus test `test` (index `source`), configured as the
/// litmus harness's `run_model_with(test, kind, |c| c.with_workers(1))`
/// does: axiomatic alone, or promising, promising-naive and, unless the
/// test is Flat-conservative, flat.
fn test_cells(source: usize, test: &LitmusTest, axiomatic: bool) -> Vec<Cell> {
    let fuel = test.loop_fuel.unwrap_or(DEFAULT_FUEL);
    let cell = |subject| Cell {
        source,
        subject,
        serial: None,
    };
    if axiomatic {
        let mut ax = AxConfig::new(test.arch);
        ax.loop_fuel = fuel;
        ax.init = test.init.clone();
        return vec![cell(Subject::Axiomatic(test.program.clone(), ax))];
    }
    let config = Config::for_arch(test.arch)
        .with_loop_fuel(fuel)
        .with_workers(1);
    let m = Machine::with_init(test.program.clone(), config.clone(), test.init.clone());
    let mut cells = vec![
        cell(Subject::PromiseFirst(m.clone())),
        cell(Subject::Naive(m)),
    ];
    if !test.flat_conservative {
        let f = FlatMachine::with_init(test.program.clone(), config, test.init.clone());
        cells.push(cell(Subject::Flat(f)));
    }
    cells
}

/// A completed search.
struct Searched {
    outcomes: BTreeSet<Outcome>,
    stats: Stats,
    ax: AxStats,
    hooks: Option<HookTimes>,
}

fn explore<M: SearchModel<Out = Outcome>>(
    model: M,
    budget: SearchBudget,
    traced: bool,
) -> (Exploration, Option<HookTimes>) {
    if !traced {
        return (Engine::new(model).with_budget(budget).run(), None);
    }
    let engine = Engine::new(Timed::new(model)).with_budget(budget);
    let e = engine.run();
    (e, Some(engine.model().take()))
}

/// Run one search; a stopped search is an error.
fn search(subject: &Subject, budget: SearchBudget, traced: bool) -> Result<Searched, String> {
    let (e, hooks) = match subject {
        Subject::PromiseFirst(m) => explore(PromiseFirstModel::new(m), budget, traced),
        Subject::Naive(m) => explore(NaiveModel::new(m, CertMode::Online), budget, traced),
        Subject::Flat(m) => explore(FlatModel::new(m), budget, traced),
        Subject::Axiomatic(program, ax) => {
            let r = enumerate_outcomes(program, ax).map_err(|e| format!("axiomatic: {e}"))?;
            return Ok(Searched {
                outcomes: r.outcomes,
                stats: Stats::default(),
                ax: r.stats,
                hooks: None,
            });
        }
    };
    if e.stats.truncated() {
        return Err(format!("search stopped: {}", e.stats.stop));
    }
    Ok(Searched {
        outcomes: e.outcomes,
        stats: e.stats,
        ax: AxStats::default(),
        hooks,
    })
}

/// The canonical digest of an outcome set
/// ([`Exploration::outcomes_digest`]).
fn digest(outcomes: &BTreeSet<Outcome>) -> String {
    Exploration {
        outcomes: outcomes.clone(),
        stats: Stats::default(),
    }
    .outcomes_digest()
}

/// Time `value_pools` and `unfold_thread` on their own, outside the
/// cell: `enumerate_outcomes` runs both internally.
fn probe_unfold(program: &Program, ax: &AxConfig) -> f64 {
    let begun = Instant::now();
    let _ = catch_unwind(AssertUnwindSafe(|| {
        if let Ok(pools) = value_pools(program, ax.arch, &ax.init, ax.loop_fuel, &ax.limits) {
            for (i, code) in program.threads().iter().enumerate() {
                std::hint::black_box(unfold_thread(
                    code,
                    TId(i),
                    ax.arch,
                    &pools,
                    &ax.init,
                    ax.loop_fuel,
                    &ax.limits,
                ))
                .ok();
            }
        }
    }));
    begun.elapsed().as_secs_f64()
}

/// The cell order of pass `pass`: a seeded shuffle.
fn order(n: usize, seed: u64, pass: u64) -> Vec<usize> {
    let mut rng = SplitMix64::for_trace(seed, pass);
    let mut v: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        v.swap(i, rng.below(i + 1));
    }
    v
}

#[derive(Default)]
struct Pass {
    /// Wall seconds for the pass, verdict checks included.
    wall: f64,
    /// Time to verdict of every cell run, by cell index.
    cells: Vec<(usize, f64)>,
    attempted: u64,
    failed: u64,
}

/// One benchmark run's state.
struct Run {
    workload: Workload,
    workers: usize,
    setup: Setup,
    limit: Instant,
    errors: Vec<String>,
    layers: Layers,
    /// The first traced pass's spans.
    spans: Option<Spans>,
}

impl Run {
    /// Run every cell once in `order`; at one worker if `serial`.
    fn pass(&mut self, order: &[usize], serial: bool, traced: bool) -> Pass {
        let begun = Instant::now();
        let mut probes = 0.0;
        let mut pass = Pass::default();
        let mut spans = if traced && self.spans.is_none() {
            Some(Spans::default())
        } else {
            None
        };
        let mut ax_cells = Vec::new();
        let mut digests: Vec<Vec<String>> = vec![Vec::new(); self.setup.sources.len()];
        for &ix in order {
            let cell = &self.setup.cells[ix];
            let source = &self.setup.sources[cell.source];
            let subject = match (serial, &cell.serial) {
                (true, Some(s)) => s,
                _ => &cell.subject,
            };
            pass.attempted += 1;
            let now = Instant::now();
            if now >= self.limit {
                pass.failed += 1;
                self.errors.push(format!(
                    "{} [{}]: not started, run time limit reached",
                    source.label(),
                    subject.model()
                ));
                continue;
            }
            let budget = SearchBudget::deadline(Some(CELL_DEADLINE.min(self.limit - now)));
            if let (true, Subject::Axiomatic(program, ax)) = (traced, subject) {
                let probe = probe_unfold(program, ax);
                probes += probe;
                self.layers.add("axiomatic.unfold_s", probe);
            }
            let start = Instant::now();
            let result = catch_unwind(AssertUnwindSafe(|| search(subject, budget, traced)))
                .unwrap_or_else(|p| Err(format!("panicked: {}", panic_message(p.as_ref()))));
            let searched = Instant::now();
            let checked = result.and_then(|s| {
                let d = digest(&s.outcomes);
                source.verdict(&s.outcomes, &d)?;
                Ok((s, d))
            });
            let done = Instant::now();
            let cell_wall = (done - start).as_secs_f64();
            let search_wall = (searched - start).as_secs_f64();
            pass.cells.push((ix, cell_wall));
            match checked {
                Ok((s, d)) => {
                    digests[cell.source].push(d);
                    if traced {
                        self.layers
                            .add("verdict.check_s", (done - searched).as_secs_f64());
                        if let Subject::Axiomatic(..) = subject {
                            ax_cells.push(search_wall);
                        }
                        let label = format!("cell:{} [{}]", source.label(), subject.model());
                        let workers = if serial { 1 } else { self.workers };
                        record(
                            &mut self.layers,
                            spans.as_mut(),
                            label,
                            subject,
                            &s,
                            search_wall,
                            cell_wall,
                            workers,
                        );
                    }
                }
                Err(e) => {
                    pass.failed += 1;
                    self.errors
                        .push(format!("{} [{}]: {e}", source.label(), subject.model()));
                }
            }
        }
        if !self.workload.is_table2() {
            let begun = Instant::now();
            self.check_corpus(&digests, &mut pass);
            if traced {
                self.layers
                    .add("verdict.check_s", begun.elapsed().as_secs_f64());
            }
        }
        if traced {
            self.layers.ax_cells.push(ax_cells);
            if spans.is_some() {
                self.spans = spans;
            }
        }
        pass.wall = begun.elapsed().as_secs_f64() - probes;
        pass
    }

    /// Cross-model agreement per test, and the corpus digest against its
    /// pin.
    fn check_corpus(&mut self, digests: &[Vec<String>], pass: &mut Pass) {
        let mut h = FpHasher::new();
        h.write_len(digests.len());
        for (source, ds) in self.setup.sources.iter().zip(digests) {
            if ds.iter().any(|d| *d != ds[0]) {
                pass.failed += ds.len() as u64;
                self.errors.push(format!(
                    "{}: models disagree: {}",
                    source.label(),
                    ds.join(" ")
                ));
            }
            let d = ds.first().map_or("", String::as_str);
            h.write_len(d.len());
            for b in d.bytes() {
                h.write_u32(b as u32);
            }
        }
        let corpus = format!("{:032x}", h.finish128().0);
        if digests.len() != pins::CORPUS_TESTS || corpus != pins::CORPUS {
            self.errors.push(format!(
                "corpus of {} tests has digest {corpus}, pinned {} tests with {:?}",
                digests.len(),
                pins::CORPUS_TESTS,
                pins::CORPUS
            ));
        }
    }
}

/// Account one completed traced search to the layers and the span tree.
#[allow(clippy::too_many_arguments)]
fn record(
    layers: &mut Layers,
    spans: Option<&mut Spans>,
    label: String,
    subject: &Subject,
    s: &Searched,
    search_wall: f64,
    cell_wall: f64,
    workers: usize,
) {
    if let Subject::Axiomatic(..) = subject {
        layers.add("axiomatic.s", search_wall);
        layers.add("axiomatic.trace_combos", s.ax.trace_combos as f64);
        layers.add("axiomatic.candidates", s.ax.candidates as f64);
        layers.add("axiomatic.allowed", s.ax.allowed as f64);
        if let Some(spans) = spans {
            let cell = spans.push(0, label, cell_wall, cell_wall, 1);
            spans.push(cell, "axiomatic".into(), search_wall, search_wall, 1);
        }
        return;
    }
    let model = subject.model();
    let st = &s.stats;
    let hooks = s.hooks.unwrap_or_default();
    let cpu = st.cpu_time.as_secs_f64();
    let busy = workers as f64 * search_wall;
    let idle = if workers > 1 {
        (busy - cpu).max(0.0)
    } else {
        0.0
    };
    let hook_s = hooks.total_secs();
    for h in Hook::ALL {
        *layers
            .hooks
            .entry(format!("{model}.{}", h.name()))
            .or_default() += hooks.secs(h);
    }
    let certify = st.certifications as f64;
    match subject {
        Subject::PromiseFirst(_) => {
            layers.add("certify.s", hooks.secs(Hook::Expand));
            layers.add("phase2.s", hooks.secs(Hook::Outcome));
            layers.add("phase2.calls", hooks.calls(Hook::Outcome) as f64);
            layers.add("phase2.final_memories", st.final_memories as f64);
        }
        Subject::Naive(_) => {
            layers.add("certify.s", hooks.secs(Hook::Expand));
            layers.add("naive.apply_s", hooks.secs(Hook::Apply));
            layers.add("naive.reduce_s", hooks.secs(Hook::Reduce));
            layers.add("naive.por_pruned", st.por_pruned as f64);
        }
        _ => {
            layers.add("flat.apply_s", hooks.secs(Hook::Apply));
            layers.add("flat.expand_s", hooks.secs(Hook::Expand));
            layers.add("flat.fingerprint_s", hooks.secs(Hook::Fingerprint));
            layers.add("flat.reduce_s", hooks.secs(Hook::Reduce));
            layers.add("flat.por_pruned", st.por_pruned as f64);
        }
    }
    if !matches!(subject, Subject::Flat(_)) {
        layers.add("certify.calls", certify);
        layers.add("certify.memo_hits", st.cert_hits as f64);
        layers.add(
            "certify.memo_lookups",
            (st.cert_hits + st.cert_misses) as f64,
        );
        layers.add("certify.memo_survived", st.cert_survived as f64);
    }
    layers.add("engine.searches", 1.0);
    layers.add("engine.states", st.states as f64);
    layers.add("engine.transitions", st.transitions as f64);
    layers.add("engine.self_s", busy - idle - hook_s);
    layers.add("engine.wall_s", search_wall);
    layers.add("engine.busy_s", busy);
    layers.add("engine.cpu_s", cpu);
    layers.add("engine.hooks_s", hook_s);
    layers.add("frontier.steals", st.steals as f64);
    layers.add("frontier.idle_s", idle);
    if let Some(spans) = spans {
        let cell = spans.push(0, label, 0.0, 0.0, 1);
        let search = spans.push(
            cell,
            format!("search:{model}"),
            search_wall,
            busy,
            st.states,
        );
        for h in Hook::ALL.into_iter().filter(|&h| hooks.calls(h) > 0) {
            let secs = hooks.secs(h);
            spans.push(
                search,
                format!("hook:{}", h.name()),
                secs,
                secs,
                hooks.calls(h),
            );
        }
        if workers > 1 {
            spans.push(search, "frontier.idle".into(), idle, idle, 0);
        }
        spans.close(cell, cell_wall, cell_wall - search_wall + busy);
    }
}

/// Peak resident memory of this process in MB (`VmHWM`).
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

fn ratio(a: f64, b: f64) -> f64 {
    if b > 0.0 {
        a / b
    } else {
        0.0
    }
}

/// The per-layer metrics, per traced pass.
fn layer_metrics(
    run: &Run,
    traced: &[Pass],
    untraced: &[Pass],
    serial: Option<&Pass>,
    setup_build: [f64; 3],
) -> BTreeMap<&'static str, f64> {
    let l = &run.layers;
    let n = traced.len().max(1) as f64;
    let per = |name: &str| l.get(name) / n;
    let mut m = BTreeMap::new();
    for name in [
        "certify.s",
        "certify.calls",
        "certify.memo_lookups",
        "certify.memo_survived",
        "phase2.s",
        "phase2.calls",
        "phase2.final_memories",
        "flat.apply_s",
        "flat.expand_s",
        "flat.fingerprint_s",
        "flat.reduce_s",
        "flat.por_pruned",
        "naive.apply_s",
        "naive.reduce_s",
        "naive.por_pruned",
        "engine.searches",
        "engine.states",
        "engine.transitions",
        "engine.self_s",
        "frontier.steals",
        "frontier.idle_s",
        "axiomatic.s",
        "axiomatic.unfold_s",
        "axiomatic.trace_combos",
        "axiomatic.candidates",
        "verdict.check_s",
    ] {
        m.insert(name, per(name));
    }
    m.insert(
        "certify.us_per_call",
        1e6 * ratio(l.get("certify.s"), l.get("certify.calls")),
    );
    m.insert(
        "certify.memo_hit_rate",
        ratio(l.get("certify.memo_hits"), l.get("certify.memo_lookups")),
    );
    m.insert(
        "phase2.final_frac",
        ratio(l.get("phase2.final_memories"), l.get("phase2.calls")),
    );
    m.insert(
        "engine.self_us_per_search",
        1e6 * ratio(l.get("engine.self_s"), l.get("engine.searches")),
    );
    m.insert(
        "engine.states_per_s",
        ratio(l.get("engine.states"), l.get("engine.wall_s")),
    );
    m.insert(
        "frontier.busy_frac",
        ratio(l.get("engine.cpu_s"), l.get("engine.busy_s")),
    );
    let walls = |ps: &[Pass]| median(&ps.iter().map(|p| p.wall).collect::<Vec<_>>());
    m.insert(
        "frontier.speedup_2w",
        serial.map_or(0.0, |s| ratio(s.wall, walls(untraced))),
    );
    m.insert(
        "axiomatic.check_s",
        (l.get("axiomatic.s") - l.get("axiomatic.unfold_s")).max(0.0) / n,
    );
    m.insert(
        "axiomatic.allowed_frac",
        ratio(l.get("axiomatic.allowed"), l.get("axiomatic.candidates")),
    );
    let slowest10: Vec<f64> = l
        .ax_cells
        .iter()
        .map(|cells| {
            let mut c = cells.clone();
            c.sort_by(|a, b| b.total_cmp(a));
            c.iter().take(10).fold(0.0, |a, x| a + x)
        })
        .collect();
    m.insert("axiomatic.slowest10_s", median(&slowest10));
    m.insert("workloads.build_s", setup_build[0]);
    m.insert("litmus.generate_s", setup_build[1]);
    m.insert("lang.compile_s", setup_build[2]);
    m.insert(
        "trace.overhead_frac",
        ratio(walls(traced), walls(untraced)) - 1.0,
    );
    m
}

/// Print each layer's share of the traced search time and check that the
/// hooks fit inside the engine's own `cpu_time`.
fn layer_shares(run: &mut Run, traced_passes: usize) {
    let l = &run.layers;
    let n = traced_passes.max(1) as f64;
    let total = l.get("engine.busy_s") + l.get("axiomatic.s");
    println!(
        "layer shares, per traced pass, of {:.4} s searching:",
        total / n
    );
    let mut rows: Vec<(String, f64)> = l
        .hooks
        .iter()
        .filter(|(_, s)| **s > 0.0)
        .map(|(k, s)| (format!("hook {k}"), *s))
        .collect();
    rows.push(("engine self".into(), l.get("engine.self_s")));
    rows.push(("frontier idle".into(), l.get("frontier.idle_s")));
    rows.push(("axiomatic".into(), l.get("axiomatic.s")));
    rows.sort_by(|a, b| b.1.total_cmp(&a.1));
    for (name, s) in rows.iter().filter(|r| r.1 > 0.0) {
        println!(
            "  {name:<32} {:>10.4} s {:>6.1}%",
            s / n,
            100.0 * ratio(*s, total)
        );
    }
    let (hooks, cpu) = (l.get("engine.hooks_s"), l.get("engine.cpu_s"));
    let ok = hooks <= cpu * (1.0 + LAYER_TOLERANCE) + 1e-3;
    println!(
        "check: hooks {:.4} s + engine in-step self {:.4} s = cpu_time {:.4} s; hooks within cpu_time (tolerance {}%): {}",
        hooks / n,
        (cpu - hooks) / n,
        cpu / n,
        100.0 * LAYER_TOLERANCE,
        if ok { "ok" } else { "FAILED" }
    );
    if !ok {
        run.errors.push(format!(
            "layer-share check: hooks {hooks:.4} s exceed cpu_time {cpu:.4} s"
        ));
    }
}

fn json_line(correct: bool, attempted: u64, failed: u64, metrics: &[(&str, f64, &str)]) -> String {
    let mut out = format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
    );
    for (i, (name, value, unit)) in metrics.iter().enumerate() {
        let value = if value.is_finite() { *value } else { 0.0 };
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            out,
            "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        );
    }
    out.push_str("}}");
    out
}

fn main() {
    let args = parse_args(std::env::args().skip(1)).unwrap_or_else(|e| {
        eprintln!("perfbench: {e}\n{USAGE}");
        std::process::exit(2);
    });
    if std::env::var_os("PROMISING_WORKERS").is_some() {
        eprintln!(
            "perfbench: PROMISING_WORKERS is set; unset it, the benchmark pins worker counts"
        );
        std::process::exit(2);
    }
    let limit = Instant::now() + RUN_LIMIT;
    let w = args.workload;
    let cores = host_cpus();
    let workers = if w.is_table2() {
        TABLE2_WORKERS.min(cores)
    } else {
        1
    };

    // Set-up, several times: the first also pays the lazy initialisation
    // (the default-workers cell behind `Config::arm`). More set-ups run
    // after each pass and are dropped, so the samples span the run.
    let (before, between) = w.setup_reps();
    let mut setups = Vec::new();
    let mut builds: [Vec<f64>; 3] = Default::default();
    let mut built = None;
    for _ in 0..before {
        drop(built.take());
        built = Some(timed_setup(w, workers, &mut setups, &mut builds));
    }
    let mut run = Run {
        workload: w,
        workers,
        setup: built.expect("at least one set-up"),
        limit,
        errors: Vec::new(),
        layers: Layers::default(),
        spans: None,
    };
    let n = run.setup.cells.len();
    let passes = ((args.seconds / w.nominal_pass_s()).round() as u64).max(1 + args.trace as u64);
    println!(
        "perfbench {}: {n} cells, {workers} worker(s) on {cores} core(s), seed {}, {passes} passes{}",
        w.name(),
        args.seed,
        if args.trace { ", traced" } else { "" }
    );

    // Passes: untraced only, or untraced and traced alternately.
    let (mut untraced, mut traced) = (Vec::new(), Vec::new());
    for pass in 0..passes {
        if Instant::now() >= limit {
            break;
        }
        // ABBA order, so drift over the run hits both kinds of pass alike.
        let tracing = args.trace && matches!(pass % 4, 1 | 2);
        let p = run.pass(&order(n, args.seed, pass), false, tracing);
        if tracing {
            traced.push(p);
        } else {
            untraced.push(p);
        }
        for _ in 0..between {
            timed_setup(w, workers, &mut setups, &mut builds);
        }
    }
    let setup_build = builds.map(|b| median(&b));
    let serial =
        (args.trace && w.is_table2()).then(|| run.pass(&order(n, args.seed, 0), true, false));

    let all: Vec<&Pass> = untraced.iter().chain(&traced).chain(&serial).collect();
    let attempted: u64 = all.iter().map(|p| p.attempted).sum();
    let failed: u64 = all.iter().map(|p| p.failed).sum();

    let metrics: Vec<(&str, f64, &str)> = if args.trace {
        layer_shares(&mut run, traced.len());
        let m = layer_metrics(&run, &traced, &untraced, serial.as_ref(), setup_build);
        if let Some(spans) = &run.spans {
            let path = PathBuf::from(".perfbench-trace").join(format!(
                "{}-seed{}.tsv",
                w.name(),
                args.seed
            ));
            match spans.write(&path) {
                Ok(()) => println!("spans of the first traced pass: {}", path.display()),
                Err(e) => eprintln!("perfbench: writing {}: {e}", path.display()),
            }
        }
        PER_LAYER
            .iter()
            .map(|&(name, unit)| (name, m[name], unit))
            .collect()
    } else {
        let mut per_cell = vec![Vec::new(); n];
        for &(ix, t) in untraced.iter().flat_map(|p| &p.cells) {
            per_cell[ix].push(t);
        }
        let cells: Vec<f64> = per_cell.concat();
        let cell_medians: Vec<f64> = per_cell
            .iter()
            .filter(|c| !c.is_empty())
            .map(|c| median(c))
            .collect();
        let t = tail(&cells);
        let walls: Vec<f64> = untraced.iter().map(|p| p.wall).collect();
        println!(
            "{} untraced pass(es) of {walls:.4?} s; verdict_tail_ms is the p{:.2} of {} cell times",
            untraced.len(),
            t.percentile,
            t.samples
        );
        vec![
            ("setup_s", median(&setups), "s"),
            ("run_s", median(&walls), "s"),
            ("verdict_p50_ms", 1e3 * median(&cell_medians), "ms"),
            ("verdict_tail_ms", 1e3 * t.value, "ms"),
            ("peak_rss_mb", peak_rss_mb(), "MB"),
        ]
    };
    for (name, value, unit) in &metrics {
        println!("  {name:<28} {value:>14.6} {unit}");
    }
    println!(
        "  {:<28} {:>14.6} frac ({failed} of {attempted} cells)",
        "failed_frac",
        ratio(failed as f64, attempted as f64)
    );
    for e in run.errors.iter().take(20) {
        println!("error: {e}");
    }
    if run.errors.len() > 20 {
        println!("error: ... {} more", run.errors.len() - 20);
    }
    let correct = failed == 0 && run.errors.is_empty();
    println!("{}", json_line(correct, attempted, failed, &metrics));
    if !correct {
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use promising_litmus::{by_name, run_model_with, ModelKind};

    #[test]
    fn corpus_cells_match_the_litmus_harness() {
        for name in ["MP+po+po", "SB+dmb.sy+dmb.sy", "LB+data+po"] {
            let test = by_name(name).expect("catalogue test");
            for axiomatic in [false, true] {
                for cell in test_cells(0, &test, axiomatic) {
                    let kind = ModelKind::parse(cell.subject.model()).expect("a model");
                    let want = run_model_with(&test, kind, |c| c.with_workers(1)).expect("runs");
                    let got = search(&cell.subject, SearchBudget::UNBOUNDED, false).expect("runs");
                    assert_eq!(got.outcomes, want.outcomes, "{name} {}", kind.name());
                }
            }
        }
    }

    #[test]
    fn seeded_order_is_a_permutation() {
        let a = order(100, 7, 0);
        assert_eq!(a, order(100, 7, 0));
        assert_ne!(a, order(100, 8, 0));
        let mut s = a.clone();
        s.sort_unstable();
        assert_eq!(s, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn arguments_parse_and_reject() {
        let args = |s: &str| parse_args(s.split(' ').map(String::from));
        let a = args("--workload pf-table2 --seed 3 --seconds 10 --trace 1").expect("valid");
        assert_eq!(
            (a.workload, a.seed, a.seconds, a.trace),
            (Workload::PfTable2, 3, 10.0, true)
        );
        assert!(args("--workload nope --seed 3 --seconds 10").is_err());
        assert!(args("--workload pf-table2 --seed 3 --seconds 0").is_err());
        assert!(args("--workload pf-table2 --seconds 10").is_err());
    }
}
