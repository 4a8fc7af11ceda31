//! Regenerate Table 2 — exhaustive-search run times, Promising
//! (promise-first + shared-location optimisation) vs the Flat-lite
//! baseline, on the paper's selected workload instances.
//!
//! The absolute numbers differ from the paper's (different host, different
//! substrate); the *shape* to verify is Promising ≪ Flat with the gap
//! exploding as the parameters grow (ooT = over the per-cell timeout).
//!
//! ```text
//! cargo run --release -p promising-bench --bin table2 -- \
//!     [timeout-secs] [--json PATH] [--rows A,B,..] [--worker-sweep N,M,..] \
//!     [--sample N] [--seed S] [--no-flat]
//! ```
//!
//! The committed `BENCH_baseline.json` is a `--json` snapshot; see
//! `promising_bench::runtimes` for what each option does.

use promising_bench::cli::{Cli, Opt};
use promising_bench::runtimes::run_time_table;

/// The Table 2 rows (paper parameterisations, trimmed to what completes
/// in reasonable wall-clock on the Promising side).
const ROWS: &[&str] = &[
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

fn is_spec(spec: &str) -> bool {
    promising_workloads::by_spec(spec).is_some()
}

const CLI: Cli = Cli {
    bin: "table2",
    opts: &[
        Opt::Timeout(60),
        Opt::Json,
        Opt::Rows(is_spec),
        Opt::WorkerSweep,
        Opt::Sample,
        Opt::Seed,
        Opt::Switch("--no-flat"),
    ],
};

fn main() {
    run_time_table(&CLI, "Table 2: exhaustive run times in seconds", ROWS);
}
