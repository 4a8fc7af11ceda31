//! Regenerate Table 3 (Appendix E) — the full parameter sweep of
//! Promising vs Flat, including the `(opt)` variants.
//!
//! ```text
//! cargo run --release -p promising-bench --bin table3 -- \
//!     [timeout-secs] [--json PATH] [--worker-sweep N,M,..] \
//!     [--sample N] [--seed S]
//! ```
//!
//! See `promising_bench::runtimes` for what each option does.

use promising_bench::cli::{Cli, Opt};
use promising_bench::runtimes::run_time_table;

/// The Table 3 grid: broader parameterisations per family.
const ROWS: &[&str] = &[
    "SLA-1",
    "SLA-2",
    "SLA-3",
    "SLA-4",
    "SLA-5",
    "SLA-6",
    "SLA-7",
    "SLC-1",
    "SLC-2",
    "SLC-3",
    "SLR-1",
    "SLR-2",
    "SLR-3",
    "PCS-1-1",
    "PCS-2-2",
    "PCS-3-3",
    "PCM-1-1-1",
    "PCM-2-2-2",
    "TL-1",
    "TL-2",
    "STC-100-010-000",
    "STC-100-010-010",
    "STC-110-011-000",
    "STC(opt)-100-010-000",
    "STC(opt)-100-010-010",
    "STR-100-010-000",
    "STR-100-010-010",
    "DQ-100-1-0",
    "DQ-110-1-0",
    "DQ-110-1-1",
    "DQ(opt)-100-1-0",
    "DQ(opt)-110-1-0",
    "QU-100-000-000",
    "QU-100-010-000",
    "QU(opt)-100-000-000",
];

const CLI: Cli = Cli {
    bin: "table3",
    opts: &[
        Opt::Timeout(120),
        Opt::Json,
        Opt::WorkerSweep,
        Opt::Sample,
        Opt::Seed,
    ],
};

fn main() {
    run_time_table(
        &CLI,
        "Table 3 (Appendix E): full run-time sweep in seconds",
        ROWS,
    );
}
