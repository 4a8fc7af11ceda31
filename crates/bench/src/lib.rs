//! Benchmark-harness support shared by the table-regenerating binaries:
//! argument parsing ([`cli`]), the litmus corpus selection ([`corpus`]),
//! the Table-2/3 runner ([`runtimes`]), table formatting, timing and
//! worker-sweep helpers ([`table`]), the batch campaign runner
//! ([`batch`]), and the seed's promise-first search kept as a test
//! reference ([`legacy`]).

#![warn(missing_docs)]

pub mod batch;
pub mod cli;
pub mod corpus;
pub mod legacy;
pub mod runtimes;
pub mod table;

pub use batch::{
    cache_key, run_campaign, verdict_db, write_verdict_db, BatchConfig, CampaignReport,
    ResultCache, Tier, TierBudgets, VerdictRecord,
};
pub use legacy::explore_promise_first_legacy;
pub use table::{
    best_of, completed_secs, fmt_duration, host_cpus, json_secs, sweep_cell_text, sweep_json,
    worker_mode, worker_sweep, SweepCell, Table,
};
