//! Ablation: the §7 shared-location optimisation — the same workload
//! explored by promise-first with only the truly-shared locations
//! declared vs with all locations shared. Prints the best of
//! [`SAMPLES`] runs per cell.
//!
//! `cargo bench -p promising-bench --bench ablation_shared_locs`

use promising_bench::best_of;
use promising_core::{Arch, Machine};
use promising_explorer::explore_promise_first;
use promising_workloads::{by_spec, init_for};

const SAMPLES: usize = 5;

fn main() {
    for spec in ["SLA-2", "STC-100-010-000", "DQ-100-1-0"] {
        let w = by_spec(spec).expect("spec parses");
        let init = init_for(&w);
        for (label, config) in [
            ("shared-locs-declared", w.config(Arch::Arm)),
            ("all-shared", w.config_unshared(Arch::Arm)),
        ] {
            let m = Machine::with_init(w.program.clone(), config, init.clone());
            let best = best_of(SAMPLES, || explore_promise_first(&m));
            println!(
                "{:<40} {:>10.3} ms",
                format!("{spec}/{label}"),
                best.as_secs_f64() * 1e3
            );
        }
    }
}
