//! Ablation: single-instruction RMWs (ARMv8.1 LSE / RISC-V AMOs) vs
//! their LL/SC exclusive-retry-loop desugaring — the same workload, same
//! outcome set, explored with one-transition atomic updates vs
//! fuel-bounded loadx/storex loops. The gap is the retry-loop state-space
//! blow-up that first-class RMWs collapse. Prints the best of
//! [`SAMPLES`] runs per cell.
//!
//! `cargo bench -p promising-bench --bench ablation_rmw`

use promising_bench::best_of;
use promising_core::{Arch, Machine};
use promising_explorer::{explore_naive, explore_promise_first, CertMode, Exploration};
use promising_workloads::{by_spec, init_for};

/// Extra loop fuel handed to the desugared build: room for one retry per
/// executed RMW on top of the workload's own spin bounds.
const LLSC_EXTRA_FUEL: u32 = 2;

const SAMPLES: usize = 5;

fn bench(search: &str, specs: &[&str], explore: fn(&Machine) -> Exploration) {
    for spec in specs {
        let w = by_spec(spec).expect("spec parses");
        let l = w.desugared(LLSC_EXTRA_FUEL);
        let init = init_for(&w);
        for (label, build) in [("lse-rmw", &w), ("llsc-desugared", &l)] {
            let m =
                Machine::with_init(build.program.clone(), build.config(Arch::Arm), init.clone());
            let best = best_of(SAMPLES, || explore(&m));
            println!(
                "{:<45} {:>10.3} ms",
                format!("{spec}-{search}/{label}"),
                best.as_secs_f64() * 1e3
            );
        }
    }
}

fn main() {
    // promise-first: the production search. The desugared loops pay in
    // certification and phase-2 work rather than promise states.
    bench(
        "promise-first",
        &["SLA-2", "TL-1", "STC-100-010-000"],
        explore_promise_first,
    );
    // naive full interleaving: the raw machine-state-space comparison.
    bench("naive", &["SLA-1", "TL-1"], |m| {
        explore_naive(m, CertMode::Online)
    });
}
