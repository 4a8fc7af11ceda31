//! Model configuration: target architecture, loop/certification bounds,
//! and the shared-location optimisation of §7.

use crate::ids::Loc;
use std::collections::BTreeSet;

/// The architecture flag `a ∈ Arch ::= ARM | RISC-V` (Fig. 4).
///
/// The two architectures share all rules except the treatment of store
/// exclusives (§A.3): forwarding from exclusive writes, the success
/// register's view, and the pre-view contribution of the exclusives bank.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub enum Arch {
    /// ARMv8 (AArch64).
    Arm,
    /// RISC-V (RVWMO).
    RiscV,
}

impl Arch {
    /// Short lowercase name ("arm" / "riscv").
    pub fn name(self) -> &'static str {
        match self {
            Arch::Arm => "arm",
            Arch::RiscV => "riscv",
        }
    }
}

/// Which locations are shared between threads (§7's optimisation): accesses
/// to non-shared locations are treated as register reads/writes, removing
/// them from the interleaving search.
#[derive(Clone, PartialEq, Eq, Hash, Debug, Default)]
pub enum SharedLocs {
    /// Every location is potentially shared (the default, always sound).
    #[default]
    All,
    /// Only the listed locations are shared; the rest are thread-private.
    /// The *user* asserts privacy, exactly as in the paper's tool.
    Only(BTreeSet<Loc>),
}

impl SharedLocs {
    /// Is `loc` shared under this declaration?
    pub fn is_shared(&self, loc: Loc) -> bool {
        match self {
            SharedLocs::All => true,
            SharedLocs::Only(set) => set.contains(&loc),
        }
    }
}

/// Executable-model configuration.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub struct Config {
    /// Target architecture.
    pub arch: Arch,
    /// Maximum number of taken loop iterations per thread ("the executable
    /// model bounds loops", §3). A thread that would exceed the bound is
    /// marked stuck and its trace discarded from outcome enumeration.
    pub loop_fuel: u32,
    /// Maximum number of sequential steps explored per certification run
    /// (the *fuel* argument of §B's algorithm).
    pub cert_depth: u32,
    /// Shared-location declaration (§7 optimisation).
    pub shared: SharedLocs,
    /// Worker threads used by the exhaustive exploration engines. `1`
    /// (the default, overridable via the `PROMISING_WORKERS` environment
    /// variable) runs the serial fast path; higher values run that many
    /// workers over one locked pool of per-worker deques (idle workers
    /// steal the oldest queued state from a sibling) and a sharded
    /// visited set; `0` means "use all available cores". The outcome set
    /// is identical for every value.
    pub workers: usize,
    /// Paranoid state deduplication: store the exact state next to its
    /// 128-bit fingerprint in every visited set and memo table, and
    /// panic if two distinct states ever collide. Slower; intended for
    /// tests validating the fingerprint layer.
    pub paranoid: bool,
    /// Every search reduction, as one switch. On (the default), the
    /// exhaustive engines prune redundant interleavings through each
    /// model's `reduce` hook (per-state persistent sets), the flat model
    /// merges states that differ only in the interleaving order of
    /// appends to different locations, certification memo keys are
    /// restricted to the certifying thread's access scope, and the
    /// promise-first search expands one promise-mode state per orbit of
    /// renamings of identical threads (thread symmetry), closing the
    /// outcomes under those renamings. Off is the unreduced reference:
    /// no `reduce`, raw flat states, full certification keys, no
    /// symmetry. Outcome sets are identical either way. The
    /// interleaving and memo-key reductions read the per-statement
    /// [`crate::stmt::MayAccess`] sets.
    pub por: bool,
}

/// The default exploration worker count: `1` (the serial fast path)
/// unless the `PROMISING_WORKERS` environment variable overrides it.
/// The override exists so CI can run test suites with a forced
/// multi-worker frontier (the locked work pool and the sharded visited
/// set) without threading a flag through every call site; explicit
/// [`Config::with_workers`] calls still win.
fn default_workers() -> usize {
    static DEFAULT: std::sync::OnceLock<usize> = std::sync::OnceLock::new();
    *DEFAULT.get_or_init(|| {
        std::env::var("PROMISING_WORKERS")
            .ok()
            .and_then(|v| v.trim().parse().ok())
            .unwrap_or(1)
    })
}

impl Config {
    /// Default ARM configuration.
    pub fn arm() -> Config {
        Config {
            arch: Arch::Arm,
            loop_fuel: 64,
            cert_depth: 10_000,
            shared: SharedLocs::All,
            workers: default_workers(),
            paranoid: false,
            por: true,
        }
    }

    /// Default RISC-V configuration.
    pub fn riscv() -> Config {
        Config {
            arch: Arch::RiscV,
            ..Config::arm()
        }
    }

    /// Configuration for the given architecture with defaults.
    pub fn for_arch(arch: Arch) -> Config {
        match arch {
            Arch::Arm => Config::arm(),
            Arch::RiscV => Config::riscv(),
        }
    }

    /// Set the loop bound.
    #[must_use]
    pub fn with_loop_fuel(mut self, fuel: u32) -> Config {
        self.loop_fuel = fuel;
        self
    }

    /// Set the certification step bound.
    #[must_use]
    pub fn with_cert_depth(mut self, depth: u32) -> Config {
        self.cert_depth = depth;
        self
    }

    /// Declare the set of shared locations (everything else thread-private).
    #[must_use]
    pub fn with_shared_locs(mut self, locs: impl IntoIterator<Item = Loc>) -> Config {
        self.shared = SharedLocs::Only(locs.into_iter().collect());
        self
    }

    /// Set the exploration worker count (`0` = use all available cores).
    #[must_use]
    pub fn with_workers(mut self, workers: usize) -> Config {
        self.workers = workers;
        self
    }

    /// Enable paranoid (collision-detecting) state deduplication.
    #[must_use]
    pub fn with_paranoid(mut self, paranoid: bool) -> Config {
        self.paranoid = paranoid;
        self
    }

    /// Enable or disable every search reduction (on by default; off is
    /// the unreduced reference — see [`por`](Config::por)).
    #[must_use]
    pub fn with_por(mut self, por: bool) -> Config {
        self.por = por;
        self
    }
}

impl Default for Config {
    fn default() -> Config {
        Config::arm()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_locations_shared_by_default() {
        let c = Config::arm();
        assert!(c.shared.is_shared(Loc(0)));
        assert!(c.shared.is_shared(Loc(999)));
    }

    #[test]
    fn only_listed_locations_are_shared() {
        let c = Config::arm().with_shared_locs([Loc(1), Loc(2)]);
        assert!(c.shared.is_shared(Loc(1)));
        assert!(!c.shared.is_shared(Loc(3)));
    }

    #[test]
    fn arch_names() {
        assert_eq!(Arch::Arm.name(), "arm");
        assert_eq!(Arch::RiscV.name(), "riscv");
    }
}
