//! Exploration statistics, reported by every search strategy and consumed
//! by the benchmark tables.

use std::fmt;
use std::time::Duration;

/// Why a search stopped — the structured replacement for the old boolean
/// `truncated` flag. Every exploration ends with exactly one of these;
/// anything other than [`StopReason::Completed`] means the outcome set
/// is a lower bound (the paper's "ooT" cells).
///
/// The variants are ordered by *severity*: when per-worker results merge
/// ([`Stats::absorb`]) or a search trips several bounds, the most severe
/// reason wins, so a panic is never masked by a concurrent deadline and
/// a resource trip is never masked by a clean sibling worker.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug, Default)]
pub enum StopReason {
    /// The search ran to exhaustion: the outcome set is complete.
    #[default]
    Completed,
    /// The wall-clock deadline of the [`crate::SearchBudget`] fired
    /// (including inside certification / phase-2 sub-searches).
    DeadlineExceeded,
    /// The visited-state budget (`max_states`) was exhausted.
    StateBudget,
    /// The approximate memory budget (`max_bytes`) was exhausted: the
    /// resident visited-set + frontier estimate crossed the cap.
    MemoryBudget,
    /// The exploration panicked (a model bug); the search was cancelled
    /// and the panic payload captured by the caller's isolation layer.
    Panicked,
}

impl StopReason {
    /// Every variant, in severity order — drives the serialisation
    /// round-trip tests.
    pub const ALL: [StopReason; 5] = [
        StopReason::Completed,
        StopReason::DeadlineExceeded,
        StopReason::StateBudget,
        StopReason::MemoryBudget,
        StopReason::Panicked,
    ];

    /// Stable machine-readable name, used by the verdict database.
    pub fn name(self) -> &'static str {
        match self {
            StopReason::Completed => "completed",
            StopReason::DeadlineExceeded => "deadline",
            StopReason::StateBudget => "state-budget",
            StopReason::MemoryBudget => "memory-budget",
            StopReason::Panicked => "panicked",
        }
    }

    /// Parse a [`StopReason::name`] back (the verdict-database reader).
    pub fn parse(s: &str) -> Option<StopReason> {
        StopReason::ALL.into_iter().find(|r| r.name() == s)
    }

    /// Whether the search stopped early (any reason but `Completed`).
    pub fn truncated(self) -> bool {
        self != StopReason::Completed
    }
}

impl fmt::Display for StopReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Counters from one exploration (exhaustive or sampled).
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct Stats {
    /// Distinct states visited (after deduplication). In sampling runs,
    /// total walk steps (walks do not deduplicate). Promise-first with
    /// `Config::por` on counts one representative per orbit of
    /// identical threads (see `PromiseFirstModel`).
    pub states: u64,
    /// Transitions applied (including revisits). Promise-first also
    /// counts its phase-2 steps, but none below a dead promise
    /// ([`promising_core::has_dead_promise`]): phase 2 stops there.
    pub transitions: u64,
    /// `find_and_certify` invocations.
    pub certifications: u64,
    /// Number of final memories enumerated (promise-first only). With
    /// `Config::por` on, only those of orbit representatives: a final
    /// memory reached again under renamed identical threads is not
    /// counted again.
    pub final_memories: u64,
    /// Traces that hit the loop bound (incomplete, discarded). Phase 2
    /// of promise-first stops a trace at a dead promise
    /// ([`promising_core::has_dead_promise`]), so it never counts one
    /// that would have hit the bound after that.
    pub bound_hits: u64,
    /// States with unfulfilled promises and no enabled transition (the ARM
    /// store-exclusive deadlocks of §4.3).
    pub deadlocks: u64,
    /// Random-walk traces completed (sampling runs only).
    pub traces: u64,
    /// Transitions pruned by partial-order reduction
    /// ([`promising_core::Config::por`]): redundant interleavings the
    /// search proved it need not take.
    pub por_pruned: u64,
    /// Certification-memo lookups answered from the table
    /// ([`promising_core::CertMemo`]).
    pub cert_hits: u64,
    /// Certification-memo lookups that had to recompute.
    pub cert_misses: u64,
    /// Restricted-key memo hits served in a *different* full-memory
    /// context than the entry was computed in — certificates that
    /// survived sibling appends to out-of-scope locations (the
    /// incremental-recertification win; zero with `Config::por` off).
    pub cert_survived: u64,
    /// States obtained by stealing from a sibling worker's deque (the
    /// work-stealing frontier; zero on the serial path). A healthy
    /// parallel run steals rarely relative to `states` — local pops
    /// dominate — so this is the load-balance diagnostic, not a cost.
    pub steals: u64,
    /// Summed time workers spent expanding states (excludes time parked
    /// waiting for work), across all workers: total compute spent, not
    /// elapsed time. ≈ `wall_time` on a serial search; up to
    /// `workers × wall_time` on a saturated pool.
    pub cpu_time: Duration,
    /// Wall-clock time of the whole search, set once by the driver.
    /// [`Stats::absorb`] keeps the maximum rather than summing, so
    /// merging per-worker stats never inflates elapsed time.
    pub wall_time: Duration,
    /// Why the search stopped. [`StopReason::Completed`] unless a budget
    /// bound fired or the exploration panicked; anything else means the
    /// outcome set is a lower bound (the paper's "ooT" cells).
    pub stop: StopReason,
}

impl Stats {
    /// Whether the search was cut short (any [`StopReason`] but
    /// `Completed`) — the old boolean `truncated` flag.
    pub fn truncated(&self) -> bool {
        self.stop.truncated()
    }

    /// Record a stop reason, keeping the most severe one seen so far
    /// (severity is the [`StopReason`] ordering — a panic is never
    /// downgraded to a mere budget trip).
    pub fn note_stop(&mut self, reason: StopReason) {
        self.stop = self.stop.max(reason);
    }

    /// Merge counters from a sub-search: counters and `cpu_time` add up,
    /// `wall_time` takes the maximum (sub-searches overlap in time).
    pub fn absorb(&mut self, other: &Stats) {
        self.states += other.states;
        self.transitions += other.transitions;
        self.certifications += other.certifications;
        self.final_memories += other.final_memories;
        self.bound_hits += other.bound_hits;
        self.deadlocks += other.deadlocks;
        self.traces += other.traces;
        self.por_pruned += other.por_pruned;
        self.cert_hits += other.cert_hits;
        self.cert_misses += other.cert_misses;
        self.cert_survived += other.cert_survived;
        self.steals += other.steals;
        self.cpu_time += other.cpu_time;
        self.wall_time = self.wall_time.max(other.wall_time);
        self.stop = self.stop.max(other.stop);
    }
}

impl fmt::Display for Stats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} states, {} transitions, {} certifications, {} final memories, {} bound hits, {} deadlocks, {:.3}s wall ({:.3}s cpu)",
            self.states,
            self.transitions,
            self.certifications,
            self.final_memories,
            self.bound_hits,
            self.deadlocks,
            self.wall_time.as_secs_f64(),
            self.cpu_time.as_secs_f64()
        )?;
        if self.traces > 0 {
            write!(f, ", {} traces", self.traces)?;
        }
        if self.por_pruned > 0 {
            write!(f, ", {} POR-pruned", self.por_pruned)?;
        }
        if self.cert_hits > 0 || self.cert_misses > 0 {
            write!(
                f,
                ", cert-memo {}/{} hits ({} survived)",
                self.cert_hits,
                self.cert_hits + self.cert_misses,
                self.cert_survived
            )?;
        }
        if self.steals > 0 {
            write!(f, ", {} steals", self.steals)?;
        }
        if self.stop.truncated() {
            write!(f, ", stopped: {}", self.stop)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn absorb_adds_counters() {
        let mut a = Stats {
            states: 1,
            transitions: 2,
            ..Stats::default()
        };
        let b = Stats {
            states: 10,
            deadlocks: 1,
            cert_hits: 3,
            cert_misses: 2,
            cert_survived: 1,
            steals: 5,
            ..Stats::default()
        };
        a.absorb(&b);
        assert_eq!(a.states, 11);
        assert_eq!(a.transitions, 2);
        assert_eq!(a.deadlocks, 1);
        assert_eq!(a.steals, 5);
        a.absorb(&b);
        assert_eq!((a.cert_hits, a.cert_misses, a.cert_survived), (6, 4, 2));
        assert_eq!(a.steals, 10, "steal counts sum across workers");
    }

    #[test]
    fn absorb_sums_cpu_but_maxes_wall() {
        // The pre-split `duration` field summed per-worker wall clocks,
        // inflating reported elapsed time by ~workers×. The split keeps
        // the sum (cpu_time) and the true elapsed time (wall_time) apart.
        let mut a = Stats {
            cpu_time: Duration::from_secs(2),
            wall_time: Duration::from_secs(2),
            ..Stats::default()
        };
        let b = Stats {
            cpu_time: Duration::from_secs(3),
            wall_time: Duration::from_secs(1),
            ..Stats::default()
        };
        a.absorb(&b);
        assert_eq!(a.cpu_time, Duration::from_secs(5));
        assert_eq!(a.wall_time, Duration::from_secs(2));
    }

    #[test]
    fn absorb_keeps_most_severe_stop_reason() {
        let mut a = Stats {
            stop: StopReason::DeadlineExceeded,
            ..Stats::default()
        };
        a.absorb(&Stats::default());
        assert_eq!(a.stop, StopReason::DeadlineExceeded, "not masked by clean");
        a.absorb(&Stats {
            stop: StopReason::Panicked,
            ..Stats::default()
        });
        assert_eq!(a.stop, StopReason::Panicked);
        a.note_stop(StopReason::StateBudget);
        assert_eq!(a.stop, StopReason::Panicked, "never downgraded");
        assert!(a.truncated());
    }

    #[test]
    fn stop_reason_names_round_trip() {
        for r in StopReason::ALL {
            assert_eq!(StopReason::parse(r.name()), Some(r));
            assert_eq!(r.to_string(), r.name());
        }
        assert_eq!(StopReason::parse("bogus"), None);
        assert!(!StopReason::Completed.truncated());
        assert!(StopReason::MemoryBudget.truncated());
    }
}
