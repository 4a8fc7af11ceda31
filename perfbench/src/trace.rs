//! The traced run's span tree and per-layer accumulators.
//!
//! Spans are recorded at the cell, search and hook boundaries, each with
//! its parent's id, kept in memory and written out when the run ends. A
//! span carries two durations: `wall`, elapsed time, and `busy`, the
//! worker time it accounts for. They differ only for a parallel search,
//! whose busy time is `workers × wall`; its children are the hooks
//! (summed over workers) and the frontier's idle time, so its self time
//! is the engine's own work. Self time is busy time minus the children's
//! busy time.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;

/// One recorded span. Ids are indices into [`Spans`] plus one; parent `0`
/// is the root.
#[derive(Clone, Debug)]
pub struct Span {
    /// The parent span's id (`0` for a cell).
    pub parent: usize,
    /// What the span covers: `cell:<label>`, `search:<model>`,
    /// `hook:<name>`, `frontier.idle`, `axiomatic`.
    pub name: String,
    /// Elapsed seconds.
    pub wall: f64,
    /// Worker seconds.
    pub busy: f64,
    /// Events aggregated into the span (hook calls, states searched).
    pub count: u64,
}

/// The in-memory span store.
#[derive(Default)]
pub struct Spans(Vec<Span>);

impl Spans {
    /// Record a span and return its id.
    pub fn push(&mut self, parent: usize, name: String, wall: f64, busy: f64, count: u64) -> usize {
        self.0.push(Span {
            parent,
            name,
            wall,
            busy,
            count,
        });
        self.0.len()
    }

    /// Set the durations of span `id` once it has ended.
    pub fn close(&mut self, id: usize, wall: f64, busy: f64) {
        let s = &mut self.0[id - 1];
        s.wall = wall;
        s.busy = busy;
    }

    /// Self time of every span, in id order: busy time minus the busy
    /// time of its children.
    pub fn self_times(&self) -> Vec<f64> {
        let mut own: Vec<f64> = self.0.iter().map(|s| s.busy).collect();
        for s in &self.0 {
            if s.parent > 0 {
                own[s.parent - 1] -= s.busy;
            }
        }
        own
    }

    /// Write the spans as tab-separated lines:
    /// `id parent name wall_s busy_s self_s count`.
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = String::from("id\tparent\tname\twall_s\tbusy_s\tself_s\tcount\n");
        for (i, (s, own)) in self.0.iter().zip(self.self_times()).enumerate() {
            let _ = writeln!(
                out,
                "{}\t{}\t{}\t{:.9}\t{:.9}\t{:.9}\t{}",
                i + 1,
                s.parent,
                s.name,
                s.wall,
                s.busy,
                own,
                s.count
            );
        }
        std::fs::write(path, out)
    }
}

/// Named per-layer sums over the traced passes, plus the per-pass
/// axiomatic cell times behind `axiomatic.slowest10_s`.
#[derive(Default)]
pub struct Layers {
    sums: BTreeMap<&'static str, f64>,
    /// Every traced pass's axiomatic cell times.
    pub ax_cells: Vec<Vec<f64>>,
    /// Hook seconds per `model.hook`, for the layer-share report.
    pub hooks: BTreeMap<String, f64>,
}

impl Layers {
    /// Add `v` to the sum named `name`.
    pub fn add(&mut self, name: &'static str, v: f64) {
        *self.sums.entry(name).or_default() += v;
    }

    /// The sum named `name` (`0` if never added to).
    pub fn get(&self, name: &str) -> f64 {
        self.sums.get(name).copied().unwrap_or(0.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children_busy_time() {
        let mut spans = Spans::default();
        let cell = spans.push(0, "cell:x".into(), 0.0, 0.0, 1);
        let search = spans.push(cell, "search:flat".into(), 0.8, 1.6, 10);
        spans.push(search, "hook:apply".into(), 1.0, 1.0, 5);
        spans.push(search, "frontier.idle".into(), 0.2, 0.2, 0);
        spans.close(cell, 1.0, 1.0 - 0.8 + 1.6);
        let own = spans.self_times();
        assert!(
            (own[0] - 0.2).abs() < 1e-12,
            "cell self = wall - search wall"
        );
        assert!(
            (own[1] - 0.4).abs() < 1e-12,
            "search self = busy - hooks - idle"
        );
        assert_eq!(own[2], 1.0);
    }
}
