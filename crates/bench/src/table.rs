//! Minimal fixed-width table rendering, timing and `--worker-sweep`
//! helpers for the experiment binaries.

use promising_explorer::Exploration;
use std::fmt::Write as _;
use std::time::{Duration, Instant};

/// A simple left-aligned text table.
#[derive(Debug, Default)]
pub struct Table {
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Table with the given column headers.
    pub fn new(header: &[&str]) -> Table {
        Table {
            header: header.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Append a row (must match the header arity).
    pub fn row(&mut self, cells: &[String]) {
        assert_eq!(cells.len(), self.header.len(), "row arity mismatch");
        self.rows.push(cells.to_vec());
    }

    /// Render with aligned columns.
    pub fn render(&self) -> String {
        let ncols = self.header.len();
        let mut widths: Vec<usize> = self.header.iter().map(String::len).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.len());
            }
        }
        let mut out = String::new();
        let line = |out: &mut String, cells: &[String]| {
            for (i, cell) in cells.iter().enumerate() {
                let _ = write!(out, "{:<width$}", cell, width = widths[i] + 2);
            }
            out.push('\n');
        };
        line(&mut out, &self.header);
        let _ = writeln!(
            out,
            "{}",
            "-".repeat(widths.iter().map(|w| w + 2).sum::<usize>().min(120))
        );
        for row in &self.rows {
            line(&mut out, row);
        }
        let _ = writeln!(out, "({} columns, {} rows)", ncols, self.rows.len());
        out
    }
}

/// Human format for durations: seconds with two decimals, or "ooT".
pub fn fmt_duration(d: Option<Duration>) -> String {
    match d {
        Some(d) => format!("{:.2}", d.as_secs_f64()),
        None => "ooT".to_string(),
    }
}

/// JSON format for an optional seconds cell: six decimals, or `null`
/// for a timeout ("ooT") — shared by every `--json` snapshot writer so
/// no binary ever emits a bare `NaN`/`inf` token.
pub fn json_secs(c: Option<f64>) -> String {
    match c {
        Some(secs) if secs.is_finite() => format!("{secs:.6}"),
        _ => "null".to_string(),
    }
}

/// Logical cores on this host. Every `--json` snapshot records this as
/// `"cores"`: timing cells — above all the per-worker-count ones — are
/// meaningless without knowing how much parallelism the host had.
pub fn host_cpus() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The fastest of `samples` timed runs of `routine`: the timer of the
/// `cargo bench` targets. Their routines are whole explorations, far
/// above timer resolution, so each sample is a single run.
pub fn best_of<T>(samples: usize, mut routine: impl FnMut() -> T) -> Duration {
    (0..samples.max(1))
        .map(|_| {
            let start = Instant::now();
            std::hint::black_box(routine());
            start.elapsed()
        })
        .min()
        .unwrap_or_default()
}

/// How a snapshot's per-worker-count columns must be read on a host
/// with `cores` logical CPUs: real `"speedup"` curves need more than
/// one core; on a 1-CPU host the sweep only measures the scheduling
/// overhead of the work-stealing frontier, and labelling those numbers
/// "speedup" would be a lie.
pub fn worker_mode(cores: usize) -> &'static str {
    if cores > 1 {
        "speedup"
    } else {
        "overhead-only"
    }
}

/// One measured cell of a `--worker-sweep` row: the same search run
/// with `workers` frontier workers. `secs` is `None` for a cell that
/// hit its budget ("ooT").
#[derive(Clone, Copy, Debug)]
pub struct SweepCell {
    /// Worker count the cell ran with.
    pub workers: usize,
    /// Wall-clock seconds, `None` = over the timeout.
    pub secs: Option<f64>,
    /// States obtained by cross-worker steals (0 when `workers` == 1).
    pub steals: u64,
}

impl SweepCell {
    /// Speedup of this cell relative to the sweep's 1-worker cell —
    /// only defined when the host can actually run workers in parallel
    /// (`cores > 1`) and both cells completed. On a single-core host
    /// this returns `None` no matter what the clock says: the ratio
    /// would measure scheduler overhead, not scaling.
    pub fn speedup(&self, base_secs: Option<f64>, cores: usize) -> Option<f64> {
        if cores <= 1 {
            return None;
        }
        match (base_secs, self.secs) {
            (Some(b), Some(s)) => Some(b / s.max(1e-9)),
            _ => None,
        }
    }
}

/// Wall seconds of a search, `None` if it hit its budget ("ooT").
pub fn completed_secs(e: &Exploration) -> Option<f64> {
    (!e.stats.truncated()).then_some(e.stats.wall_time.as_secs_f64())
}

/// Re-run one search of row `spec` at each `--worker-sweep` count
/// (`side` names the search in the failure message). Every completed
/// cell's outcome digest must be byte-identical to the serial cell
/// `base`'s.
pub fn worker_sweep(
    spec: &str,
    side: &str,
    counts: &[usize],
    base: &Exploration,
    run: impl Fn(usize) -> Exploration,
) -> Vec<SweepCell> {
    counts
        .iter()
        .map(|&n| {
            let e = run(n);
            if !e.stats.truncated() && !base.stats.truncated() {
                assert_eq!(
                    e.outcomes_digest(),
                    base.outcomes_digest(),
                    "{spec}: {n}-worker {side} outcome digest must be byte-identical to serial"
                );
            }
            SweepCell {
                workers: n,
                secs: completed_secs(&e),
                steals: e.stats.steals,
            }
        })
        .collect()
}

/// Render the `"<key>": [..]` JSON fragment of one row's sweep, e.g.
/// `"worker_sweep"` (leading `, ` included; empty string for an empty
/// sweep). Each cell carries a `"mode"`-free local view — the
/// snapshot-level `"cores"` + `"worker_mode"` pair says how to read it —
/// and a `"speedup"` key that is only present when
/// [`SweepCell::speedup`] is defined.
pub fn sweep_json(key: &str, cells: &[SweepCell], cores: usize) -> String {
    if cells.is_empty() {
        return String::new();
    }
    let base = cells.iter().find(|c| c.workers == 1).and_then(|c| c.secs);
    let mut out = format!(", \"{key}\": [");
    for (i, c) in cells.iter().enumerate() {
        let _ = write!(
            out,
            "{}{{\"workers\": {}, \"secs\": {}, \"steals\": {}",
            if i > 0 { ", " } else { "" },
            c.workers,
            json_secs(c.secs),
            c.steals,
        );
        if let Some(s) = c.speedup(base, cores) {
            let _ = write!(out, ", \"speedup\": {s:.2}");
        }
        out.push('}');
    }
    out.push(']');
    out
}

/// Text-table rendering of one sweep cell: the timing, annotated with
/// the speedup ratio only when it is defined for this host.
pub fn sweep_cell_text(cell: &SweepCell, base_secs: Option<f64>, cores: usize) -> String {
    let t = fmt_duration(cell.secs.map(Duration::from_secs_f64));
    match cell.speedup(base_secs, cores) {
        Some(s) => format!("{t} ({s:.1}x)"),
        None => t,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_aligned_columns() {
        let mut t = Table::new(&["Test", "Time"]);
        t.row(&["SLA-1".into(), "0.27".into()]);
        t.row(&["longer-name".into(), "9108.53".into()]);
        let s = t.render();
        assert!(s.contains("SLA-1"));
        assert!(s.contains("longer-name"));
        assert!(s.lines().count() >= 4);
    }

    #[test]
    fn oot_formatting() {
        assert_eq!(fmt_duration(None), "ooT");
        assert_eq!(fmt_duration(Some(Duration::from_millis(1500))), "1.50");
    }

    #[test]
    fn best_of_runs_every_sample() {
        let mut runs = 0;
        best_of(3, || runs += 1);
        assert_eq!(runs, 3);
    }

    #[test]
    fn worker_mode_refuses_speedup_on_one_core() {
        assert_eq!(worker_mode(1), "overhead-only");
        assert_eq!(worker_mode(2), "speedup");
        assert_eq!(worker_mode(64), "speedup");
    }

    #[test]
    fn speedup_is_undefined_on_a_single_core_host() {
        let cell = SweepCell {
            workers: 4,
            secs: Some(0.5),
            steals: 12,
        };
        assert_eq!(cell.speedup(Some(1.0), 1), None, "1-CPU host: no speedup");
        assert_eq!(cell.speedup(Some(1.0), 8), Some(2.0));
        assert_eq!(cell.speedup(None, 8), None, "ooT baseline: no ratio");
    }

    #[test]
    fn sweep_json_marks_speedup_only_when_defined() {
        let cells = [
            SweepCell {
                workers: 1,
                secs: Some(1.0),
                steals: 0,
            },
            SweepCell {
                workers: 2,
                secs: Some(0.5),
                steals: 7,
            },
            SweepCell {
                workers: 4,
                secs: None,
                steals: 0,
            },
        ];
        let multi = sweep_json("worker_sweep", &cells, 8);
        assert!(multi.starts_with(", \"worker_sweep\": ["), "{multi}");
        assert!(
            multi.contains("\"workers\": 2, \"secs\": 0.500000, \"steals\": 7, \"speedup\": 2.00")
        );
        assert!(multi.contains("\"workers\": 4, \"secs\": null, \"steals\": 0}"));
        let single = sweep_json("flat_worker_sweep", &cells, 1);
        assert!(single.starts_with(", \"flat_worker_sweep\": ["), "{single}");
        assert!(
            !single.contains("speedup"),
            "a 1-core host must never claim a speedup: {single}"
        );
        let empty = sweep_json("worker_sweep", &[], 8);
        assert_eq!(empty, "", "empty sweep emits nothing");
    }

    #[test]
    fn sweep_cell_text_annotates_ratio() {
        let cell = SweepCell {
            workers: 2,
            secs: Some(0.5),
            steals: 0,
        };
        assert_eq!(sweep_cell_text(&cell, Some(1.0), 8), "0.50 (2.0x)");
        assert_eq!(sweep_cell_text(&cell, Some(1.0), 1), "0.50");
        let oot = SweepCell {
            workers: 2,
            secs: None,
            steals: 0,
        };
        assert_eq!(sweep_cell_text(&oot, Some(1.0), 8), "ooT");
    }
}
