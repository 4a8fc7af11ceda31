//! Fault-tolerant batch litmus campaigns: the orchestration layer behind
//! the `litmus_batch` binary (the agreement sweep at campaign scale).
//!
//! A *campaign* runs a corpus of litmus tests under a set of models with
//! per-test budgets, and is built to survive the failure modes that kill
//! one-shot sweeps:
//!
//! * **Panic isolation** — every per-test ladder runs inside
//!   `catch_unwind`; a model bug becomes a [`StopReason::Panicked`]
//!   verdict for that one test, never a dead campaign.
//! * **Degradation ladder** — tests that outrun their
//!   [`SearchBudget`] are retried with escalated bounds
//!   ([`SearchBudget::scaled`]) and finally degraded to seeded sampling
//!   ([`Tier::Sampled`]); every verdict is tagged with the [`Tier`] and
//!   [`StopReason`] that produced it, so downstream consumers know
//!   exactly how much to trust it.
//! * **Crash-safe result cache** — verdicts are keyed by
//!   `(machine fingerprint, condition, budgets, model)` and persisted
//!   through an atomic temp-file-and-rename protocol after every
//!   completed test, so a killed campaign resumes where it stopped and
//!   re-runs are incremental.
//! * **Deterministic verdict database** — the canonical JSON emitted by
//!   [`write_verdict_db`] contains no timings and is sorted by
//!   `(test, arch, model)`: an interrupted-then-resumed campaign
//!   produces a byte-identical database to an uninterrupted one
//!   (given deterministic budgets, i.e. state/byte bounds rather than
//!   wall-clock deadlines).
//!
//! Infrastructure failures (panics, budget trips) are *recorded*, not
//! fatal: a campaign's exit status reflects conformance mismatches only.

use promising_core::{Arch, FpHasher, Machine};
use promising_litmus::{
    run_model_isolated, run_model_sampled_budgeted, LitmusTest, ModelKind, ModelRun, Quantifier,
    RunError, SearchBudget, StopReason, DEFAULT_FUEL,
};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::io::Write as _;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Mutex;

/// Which rung of the degradation ladder produced a verdict.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Debug)]
pub enum Tier {
    /// First attempt under the base [`SearchBudget`], run to completion.
    Exhaustive,
    /// The base budget tripped; the escalated
    /// ([`SearchBudget::scaled`]) retry completed.
    Retry,
    /// Both exhaustive attempts tripped; the verdict comes from seeded
    /// random-walk sampling and is one-sided evidence only.
    Sampled,
}

impl Tier {
    /// Every tier, in ladder order.
    pub const ALL: [Tier; 3] = [Tier::Exhaustive, Tier::Retry, Tier::Sampled];

    /// Stable machine-readable name, used by the verdict database.
    pub fn name(self) -> &'static str {
        match self {
            Tier::Exhaustive => "exhaustive",
            Tier::Retry => "retry",
            Tier::Sampled => "sampled",
        }
    }

    /// Parse a [`Tier::name`] back (the cache reader).
    pub fn parse(s: &str) -> Option<Tier> {
        Tier::ALL.into_iter().find(|t| t.name() == s)
    }
}

/// Budgets for the degradation ladder.
#[derive(Clone, Copy, Debug)]
pub struct TierBudgets {
    /// Budget for the first, exhaustive attempt.
    pub base: SearchBudget,
    /// Multiplier applied to `base` for the retry rung.
    pub retry_scale: u32,
    /// Random walks for the sampled rung.
    pub sample_traces: u64,
    /// Seed for the sampled rung (fixed seed ⇒ deterministic verdicts).
    pub sample_seed: u64,
}

impl Default for TierBudgets {
    fn default() -> TierBudgets {
        TierBudgets {
            base: SearchBudget::UNBOUNDED,
            retry_scale: 4,
            sample_traces: 256,
            sample_seed: 1,
        }
    }
}

/// Campaign configuration.
#[derive(Clone, Debug)]
pub struct BatchConfig {
    /// Models to run each test under.
    pub models: Vec<ModelKind>,
    /// Worker threads (tests run in parallel; each test's engine is the
    /// default serial configuration, keeping per-test results
    /// deterministic).
    pub jobs: usize,
    /// The degradation-ladder budgets.
    pub budgets: TierBudgets,
    /// Persistent result cache; `None` disables caching.
    pub cache_path: Option<PathBuf>,
    /// Fault-injection hook: panic inside the ladder of the named test
    /// (every model), exercising the isolation path end-to-end.
    pub inject_panic: Option<String>,
    /// Abort the campaign once this many states have been explored in
    /// total — a deterministic stand-in for `kill -9` mid-campaign, used
    /// by the resume tests and CI.
    pub campaign_state_budget: Option<u64>,
}

impl Default for BatchConfig {
    fn default() -> BatchConfig {
        BatchConfig {
            models: vec![ModelKind::Promising, ModelKind::Axiomatic, ModelKind::Flat],
            jobs: 1,
            budgets: TierBudgets::default(),
            cache_path: None,
            inject_panic: None,
            campaign_state_budget: None,
        }
    }
}

/// One `(test, model)` verdict, as stored in the cache and the verdict
/// database. Contains no timings: every field is deterministic for
/// deterministic budgets, which is what makes resumed campaigns
/// byte-identical to uninterrupted ones.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct VerdictRecord {
    /// Cache key: `(machine fingerprint, condition, budgets, model)`,
    /// hex-rendered.
    pub key: String,
    /// Test name.
    pub test: String,
    /// Architecture the test ran on.
    pub arch: Arch,
    /// Model that produced the verdict.
    pub model: ModelKind,
    /// Ladder rung that produced the verdict.
    pub tier: Tier,
    /// Why the producing search stopped.
    pub stop: StopReason,
    /// Whether the condition holds — `None` when the evidence is
    /// one-sided and inconclusive (e.g. a sampled run that found no
    /// `exists` witness).
    pub holds: Option<bool>,
    /// Whether `holds` matches the test's recorded expectation;
    /// `None` when inconclusive or no expectation is recorded.
    pub matches_expectation: Option<bool>,
    /// Outcomes found.
    pub outcomes: u64,
    /// States visited (walk steps for the sampled tier).
    pub states: u64,
}

impl VerdictRecord {
    /// Whether the verdict is *conclusive*: a completed exhaustive
    /// search, or one-sided sampling evidence that already decides the
    /// condition (an `exists` witness, or a `forall` counterexample).
    pub fn conclusive(&self) -> bool {
        self.holds.is_some()
    }

    /// Whether this record is a conformance failure (conclusive and
    /// contradicting the recorded expectation) — the only thing that
    /// fails a campaign.
    pub fn mismatch(&self) -> bool {
        self.matches_expectation == Some(false)
    }

    /// Serialise to the cache's tab-separated line format.
    fn to_line(&self) -> String {
        format!(
            "{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}",
            self.key,
            self.test,
            self.arch.name(),
            self.model.name(),
            self.tier.name(),
            self.stop.name(),
            opt_bool(self.holds),
            opt_bool(self.matches_expectation),
            self.outcomes,
            self.states,
        )
    }

    /// Parse a cache line; `None` for malformed lines (a torn write from
    /// a crash mid-flush — the entry is simply recomputed).
    fn from_line(line: &str) -> Option<VerdictRecord> {
        let mut f = line.split('\t');
        let key = f.next()?.to_string();
        let test = f.next()?.to_string();
        let arch = match f.next()? {
            "arm" => Arch::Arm,
            "riscv" => Arch::RiscV,
            _ => return None,
        };
        let model = ModelKind::parse(f.next()?)?;
        let tier = Tier::parse(f.next()?)?;
        let stop = StopReason::parse(f.next()?)?;
        let holds = parse_opt_bool(f.next()?)?;
        let matches_expectation = parse_opt_bool(f.next()?)?;
        let outcomes = f.next()?.parse().ok()?;
        let states = f.next()?.parse().ok()?;
        if f.next().is_some() {
            return None;
        }
        Some(VerdictRecord {
            key,
            test,
            arch,
            model,
            tier,
            stop,
            holds,
            matches_expectation,
            outcomes,
            states,
        })
    }

    /// Canonical JSON object for the verdict database: fixed field
    /// order, no timings.
    fn to_json(&self) -> String {
        format!(
            "{{\"test\": \"{}\", \"arch\": \"{}\", \"model\": \"{}\", \"tier\": \"{}\", \"stop\": \"{}\", \"holds\": {}, \"matches_expectation\": {}, \"outcomes\": {}, \"states\": {}, \"key\": \"{}\"}}",
            json_escape(&self.test),
            self.arch.name(),
            self.model.name(),
            self.tier.name(),
            self.stop.name(),
            json_opt_bool(self.holds),
            json_opt_bool(self.matches_expectation),
            self.outcomes,
            self.states,
            self.key,
        )
    }
}

fn opt_bool(b: Option<bool>) -> &'static str {
    match b {
        Some(true) => "true",
        Some(false) => "false",
        None => "-",
    }
}

fn parse_opt_bool(s: &str) -> Option<Option<bool>> {
    match s {
        "true" => Some(Some(true)),
        "false" => Some(Some(false)),
        "-" => Some(None),
        _ => None,
    }
}

fn json_opt_bool(b: Option<bool>) -> &'static str {
    match b {
        Some(true) => "true",
        Some(false) => "false",
        None => "null",
    }
}

fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c => out.push(c),
        }
    }
    out
}

/// The persistent, crash-safe result cache: an in-memory map flushed to
/// disk through a write-temp-then-rename protocol, so readers (and the
/// next run) see either the previous complete file or the new complete
/// file — never a torn one. Unknown or malformed lines are skipped on
/// load (their entries are recomputed), so a crash can lose at most the
/// work since the last flush, never corrupt earlier verdicts.
#[derive(Debug, Default)]
pub struct ResultCache {
    records: BTreeMap<String, VerdictRecord>,
}

impl ResultCache {
    /// An empty cache.
    pub fn new() -> ResultCache {
        ResultCache::default()
    }

    /// Load from `path`; a missing file is an empty cache (first run).
    ///
    /// # Errors
    ///
    /// Propagates I/O errors other than `NotFound`.
    pub fn load(path: &Path) -> std::io::Result<ResultCache> {
        let text = match std::fs::read_to_string(path) {
            Ok(t) => t,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => String::new(),
            Err(e) => return Err(e),
        };
        let mut cache = ResultCache::new();
        for line in text.lines() {
            if let Some(rec) = VerdictRecord::from_line(line) {
                cache.records.insert(rec.key.clone(), rec);
            }
        }
        Ok(cache)
    }

    /// Look up a verdict by cache key.
    pub fn get(&self, key: &str) -> Option<&VerdictRecord> {
        self.records.get(key)
    }

    /// Insert (or replace) a verdict.
    pub fn insert(&mut self, rec: VerdictRecord) {
        self.records.insert(rec.key.clone(), rec);
    }

    /// Number of cached verdicts.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// All records, in key order.
    pub fn records(&self) -> impl Iterator<Item = &VerdictRecord> {
        self.records.values()
    }

    /// Atomically persist to `path`: write everything to a sibling temp
    /// file, fsync, then rename over the target. A crash at any point
    /// leaves either the old file or the new one.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from the temp write or the rename.
    pub fn flush(&self, path: &Path) -> std::io::Result<()> {
        let tmp = path.with_extension("tmp");
        {
            let mut f = std::fs::File::create(&tmp)?;
            for rec in self.records.values() {
                writeln!(f, "{}", rec.to_line())?;
            }
            f.sync_all()?;
        }
        std::fs::rename(&tmp, path)
    }
}

/// The cache key for one `(test, model)` unit of work: the initial
/// machine's fingerprint (thread count, initial state, init memory)
/// extended with a hash of the architecture, program code, condition,
/// expectation, loop fuel, ladder budgets, and model. Any input that
/// can change the verdict changes the key, so stale entries can never
/// be confused for current ones; distinct test *names* whose inputs
/// coincide (e.g. `po` vs `rlx` fence variants compiling to identical
/// code) intentionally share a key and a verdict.
pub fn cache_key(test: &LitmusTest, model: ModelKind, budgets: &TierBudgets) -> String {
    let fuel = test.loop_fuel.unwrap_or(DEFAULT_FUEL);
    let config = promising_core::Config::for_arch(test.arch).with_loop_fuel(fuel);
    let machine_fp =
        Machine::with_init(test.program.clone(), config, test.init.clone()).fingerprint();
    let mut h = FpHasher::new();
    // The machine fingerprint covers only the *dynamic* state (thread
    // states, memory) — code never changes during a search, so it is
    // not fingerprinted there. For a cross-program cache key the code
    // and the architecture must be hashed explicitly.
    write_str(&mut h, test.arch.name());
    write_str(&mut h, &format!("{:?}", test.program));
    write_str(&mut h, &format!("{:?}", test.condition));
    write_str(&mut h, &format!("{:?}", test.expect));
    h.write_u32(fuel);
    h.write_u64(
        budgets
            .base
            .deadline
            .map_or(0, |d| d.as_millis().min(u128::from(u64::MAX)) as u64),
    );
    h.write_u64(budgets.base.max_states.unwrap_or(0));
    h.write_u64(budgets.base.max_bytes.unwrap_or(0));
    h.write_u32(budgets.retry_scale);
    h.write_u64(budgets.sample_traces);
    h.write_u64(budgets.sample_seed);
    write_str(&mut h, model.name());
    let mut out = String::new();
    let _ = write!(out, "{:032x}-{:032x}", machine_fp.0, h.finish128().0);
    out
}

fn write_str(h: &mut FpHasher, s: &str) {
    h.write_len(s.len());
    for chunk in s.as_bytes().chunks(8) {
        let mut word = [0u8; 8];
        word[..chunk.len()].copy_from_slice(chunk);
        h.write_u64(u64::from_le_bytes(word));
    }
}

/// Outcome of a campaign.
#[derive(Clone, Debug)]
pub struct CampaignReport {
    /// Every verdict of the campaign (cached and fresh), in corpus
    /// order.
    pub records: Vec<VerdictRecord>,
    /// Units of work answered from the cache.
    pub cache_hits: usize,
    /// Units of work actually executed.
    pub executed: usize,
    /// Whether the campaign stopped early (campaign state budget) with
    /// work remaining — rerun to resume from the cache.
    pub aborted: bool,
}

impl CampaignReport {
    /// Conformance mismatches — the only failures that should fail a
    /// campaign's exit status.
    pub fn mismatches(&self) -> impl Iterator<Item = &VerdictRecord> {
        self.records.iter().filter(|r| r.mismatch())
    }

    /// Verdicts produced below the exhaustive tier.
    pub fn degraded(&self) -> impl Iterator<Item = &VerdictRecord> {
        self.records.iter().filter(|r| r.tier != Tier::Exhaustive)
    }

    /// Verdicts recording a caught panic.
    pub fn panicked(&self) -> impl Iterator<Item = &VerdictRecord> {
        self.records
            .iter()
            .filter(|r| r.stop == StopReason::Panicked)
    }
}

/// Run the degradation ladder for one `(test, model)` unit of work.
/// Never panics: both the injection hook and any model bug unwind into
/// a [`StopReason::Panicked`] record.
fn run_ladder(test: &LitmusTest, model: ModelKind, cfg: &BatchConfig) -> VerdictRecord {
    let key = cache_key(test, model, &cfg.budgets);
    let attempt = catch_unwind(AssertUnwindSafe(|| {
        if cfg.inject_panic.as_deref() == Some(test.name.as_str()) {
            panic!("injected campaign fault for test {}", test.name);
        }
        ladder(test, model, &cfg.budgets)
    }));
    match attempt {
        Ok((tier, run)) => record_of(test, model, key, tier, run),
        Err(payload) => VerdictRecord {
            key,
            test: test.name.clone(),
            arch: test.arch,
            model,
            tier: Tier::Exhaustive,
            stop: StopReason::Panicked,
            holds: None,
            matches_expectation: None,
            outcomes: 0,
            states: 0,
        }
        .tap_payload(&promising_explorer::panic_message(payload.as_ref())),
    }
}

impl VerdictRecord {
    /// Hook for surfacing the panic payload in logs without storing it
    /// in the (deterministic) record: payload text can contain
    /// addresses or thread names that differ across runs.
    fn tap_payload(self, payload: &str) -> VerdictRecord {
        eprintln!(
            "[litmus_batch] {}/{}/{}: panicked: {payload}",
            self.test,
            self.arch.name(),
            self.model.name()
        );
        self
    }
}

/// The ladder proper: exhaustive → scaled retry → sampled.
fn ladder(
    test: &LitmusTest,
    model: ModelKind,
    budgets: &TierBudgets,
) -> (Tier, Result<ModelRun, RunError>) {
    let first = run_model_isolated(test, model, budgets.base);
    match &first {
        Ok(run) if !run.stop.truncated() => return (Tier::Exhaustive, first),
        Err(_) => return (Tier::Exhaustive, first),
        Ok(_) => {}
    }
    let retry = run_model_isolated(test, model, budgets.base.scaled(budgets.retry_scale));
    match &retry {
        Ok(run) if !run.stop.truncated() => return (Tier::Retry, retry),
        Err(_) => return (Tier::Retry, retry),
        Ok(_) => {}
    }
    // Sampling walks do not retain states, so the budget that tripped
    // the exhaustive rungs does not apply; the trace count bounds the
    // work, and the unbounded budget keeps the rung deterministic.
    (
        Tier::Sampled,
        run_model_sampled_budgeted(
            test,
            model,
            budgets.sample_traces,
            budgets.sample_seed,
            SearchBudget::UNBOUNDED,
        ),
    )
}

/// Build the verdict record for a ladder result.
fn record_of(
    test: &LitmusTest,
    model: ModelKind,
    key: String,
    tier: Tier,
    run: Result<ModelRun, RunError>,
) -> VerdictRecord {
    let mut rec = VerdictRecord {
        key,
        test: test.name.clone(),
        arch: test.arch,
        model,
        tier,
        stop: StopReason::Completed,
        holds: None,
        matches_expectation: None,
        outcomes: 0,
        states: 0,
    };
    match run {
        Ok(r) => {
            rec.stop = r.stop;
            rec.outcomes = r.outcomes.len() as u64;
            rec.states = r.states;
            let (holds, matches) = test.verdict(&r.outcomes);
            let conclusive = match tier {
                // A completed exhaustive search decides the condition.
                Tier::Exhaustive | Tier::Retry => !r.stop.truncated(),
                // Sampling (or a truncated search) is one-sided: it can
                // only *witness* — an `exists` that holds, or a `forall`
                // that fails, is decided; the opposite poles are not.
                Tier::Sampled => match test.condition.quantifier {
                    Quantifier::Exists => holds,
                    Quantifier::Forall => !holds,
                },
            };
            if conclusive {
                rec.holds = Some(holds);
                rec.matches_expectation = matches;
            }
        }
        Err(e) => {
            rec.stop = match e {
                RunError::Panicked { .. } => StopReason::Panicked,
                // Resource caps inside the axiomatic enumerator (or a
                // sampling-unsupported model reaching the last rung)
                // are budget-class failures: inconclusive, not fatal.
                RunError::Axiomatic(_) | RunError::SamplingUnsupported(_) => {
                    StopReason::StateBudget
                }
            };
        }
    }
    rec
}

/// Run a campaign: every `(test, model)` pair of `corpus` ×
/// `cfg.models`, cache-first, with `cfg.jobs` worker threads. Tests
/// flagged [`LitmusTest::flat_conservative`] skip the Flat model, as in
/// `check_agreement`. The cache (when configured) is flushed after
/// every completed unit of work.
///
/// # Errors
///
/// Propagates cache I/O errors; model-level failures are recorded in
/// the verdicts, never returned.
pub fn run_campaign(corpus: &[LitmusTest], cfg: &BatchConfig) -> std::io::Result<CampaignReport> {
    let mut cache = match &cfg.cache_path {
        Some(p) => ResultCache::load(p)?,
        None => ResultCache::new(),
    };

    // The work list: every (test, model) pair, with its cache key.
    struct Unit<'a> {
        test: &'a LitmusTest,
        model: ModelKind,
        key: String,
    }
    let mut units = Vec::new();
    let mut slots: Vec<Option<VerdictRecord>> = Vec::new();
    let mut cache_hits = 0usize;
    for test in corpus {
        for &model in &cfg.models {
            if test.flat_conservative && model == ModelKind::Flat {
                continue;
            }
            let key = cache_key(test, model, &cfg.budgets);
            if let Some(hit) = cache.get(&key) {
                cache_hits += 1;
                // Distinct tests with identical programs (e.g. `po` vs
                // `rlx` variants that compile to the same instructions)
                // share a key, and the verdict transfers soundly — but
                // the record's identity must be this unit's, not the
                // one that happened to populate the cache.
                let mut rec = hit.clone();
                rec.test = test.name.clone();
                rec.arch = test.arch;
                slots.push(Some(rec));
            } else {
                units.push((slots.len(), Unit { test, model, key }));
                slots.push(None);
            }
        }
    }

    // Bounded parallelism over the uncached units: workers claim the
    // next unit index; fresh verdicts land in their slot and the cache
    // is flushed under the same lock, so a kill between units loses at
    // most the in-flight work.
    let next = AtomicUsize::new(0);
    let states_spent = AtomicU64::new(0);
    let over_budget = || {
        cfg.campaign_state_budget
            .is_some_and(|b| states_spent.load(Ordering::Relaxed) >= b)
    };
    let fresh: Mutex<Vec<(usize, VerdictRecord)>> = Mutex::new(Vec::new());
    let executed = AtomicUsize::new(0);
    std::thread::scope(|scope| {
        for _ in 0..cfg.jobs.max(1) {
            scope.spawn(|| loop {
                if over_budget() {
                    return;
                }
                let i = next.fetch_add(1, Ordering::Relaxed);
                let Some((slot, unit)) = units.get(i) else {
                    return;
                };
                let rec = run_ladder(unit.test, unit.model, cfg);
                debug_assert_eq!(rec.key, unit.key);
                states_spent.fetch_add(rec.states, Ordering::Relaxed);
                executed.fetch_add(1, Ordering::Relaxed);
                let mut fresh = fresh.lock().unwrap_or_else(|p| p.into_inner());
                fresh.push((*slot, rec));
            });
        }
    });

    let mut aborted = false;
    for (slot, rec) in fresh.into_inner().unwrap_or_else(|p| p.into_inner()) {
        // Panicked verdicts are reported but never cached: a panic may
        // be transient (or injected), and a sticky cached fault would
        // survive the bug fix that resolves it.
        if rec.stop != StopReason::Panicked {
            cache.insert(rec.clone());
        }
        slots[slot] = Some(rec);
    }
    if let Some(p) = &cfg.cache_path {
        cache.flush(p)?;
    }
    let mut records = Vec::with_capacity(slots.len());
    for slot in slots {
        match slot {
            Some(rec) => records.push(rec),
            None => aborted = true,
        }
    }
    Ok(CampaignReport {
        records,
        cache_hits,
        executed: executed.into_inner(),
        aborted,
    })
}

/// Serialise a complete campaign's verdicts as the canonical JSON
/// database: records sorted by `(test, arch, model, key)`, fixed field
/// order, no timings — byte-identical across interrupted-and-resumed
/// and uninterrupted runs.
pub fn verdict_db(records: &[VerdictRecord]) -> String {
    let mut sorted: Vec<&VerdictRecord> = records.iter().collect();
    sorted.sort_by(|a, b| {
        (&a.test, a.arch.name(), a.model.name(), &a.key).cmp(&(
            &b.test,
            b.arch.name(),
            b.model.name(),
            &b.key,
        ))
    });
    let mut out = String::from("{\n  \"verdicts\": [\n");
    for (i, rec) in sorted.iter().enumerate() {
        let sep = if i + 1 == sorted.len() { "" } else { "," };
        let _ = writeln!(out, "    {}{}", rec.to_json(), sep);
    }
    out.push_str("  ]\n}\n");
    out
}

/// Write the verdict database atomically (same temp-and-rename protocol
/// as the cache).
///
/// # Errors
///
/// Propagates I/O errors from the temp write or the rename.
pub fn write_verdict_db(records: &[VerdictRecord], path: &Path) -> std::io::Result<()> {
    let tmp = path.with_extension("tmp");
    std::fs::write(&tmp, verdict_db(records))?;
    std::fs::rename(&tmp, path)
}

#[cfg(test)]
mod tests {
    use super::*;
    use promising_litmus::parse_litmus;

    const MP_ADDR: &str = "\
ARM MP+dmb.sy+addr
store(x, 1)
dmb.sy
store(y, 1)
---
r1 = load(y)
r2 = load(x + (r1 - r1))
exists (P1:r1=1 /\\ P1:r2=0)
expect forbidden
";

    const SB: &str = "\
ARM SB+pos
store(x, 1)
r1 = load(y)
---
store(y, 1)
r2 = load(x)
exists (P0:r1=0 /\\ P1:r2=0)
expect allowed
";

    fn corpus() -> Vec<LitmusTest> {
        vec![parse_litmus(MP_ADDR).unwrap(), parse_litmus(SB).unwrap()]
    }

    #[test]
    fn record_round_trips_through_cache_line() {
        let rec = VerdictRecord {
            key: "abc-def".into(),
            test: "MP+dmb.sy+addr".into(),
            arch: Arch::RiscV,
            model: ModelKind::PromisingNaive,
            tier: Tier::Sampled,
            stop: StopReason::MemoryBudget,
            holds: Some(false),
            matches_expectation: None,
            outcomes: 7,
            states: 1234,
        };
        assert_eq!(VerdictRecord::from_line(&rec.to_line()), Some(rec));
        assert_eq!(VerdictRecord::from_line("torn\twrite"), None);
    }

    #[test]
    fn campaign_produces_conclusive_verdicts() {
        let report = run_campaign(&corpus(), &BatchConfig::default()).unwrap();
        assert_eq!(report.records.len(), 6, "2 tests × 3 models");
        assert!(!report.aborted);
        assert_eq!(report.cache_hits, 0);
        for rec in &report.records {
            assert_eq!(rec.tier, Tier::Exhaustive, "{}", rec.test);
            assert_eq!(rec.stop, StopReason::Completed, "{}", rec.test);
            assert_eq!(rec.matches_expectation, Some(true), "{}", rec.test);
        }
        assert_eq!(report.mismatches().count(), 0);
    }

    #[test]
    fn injected_panic_yields_panicked_verdict_and_spares_others() {
        let clean = run_campaign(&corpus(), &BatchConfig::default()).unwrap();
        let cfg = BatchConfig {
            inject_panic: Some("SB+pos".into()),
            ..BatchConfig::default()
        };
        let faulty = run_campaign(&corpus(), &cfg).unwrap();
        assert_eq!(faulty.panicked().count(), 3, "all three models of SB+pos");
        for rec in faulty.panicked() {
            assert_eq!(rec.test, "SB+pos");
            assert!(!rec.conclusive());
            assert!(!rec.mismatch(), "infrastructure faults are not failures");
        }
        // Every other verdict is untouched by the fault (keys differ —
        // the injection is not part of the key — so compare by test).
        let unaffected = |r: &&VerdictRecord| r.test != "SB+pos";
        let a: Vec<_> = clean.records.iter().filter(unaffected).collect();
        let b: Vec<_> = faulty.records.iter().filter(unaffected).collect();
        assert_eq!(a, b);
    }

    #[test]
    fn tight_budget_degrades_to_sampled_tier() {
        let cfg = BatchConfig {
            models: vec![ModelKind::Promising, ModelKind::Flat],
            budgets: TierBudgets {
                base: SearchBudget::max_states(1),
                retry_scale: 2,
                sample_traces: 64,
                sample_seed: 1,
            },
            ..BatchConfig::default()
        };
        let report = run_campaign(&corpus(), &cfg).unwrap();
        assert!(
            report.degraded().count() > 0,
            "a 1-state budget must degrade something"
        );
        for rec in report.degraded() {
            assert_eq!(rec.tier, Tier::Sampled, "{}", rec.test);
        }
        // SB's exists-allowed witness is easy to sample: conclusive.
        let sb = report
            .records
            .iter()
            .find(|r| r.test == "SB+pos" && r.model == ModelKind::Flat)
            .unwrap();
        assert_eq!(sb.matches_expectation, Some(true));
        assert_eq!(report.mismatches().count(), 0);
    }

    #[test]
    fn campaign_state_budget_aborts_and_resume_is_byte_identical() {
        let dir = std::env::temp_dir().join(format!(
            "litmus-batch-test-{}-{}",
            std::process::id(),
            std::time::SystemTime::now()
                .duration_since(std::time::UNIX_EPOCH)
                .unwrap()
                .as_nanos()
        ));
        std::fs::create_dir_all(&dir).unwrap();
        let cache = dir.join("cache.tsv");

        // Ground truth: one uninterrupted run, no cache.
        let base_cfg = BatchConfig {
            models: vec![ModelKind::Promising, ModelKind::Flat],
            ..BatchConfig::default()
        };
        let full = run_campaign(&corpus(), &base_cfg).unwrap();
        let reference_db = verdict_db(&full.records);

        // Interrupted run: the campaign state budget trips after the
        // first unit of work, simulating a kill.
        let interrupted_cfg = BatchConfig {
            cache_path: Some(cache.clone()),
            campaign_state_budget: Some(1),
            ..base_cfg.clone()
        };
        let partial = run_campaign(&corpus(), &interrupted_cfg).unwrap();
        assert!(partial.aborted);
        assert!(partial.executed < 4, "the budget must abort work");
        assert!(cache.exists(), "partial results must be flushed");

        // Resume: same cache, no campaign budget. Cached verdicts are
        // hits; the rest run fresh; the DB matches byte-for-byte.
        let resume_cfg = BatchConfig {
            cache_path: Some(cache.clone()),
            ..base_cfg
        };
        let resumed = run_campaign(&corpus(), &resume_cfg).unwrap();
        assert!(!resumed.aborted);
        assert_eq!(resumed.cache_hits, partial.executed);
        assert_eq!(verdict_db(&resumed.records), reference_db);

        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn cache_survives_torn_tail_line() {
        let dir = std::env::temp_dir().join(format!(
            "litmus-cache-test-{}-{}",
            std::process::id(),
            std::time::SystemTime::now()
                .duration_since(std::time::UNIX_EPOCH)
                .unwrap()
                .as_nanos()
        ));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("cache.tsv");

        let rec = VerdictRecord {
            key: "k1".into(),
            test: "T".into(),
            arch: Arch::Arm,
            model: ModelKind::Promising,
            tier: Tier::Exhaustive,
            stop: StopReason::Completed,
            holds: Some(true),
            matches_expectation: Some(true),
            outcomes: 1,
            states: 2,
        };
        let mut cache = ResultCache::new();
        cache.insert(rec.clone());
        cache.flush(&path).unwrap();
        // Simulate a torn append from a crashed legacy writer.
        let mut f = std::fs::OpenOptions::new()
            .append(true)
            .open(&path)
            .unwrap();
        write!(f, "k2\thalf-a-reco").unwrap();
        drop(f);

        let reloaded = ResultCache::load(&path).unwrap();
        assert_eq!(reloaded.len(), 1, "torn line skipped, good line kept");
        assert_eq!(reloaded.get("k1"), Some(&rec));

        std::fs::remove_dir_all(&dir).ok();
    }
}
