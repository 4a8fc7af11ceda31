//! Candidate-execution enumeration and the unified ARMv8/RISC-V axiomatic
//! model of Fig. 6 (§D).
//!
//! A candidate execution is a combination of per-thread local traces plus
//! a reads-from (`rf`) and a per-location coherence order (`co`). The
//! model accepts a candidate iff:
//!
//! ```text
//! let obs = rfe | fr | co
//! let dob = addr | data | (addr|data); rfi
//!         | (ctrl | (addr; po)); [W]
//!         | (ctrl | (addr; po)); [ISB]; po; [R]
//! let aob = [range(rmw)]; rfi; (RISC-V ? [R] : [AQ|AQpc])
//! let bob = fences | [RL]; po; [AQ] | [AQ|AQpc]; po | po; [RL|RLpc]
//!         | (RISC-V ? rmw)
//! let ob  = obs | dob | aob | bob
//! acyclic po-loc | fr | co | rf   (internal)
//! acyclic ob                      (external)
//! empty   rmw & (fre; coe)        (atomic)
//! ```

use crate::exec::{unfold_thread, value_pools, Event, EventKind, Limits, LocalTrace};
use crate::relations::Relation;
use crate::AxError;
use promising_core::config::Arch;
use promising_core::ids::{Loc, TId, Val};
use promising_core::outcome::Outcome;
use promising_core::stmt::{Program, ReadKind, WriteKind, SCRATCH_REG_BASE};
use std::collections::{BTreeMap, BTreeSet};

/// Configuration for the axiomatic enumeration.
#[derive(Clone, Debug)]
pub struct AxConfig {
    /// Architecture (affects `aob`, `bob`, and success-register deps).
    pub arch: Arch,
    /// Loop unrolling bound (matching the operational model's fuel).
    pub loop_fuel: u32,
    /// Initial values (litmus init section).
    pub init: BTreeMap<Loc, Val>,
    /// Resource caps.
    pub limits: Limits,
}

impl AxConfig {
    /// Defaults for an architecture.
    pub fn new(arch: Arch) -> AxConfig {
        AxConfig {
            arch,
            loop_fuel: 64,
            init: BTreeMap::new(),
            limits: Limits::default(),
        }
    }
}

/// Statistics from one enumeration.
#[derive(Clone, Copy, Debug, Default)]
pub struct AxStats {
    /// Local-trace combinations examined.
    pub trace_combos: u64,
    /// Full candidates (trace combo + rf + co) checked against the axioms.
    pub candidates: u64,
    /// Candidates satisfying all axioms.
    pub allowed: u64,
}

/// Result of the enumeration: the set of allowed outcomes.
#[derive(Clone, Debug)]
pub struct AxResult {
    /// Outcomes of all axiom-satisfying candidates.
    pub outcomes: BTreeSet<Outcome>,
    /// Enumeration statistics.
    pub stats: AxStats,
}

/// Enumerate all behaviours of `program` allowed by the axiomatic model.
///
/// # Errors
///
/// Returns an [`AxError`] if a resource cap is exceeded (too many traces,
/// divergent value pool, too many candidates).
pub fn enumerate_outcomes(program: &Program, config: &AxConfig) -> Result<AxResult, AxError> {
    let pools = value_pools(
        program,
        config.arch,
        &config.init,
        config.loop_fuel,
        &config.limits,
    )?;
    let mut per_thread = Vec::new();
    for (i, code) in program.threads().iter().enumerate() {
        per_thread.push(unfold_thread(
            code,
            TId(i),
            config.arch,
            &pools,
            &config.init,
            config.loop_fuel,
            &config.limits,
        )?);
    }

    let mut stats = AxStats::default();
    let mut outcomes = BTreeSet::new();

    // Cartesian product of local traces.
    let mut idx = vec![0usize; per_thread.len()];
    if per_thread.iter().any(|t| t.is_empty()) {
        return Ok(AxResult { outcomes, stats });
    }
    loop {
        let combo: Vec<&LocalTrace> = idx
            .iter()
            .enumerate()
            .map(|(t, &i)| &per_thread[t][i])
            .collect();
        stats.trace_combos += 1;
        check_combo(&combo, config, &mut stats, &mut outcomes)?;

        // advance the odometer
        let mut k = 0;
        loop {
            if k == idx.len() {
                return Ok(AxResult { outcomes, stats });
            }
            idx[k] += 1;
            if idx[k] < per_thread[k].len() {
                break;
            }
            idx[k] = 0;
            k += 1;
        }
    }
}

/// A fully-assembled candidate skeleton (events fixed; rf/co enumerated).
struct Skeleton<'a> {
    events: Vec<GEvent<'a>>,
    /// Global indices of read events.
    reads: Vec<usize>,
    /// Global indices of write events (including init).
    writes_by_loc: BTreeMap<Loc, Vec<usize>>,
    /// rmw pairs in global indices.
    rmw: Vec<(usize, usize)>,
    /// Per-thread final regs.
    final_regs: Vec<BTreeMap<promising_core::ids::Reg, Val>>,
    po: Relation,
}

/// A global event: the local event plus identity.
struct GEvent<'a> {
    tid: Option<TId>,
    kind: EKind<'a>,
}

enum EKind<'a> {
    Init(Loc, Val),
    Real(&'a Event),
}

impl GEvent<'_> {
    fn loc(&self) -> Option<Loc> {
        match &self.kind {
            EKind::Init(l, _) => Some(*l),
            EKind::Real(e) => e.kind.loc(),
        }
    }
    fn is_read(&self) -> bool {
        matches!(&self.kind, EKind::Real(e) if e.kind.is_read())
    }
    fn is_write(&self) -> bool {
        match &self.kind {
            EKind::Init(..) => true,
            EKind::Real(e) => e.kind.is_write(),
        }
    }
    fn is_init(&self) -> bool {
        matches!(&self.kind, EKind::Init(..))
    }
    fn val(&self) -> Option<Val> {
        match &self.kind {
            EKind::Init(_, v) => Some(*v),
            EKind::Real(e) => match e.kind {
                EventKind::Read { val, .. } | EventKind::Write { val, .. } => Some(val),
                _ => None,
            },
        }
    }
    fn read_kind(&self) -> Option<ReadKind> {
        match &self.kind {
            EKind::Real(e) => match e.kind {
                EventKind::Read { rk, .. } => Some(rk),
                _ => None,
            },
            _ => None,
        }
    }
    fn write_kind(&self) -> Option<WriteKind> {
        match &self.kind {
            EKind::Real(e) => match e.kind {
                EventKind::Write { wk, .. } => Some(wk),
                _ => None,
            },
            _ => None,
        }
    }
    fn is_isb(&self) -> bool {
        matches!(&self.kind, EKind::Real(e) if matches!(e.kind, EventKind::Isb))
    }
}

fn build_skeleton<'a>(combo: &[&'a LocalTrace], config: &AxConfig) -> Skeleton<'a> {
    // relevant locations: everything accessed
    let mut locs: BTreeSet<Loc> = BTreeSet::new();
    for tr in combo {
        for ev in &tr.events {
            if let Some(l) = ev.kind.loc() {
                locs.insert(l);
            }
        }
    }
    let mut events: Vec<GEvent<'a>> = Vec::new();
    for &l in &locs {
        let v = config.init.get(&l).copied().unwrap_or(Val(0));
        events.push(GEvent {
            tid: None,
            kind: EKind::Init(l, v),
        });
    }
    let mut offsets = Vec::new();
    let mut rmw = Vec::new();
    for (t, tr) in combo.iter().enumerate() {
        let off = events.len();
        offsets.push(off);
        for ev in &tr.events {
            events.push(GEvent {
                tid: Some(TId(t)),
                kind: EKind::Real(ev),
            });
        }
        for &(a, b) in &tr.rmw {
            rmw.push((off + a, off + b));
        }
    }
    let n = events.len();
    let mut po = Relation::new(n);
    for (t, tr) in combo.iter().enumerate() {
        let off = offsets[t];
        for i in 0..tr.events.len() {
            for j in (i + 1)..tr.events.len() {
                po.add(off + i, off + j);
            }
        }
    }
    let reads: Vec<usize> = (0..n).filter(|&i| events[i].is_read()).collect();
    let mut writes_by_loc: BTreeMap<Loc, Vec<usize>> = BTreeMap::new();
    for (i, e) in events.iter().enumerate() {
        if e.is_write() {
            writes_by_loc
                .entry(e.loc().expect("writes have locations"))
                .or_default()
                .push(i);
        }
    }
    Skeleton {
        events,
        reads,
        writes_by_loc,
        rmw,
        final_regs: combo
            .iter()
            .map(|tr| {
                tr.final_regs
                    .iter()
                    .filter(|(r, _)| r.0 < SCRATCH_REG_BASE)
                    .map(|(&r, &v)| (r, v))
                    .collect()
            })
            .collect(),
        po,
    }
}

fn check_combo(
    combo: &[&LocalTrace],
    config: &AxConfig,
    stats: &mut AxStats,
    outcomes: &mut BTreeSet<Outcome>,
) -> Result<(), AxError> {
    let sk = build_skeleton(combo, config);

    // rf candidates per read: same location, same value.
    let mut rf_cands: Vec<Vec<usize>> = Vec::with_capacity(sk.reads.len());
    for &r in &sk.reads {
        let loc = sk.events[r].loc().expect("reads have locations");
        let val = sk.events[r].val().expect("reads have values");
        let cands: Vec<usize> = sk
            .writes_by_loc
            .get(&loc)
            .map(|ws| {
                ws.iter()
                    .copied()
                    .filter(|&w| sk.events[w].val() == Some(val))
                    .collect()
            })
            .unwrap_or_default();
        if cands.is_empty() {
            return Ok(()); // some read has no source: combo infeasible
        }
        rf_cands.push(cands);
    }

    // enumerate rf (odometer over candidates)
    let mut rf_idx = vec![0usize; sk.reads.len()];
    loop {
        let rf_pairs: Vec<(usize, usize)> = sk
            .reads
            .iter()
            .enumerate()
            .map(|(k, &r)| (rf_cands[k][rf_idx[k]], r))
            .collect();
        enumerate_co(&sk, config, &rf_pairs, stats, outcomes)?;

        let mut k = 0;
        loop {
            if k == rf_idx.len() {
                return Ok(());
            }
            rf_idx[k] += 1;
            if rf_idx[k] < rf_cands[k].len() {
                break;
            }
            rf_idx[k] = 0;
            k += 1;
        }
    }
}

/// Enumerate coherence orders: per location, all linear orders of the
/// non-init writes that respect program order within each thread (init
/// first). Then check the axioms.
fn enumerate_co(
    sk: &Skeleton<'_>,
    config: &AxConfig,
    rf_pairs: &[(usize, usize)],
    stats: &mut AxStats,
    outcomes: &mut BTreeSet<Outcome>,
) -> Result<(), AxError> {
    // per-location write lists (non-init)
    let locs: Vec<(&Loc, Vec<usize>)> = sk
        .writes_by_loc
        .iter()
        .map(|(l, ws)| {
            (
                l,
                ws.iter()
                    .copied()
                    .filter(|&w| !sk.events[w].is_init())
                    .collect::<Vec<usize>>(),
            )
        })
        .collect();

    // all linear extensions per location
    let mut per_loc_orders: Vec<Vec<Vec<usize>>> = Vec::with_capacity(locs.len());
    for (_, ws) in &locs {
        let mut orders = Vec::new();
        linear_extensions(ws, &sk.po, &mut Vec::new(), &mut orders);
        if orders.is_empty() {
            return Ok(());
        }
        per_loc_orders.push(orders);
    }

    let mut idx = vec![0usize; per_loc_orders.len()];
    loop {
        stats.candidates += 1;
        if stats.candidates > config.limits.max_candidates {
            return Err(AxError::CandidateOverflow(config.limits.max_candidates));
        }
        // build co
        let n = sk.events.len();
        let mut co = Relation::new(n);
        let mut co_last: BTreeMap<Loc, usize> = BTreeMap::new();
        for (k, (l, _)) in locs.iter().enumerate() {
            let order = &per_loc_orders[k][idx[k]];
            // init write for this location
            let init = sk.writes_by_loc[*l]
                .iter()
                .copied()
                .find(|&w| sk.events[w].is_init())
                .expect("init write exists for every accessed location");
            let mut prev = init;
            co_last.insert(**l, init);
            for &w in order {
                co.add(prev, w);
                prev = w;
                co_last.insert(**l, w);
            }
            // transitive closure per location (chain): add all pairs
            for i in 0..order.len() {
                co.add(init, order[i]);
                for j in (i + 1)..order.len() {
                    co.add(order[i], order[j]);
                }
            }
        }

        if check_axioms(sk, config, rf_pairs, &co) {
            stats.allowed += 1;
            // Mirror the operational Memory::locations(): a location
            // appears in the outcome iff it was initialised explicitly or
            // actually written (read-only locations are not reported).
            let memory: BTreeMap<Loc, Val> = {
                let mut m: BTreeMap<Loc, Val> = config.init.clone();
                for (l, &w) in &co_last {
                    if !sk.events[w].is_init() {
                        m.insert(*l, sk.events[w].val().expect("writes have values"));
                    }
                }
                m
            };
            outcomes.insert(Outcome {
                regs: sk.final_regs.clone(),
                memory,
            });
        }

        let mut k = 0;
        loop {
            if k == idx.len() {
                return Ok(());
            }
            idx[k] += 1;
            if idx[k] < per_loc_orders[k].len() {
                break;
            }
            idx[k] = 0;
            k += 1;
        }
    }
}

fn linear_extensions(
    ws: &[usize],
    po: &Relation,
    prefix: &mut Vec<usize>,
    out: &mut Vec<Vec<usize>>,
) {
    if prefix.len() == ws.len() {
        out.push(prefix.clone());
        return;
    }
    for &w in ws {
        if prefix.contains(&w) {
            continue;
        }
        // w can come next if no remaining write must precede it (po)
        let blocked = ws
            .iter()
            .any(|&u| u != w && !prefix.contains(&u) && po.contains(u, w));
        if blocked {
            continue;
        }
        prefix.push(w);
        linear_extensions(ws, po, prefix, out);
        prefix.pop();
    }
}

fn check_axioms(
    sk: &Skeleton<'_>,
    config: &AxConfig,
    rf_pairs: &[(usize, usize)],
    co: &Relation,
) -> bool {
    let n = sk.events.len();
    let ev = &sk.events;
    let rf = Relation::from_edges(n, rf_pairs.iter().copied());
    let fr = rf.inverse().compose(co);

    // internal: acyclic (po-loc | fr | co | rf)
    let po_loc = sk
        .po
        .filter(|a, b| ev[a].loc().is_some() && ev[a].loc() == ev[b].loc());
    let mut internal = po_loc;
    internal.extend(&fr);
    internal.extend(co);
    internal.extend(&rf);
    if !internal.is_acyclic() {
        return false;
    }

    // atomic: empty (rmw & (fre; coe))
    let ext = |a: usize, b: usize| ev[a].tid != ev[b].tid;
    let fre = fr.filter(ext);
    let coe = co.filter(ext);
    let fre_coe = fre.compose(&coe);
    for &(r, w) in &sk.rmw {
        if fre_coe.contains(r, w) {
            return false;
        }
    }

    // external: acyclic ob
    let rfe = rf.filter(ext);
    let rfi = rf.filter(|a, b| !ext(a, b));
    let mut obs = rfe.clone();
    obs.extend(&fr);
    obs.extend(co);

    // dob
    let mut addr = Relation::new(n);
    let mut data = Relation::new(n);
    let mut ctrl = Relation::new(n);
    for (i, e) in ev.iter().enumerate() {
        if let EKind::Real(real) = &e.kind {
            let off = i - real.po; // events of a thread are contiguous
            for &d in &real.addr_deps {
                addr.add(off + d, i);
            }
            for &d in &real.data_deps {
                data.add(off + d, i);
            }
            for &d in &real.ctrl_deps {
                ctrl.add(off + d, i);
            }
        }
    }
    let addr_data = addr.union(&data);
    let mut dob = addr_data.clone();
    dob.extend(&addr_data.compose(&rfi));
    let ctrl_or_addrpo = ctrl.union(&addr.compose(&sk.po));
    dob.extend(&ctrl_or_addrpo.restrict(|_| true, |b| ev[b].is_write()));
    let to_isb = ctrl_or_addrpo.restrict(|_| true, |b| ev[b].is_isb());
    let isb_po_r = sk.po.restrict(|a| ev[a].is_isb(), |b| ev[b].is_read());
    dob.extend(&to_isb.compose(&isb_po_r));

    // aob
    let rmw_targets: BTreeSet<usize> = sk.rmw.iter().map(|&(_, w)| w).collect();
    let aob = rfi.filter(|a, b| {
        rmw_targets.contains(&a)
            && match config.arch {
                Arch::RiscV => ev[b].is_read(),
                Arch::Arm => ev[b]
                    .read_kind()
                    .is_some_and(|rk| rk >= ReadKind::WeakAcquire),
            }
    });

    // bob
    let mut bob = Relation::new(n);
    for (f, e) in ev.iter().enumerate() {
        if let EKind::Real(real) = &e.kind {
            if let EventKind::Fence(fence) = real.kind {
                for a in 0..n {
                    if !sk.po.contains(a, f) {
                        continue;
                    }
                    let a_matches = (ev[a].is_read() && fence.pre.includes_reads())
                        || (ev[a].is_write() && fence.pre.includes_writes());
                    if !a_matches {
                        continue;
                    }
                    #[allow(clippy::needless_range_loop)] // a/b symmetry
                    for b in 0..n {
                        if !sk.po.contains(f, b) {
                            continue;
                        }
                        let b_matches = (ev[b].is_read() && fence.post.includes_reads())
                            || (ev[b].is_write() && fence.post.includes_writes());
                        if b_matches {
                            bob.add(a, b);
                        }
                    }
                }
            }
        }
    }
    // [RL]; po; [AQ]
    bob.extend(&sk.po.restrict(
        |a| ev[a].write_kind() == Some(WriteKind::Release),
        |b| ev[b].read_kind() == Some(ReadKind::Acquire),
    ));
    // [AQ|AQpc]; po
    bob.extend(&sk.po.restrict(
        |a| {
            ev[a]
                .read_kind()
                .is_some_and(|rk| rk >= ReadKind::WeakAcquire)
        },
        |_| true,
    ));
    // po; [RL|RLpc]
    bob.extend(&sk.po.restrict(
        |_| true,
        |b| {
            ev[b]
                .write_kind()
                .is_some_and(|wk| wk >= WriteKind::WeakRelease)
        },
    ));
    // RISC-V: rmw in bob
    if config.arch == Arch::RiscV {
        for &(r, w) in &sk.rmw {
            bob.add(r, w);
        }
    }

    let mut ob = obs;
    ob.extend(&dob);
    ob.extend(&aob);
    ob.extend(&bob);
    ob.is_acyclic()
}
