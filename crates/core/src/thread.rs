//! Thread states (`TState`, Fig. 2/4) and their view bookkeeping.
//!
//! A thread state holds the promise set, the register file (values *with
//! views*, rule r8), the per-location coherence view (r11), the six scalar
//! views (`vrOld`, `vwOld`, `vrNew`, `vwNew`, `vCAP`, `vRel`), the forward
//! bank (r13) and the exclusives bank (ρ8). All collections are ordered
//! (`BTreeMap`/`BTreeSet`) so states hash and compare deterministically for
//! state-space deduplication.

use crate::config::Arch;
use crate::fingerprint::FpHasher;
use crate::ids::{Loc, Reg, Timestamp, Val, View};
use crate::stmt::ReadKind;
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;
use std::sync::Arc;

/// The register state `regs : Reg → Val × V` (r8): every register holds a
/// value and the view that was required to produce it.
///
/// The map is behind an [`Arc`] with copy-on-write mutation: cloning a
/// thread state (once per explored transition) is a reference-count
/// bump, and [`RegFile::set`] copies the map only when it is shared.
#[derive(Clone, PartialEq, Eq, Hash, Debug, Default)]
pub struct RegFile {
    regs: Arc<BTreeMap<Reg, (Val, View)>>,
}

impl RegFile {
    /// Empty register file: every register reads `0@0`.
    pub fn new() -> RegFile {
        RegFile::default()
    }

    /// Current value and view of `r` (registers start as `0@0`).
    pub fn get(&self, r: Reg) -> (Val, View) {
        self.regs.get(&r).copied().unwrap_or((Val(0), View::ZERO))
    }

    /// Value of `r`, discarding the view.
    pub fn value(&self, r: Reg) -> Val {
        self.get(r).0
    }

    /// Write `v@view` to `r` (r9). Copy-on-write.
    pub fn set(&mut self, r: Reg, v: Val, view: View) {
        Arc::make_mut(&mut self.regs).insert(r, (v, view));
    }

    /// Iterate over explicitly-written registers.
    pub fn iter(&self) -> impl Iterator<Item = (Reg, Val, View)> + '_ {
        self.regs.iter().map(|(&r, &(v, n))| (r, v, n))
    }

    /// The explicit entry of `r`: `None` if it was never written.
    pub(crate) fn entry(&self, r: Reg) -> RegEntry {
        self.regs.get(&r).copied()
    }

    /// Put back an entry read by [`RegFile::entry`].
    pub(crate) fn restore(&mut self, r: Reg, e: RegEntry) {
        restore_entry(&mut self.regs, r, e);
    }
}

/// A register's explicit entry, `None` if it was never written.
pub(crate) type RegEntry = Option<(Val, View)>;

/// Put back one saved map entry, removing the key if it was absent. The
/// map is left alone, and so stays shared, when it already holds `e`.
fn restore_entry<K: Ord + Clone, V: Copy + PartialEq>(
    map: &mut Arc<BTreeMap<K, V>>,
    k: K,
    e: Option<V>,
) {
    if map.get(&k).copied() != e {
        let map = Arc::make_mut(map);
        match e {
            Some(v) => map.insert(k, v),
            None => map.remove(&k),
        };
    }
}

/// A forward-bank entry (r13): information about the thread's last
/// propagated write to a location, enabling store forwarding (r16).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct Forward {
    /// Timestamp of the write (`time`).
    pub time: Timestamp,
    /// Join of the views of the store's address and data inputs (`view`).
    pub view: View,
    /// Whether the write was exclusive (`xcl`, ρ13).
    pub exclusive: bool,
}

impl Default for Forward {
    /// The initial entry `⟨time = 0, view = 0, xcl = false⟩` (r15).
    fn default() -> Forward {
        Forward {
            time: Timestamp::ZERO,
            view: View::ZERO,
            exclusive: false,
        }
    }
}

/// The exclusives bank `xclb` (ρ8): timestamp and post-view of the last
/// load exclusive, while no store exclusive has intervened.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct ExclBank {
    /// Timestamp the load exclusive read from.
    pub time: Timestamp,
    /// The load exclusive's post-view.
    pub view: View,
}

/// Why a thread can no longer take steps (outside normal termination).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum StuckReason {
    /// The loop bound ([`crate::config::Config::loop_fuel`]) was exhausted;
    /// the executable model bounds loops, so this trace is not a complete
    /// execution and is discarded from outcome enumeration.
    LoopBoundExceeded,
}

/// The fixed-size fields of a thread state: the six scalar views, the
/// exclusives bank, the loop fuel and the stuck flag. A step's undo
/// record keeps a copy; the RMW rules compute the write half's pre-view
/// on one.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub(crate) struct Scalars {
    pub(crate) vr_old: View,
    pub(crate) vw_old: View,
    pub(crate) vr_new: View,
    pub(crate) vw_new: View,
    pub(crate) v_cap: View,
    pub(crate) v_rel: View,
    pub(crate) xclb: Option<ExclBank>,
    pub(crate) fuel: u32,
    pub(crate) stuck: Option<StuckReason>,
}

/// A thread state's entries at one location: coherence view, forward
/// bank and private memory. A step overwrites at most these.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub(crate) struct LocEntries {
    coh: Option<View>,
    fwd: Option<Forward>,
    local: Option<(Val, View)>,
}

/// A thread state (`ts ∈ TState`, Fig. 4).
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub struct ThreadState {
    /// Outstanding promises: timestamps of promised-but-unfulfilled writes
    /// (r17).
    pub prom: BTreeSet<Timestamp>,
    /// Register file with views (r8).
    pub regs: RegFile,
    /// Per-location coherence view (r11); defaults to 0. Copy-on-write.
    coh: Arc<BTreeMap<Loc, View>>,
    /// Maximal post-view of all loads executed so far (r5).
    pub vr_old: View,
    /// Maximal post-view of all stores executed so far (r5).
    pub vw_old: View,
    /// Lower bound contributed to the pre-view of future loads (r6).
    pub vr_new: View,
    /// Lower bound contributed to the pre-view of future stores (r6).
    pub vw_new: View,
    /// Control/address-po dependency view (r21).
    pub v_cap: View,
    /// Maximal post-view of strong releases executed so far (ρ3).
    pub v_rel: View,
    /// Forward bank (r13); defaults to the initial entry. Copy-on-write.
    fwdb: Arc<BTreeMap<Loc, Forward>>,
    /// Exclusives bank (ρ8).
    pub xclb: Option<ExclBank>,
    /// Remaining taken-loop-iteration budget.
    pub fuel: u32,
    /// Thread-private memory for non-shared locations (§7 optimisation):
    /// value and view of the last private write per location.
    /// Copy-on-write.
    local: Arc<BTreeMap<Loc, (Val, View)>>,
    /// Set when the thread ran out of loop fuel.
    pub stuck: Option<StuckReason>,
}

impl ThreadState {
    /// Initial thread state with the given loop budget: all views 0, no
    /// promises, empty banks.
    pub fn new(fuel: u32) -> ThreadState {
        ThreadState {
            prom: BTreeSet::new(),
            regs: RegFile::new(),
            coh: Arc::new(BTreeMap::new()),
            vr_old: View::ZERO,
            vw_old: View::ZERO,
            vr_new: View::ZERO,
            vw_new: View::ZERO,
            v_cap: View::ZERO,
            v_rel: View::ZERO,
            fwdb: Arc::new(BTreeMap::new()),
            xclb: None,
            fuel,
            local: Arc::new(BTreeMap::new()),
            stuck: None,
        }
    }

    /// The coherence view `coh(l)` (r11), defaulting to 0.
    pub fn coh(&self, l: Loc) -> View {
        self.coh.get(&l).copied().unwrap_or(View::ZERO)
    }

    /// Join `v` into `coh(l)`. Copy-on-write.
    pub fn bump_coh(&mut self, l: Loc, v: View) {
        let coh = Arc::make_mut(&mut self.coh);
        let e = coh.entry(l).or_insert(View::ZERO);
        *e = e.join(v);
    }

    /// The forward-bank entry `fwdb(l)` (r13), defaulting to the initial
    /// entry (r15).
    pub fn fwd(&self, l: Loc) -> Forward {
        self.fwdb.get(&l).copied().unwrap_or_default()
    }

    /// Overwrite the forward-bank entry for `l` (r14). Copy-on-write.
    pub fn set_fwd(&mut self, l: Loc, f: Forward) {
        Arc::make_mut(&mut self.fwdb).insert(l, f);
    }

    /// The thread-private value and view of non-shared location `l`, if
    /// the thread has written it (§7 optimisation).
    pub fn local(&self, l: Loc) -> Option<(Val, View)> {
        self.local.get(&l).copied()
    }

    /// Write to thread-private (non-shared) location `l`. Copy-on-write.
    pub fn set_local(&mut self, l: Loc, v: Val, view: View) {
        Arc::make_mut(&mut self.local).insert(l, (v, view));
    }

    /// The fixed-size fields, copied out.
    pub(crate) fn scalars(&self) -> Scalars {
        Scalars {
            vr_old: self.vr_old,
            vw_old: self.vw_old,
            vr_new: self.vr_new,
            vw_new: self.vw_new,
            v_cap: self.v_cap,
            v_rel: self.v_rel,
            xclb: self.xclb,
            fuel: self.fuel,
            stuck: self.stuck,
        }
    }

    /// Overwrite the fixed-size fields.
    pub(crate) fn set_scalars(&mut self, s: Scalars) {
        self.vr_old = s.vr_old;
        self.vw_old = s.vw_old;
        self.vr_new = s.vr_new;
        self.vw_new = s.vw_new;
        self.v_cap = s.v_cap;
        self.v_rel = s.v_rel;
        self.xclb = s.xclb;
        self.fuel = s.fuel;
        self.stuck = s.stuck;
    }

    /// The explicit entries at `l`, for [`ThreadState::restore_loc`].
    pub(crate) fn loc_entries(&self, l: Loc) -> LocEntries {
        LocEntries {
            coh: self.coh.get(&l).copied(),
            fwd: self.fwdb.get(&l).copied(),
            local: self.local.get(&l).copied(),
        }
    }

    /// Put back the entries at `l` read by [`ThreadState::loc_entries`].
    pub(crate) fn restore_loc(&mut self, l: Loc, e: LocEntries) {
        restore_entry(&mut self.coh, l, e.coh);
        restore_entry(&mut self.fwdb, l, e.fwd);
        restore_entry(&mut self.local, l, e.local);
    }

    /// Iterate over the thread-private memory entries.
    pub fn local_entries(&self) -> impl Iterator<Item = (Loc, Val, View)> + '_ {
        self.local.iter().map(|(&l, &(v, n))| (l, v, n))
    }

    /// The `read-view(a, rk, f, t)` function of Fig. 5: when a load reads
    /// the thread's own last write to the location (`f.time = t`), it can
    /// acquire the (typically smaller) forward view instead of the write's
    /// timestamp — unless the forwarded write was exclusive and the
    /// architecture/read-kind combination forbids it (ρ13): forwarding from
    /// an exclusive write is only permitted for *plain* loads on *ARM*.
    pub fn read_view(&self, arch: Arch, rk: ReadKind, l: Loc, t: Timestamp) -> View {
        let f = self.fwd(l);
        let fwd_allowed = !f.exclusive || (arch == Arch::Arm && rk == ReadKind::Plain);
        if f.time == t && !t.is_initial() && fwd_allowed {
            f.view
        } else {
            t.view()
        }
    }

    /// Whether the thread has unfulfilled promises.
    pub fn has_promises(&self) -> bool {
        !self.prom.is_empty()
    }

    /// Iterate over the explicit coherence entries.
    pub fn coh_entries(&self) -> impl Iterator<Item = (Loc, View)> + '_ {
        self.coh.iter().map(|(&l, &v)| (l, v))
    }

    /// Fold the full thread state into a state fingerprint. All maps are
    /// ordered (`BTreeMap`/`BTreeSet`), so the encoding is canonical.
    pub fn feed(&self, h: &mut FpHasher) {
        h.write_len(self.prom.len());
        for t in &self.prom {
            h.write_u32(t.0);
        }
        h.write_len(self.regs.regs.len());
        for (r, (v, n)) in self.regs.regs.iter() {
            h.write_u32(r.0);
            h.write_i64(v.0);
            h.write_u32(n.0);
        }
        h.write_len(self.coh.len());
        for (l, v) in self.coh.iter() {
            h.write_u64(l.0);
            h.write_u32(v.0);
        }
        h.write_u32(self.vr_old.0);
        h.write_u32(self.vw_old.0);
        h.write_u32(self.vr_new.0);
        h.write_u32(self.vw_new.0);
        h.write_u32(self.v_cap.0);
        h.write_u32(self.v_rel.0);
        h.write_len(self.fwdb.len());
        for (l, f) in self.fwdb.iter() {
            h.write_u64(l.0);
            h.write_u32(f.time.0);
            h.write_u32(f.view.0);
            h.write_bool(f.exclusive);
        }
        match &self.xclb {
            None => h.write_bool(false),
            Some(x) => {
                h.write_bool(true);
                h.write_u32(x.time.0);
                h.write_u32(x.view.0);
            }
        }
        h.write_u32(self.fuel);
        h.write_len(self.local.len());
        for (l, (v, n)) in self.local.iter() {
            h.write_u64(l.0);
            h.write_i64(v.0);
            h.write_u32(n.0);
        }
        h.write_bool(self.stuck.is_some());
    }
}

impl fmt::Display for ThreadState {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "<prom={:?} vrOld={} vwOld={} vrNew={} vwNew={} vCAP={} vRel={}",
            self.prom.iter().map(|t| t.0).collect::<Vec<_>>(),
            self.vr_old,
            self.vw_old,
            self.vr_new,
            self.vw_new,
            self.v_cap,
            self.v_rel
        )?;
        if let Some(x) = &self.xclb {
            write!(f, " xclb=({},{})", x.time, x.view)?;
        }
        write!(f, ">")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fresh_state_has_zero_views_and_no_promises() {
        let ts = ThreadState::new(10);
        assert_eq!(ts.vr_old, View::ZERO);
        assert_eq!(ts.coh(Loc(5)), View::ZERO);
        assert!(!ts.has_promises());
        assert_eq!(ts.fwd(Loc(1)), Forward::default());
        assert!(ts.xclb.is_none());
    }

    #[test]
    fn bump_coh_joins() {
        let mut ts = ThreadState::new(10);
        ts.bump_coh(Loc(1), View(3));
        ts.bump_coh(Loc(1), View(2));
        assert_eq!(ts.coh(Loc(1)), View(3));
    }

    #[test]
    fn read_view_uses_forward_view_on_hit() {
        let mut ts = ThreadState::new(10);
        ts.set_fwd(
            Loc(1),
            Forward {
                time: Timestamp(3),
                view: View(1),
                exclusive: false,
            },
        );
        // forwarding hit: gets the smaller forward view
        assert_eq!(
            ts.read_view(Arch::Arm, ReadKind::Plain, Loc(1), Timestamp(3)),
            View(1)
        );
        // miss: gets the message timestamp
        assert_eq!(
            ts.read_view(Arch::Arm, ReadKind::Plain, Loc(1), Timestamp(2)),
            View(2)
        );
    }

    #[test]
    fn exclusive_forwarding_restricted_by_arch_and_kind() {
        let mut ts = ThreadState::new(10);
        ts.set_fwd(
            Loc(1),
            Forward {
                time: Timestamp(3),
                view: View(0),
                exclusive: true,
            },
        );
        // ARM plain load may forward from an exclusive write
        assert_eq!(
            ts.read_view(Arch::Arm, ReadKind::Plain, Loc(1), Timestamp(3)),
            View(0)
        );
        // ARM acquire load may not (ρ13)
        assert_eq!(
            ts.read_view(Arch::Arm, ReadKind::Acquire, Loc(1), Timestamp(3)),
            View(3)
        );
        // RISC-V loads may never forward from exclusives
        assert_eq!(
            ts.read_view(Arch::RiscV, ReadKind::Plain, Loc(1), Timestamp(3)),
            View(3)
        );
    }

    #[test]
    fn read_view_never_forwards_the_initial_write() {
        // The default forward-bank entry has time = 0; a load reading the
        // initial write (t = 0) must get view 0 via the timestamp path,
        // not via a bogus "forward hit" on the default entry.
        let ts = ThreadState::new(10);
        assert_eq!(
            ts.read_view(Arch::Arm, ReadKind::Plain, Loc(1), Timestamp::ZERO),
            View::ZERO
        );
    }

    #[test]
    fn registers_default_to_zero_at_view_zero() {
        let rf = RegFile::new();
        assert_eq!(rf.get(Reg(7)), (Val(0), View::ZERO));
    }
}
