//! Interactive exploration: step through model-allowed executions, inspect
//! thread states and memory, undo — the rmem-style debugging workflow of
//! §7/§8 as a library API (and a CLI in `examples/interactive_debug.rs`).

use promising_core::ids::TId;
use promising_core::{find_and_certify, Machine, StepError, StepEvent, Transition, TransitionKind};
use std::fmt::Write as _;

/// One recorded step of the session's trace.
#[derive(Clone, Debug)]
pub struct TraceEntry {
    /// The transition taken.
    pub transition: Transition,
    /// What it did.
    pub event: StepEvent,
}

/// An interactive stepping session over a [`Machine`].
///
/// Enabled transitions are the *machine steps* (certification-filtered), so
/// a user can never step into a state from which promises are
/// unfulfillable — exactly the paper's motivation (2) for preventing
/// inconsistent thread steps in §4.3.
#[derive(Clone, Debug)]
pub struct Session {
    machine: Machine,
    history: Vec<(Machine, TraceEntry)>,
}

impl Session {
    /// Start a session at the initial state of `machine`.
    pub fn new(machine: Machine) -> Session {
        Session {
            machine,
            history: Vec::new(),
        }
    }

    /// The current machine state.
    pub fn machine(&self) -> &Machine {
        &self.machine
    }

    /// The trace so far.
    pub fn trace(&self) -> impl Iterator<Item = &TraceEntry> {
        self.history.iter().map(|(_, e)| e)
    }

    /// Number of steps taken.
    pub fn depth(&self) -> usize {
        self.history.len()
    }

    /// The certified transitions available now.
    pub fn enabled(&self) -> Vec<Transition> {
        self.machine.machine_steps()
    }

    /// Take a transition, recording it in the trace. Only the
    /// [`enabled`](Session::enabled) machine steps are accepted.
    ///
    /// # Errors
    ///
    /// Returns the [`Machine::apply`] error if the transition is not a
    /// thread step at all, and [`StepError::NotCertified`] if it is one
    /// but certification rules it out. The session is unchanged either
    /// way.
    pub fn step(&mut self, tr: &Transition) -> Result<StepEvent, StepError> {
        let mut next = self.machine.clone();
        let event = next.apply(tr)?;
        if !self.enabled().contains(tr) {
            return Err(StepError::NotCertified);
        }
        let snapshot = std::mem::replace(&mut self.machine, next);
        self.history.push((
            snapshot,
            TraceEntry {
                transition: tr.clone(),
                event: event.clone(),
            },
        ));
        Ok(event)
    }

    /// Undo the last step. Returns `false` at the initial state.
    pub fn undo(&mut self) -> bool {
        match self.history.pop() {
            Some((snapshot, _)) => {
                self.machine = snapshot;
                true
            }
            None => false,
        }
    }

    /// Whether the current state is a valid final state.
    pub fn finished(&self) -> bool {
        self.machine.terminated()
    }

    /// Whether the state is a dead end: not finished, but no certified
    /// transition remains (an ARM store-exclusive deadlock, §4.3, or a
    /// loop-bound cut).
    pub fn dead_end(&self) -> bool {
        !self.finished() && self.enabled().is_empty()
    }

    /// A human-readable description of the current state: memory, then per
    /// thread the promise set, views and next statement.
    pub fn describe(&self) -> String {
        let mut s = String::new();
        let _ = writeln!(s, "memory: {}", self.machine.memory());
        for (i, t) in self.machine.threads().iter().enumerate() {
            let tid = TId(i);
            let next = match self.machine.head(tid) {
                Some((_, stmt)) => format!("{stmt:?}"),
                None => "done".to_string(),
            };
            let _ = writeln!(s, "{tid}: {} next: {next}", t.state);
        }
        s
    }

    /// A description of each enabled transition together with whether the
    /// acting thread currently has outstanding promises (handy for UIs).
    pub fn enabled_described(&self) -> Vec<(Transition, String)> {
        self.enabled()
            .into_iter()
            .map(|tr| {
                let desc = match &tr.kind {
                    TransitionKind::Read { t } => {
                        let m = self.machine.memory();
                        match m.get(*t) {
                            Some(msg) => {
                                format!("{}: read {} = {} (t={})", tr.tid, msg.loc, msg.val, t)
                            }
                            None => format!("{}: read initial value (t=0)", tr.tid),
                        }
                    }
                    TransitionKind::Promise { msg } => {
                        format!("{}: promise {} := {}", tr.tid, msg.loc, msg.val)
                    }
                    other => format!("{}: {other}", tr.tid),
                };
                (tr, desc)
            })
            .collect()
    }

    /// Convenience for tests/demos: is the promising thread `tid` certified?
    pub fn certified(&self, tid: TId) -> bool {
        find_and_certify(&self.machine, tid).certified
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use promising_core::{
        parse_program, CodeBuilder, Config, Expr, Msg, Program, Reg, Timestamp, Val,
    };
    use std::sync::Arc;

    fn mp_session() -> Session {
        let mut b = CodeBuilder::new();
        let s1 = b.store(Expr::val(0), Expr::val(37));
        let s2 = b.dmb_sy();
        let s3 = b.store(Expr::val(1), Expr::val(42));
        let t1 = b.finish_seq(&[s1, s2, s3]);
        let mut b = CodeBuilder::new();
        let l1 = b.load(Reg(1), Expr::val(1));
        let l2 = b.load(Reg(2), Expr::val(0));
        let t2 = b.finish_seq(&[l1, l2]);
        let m = Machine::new(Arc::new(Program::new(vec![t1, t2])), Config::arm());
        Session::new(m)
    }

    #[test]
    fn stepping_and_undo_round_trip() {
        let mut s = mp_session();
        let enabled = s.enabled();
        assert!(!enabled.is_empty());
        let tr = enabled
            .iter()
            .find(|t| t.tid == TId(0))
            .expect("writer can move")
            .clone();
        s.step(&tr).unwrap();
        assert_eq!(s.depth(), 1);
        assert!(s.undo());
        assert_eq!(s.depth(), 0);
        assert!(!s.undo());
    }

    #[test]
    fn full_mp_walkthrough_reaches_weak_outcome() {
        let mut s = mp_session();
        // writer: x := 37 (promise+fulfil via WriteNormal)
        s.step(&Transition::new(TId(0), TransitionKind::WriteNormal))
            .unwrap();
        s.step(&Transition::new(TId(0), TransitionKind::Internal))
            .unwrap();
        s.step(&Transition::new(TId(0), TransitionKind::WriteNormal))
            .unwrap();
        // reader: y = 42 then the stale x = 0
        s.step(&Transition::new(
            TId(1),
            TransitionKind::Read { t: Timestamp(2) },
        ))
        .unwrap();
        s.step(&Transition::new(
            TId(1),
            TransitionKind::Read { t: Timestamp::ZERO },
        ))
        .unwrap();
        assert!(s.finished());
        assert_eq!(s.machine().thread(TId(1)).state.regs.value(Reg(1)), Val(42));
        assert_eq!(s.machine().thread(TId(1)).state.regs.value(Reg(2)), Val(0));
        // trace remembers all five steps
        assert_eq!(s.depth(), 5);
    }

    #[test]
    fn step_rejects_an_uncertifiable_promise() {
        // r1 = load(x); store(y, r1): the store depends on the load, so
        // y = 1 is a thread step (`apply` takes it) but no certified
        // promise — taking it would leave the thread unable to fulfil.
        let (program, locs) = parse_program("r1 = load(x)\nstore(y, r1)").unwrap();
        let y = locs.get("y").unwrap();
        let mut s = Session::new(Machine::new(Arc::new(program), Config::arm()));
        let promise = Transition::new(
            TId(0),
            TransitionKind::Promise {
                msg: Msg::new(y, Val(1), TId(0)),
            },
        );
        assert!(!s.enabled().contains(&promise));
        assert!(s.machine().clone().apply(&promise).is_ok());
        assert_eq!(s.step(&promise).unwrap_err(), StepError::NotCertified);
        assert_eq!(s.depth(), 0);
        assert!(s.certified(TId(0)) && !s.dead_end());
        // a transition that is not even a thread step keeps its own error
        let wrong = Transition::new(TId(0), TransitionKind::WriteNormal);
        assert_eq!(s.step(&wrong).unwrap_err(), StepError::WrongShape);
    }

    #[test]
    fn describe_mentions_memory_and_threads() {
        let s = mp_session();
        let d = s.describe();
        assert!(d.contains("memory:"));
        assert!(d.contains("P0"));
        assert!(d.contains("P1"));
    }

    #[test]
    fn enabled_described_is_human_readable() {
        let s = mp_session();
        let descs = s.enabled_described();
        assert!(!descs.is_empty());
        assert!(descs.iter().all(|(_, d)| d.starts_with('P')));
    }
}
