//! Litmus tests: a program, initial values, a final-state condition, and
//! an expectation.

use promising_core::parser::LocTable;
use promising_core::{Arch, Loc, Outcome, Program, Reg, Val};
use std::collections::BTreeMap;
use std::fmt;
use std::sync::Arc;

/// A final-state predicate over [`Outcome`]s.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum Pred {
    /// `Pn:r = v`.
    RegEq {
        /// Thread index.
        tid: usize,
        /// Register.
        reg: Reg,
        /// Expected value.
        val: Val,
    },
    /// `x = v` (final memory value).
    LocEq {
        /// Location.
        loc: Loc,
        /// Expected value.
        val: Val,
    },
    /// Conjunction.
    And(Vec<Pred>),
    /// Disjunction.
    Or(Vec<Pred>),
    /// Negation.
    Not(Box<Pred>),
    /// Constant truth.
    True,
}

impl Pred {
    /// Evaluate against an outcome.
    pub fn eval(&self, o: &Outcome) -> bool {
        match self {
            Pred::RegEq { tid, reg, val } => o.reg(*tid, *reg) == *val,
            Pred::LocEq { loc, val } => o.loc(*loc) == *val,
            Pred::And(ps) => ps.iter().all(|p| p.eval(o)),
            Pred::Or(ps) => ps.iter().any(|p| p.eval(o)),
            Pred::Not(p) => !p.eval(o),
            Pred::True => true,
        }
    }

    /// `self /\ other`.
    #[must_use]
    pub fn and(self, other: Pred) -> Pred {
        match self {
            Pred::And(mut ps) => {
                ps.push(other);
                Pred::And(ps)
            }
            p => Pred::And(vec![p, other]),
        }
    }
}

/// How the condition quantifies over final states.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Quantifier {
    /// `exists`: some reachable final state satisfies the predicate.
    Exists,
    /// `forall`: every reachable final state satisfies the predicate.
    Forall,
}

/// A litmus condition: quantifier + predicate.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Condition {
    /// Quantifier.
    pub quantifier: Quantifier,
    /// Predicate on final states.
    pub pred: Pred,
}

impl Condition {
    /// Trivial condition (`exists true`).
    pub fn trivial() -> Condition {
        Condition {
            quantifier: Quantifier::Exists,
            pred: Pred::True,
        }
    }

    /// Whether the condition holds of an outcome set.
    pub fn holds(&self, outcomes: &std::collections::BTreeSet<Outcome>) -> bool {
        match self.quantifier {
            Quantifier::Exists => outcomes.iter().any(|o| self.pred.eval(o)),
            Quantifier::Forall => outcomes.iter().all(|o| self.pred.eval(o)),
        }
    }
}

/// The architectural expectation for an `exists` condition.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Expectation {
    /// The listed final state is architecturally allowed.
    Allowed,
    /// The listed final state is architecturally forbidden.
    Forbidden,
}

/// A complete litmus test.
#[derive(Clone, Debug)]
pub struct LitmusTest {
    /// Test name (e.g. `MP+dmb.sy+addr`).
    pub name: String,
    /// Target architecture.
    pub arch: Arch,
    /// The program.
    pub program: Arc<Program>,
    /// Location-name table (for printing).
    pub locs: LocTable,
    /// Initial memory values.
    pub init: BTreeMap<Loc, Val>,
    /// The interesting final-state condition.
    pub condition: Condition,
    /// Ground-truth expectation, if known.
    pub expect: Option<Expectation>,
    /// Loop bound override (`None`: harness default).
    pub loop_fuel: Option<u32>,
    /// Whether the shape uses features on which the Flat-lite baseline is
    /// documented to be conservative (store-exclusive forwarding /
    /// success-dependency relaxations): the harness then skips Flat in
    /// agreement checks.
    pub flat_conservative: bool,
    /// When this hardware test was compiled from a language-level test
    /// (a `LANG` header), the frontend source — recompile it for the
    /// other architecture with [`LangTest::compile`].
    pub lang: Option<Arc<LangTest>>,
}

/// A *language-level* litmus test: a surface-language program
/// ([`promising_lang::Program`]) with C11 orderings, plus the usual
/// init/condition/expectation. It has no architecture of its own —
/// [`LangTest::compile`] lowers it to a hardware [`LitmusTest`] for
/// either architecture via the IMM compilation schemes.
#[derive(Clone, Debug)]
pub struct LangTest {
    /// Test name (e.g. `SB+sc`).
    pub name: String,
    /// The surface-language program.
    pub program: promising_lang::Program,
    /// Location-name table (shared by program and condition).
    pub locs: LocTable,
    /// Initial memory values.
    pub init: BTreeMap<Loc, Val>,
    /// The interesting final-state condition.
    pub condition: Condition,
    /// Expectation for the *compiled* programs (identical across
    /// architectures on the supported corpus), if known.
    pub expect: Option<Expectation>,
    /// Loop bound override (`None`: harness default).
    pub loop_fuel: Option<u32>,
}

impl LangTest {
    /// Lower to a hardware litmus test for `arch`
    /// ([`promising_lang::compile()`]). The result keeps the name, carries
    /// a backlink to `self`, and is never Flat-conservative (compiled
    /// programs use single-instruction RMWs, not raw exclusives).
    ///
    /// # Panics
    ///
    /// Panics if the surface program is invalid (an ordering its access
    /// type does not admit) — impossible for parser- or
    /// recorder-produced tests; use [`LangTest::try_compile`] for
    /// hand-built programs.
    pub fn compile(&self, arch: Arch) -> LitmusTest {
        self.try_compile(arch)
            .unwrap_or_else(|e| panic!("in lang test `{}`: {e}", self.name))
    }

    /// [`LangTest::compile`], with invalid surface programs reported as
    /// a [`promising_lang::CompileError`] instead of a panic.
    ///
    /// # Errors
    ///
    /// Returns a [`promising_lang::CompileError`] if an access carries
    /// an ordering its access type does not admit.
    pub fn try_compile(&self, arch: Arch) -> Result<LitmusTest, promising_lang::CompileError> {
        Ok(LitmusTest {
            name: self.name.clone(),
            arch,
            program: Arc::new(promising_lang::try_compile(&self.program, arch)?),
            locs: self.locs.clone(),
            init: self.init.clone(),
            condition: self.condition.clone(),
            expect: self.expect,
            loop_fuel: self.loop_fuel,
            flat_conservative: false,
            lang: Some(Arc::new(self.clone())),
        })
    }
}

impl fmt::Display for LangTest {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} [lang]", self.name)
    }
}

impl LitmusTest {
    /// The outcome-condition verdict for an explored outcome set, plus
    /// whether it matches the expectation (if one is recorded).
    pub fn verdict(&self, outcomes: &std::collections::BTreeSet<Outcome>) -> (bool, Option<bool>) {
        let holds = self.condition.holds(outcomes);
        let matches = self.expect.map(|e| match e {
            Expectation::Allowed => holds,
            Expectation::Forbidden => !holds,
        });
        (holds, matches)
    }
}

impl fmt::Display for LitmusTest {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} [{}]", self.name, self.arch.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    fn outcome(regs: &[(usize, u32, i64)]) -> Outcome {
        let max_tid = regs.iter().map(|&(t, _, _)| t).max().unwrap_or(0);
        let mut per: Vec<BTreeMap<Reg, Val>> = vec![BTreeMap::new(); max_tid + 1];
        for &(t, r, v) in regs {
            per[t].insert(Reg(r), Val(v));
        }
        Outcome {
            regs: per,
            memory: BTreeMap::new(),
        }
    }

    #[test]
    fn pred_eval_connectives() {
        let o = outcome(&[(0, 1, 42), (1, 2, 0)]);
        let p = Pred::RegEq {
            tid: 0,
            reg: Reg(1),
            val: Val(42),
        }
        .and(Pred::RegEq {
            tid: 1,
            reg: Reg(2),
            val: Val(0),
        });
        assert!(p.eval(&o));
        assert!(!Pred::Not(Box::new(p.clone())).eval(&o));
        assert!(Pred::Or(vec![Pred::Not(Box::new(p.clone())), p.clone()]).eval(&o));
    }

    #[test]
    fn exists_and_forall_quantifiers() {
        let o1 = outcome(&[(0, 1, 1)]);
        let o2 = outcome(&[(0, 1, 2)]);
        let set: BTreeSet<Outcome> = [o1, o2].into_iter().collect();
        let is1 = Pred::RegEq {
            tid: 0,
            reg: Reg(1),
            val: Val(1),
        };
        let exists = Condition {
            quantifier: Quantifier::Exists,
            pred: is1.clone(),
        };
        let forall = Condition {
            quantifier: Quantifier::Forall,
            pred: is1,
        };
        assert!(exists.holds(&set));
        assert!(!forall.holds(&set));
    }

    #[test]
    fn missing_registers_read_zero() {
        let o = outcome(&[]);
        assert!(Pred::RegEq {
            tid: 3,
            reg: Reg(9),
            val: Val(0)
        }
        .eval(&o));
    }
}
