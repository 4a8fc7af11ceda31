//! Pure expressions of the calculus (Fig. 1) and their interpretation.
//!
//! The interpretation function `⟦e⟧m` (Fig. 5) returns a *value–view pair*
//! `v@ν`: constants have view 0, registers are looked up in the register
//! state, and an arithmetic expression's view is the join of its arguments'
//! views (rule r9). Views on registers are how the model tracks syntactic
//! dependencies.

use crate::ids::{Reg, Val, View};
use crate::thread::RegFile;
use std::fmt;

/// Binary arithmetic/comparison operators (`op ∈ O`, Fig. 1).
///
/// Comparison operators return `1` for true and `0` for false, which is the
/// boolean convention used by branches ([`Val::as_bool`]).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum Op {
    /// Addition.
    Add,
    /// Subtraction.
    Sub,
    /// Multiplication.
    Mul,
    /// Equality test (1/0).
    Eq,
    /// Inequality test (1/0).
    Ne,
    /// Signed less-than (1/0).
    Lt,
    /// Signed less-or-equal (1/0).
    Le,
    /// Euclidean remainder (used by the circular-buffer workloads).
    Mod,
    /// Bitwise and (used by the `amo_and` desugaring).
    BitAnd,
    /// Bitwise or (used by the `amo_or` desugaring).
    BitOr,
    /// Bitwise xor (used by the `amo_xor` desugaring).
    BitXor,
    /// Signed maximum (used by the `amo_max` desugaring).
    Max,
}

impl Op {
    /// Apply the operator to two values (`v1 ⟦op⟧ v2`).
    pub fn apply(self, a: Val, b: Val) -> Val {
        match self {
            Op::Add => Val(a.0.wrapping_add(b.0)),
            Op::Sub => Val(a.0.wrapping_sub(b.0)),
            Op::Mul => Val(a.0.wrapping_mul(b.0)),
            Op::Eq => Val::from(a.0 == b.0),
            Op::Ne => Val::from(a.0 != b.0),
            Op::Lt => Val::from(a.0 < b.0),
            Op::Le => Val::from(a.0 <= b.0),
            Op::Mod => {
                if b.0 == 0 {
                    Val(0)
                } else {
                    Val(a.0.rem_euclid(b.0))
                }
            }
            Op::BitAnd => Val(a.0 & b.0),
            Op::BitOr => Val(a.0 | b.0),
            Op::BitXor => Val(a.0 ^ b.0),
            Op::Max => Val(a.0.max(b.0)),
        }
    }

    /// The concrete-syntax spelling of the operator.
    pub fn symbol(self) -> &'static str {
        match self {
            Op::Add => "+",
            Op::Sub => "-",
            Op::Mul => "*",
            Op::Eq => "==",
            Op::Ne => "!=",
            Op::Lt => "<",
            Op::Le => "<=",
            Op::Mod => "%",
            Op::BitAnd => "&",
            Op::BitOr => "|",
            Op::BitXor => "^",
            Op::Max => "max",
        }
    }
}

/// A pure expression (`e ∈ Expr`, Fig. 1): a constant, a register, or a
/// binary operation.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub enum Expr {
    /// A constant value `v`.
    Const(Val),
    /// A register read `r`.
    Reg(Reg),
    /// A binary operation `(e1 op e2)`.
    Binop(Op, Box<Expr>, Box<Expr>),
}

impl Expr {
    /// A constant expression.
    pub fn val(v: impl Into<Val>) -> Expr {
        Expr::Const(v.into())
    }

    /// A register expression.
    pub fn reg(r: Reg) -> Expr {
        Expr::Reg(r)
    }

    /// Build a binary operation node.
    pub fn binop(op: Op, lhs: Expr, rhs: Expr) -> Expr {
        Expr::Binop(op, Box::new(lhs), Box::new(rhs))
    }

    /// `self + rhs`.
    #[allow(clippy::should_implement_trait)] // builder DSL, not arithmetic on Expr values
    pub fn add(self, rhs: Expr) -> Expr {
        Expr::binop(Op::Add, self, rhs)
    }

    /// `self - rhs`.
    #[allow(clippy::should_implement_trait)]
    pub fn sub(self, rhs: Expr) -> Expr {
        Expr::binop(Op::Sub, self, rhs)
    }

    /// `self * rhs`.
    #[allow(clippy::should_implement_trait)]
    pub fn mul(self, rhs: Expr) -> Expr {
        Expr::binop(Op::Mul, self, rhs)
    }

    /// `self == rhs` (1/0).
    pub fn eq(self, rhs: Expr) -> Expr {
        Expr::binop(Op::Eq, self, rhs)
    }

    /// `self != rhs` (1/0).
    pub fn ne(self, rhs: Expr) -> Expr {
        Expr::binop(Op::Ne, self, rhs)
    }

    /// `self < rhs` (1/0).
    pub fn lt(self, rhs: Expr) -> Expr {
        Expr::binop(Op::Lt, self, rhs)
    }

    /// `self <= rhs` (1/0).
    pub fn le(self, rhs: Expr) -> Expr {
        Expr::binop(Op::Le, self, rhs)
    }

    /// `self % rhs`.
    #[allow(clippy::should_implement_trait)]
    pub fn rem(self, rhs: Expr) -> Expr {
        Expr::binop(Op::Mod, self, rhs)
    }

    /// The idiom `e + (r - r)`: value-preserving *artificial dependency* on
    /// `r`, used pervasively in litmus tests to create address/data
    /// dependencies (§4.1).
    pub fn with_dep(self, r: Reg) -> Expr {
        self.add(Expr::reg(r).sub(Expr::reg(r)))
    }

    /// The interpretation function `⟦e⟧m` of Fig. 5: evaluate to a
    /// value–view pair under register state `m`.
    pub fn eval(&self, m: &RegFile) -> (Val, View) {
        self.eval_by(&|r| m.get(r))
    }

    /// `⟦e⟧m[r ↦ v]`: evaluate as if register `r` held `v`, without
    /// writing the register file. The RMW rules evaluate their compare
    /// and operand this way in the state after the read half.
    pub(crate) fn eval_with(&self, m: &RegFile, r: Reg, v: (Val, View)) -> (Val, View) {
        self.eval_by(&|q| if q == r { v } else { m.get(q) })
    }

    fn eval_by(&self, get: &impl Fn(Reg) -> (Val, View)) -> (Val, View) {
        match self {
            Expr::Const(v) => (*v, View::ZERO),
            Expr::Reg(r) => get(*r),
            Expr::Binop(op, lhs, rhs) => {
                let (v1, n1) = lhs.eval_by(get);
                let (v2, n2) = rhs.eval_by(get);
                (op.apply(v1, v2), n1.join(n2))
            }
        }
    }

    /// All registers read by this expression, in first-occurrence order.
    pub fn registers(&self) -> Vec<Reg> {
        let mut out = Vec::new();
        self.collect_registers(&mut out);
        out
    }

    fn collect_registers(&self, out: &mut Vec<Reg>) {
        match self {
            Expr::Const(_) => {}
            Expr::Reg(r) => {
                if !out.contains(r) {
                    out.push(*r);
                }
            }
            Expr::Binop(_, lhs, rhs) => {
                lhs.collect_registers(out);
                rhs.collect_registers(out);
            }
        }
    }
}

impl From<i64> for Expr {
    fn from(v: i64) -> Expr {
        Expr::val(v)
    }
}

impl From<Reg> for Expr {
    fn from(r: Reg) -> Expr {
        Expr::reg(r)
    }
}

impl fmt::Display for Expr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Expr::Const(v) => write!(f, "{v}"),
            Expr::Reg(r) => write!(f, "{r}"),
            Expr::Binop(op, lhs, rhs) => write!(f, "({lhs} {} {rhs})", op.symbol()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::Timestamp;

    fn regs_with(r: Reg, v: i64, view: u32) -> RegFile {
        let mut m = RegFile::default();
        m.set(r, Val(v), View(view));
        m
    }

    #[test]
    fn constants_have_view_zero() {
        let m = RegFile::default();
        assert_eq!(Expr::val(42).eval(&m), (Val(42), View::ZERO));
    }

    #[test]
    fn register_lookup_carries_view() {
        let m = regs_with(Reg(1), 7, 3);
        assert_eq!(Expr::reg(Reg(1)).eval(&m), (Val(7), View(3)));
    }

    #[test]
    fn unset_registers_read_zero_at_view_zero() {
        let m = RegFile::default();
        assert_eq!(Expr::reg(Reg(9)).eval(&m), (Val(0), View::ZERO));
    }

    #[test]
    fn binop_joins_views_r9() {
        let mut m = RegFile::default();
        m.set(Reg(0), Val(1), View(2));
        m.set(Reg(1), Val(2), View(5));
        let e = Expr::reg(Reg(0)).add(Expr::reg(Reg(1)));
        assert_eq!(e.eval(&m), (Val(3), View(5)));
    }

    #[test]
    fn artificial_dependency_preserves_value_but_not_view() {
        // e + (r - r): the classic litmus address-dependency idiom.
        let m = regs_with(Reg(2), 42, 9);
        let e = Expr::val(10).with_dep(Reg(2));
        assert_eq!(e.eval(&m), (Val(10), View(9)));
    }

    #[test]
    fn comparison_ops_return_bool_values() {
        let m = RegFile::default();
        assert_eq!(Expr::val(1).eq(Expr::val(1)).eval(&m).0, Val(1));
        assert_eq!(Expr::val(1).eq(Expr::val(2)).eval(&m).0, Val(0));
        assert_eq!(Expr::val(1).lt(Expr::val(2)).eval(&m).0, Val(1));
        assert_eq!(Expr::val(2).le(Expr::val(2)).eval(&m).0, Val(1));
        assert_eq!(Expr::val(3).ne(Expr::val(3)).eval(&m).0, Val(0));
    }

    #[test]
    fn mod_by_zero_is_zero_not_panic() {
        let m = RegFile::default();
        assert_eq!(Expr::val(5).rem(Expr::val(0)).eval(&m).0, Val(0));
    }

    #[test]
    fn registers_collects_unique_in_order() {
        let e = Expr::reg(Reg(3))
            .add(Expr::reg(Reg(1)))
            .add(Expr::reg(Reg(3)));
        assert_eq!(e.registers(), vec![Reg(3), Reg(1)]);
    }

    #[test]
    fn display_round_trips_symbols() {
        let e = Expr::reg(Reg(0)).add(Expr::val(1));
        assert_eq!(e.to_string(), "(r0 + 1)");
    }

    #[test]
    fn timestamp_view_conversion() {
        assert_eq!(Timestamp(4).view(), View(4));
    }
}
