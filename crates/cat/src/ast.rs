//! Abstract syntax of the mini-Cat model language.
//!
//! The language is a faithful subset of herd's Cat (Alglave, Cousot,
//! Maranget: *Syntax and semantics of the weak consistency model
//! specification language cat*): relation expressions built from named base
//! relations and event sets, `let`/`let rec` bindings, and the
//! `acyclic`/`irreflexive`/`empty` checks that make up a model. Two
//! deliberate deviations, documented in DESIGN.md: identifiers use `_`
//! instead of `-` (`poloc`, not `po-loc`), and cartesian product is spelled
//! `cross(A, B)` instead of `A * B` (avoiding the clash with postfix `*`).

use std::fmt;
use telechat_common::Sym;

/// A Cat expression, denoting an event set or a relation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CatExpr {
    /// A named set or relation from the environment (`po`, `rf`, `ACQ`, …).
    /// Names are interned at parse time ([`Sym`]), so evaluation resolves
    /// them by dense id — an array slot read, never a string compare.
    Name(Sym),
    /// Union `a | b` (sets or relations).
    Union(Box<CatExpr>, Box<CatExpr>),
    /// Intersection `a & b` (sets or relations).
    Inter(Box<CatExpr>, Box<CatExpr>),
    /// Difference `a \ b` (sets or relations).
    Diff(Box<CatExpr>, Box<CatExpr>),
    /// Relational composition `a ; b`.
    Seq(Box<CatExpr>, Box<CatExpr>),
    /// Reflexive closure `a?`.
    Opt(Box<CatExpr>),
    /// Transitive closure `a+`.
    Plus(Box<CatExpr>),
    /// Reflexive-transitive closure `a*`.
    Star(Box<CatExpr>),
    /// Inverse `a^-1`.
    Inverse(Box<CatExpr>),
    /// Identity on a set `[S]`.
    IdOn(Box<CatExpr>),
    /// Sources of a relation, `domain(r)`.
    Domain(Box<CatExpr>),
    /// Targets of a relation, `range(r)`.
    Range(Box<CatExpr>),
    /// Cartesian product of two sets, `cross(A, B)`.
    Cross(Box<CatExpr>, Box<CatExpr>),
}

/// A unary Cat operator.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Unary {
    Opt,
    Plus,
    Star,
    Inverse,
    IdOn,
    Domain,
    Range,
}

/// A binary Cat operator.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Binary {
    Union,
    Inter,
    Diff,
    Seq,
    Cross,
}

/// An expression node seen as a name or an operator over its operands —
/// the one view the tree evaluator and the staged engine's network
/// compiler both dispatch on.
pub(crate) enum Shape<'a> {
    Name(Sym),
    Unary(Unary, &'a CatExpr),
    Binary(Binary, &'a CatExpr, &'a CatExpr),
}

impl CatExpr {
    /// Named-expression shorthand (interns the name).
    pub fn name(n: impl AsRef<str>) -> CatExpr {
        CatExpr::Name(Sym::new(n))
    }

    pub(crate) fn shape(&self) -> Shape<'_> {
        match self {
            CatExpr::Name(n) => Shape::Name(*n),
            CatExpr::Union(a, b) => Shape::Binary(Binary::Union, a, b),
            CatExpr::Inter(a, b) => Shape::Binary(Binary::Inter, a, b),
            CatExpr::Diff(a, b) => Shape::Binary(Binary::Diff, a, b),
            CatExpr::Seq(a, b) => Shape::Binary(Binary::Seq, a, b),
            CatExpr::Cross(a, b) => Shape::Binary(Binary::Cross, a, b),
            CatExpr::Opt(a) => Shape::Unary(Unary::Opt, a),
            CatExpr::Plus(a) => Shape::Unary(Unary::Plus, a),
            CatExpr::Star(a) => Shape::Unary(Unary::Star, a),
            CatExpr::Inverse(a) => Shape::Unary(Unary::Inverse, a),
            CatExpr::IdOn(a) => Shape::Unary(Unary::IdOn, a),
            CatExpr::Domain(a) => Shape::Unary(Unary::Domain, a),
            CatExpr::Range(a) => Shape::Unary(Unary::Range, a),
        }
    }
}

impl fmt::Display for CatExpr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CatExpr::Name(n) => write!(f, "{n}"),
            CatExpr::Union(a, b) => write!(f, "({a} | {b})"),
            CatExpr::Inter(a, b) => write!(f, "({a} & {b})"),
            CatExpr::Diff(a, b) => write!(f, "({a} \\ {b})"),
            CatExpr::Seq(a, b) => write!(f, "({a} ; {b})"),
            CatExpr::Opt(a) => write!(f, "{a}?"),
            CatExpr::Plus(a) => write!(f, "{a}+"),
            CatExpr::Star(a) => write!(f, "{a}*"),
            CatExpr::Inverse(a) => write!(f, "{a}^-1"),
            CatExpr::IdOn(a) => write!(f, "[{a}]"),
            CatExpr::Domain(a) => write!(f, "domain({a})"),
            CatExpr::Range(a) => write!(f, "range({a})"),
            CatExpr::Cross(a, b) => write!(f, "cross({a}, {b})"),
        }
    }
}

/// The kind of a model check.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CheckKind {
    /// `acyclic e as name` — the transitive closure must be irreflexive.
    Acyclic,
    /// `irreflexive e as name` — no self-edge.
    Irreflexive,
    /// `empty e as name` — the relation (or set) must be empty.
    Empty,
}

impl fmt::Display for CheckKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            CheckKind::Acyclic => "acyclic",
            CheckKind::Irreflexive => "irreflexive",
            CheckKind::Empty => "empty",
        };
        f.write_str(s)
    }
}

/// One statement of a Cat model.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CatStmt {
    /// `let x = e` or `let rec x = e and y = e …` (mutual fix-point).
    Let {
        /// True for `let rec` groups (evaluated by Kleene iteration).
        recursive: bool,
        /// The bindings of the group (names interned).
        bindings: Vec<(Sym, CatExpr)>,
    },
    /// A consistency check. Failing makes the execution *forbidden*.
    Check {
        /// The check kind.
        kind: CheckKind,
        /// Negated check (`~empty e`): holds when the plain check fails.
        negated: bool,
        /// The checked expression.
        expr: CatExpr,
        /// Rule name (after `as`).
        name: String,
    },
    /// A flagged check (`flag ~empty e as name`). Firing does not forbid the
    /// execution; it attaches the flag (e.g. `race` → undefined behaviour).
    Flag {
        /// The check kind.
        kind: CheckKind,
        /// Negated check; `flag ~empty race as race` fires when non-empty.
        negated: bool,
        /// The checked expression.
        expr: CatExpr,
        /// Flag name.
        name: String,
    },
}

/// A parsed Cat model: an optional name line plus statements in order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CatProgram {
    /// Model name (from the quoted header or supplied at load time).
    pub name: String,
    /// Statements in source order (includes already inlined).
    pub stmts: Vec<CatStmt>,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_round() {
        let e = CatExpr::Union(
            Box::new(CatExpr::Seq(
                Box::new(CatExpr::IdOn(Box::new(CatExpr::name("W")))),
                Box::new(CatExpr::name("po")),
            )),
            Box::new(CatExpr::Plus(Box::new(CatExpr::name("rf")))),
        );
        assert_eq!(e.to_string(), "(([W] ; po) | rf+)");
    }
}
