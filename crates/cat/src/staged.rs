//! The staged Cat engine: compile a parsed model into a per-combo
//! execution plan whose monotone constraints are checked **per pushed
//! edge**, not per candidate.
//!
//! The naive evaluator ([`crate::eval::run_program`]) re-evaluates every
//! statement for every complete candidate, and offers no partial verdicts
//! — so the enumeration engine's pruned swap-DFS degrades to leaf-only
//! checking for interpreted models. This module closes that gap in three
//! stages:
//!
//! 1. **Analysis** ([`crate::monotone`]): each `let` binding and check
//!    expression is classified as *constant* (independent of `rf`/`co`/
//!    `fr`), *monotone* (grows pointwise as they grow) or *non-monotone*.
//! 2. **Plan compilation** ([`StagedPlan::compile`]): constant bindings
//!    and checks are hoisted to per-combo evaluation (cached in the
//!    [`EnvBase`]), and so are maximal constant *subexpressions* of
//!    dynamic expressions (synthetic `__hoist_n` bindings). Non-negated
//!    monotone checks become *staged constraints* — with the rewrites
//!    `acyclic e+ ≡ acyclic e` and `irreflexive e+ ≡ acyclic e`, which is
//!    what turns the ordered-before axioms of the hardware models
//!    (`irreflexive ob` with `ob = (…)+`) into incremental acyclicity
//!    over the closure-free body. Everything else (negated or
//!    non-monotone checks, and all flags) is *residual*: evaluated only
//!    at DFS leaves, with dead dynamic bindings skipped entirely.
//! 3. **Delta propagation** ([`StagedState`]): one state per session.
//!    The plan's frontier `let`s and staged-constraint expressions are
//!    compiled once into a small node network (a DAG in topological
//!    order; `let rec` groups become node ranges iterated to a fixpoint).
//!    Each node holds its value, computed once, bottom-up, when the
//!    session opens. A push hands the network the exact new `rf`, `co`
//!    and derived `fr` edges, and every node turns its operands' deltas
//!    into its own exact delta (`Δa;b ∪ a;Δb` for `;`, Italiano-style
//!    pred × succ insertion for `+`/`*`, semi-naive rounds for `let rec`),
//!    inserts it in place and appends it to an edge log. A pop removes
//!    its push's logged edges, last in, first out, so every value is
//!    exact after every pop. `acyclic` constraints feed their delta into
//!    a per-constraint [`IncrementalOrder`] (journal + LIFO undo, zero
//!    full Kahn traversals per simulation); `irreflexive` reads the
//!    value's diagonal; `empty` its size. Verdicts at DFS nodes *and*
//!    leaves are O(#constraints).
//!
//! Soundness: a violated staged constraint stays violated in every
//! completion (the relations only grow and the expressions are monotone),
//! which is precisely the
//! [`telechat_exec::ComboChecker::push_rf`] contract. Completeness at
//! leaves: the maintained value equals a from-scratch evaluation, so the
//! verdict (and the first-violated rule name) is byte-identical to
//! [`crate::eval::run_program`] — pinned by the differential suites.
//!
//! A session depends only on the value-free skeleton, and popping every
//! push returns it to its opening state, so the enumerator opens one per
//! skeleton and reuses it for every combo that shares it (see
//! [`telechat_exec::ConsistencyModel::combo_checker`]).

use crate::ast::{Binary, CatExpr, CatProgram, CatStmt, CheckKind, Shape, Unary};
use crate::eval::{
    apply_binary, apply_unary, base_syms, check_holds, eval_expr, eval_let_group, CatValue, Env,
    EnvBase,
};
use crate::monotone::{classify_let_group, expr_dep, Dep, DepMap};
use std::borrow::Cow;
use std::collections::HashSet;
use telechat_common::{Error, EventId, Result, Sym};
use telechat_exec::{Execution, IncrementalOrder, PartialVerdict, Relation, Verdict};

/// How a staged constraint consumes its maintained value.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Mode {
    /// `acyclic e` (or `irreflexive e+` / `acyclic e+`, rewritten):
    /// delta edges feed an [`IncrementalOrder`].
    Acyclic,
    /// `irreflexive e`: count of diagonal edges in the value.
    Irreflexive,
    /// `empty e`: the value's edge count.
    Empty,
}

/// One staged (monotone, non-negated) constraint.
#[derive(Debug, Clone)]
struct Constraint {
    mode: Mode,
    /// The maintained expression (post-rewrite, constants hoisted).
    expr: CatExpr,
    /// Rule name (`as name`), reported on violation.
    name: String,
}

/// One compiled statement of the plan, in source order.
#[derive(Debug, Clone)]
enum Step {
    /// Combo-constant `let` group (includes synthetic `__hoist_n`
    /// bindings): evaluated once per combo into the session's [`EnvBase`].
    BindConst {
        recursive: bool,
        bindings: Vec<(Sym, CatExpr)>,
    },
    /// rf/co/fr-dependent `let` group. `frontier`: maintained by the
    /// session's node network per pushed edge (needed by a staged
    /// constraint). `leaf`: evaluated during the leaf walk (needed by a
    /// residual check or flag) unless the network already holds it.
    /// Neither: dead code, never evaluated.
    BindDyn {
        recursive: bool,
        bindings: Vec<(Sym, CatExpr)>,
        frontier: bool,
        leaf: bool,
    },
    /// Constant check: decided once per combo (slot in `const_results`).
    CheckConst {
        cslot: usize,
        kind: CheckKind,
        negated: bool,
        expr: CatExpr,
        name: String,
    },
    /// Staged constraint: consult the incremental state.
    CheckStaged {
        idx: usize,
    },
    /// Non-monotone or negated check: evaluated at leaves.
    CheckResidual {
        kind: CheckKind,
        negated: bool,
        expr: CatExpr,
        name: String,
    },
    /// Flag: never forbids; constant flags are decided per combo
    /// (`cslot`), dynamic ones evaluated at leaves.
    Flag {
        cslot: Option<usize>,
        kind: CheckKind,
        negated: bool,
        expr: CatExpr,
        name: String,
    },
}

/// A compiled model: statements with their staging classification.
///
/// Built once per [`crate::CatModel`] load; shared by every combo session.
#[derive(Debug, Clone)]
pub struct StagedPlan {
    steps: Vec<Step>,
    constraints: Vec<Constraint>,
    /// The frontier `let`s and staged-constraint expressions as a node
    /// network (empty for unstageable plans).
    net: Network,
    /// Number of per-combo constant check/flag result slots.
    const_slots: usize,
    /// True if any `CheckConst` exists (a violated one forbids the whole
    /// combo, so sessions stay incremental even without staged
    /// constraints).
    has_const_checks: bool,
    /// False if the program shadows a reserved or `let`-bound name (see
    /// [`reserved_names`]): the plan then never stages.
    stageable: bool,
}

/// Allocates names for hoisted constant subexpressions. Names are
/// deterministic per `(model name, position)`, so recompiling a model
/// reuses its symbols instead of growing the process-wide interner
/// without bound. Plans of different models may share hoist names — each
/// session binds its own values into its own `EnvBase`, so there is no
/// crosstalk.
struct HoistNames<'a> {
    model: &'a str,
    next: u32,
}

impl HoistNames<'_> {
    fn fresh(&mut self) -> Sym {
        let n = self.next;
        self.next += 1;
        Sym::new(format!("__hoist_{}_{n}", self.model))
    }
}

/// Collects every name mentioned by `e` into `out`.
fn collect_names(e: &CatExpr, out: &mut HashSet<u32>) {
    match e.shape() {
        Shape::Name(n) => {
            out.insert(n.id());
        }
        Shape::Unary(_, a) => collect_names(a, out),
        Shape::Binary(_, a, b) => {
            collect_names(a, out);
            collect_names(b, out);
        }
    }
}

/// True if `e` mentions any of `forbidden` (names bound by the very group
/// being compiled, whose values do not exist at combo-setup time).
fn mentions(e: &CatExpr, forbidden: &HashSet<u32>) -> bool {
    if forbidden.is_empty() {
        return false;
    }
    let mut names = HashSet::new();
    collect_names(e, &mut names);
    !names.is_disjoint(forbidden)
}

/// Replaces maximal combo-constant subexpressions of `e` with synthetic
/// hoisted bindings (emitted as `BindConst` steps before the consuming
/// step), so per-push and per-leaf evaluation never recomputes them.
fn hoist(
    e: &CatExpr,
    ctx: &DepMap,
    forbidden: &HashSet<u32>,
    names: &mut HoistNames<'_>,
    out: &mut Vec<Step>,
) -> CatExpr {
    if expr_dep(e, ctx) == Dep::Constant && !mentions(e, forbidden) {
        if matches!(e, CatExpr::Name(_)) {
            return e.clone(); // already a slot read, nothing to cache
        }
        let sym = names.fresh();
        out.push(Step::BindConst {
            recursive: false,
            bindings: vec![(sym, e.clone())],
        });
        return CatExpr::Name(sym);
    }
    macro_rules! h {
        ($x:expr) => {
            Box::new(hoist($x, ctx, forbidden, names, out))
        };
    }
    match e {
        CatExpr::Name(_) => e.clone(),
        CatExpr::Union(a, b) => CatExpr::Union(h!(a), h!(b)),
        CatExpr::Inter(a, b) => CatExpr::Inter(h!(a), h!(b)),
        CatExpr::Diff(a, b) => CatExpr::Diff(h!(a), h!(b)),
        CatExpr::Seq(a, b) => CatExpr::Seq(h!(a), h!(b)),
        CatExpr::Cross(a, b) => CatExpr::Cross(h!(a), h!(b)),
        CatExpr::Opt(a) => CatExpr::Opt(h!(a)),
        CatExpr::Plus(a) => CatExpr::Plus(h!(a)),
        CatExpr::Star(a) => CatExpr::Star(h!(a)),
        CatExpr::Inverse(a) => CatExpr::Inverse(h!(a)),
        CatExpr::IdOn(a) => CatExpr::IdOn(h!(a)),
        CatExpr::Domain(a) => CatExpr::Domain(h!(a)),
        CatExpr::Range(a) => CatExpr::Range(h!(a)),
    }
}

/// If `expr` is (transitively) a transitive closure — a `+` node, or a
/// name whose `let` body is one — returns the closure-free body, else
/// `None`. Resolution walks `recorded` (the in-scope non-recursive `let`
/// bodies at this point of the program); stageable plans forbid name
/// shadowing, so the chain is acyclic (the depth guard is belt and
/// braces).
fn closure_body(
    expr: &CatExpr,
    recorded: &std::collections::HashMap<u32, CatExpr>,
    depth: usize,
) -> Option<CatExpr> {
    if depth == 0 {
        return None;
    }
    match expr {
        CatExpr::Plus(inner) => Some(
            closure_body(inner, recorded, depth - 1).unwrap_or_else(|| (**inner).clone()),
        ),
        CatExpr::Name(s) => recorded
            .get(&s.id())
            .and_then(|body| closure_body(body, recorded, depth - 1)),
        _ => None,
    }
}

/// The staged form of a monotone check: `acyclic e+ ≡ acyclic e` and
/// `irreflexive e+ ≡ acyclic e` (an `e+` self-edge is exactly a cycle in
/// `e`), resolving `+` through `let`-bound names — this is what turns the
/// hardware models' `let ob = (…)+ … irreflexive ob` axioms into
/// incremental acyclicity over the closure-free body, with no
/// Floyd–Warshall sweep per pushed edge.
fn stage_form(
    kind: CheckKind,
    expr: &CatExpr,
    recorded: &std::collections::HashMap<u32, CatExpr>,
) -> (Mode, CatExpr) {
    let body = closure_body(expr, recorded, 8);
    match (kind, body) {
        (CheckKind::Acyclic, Some(b)) => (Mode::Acyclic, b),
        (CheckKind::Acyclic, None) => (Mode::Acyclic, expr.clone()),
        (CheckKind::Irreflexive, Some(b)) => (Mode::Acyclic, b),
        (CheckKind::Irreflexive, None) => (Mode::Irreflexive, expr.clone()),
        (CheckKind::Empty, _) => (Mode::Empty, expr.clone()),
    }
}

/// Names the skeleton environment binds ([`EnvBase::from_skeleton`]) plus
/// the growing `rf`/`co`/`fr`. A `let` that shadows one of these — or any
/// other `let` — makes the plan unstageable: the node network and the
/// leaf walk resolve each name to one binding for the whole program, so
/// an earlier constraint would observe a later rebinding (and a
/// `rf`/`co`/`fr` binding would collide with the edge mirrors).
/// Such programs (none of the bundled models) fall back to leaf-only
/// evaluation.
fn reserved_names() -> HashSet<u32> {
    let s = base_syms();
    let mut out: HashSet<u32> = [
        s.underscore,
        s.m,
        s.r,
        s.w,
        s.f,
        s.iw,
        s.emptyset,
        s.po,
        s.rmw,
        s.addr,
        s.data,
        s.ctrl,
        s.loc,
        s.ext,
        s.int,
        s.id,
        s.emptyrel,
        s.rf,
        s.co,
        s.fr,
    ]
    .iter()
    .map(|sym| sym.id())
    .collect();
    for &(_, sym) in &s.annots {
        out.insert(sym.id());
    }
    out
}

impl StagedPlan {
    /// Compiles a program: monotonicity analysis, constant hoisting,
    /// constraint staging and dead-binding marking.
    pub fn compile(program: &CatProgram) -> StagedPlan {
        let mut ctx = DepMap::new();
        let mut steps = Vec::new();
        let mut constraints = Vec::new();
        let mut const_slots = 0usize;
        let mut has_const_checks = false;
        let mut stageable = true;
        let mut hoist_names = HoistNames {
            model: &program.name,
            next: 0,
        };
        let mut taken_names = reserved_names();
        // In-scope non-recursive `let` bodies, for `+`-through-name
        // resolution in `stage_form`.
        let mut recorded: std::collections::HashMap<u32, CatExpr> =
            std::collections::HashMap::new();
        let mut slot = || {
            const_slots += 1;
            const_slots - 1
        };
        for stmt in &program.stmts {
            match stmt {
                CatStmt::Let {
                    recursive,
                    bindings,
                } => {
                    for (sym, expr) in bindings {
                        if !taken_names.insert(sym.id()) {
                            stageable = false;
                        }
                        if !*recursive {
                            recorded.insert(sym.id(), expr.clone());
                        }
                    }
                    let dep = classify_let_group(&mut ctx, *recursive, bindings);
                    if dep == Dep::Constant {
                        steps.push(Step::BindConst {
                            recursive: *recursive,
                            bindings: bindings.clone(),
                        });
                    } else {
                        let forbidden: HashSet<u32> =
                            bindings.iter().map(|(s, _)| s.id()).collect();
                        let bindings = bindings
                            .iter()
                            .map(|(n, e)| (*n, hoist(e, &ctx, &forbidden, &mut hoist_names, &mut steps)))
                            .collect();
                        steps.push(Step::BindDyn {
                            recursive: *recursive,
                            bindings,
                            frontier: false,
                            leaf: false,
                        });
                    }
                }
                CatStmt::Check {
                    kind,
                    negated,
                    expr,
                    name,
                } => {
                    let dep = expr_dep(expr, &ctx);
                    if dep == Dep::Constant {
                        has_const_checks = true;
                        steps.push(Step::CheckConst {
                            cslot: slot(),
                            kind: *kind,
                            negated: *negated,
                            expr: expr.clone(),
                            name: name.clone(),
                        });
                    } else if dep == Dep::Monotone && !*negated {
                        let (mode, stripped) = stage_form(*kind, expr, &recorded);
                        let expr = hoist(&stripped, &ctx, &HashSet::new(), &mut hoist_names, &mut steps);
                        steps.push(Step::CheckStaged {
                            idx: constraints.len(),
                        });
                        constraints.push(Constraint {
                            mode,
                            expr,
                            name: name.clone(),
                        });
                    } else {
                        let expr = hoist(expr, &ctx, &HashSet::new(), &mut hoist_names, &mut steps);
                        steps.push(Step::CheckResidual {
                            kind: *kind,
                            negated: *negated,
                            expr,
                            name: name.clone(),
                        });
                    }
                }
                CatStmt::Flag {
                    kind,
                    negated,
                    expr,
                    name,
                } => {
                    let dep = expr_dep(expr, &ctx);
                    let (cslot, expr) = if dep == Dep::Constant {
                        (Some(slot()), expr.clone())
                    } else {
                        (None, hoist(expr, &ctx, &HashSet::new(), &mut hoist_names, &mut steps))
                    };
                    steps.push(Step::Flag {
                        cslot,
                        kind: *kind,
                        negated: *negated,
                        expr,
                        name: name.clone(),
                    });
                }
            }
        }

        // Need marking, back to front: a dynamic binding is `frontier` if a
        // staged constraint (transitively) reads it, `leaf` if a residual
        // check or dynamic flag does. Unmarked dynamic bindings are dead.
        let mut frontier_need: HashSet<u32> = HashSet::new();
        let mut leaf_need: HashSet<u32> = HashSet::new();
        for step in steps.iter_mut().rev() {
            match step {
                Step::CheckStaged { idx } => {
                    collect_names(&constraints[*idx].expr, &mut frontier_need);
                }
                Step::CheckResidual { expr, .. } | Step::Flag { cslot: None, expr, .. } => {
                    collect_names(expr, &mut leaf_need);
                }
                Step::BindDyn {
                    bindings,
                    frontier,
                    leaf,
                    ..
                } => {
                    *frontier = bindings.iter().any(|(s, _)| frontier_need.contains(&s.id()));
                    *leaf = bindings.iter().any(|(s, _)| leaf_need.contains(&s.id()));
                    if *frontier {
                        for (_, e) in bindings.iter() {
                            collect_names(e, &mut frontier_need);
                        }
                    }
                    if *leaf {
                        for (_, e) in bindings.iter() {
                            collect_names(e, &mut leaf_need);
                        }
                    }
                }
                _ => {}
            }
        }
        let net = if stageable {
            Network::compile(&steps, &constraints)
        } else {
            Network::default()
        };
        StagedPlan {
            net,
            steps,
            constraints,
            const_slots,
            has_const_checks,
            stageable,
        }
    }

    /// Number of staged (per-edge incremental) constraints.
    pub fn staged_constraints(&self) -> usize {
        self.constraints.len()
    }

    /// True if a combo session over this plan can answer partial verdicts
    /// (and should therefore opt into the engine's incremental protocol).
    pub fn prunes(&self) -> bool {
        self.stageable && (!self.constraints.is_empty() || self.has_const_checks)
    }
}

// ---------------------------------------------------------------------------
// The node network.
// ---------------------------------------------------------------------------

/// Where a network node reads an operand.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Src {
    /// A combo-constant name, read from the session's [`EnvBase`].
    Const(Sym),
    /// Another node's maintained value.
    Node(u32),
}

/// What a network node computes.
#[derive(Debug, Clone, Copy)]
enum NodeOp {
    /// `rf`, `co` or `fr`: written by the pushes themselves.
    Mirror,
    /// A `let rec` member: the value of its body.
    Copy(Src),
    Unary(Unary, Src),
    Binary(Binary, Src, Src),
}

/// A run of nodes in topological order. A `let rec` group (`rec` names
/// its plan step) is iterated until no member grows.
#[derive(Debug, Clone, Copy)]
struct Group {
    start: usize,
    end: usize,
    rec: Option<usize>,
}

/// Marks a name the network does not bind.
const NO_NODE: u32 = u32::MAX;
/// The mirror nodes, in this order, at the front of every network.
const RF: u32 = 0;
const CO: u32 = 1;
const FR: u32 = 2;

/// The compiled node network of a plan (see the module docs).
#[derive(Debug, Clone, Default)]
struct Network {
    nodes: Vec<NodeOp>,
    groups: Vec<Group>,
    /// `Sym` index → the node bound to that name, or [`NO_NODE`]: the
    /// leaf walk's view of the mirrors and frontier `let`s.
    names: Vec<u32>,
    /// Each staged constraint's maintained value, by constraint index.
    roots: Vec<Src>,
}

impl Network {
    /// Compiles the frontier `let`s and staged-constraint expressions, in
    /// plan order.
    fn compile(steps: &[Step], constraints: &[Constraint]) -> Network {
        let mut net = Network::default();
        let s = base_syms();
        for sym in [s.rf, s.co, s.fr] {
            let n = net.push(NodeOp::Mirror);
            net.bind(sym, n);
        }
        net.close(0, None);
        for (si, step) in steps.iter().enumerate() {
            let start = net.nodes.len();
            match step {
                Step::BindDyn {
                    recursive: false,
                    bindings,
                    frontier: true,
                    ..
                } => {
                    for (sym, e) in bindings {
                        let n = match net.expr(e) {
                            Src::Node(n) => n,
                            c => net.push(NodeOp::Copy(c)),
                        };
                        net.bind(*sym, n);
                    }
                    net.close(start, None);
                }
                Step::BindDyn {
                    recursive: true,
                    bindings,
                    frontier: true,
                    ..
                } => {
                    // Members first (bodies may read any of them), each
                    // then pointed at its compiled body.
                    for (sym, _) in bindings {
                        let n = net.push(NodeOp::Copy(Src::Const(*sym)));
                        net.bind(*sym, n);
                    }
                    for (k, (_, e)) in bindings.iter().enumerate() {
                        net.nodes[start + k] = NodeOp::Copy(net.expr(e));
                    }
                    net.close(start, Some(si));
                }
                Step::CheckStaged { idx } => {
                    let root = net.expr(&constraints[*idx].expr);
                    net.roots.push(root);
                    net.close(start, None);
                }
                _ => {}
            }
        }
        net
    }

    fn push(&mut self, op: NodeOp) -> u32 {
        self.nodes.push(op);
        (self.nodes.len() - 1) as u32
    }

    fn bind(&mut self, sym: Sym, n: u32) {
        if sym.index() >= self.names.len() {
            self.names.resize(sym.index() + 1, NO_NODE);
        }
        self.names[sym.index()] = n;
    }

    /// Ends the group of the nodes pushed since `start` (consecutive
    /// non-recursive groups merge).
    fn close(&mut self, start: usize, rec: Option<usize>) {
        let end = self.nodes.len();
        match self.groups.last_mut() {
            Some(g) if rec.is_none() && g.rec.is_none() && g.end == start => g.end = end,
            _ if start < end => self.groups.push(Group { start, end, rec }),
            _ => {}
        }
    }

    fn expr(&mut self, e: &CatExpr) -> Src {
        let op = match e.shape() {
            Shape::Name(sym) => {
                return match self.names.get(sym.index()) {
                    Some(&n) if n != NO_NODE => Src::Node(n),
                    _ => Src::Const(sym),
                }
            }
            Shape::Unary(op, a) => NodeOp::Unary(op, self.expr(a)),
            Shape::Binary(op, a, b) => {
                let (a, b) = (self.expr(a), self.expr(b));
                // A growing subtrahend would make `\` shrink; the monotone
                // analysis keeps such expressions out of the frontier.
                assert!(
                    op != Binary::Diff || matches!(b, Src::Const(_)),
                    "staged `\\` with a dynamic subtrahend"
                );
                NodeOp::Binary(op, a, b)
            }
        };
        Src::Node(self.push(op))
    }

    /// Every node's value for empty `rf`/`co`/`fr`, bottom-up. A `let rec`
    /// group's members take the evaluator's Kleene fixpoint; its body nodes
    /// are then computed from them.
    fn open(&self, steps: &[Step], base: &EnvBase, events: usize) -> Result<Vec<CatValue>> {
        let mut vals: Vec<CatValue> = Vec::with_capacity(self.nodes.len());
        for g in &self.groups {
            let mut first = g.start;
            if let Some(si) = g.rec {
                let Step::BindDyn { bindings, .. } = &steps[si] else {
                    unreachable!("recursive groups are dynamic bindings");
                };
                let mut fix = {
                    let mut env = Env::view(base, &self.names, &vals);
                    eval_let_group(&mut env, true, bindings)?;
                    env.take_slots()
                };
                for (sym, _) in bindings {
                    vals.push(fix[sym.index()].take().expect("bound by its group"));
                }
                first += bindings.len();
            }
            for op in &self.nodes[first..g.end] {
                let get = |s: Src| match s {
                    Src::Node(n) => Ok(&vals[n as usize]),
                    Src::Const(sym) => base
                        .get(sym)
                        .ok_or_else(|| Error::Model(format!("unknown identifier `{sym}`"))),
                };
                let v = match *op {
                    NodeOp::Mirror => CatValue::Rel(Relation::with_nodes(events)),
                    NodeOp::Copy(a) => get(a)?.clone(),
                    NodeOp::Unary(op, a) => apply_unary(op, get(a)?, base.universe())?,
                    NodeOp::Binary(op, a, b) => apply_binary(op, Cow::Borrowed(get(a)?), get(b)?)?,
                };
                vals.push(v);
            }
        }
        Ok(vals)
    }
}

// ---------------------------------------------------------------------------
// Per-session incremental state.
// ---------------------------------------------------------------------------

/// One relation edge, or one set element `e` as `(e, e)`.
type Item = (EventId, EventId);

/// How a staged constraint reads its maintained value.
#[derive(Debug)]
enum ConState {
    /// The value's delta edges feed the order.
    Acyclic(IncrementalOrder),
    /// Violated iff the value has a diagonal edge.
    Irreflexive,
    /// Violated iff the value (relation or set) is non-empty.
    Empty,
}

/// The staged checking state of one skeleton (one per
/// [`crate::CatModel::combo_checker`] session when the plan
/// [`StagedPlan::prunes`]), shared by the combos of that skeleton.
pub struct StagedState<'a> {
    plan: &'a StagedPlan,
    /// Skeleton bindings + per-combo constants (`let`s and hoists).
    base: EnvBase,
    /// Every network node's value, by node id.
    vals: Vec<CatValue>,
    /// Each node's delta in the current push (cleared when a push begins).
    deltas: Vec<Vec<Item>>,
    /// Per node, how much of each operand's delta it has consumed in the
    /// current push (a `let rec` node consumes in several rounds).
    seen: Vec<[usize; 2]>,
    /// Every item the pushes in force inserted, as `(node, item)`.
    log: Vec<(u32, Item)>,
    /// The log length when each push in force began.
    marks: Vec<usize>,
    cons: Vec<ConState>,
    /// Results of constant checks/flags, by `cslot`: "holds"/"fires".
    const_results: Vec<bool>,
    /// True if some constant *check* is violated: every candidate of the
    /// combo is forbidden.
    const_violated: bool,
    /// Scratch: the candidate items of the node being updated.
    cand: Vec<Item>,
    /// Scratch: the targets of one closure insertion.
    targets: Vec<EventId>,
    nodes: usize,
}

fn value_of<'v>(vals: &'v [CatValue], base: &'v EnvBase, s: Src) -> &'v CatValue {
    match s {
        Src::Node(n) => &vals[n as usize],
        Src::Const(sym) => base
            .get(sym)
            .expect("operands resolve when the session opens"),
    }
}

fn rel(v: &CatValue) -> &Relation {
    match v {
        CatValue::Rel(r) => r,
        CatValue::Set(_) => unreachable!("operand types are checked when the session opens"),
    }
}

fn has(v: &CatValue, (a, b): Item) -> bool {
    match v {
        CatValue::Rel(r) => r.contains(a, b),
        CatValue::Set(s) => s.contains(a),
    }
}

fn add(v: &mut CatValue, (a, b): Item) -> bool {
    match v {
        CatValue::Rel(r) => r.insert(a, b),
        CatValue::Set(s) => s.insert(a),
    }
}

impl<'a> StagedState<'a> {
    /// Opens the session: evaluates the combo constants into the base,
    /// computes every network value for empty `rf`/`co`/`fr` and seeds
    /// each staged constraint from it.
    pub fn new(plan: &'a StagedPlan, skeleton: &Execution) -> Result<StagedState<'a>> {
        telechat_obs::add(telechat_obs::Counter::CatSessions, 1);
        let nodes = skeleton.events.len();
        let mut base = EnvBase::from_skeleton(skeleton);
        let mut const_results = vec![false; plan.const_slots];
        let mut const_violated = false;
        // Constants read no dynamic value, so they all go first.
        for step in &plan.steps {
            match step {
                Step::BindConst {
                    recursive: false,
                    bindings,
                } => {
                    for (sym, expr) in bindings {
                        let v = eval_expr(expr, &Env::view(&base, &[], &[]))?;
                        base.bind(*sym, v);
                    }
                }
                Step::BindConst {
                    recursive: true,
                    bindings,
                } => {
                    let mut fix = {
                        let mut env = Env::view(&base, &[], &[]);
                        eval_let_group(&mut env, true, bindings)?;
                        env.take_slots()
                    };
                    for (sym, _) in bindings {
                        base.bind(*sym, fix[sym.index()].take().expect("bound by its group"));
                    }
                }
                Step::CheckConst {
                    cslot,
                    kind,
                    negated,
                    expr,
                    name,
                }
                | Step::Flag {
                    cslot: Some(cslot),
                    kind,
                    negated,
                    expr,
                    name,
                } => {
                    let v = eval_expr(expr, &Env::view(&base, &[], &[]))?;
                    let holds = check_holds(*kind, *negated, &v, name)?;
                    const_results[*cslot] = holds;
                    const_violated |= !holds && matches!(step, Step::CheckConst { .. });
                }
                _ => {}
            }
        }
        let vals = plan.net.open(&plan.steps, &base, nodes)?;
        let mut cons = Vec::with_capacity(plan.constraints.len());
        for (c, &root) in plan.constraints.iter().zip(&plan.net.roots) {
            cons.push(match (c.mode, value_of(&vals, &base, root)) {
                (Mode::Acyclic, CatValue::Rel(r)) => {
                    ConState::Acyclic(IncrementalOrder::new(nodes, &[r]))
                }
                (Mode::Irreflexive, CatValue::Rel(_)) => ConState::Irreflexive,
                // `empty` is meaningful for sets too (`check_holds`
                // accepts both); cardinality stages just as well.
                (Mode::Empty, _) => ConState::Empty,
                (_, CatValue::Set(_)) => {
                    return Err(Error::Model(format!(
                        "{}: expected a relation, found a set",
                        c.name
                    )))
                }
            });
        }
        Ok(StagedState {
            deltas: vec![Vec::new(); vals.len()],
            seen: vec![[0; 2]; vals.len()],
            plan,
            base,
            vals,
            log: Vec::new(),
            marks: Vec::new(),
            cons,
            const_results,
            const_violated,
            cand: Vec::new(),
            targets: Vec::new(),
            nodes,
        })
    }

    /// The engine assigned `rf(w, r)`. `fr` gains `(r, w')` for every
    /// write `w'` coherence-after `w` (none while the DFS is still
    /// choosing reads-from).
    pub fn push_rf(&mut self, w: EventId, r: EventId) -> PartialVerdict {
        self.begin();
        self.insert(RF, (w, r));
        self.cand.clear();
        let co = rel(&self.vals[CO as usize]);
        self.cand
            .extend(co.successors(w).filter(|&x| x != r).map(|x| (r, x)));
        self.insert_cands(FR);
        self.propagate()
    }

    /// The engine extended a coherence chain (`co(p, w)` for `p ∈ preds`).
    /// `fr` gains `(r, w)` for every read `r` some predecessor justifies
    /// (the identity guard of [`Execution::fr`] cannot trigger: reads and
    /// writes are distinct events).
    pub fn push_co(&mut self, preds: &[EventId], w: EventId) -> PartialVerdict {
        self.begin();
        for &p in preds {
            self.insert(CO, (p, w));
        }
        self.cand.clear();
        let rf = rel(&self.vals[RF as usize]);
        for &p in preds {
            self.cand
                .extend(rf.successors(p).filter(|&r| r != w).map(|r| (r, w)));
        }
        self.insert_cands(FR);
        self.propagate()
    }

    /// Undoes the most recent push: removes the edges it logged and
    /// unwinds each acyclicity order by one frame.
    pub fn pop(&mut self) {
        let mark = self.marks.pop().expect("pop without matching push");
        for (n, (a, b)) in self.log.drain(mark..).rev() {
            match &mut self.vals[n as usize] {
                CatValue::Rel(r) => r.remove(a, b),
                CatValue::Set(s) => s.remove(a),
            };
        }
        for con in &mut self.cons {
            if let ConState::Acyclic(order) = con {
                order.undo();
            }
        }
    }

    /// Folds every push so far into the session baseline: values keep
    /// their current contents, each acyclicity order snapshots its
    /// reachability state ([`IncrementalOrder::snapshot`]), and the log
    /// empties — subsequent pops can only unwind pushes made *after* this
    /// call.
    ///
    /// The work-stealing enumerator calls this when a worker adopts a
    /// stolen DFS frontier: the replayed forced prefix becomes the
    /// session's permanent split-point baseline and is never popped.
    pub fn absorb(&mut self) {
        self.log.clear();
        self.marks.clear();
        for con in &mut self.cons {
            if let ConState::Acyclic(order) = con {
                order.snapshot();
            }
        }
    }

    fn begin(&mut self) {
        self.marks.push(self.log.len());
        for d in &mut self.deltas {
            d.clear();
        }
        self.seen.fill([0; 2]);
    }

    fn insert(&mut self, n: u32, item: Item) {
        if add(&mut self.vals[n as usize], item) {
            self.deltas[n as usize].push(item);
            self.log.push((n, item));
        }
    }

    fn insert_cands(&mut self, n: u32) {
        let cand = std::mem::take(&mut self.cand);
        for &item in &cand {
            self.insert(n, item);
        }
        self.cand = cand;
    }

    /// Pushes the mirrors' deltas through the network, then feeds every
    /// acyclicity order its constraint's delta under a fresh frame.
    fn propagate(&mut self) -> PartialVerdict {
        let net = &self.plan.net;
        for g in &net.groups {
            loop {
                let mut grew = false;
                for n in g.start..g.end {
                    grew |= self.update(n);
                }
                if g.rec.is_none() || !grew {
                    break;
                }
            }
        }
        for (con, root) in self.cons.iter_mut().zip(&net.roots) {
            if let (ConState::Acyclic(order), Src::Node(n)) = (con, root) {
                order.begin();
                for &(a, b) in &self.deltas[*n as usize] {
                    order.add_edge(a, b);
                }
            }
        }
        self.verdict()
    }

    /// Turns node `n`'s operand deltas (those it has not consumed yet)
    /// into its own exact delta. Returns true if the node grew.
    fn update(&mut self, n: usize) -> bool {
        let op = self.plan.net.nodes[n];
        let (vals, base, deltas, cand) = (&self.vals, &self.base, &self.deltas, &mut self.cand);
        let [seen_a, seen_b] = self.seen[n];
        let fresh = |s: Src, from: usize| -> &[Item] {
            match s {
                Src::Node(m) => &deltas[m as usize][from..],
                Src::Const(_) => &[],
            }
        };
        let (da, db) = match op {
            NodeOp::Mirror => return false,
            NodeOp::Copy(a) | NodeOp::Unary(_, a) => (fresh(a, seen_a), &[][..]),
            NodeOp::Binary(_, a, b) => (fresh(a, seen_a), fresh(b, seen_b)),
        };
        if da.is_empty() && db.is_empty() {
            return false;
        }
        cand.clear();
        match op {
            NodeOp::Mirror
            | NodeOp::Copy(_)
            | NodeOp::Unary(Unary::Opt | Unary::Plus | Unary::Star, _) => {
                cand.extend_from_slice(da);
            }
            NodeOp::Unary(Unary::Inverse, _) => cand.extend(da.iter().map(|&(x, y)| (y, x))),
            NodeOp::Unary(Unary::IdOn | Unary::Domain, _) => {
                cand.extend(da.iter().map(|&(x, _)| (x, x)));
            }
            NodeOp::Unary(Unary::Range, _) => cand.extend(da.iter().map(|&(_, y)| (y, y))),
            NodeOp::Binary(op, a, b) => {
                let (va, vb) = (value_of(vals, base, a), value_of(vals, base, b));
                match op {
                    Binary::Union => {
                        cand.extend_from_slice(da);
                        cand.extend_from_slice(db);
                    }
                    // Δ(a∩b) = Δa∩b ∪ a∩Δb, over the operands' new values.
                    Binary::Inter => {
                        cand.extend(da.iter().filter(|&&i| has(vb, i)));
                        cand.extend(db.iter().filter(|&&i| has(va, i)));
                    }
                    // The subtrahend is constant (see `Network::expr`).
                    Binary::Diff => cand.extend(da.iter().filter(|&&i| !has(vb, i))),
                    // Δ(a;b) = Δa;b ∪ a;Δb.
                    Binary::Seq => {
                        let (ra, rb) = (rel(va), rel(vb));
                        for &(x, y) in da {
                            cand.extend(rb.successors(y).map(|z| (x, z)));
                        }
                        for &(y, z) in db {
                            let preds = (0..self.nodes as u32).map(EventId);
                            cand.extend(preds.filter(|&x| ra.contains(x, y)).map(|x| (x, z)));
                        }
                    }
                    // Δ(A×B) = ΔA×B ∪ A×ΔB (set elements are `(e, e)`).
                    Binary::Cross => {
                        let (CatValue::Set(sa), CatValue::Set(sb)) = (va, vb) else {
                            unreachable!("operand types are checked when the session opens");
                        };
                        for &(x, _) in da {
                            cand.extend(sb.iter().map(|y| (x, y)));
                        }
                        for &(y, _) in db {
                            cand.extend(sa.iter().map(|x| (x, y)));
                        }
                    }
                }
            }
        }
        self.seen[n] = [seen_a + da.len(), seen_b + db.len()];
        let before = self.deltas[n].len();
        let cand = std::mem::take(&mut self.cand);
        if matches!(op, NodeOp::Unary(Unary::Plus | Unary::Star, _)) {
            for &item in &cand {
                self.close_insert(n, item);
            }
        } else {
            for &item in &cand {
                self.insert(n as u32, item);
            }
        }
        self.cand = cand;
        self.deltas[n].len() > before
    }

    /// Adds `x → y` to node `n`'s transitively closed value: every
    /// predecessor of `x` (and `x`) gains every successor of `y` (and
    /// `y`) — Italiano-style insertion, as [`IncrementalOrder`] does.
    fn close_insert(&mut self, n: usize, (x, y): Item) {
        let CatValue::Rel(v) = &mut self.vals[n] else {
            unreachable!("closures are relations");
        };
        if v.contains(x, y) {
            return;
        }
        self.targets.clear();
        self.targets.push(y);
        self.targets.extend(v.successors(y));
        // Row `a` changes only when the loop reaches it, so every later
        // `contains(a, x)` still reads the pre-insertion closure.
        for a in (0..self.nodes as u32).map(EventId) {
            if a != x && !v.contains(a, x) {
                continue;
            }
            for &b in &self.targets {
                if v.insert(a, b) {
                    self.deltas[n].push((a, b));
                    self.log.push((n as u32, (a, b)));
                }
            }
        }
    }

    /// True if staged constraint `k` is violated in the current state.
    fn violated(&self, k: usize) -> bool {
        let value = || value_of(&self.vals, &self.base, self.plan.net.roots[k]);
        match &self.cons[k] {
            ConState::Acyclic(order) => !order.is_acyclic(),
            ConState::Irreflexive => !rel(value()).is_irreflexive(),
            ConState::Empty => match value() {
                CatValue::Rel(r) => !r.is_empty(),
                CatValue::Set(s) => !s.is_empty(),
            },
        }
    }

    /// The current partial verdict, O(#constraints).
    pub fn verdict(&self) -> PartialVerdict {
        if self.const_violated || (0..self.cons.len()).any(|k| self.violated(k)) {
            PartialVerdict::Forbidden
        } else {
            PartialVerdict::Undecided
        }
    }

    /// The first-violated constraint name in the current (possibly
    /// partial) state, for mid-DFS prune attribution. Walks the plan in
    /// source order — the same order [`StagedState::check_leaf`] uses — so
    /// a prune and a leaf rejection caused by the same constraint blame
    /// the same name. Only constant and staged checks can be violated
    /// mid-DFS (residual checks are leaf-only), so this answers from
    /// state with no evaluation. `None` when nothing is violated.
    pub fn blame(&self) -> Option<&str> {
        for step in &self.plan.steps {
            match step {
                Step::CheckConst { cslot, name, .. } if !self.const_results[*cslot] => {
                    return Some(name);
                }
                Step::CheckStaged { idx } if self.violated(*idx) => {
                    return Some(&self.plan.constraints[*idx].name);
                }
                _ => {}
            }
        }
        None
    }

    /// The leaf verdict: statements walked in source order — staged and
    /// constant checks answered from state, residual checks and flags
    /// evaluated (reading the network's values for frontier names) — so
    /// the first-violated rule name and the flag list are byte-identical
    /// to [`crate::eval::run_program`].
    pub fn check_leaf(&self) -> Result<Verdict> {
        let mut flags = Vec::new();
        let mut env = Env::view(&self.base, &self.plan.net.names, &self.vals);
        for step in &self.plan.steps {
            match step {
                Step::BindDyn {
                    recursive,
                    bindings,
                    frontier: false,
                    leaf: true,
                } => eval_let_group(&mut env, *recursive, bindings)?,
                Step::BindConst { .. } | Step::BindDyn { .. } => {}
                Step::CheckConst { cslot, name, .. } => {
                    if !self.const_results[*cslot] {
                        return Ok(Verdict::Forbidden { rule: name.clone() });
                    }
                }
                Step::CheckStaged { idx } => {
                    if self.violated(*idx) {
                        return Ok(Verdict::Forbidden {
                            rule: self.plan.constraints[*idx].name.clone(),
                        });
                    }
                }
                Step::CheckResidual {
                    kind,
                    negated,
                    expr,
                    name,
                } => {
                    let v = eval_expr(expr, &env)?;
                    if !check_holds(*kind, *negated, &v, name)? {
                        return Ok(Verdict::Forbidden { rule: name.clone() });
                    }
                }
                Step::Flag {
                    cslot: Some(cslot),
                    name,
                    ..
                } => {
                    if self.const_results[*cslot] {
                        flags.push(name.clone());
                    }
                }
                Step::Flag {
                    cslot: None,
                    kind,
                    negated,
                    expr,
                    name,
                } => {
                    let v = eval_expr(expr, &env)?;
                    if check_holds(*kind, *negated, &v, name)? {
                        flags.push(name.clone());
                    }
                }
            }
        }
        Ok(Verdict::Allowed { flags })
    }

    /// The node universe size (diagnostics/tests).
    pub fn nodes(&self) -> usize {
        self.nodes
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eval::run_program;
    use crate::registry::CatModel;
    use telechat_common::XorShiftRng;
    use telechat_exec::{simulate, AllowAll, SimConfig};
    use telechat_litmus::parse_c11;

    const SB: &str = r#"
C11 "SB"
{ x = 0; y = 0; }
P0 (atomic_int* x, atomic_int* y) {
  atomic_store_explicit(x, 1, memory_order_relaxed);
  int r0 = atomic_load_explicit(y, memory_order_relaxed);
}
P1 (atomic_int* x, atomic_int* y) {
  atomic_store_explicit(y, 1, memory_order_relaxed);
  int r0 = atomic_load_explicit(x, memory_order_relaxed);
}
exists (P0:r0=0 /\ P1:r0=0)
"#;

    /// A skeleton execution (rf/co empty) of the SB shape, plus the write
    /// and read ids needed to script a DFS by hand.
    fn sb_skeleton() -> Execution {
        let test = parse_c11(SB).unwrap();
        let r = simulate(&test, &AllowAll, &SimConfig::default().keeping_executions()).unwrap();
        let mut x = r.executions.into_iter().next().unwrap();
        x.rf = Relation::new();
        x.co = Relation::new();
        x
    }

    #[test]
    fn bundled_plan_shapes() {
        // aarch64: all three axioms stage (internal, atomicity and the
        // rewritten `irreflexive ob`), nothing residual → leaves are O(1).
        let a64 = CatModel::bundled("aarch64").unwrap();
        assert_eq!(a64.plan().staged_constraints(), 3);
        assert!(a64.plan().prunes());
        // rc11: all four checks stage; only the `race` flag is residual.
        let rc11 = CatModel::bundled("rc11").unwrap();
        assert_eq!(rc11.plan().staged_constraints(), 4);
        // x86tso: `ppo` is constant (difference of constants), the three
        // checks stage.
        let tso = CatModel::bundled("x86tso").unwrap();
        assert_eq!(tso.plan().staged_constraints(), 3);
        // Every bundled model prunes.
        for name in crate::registry::model_names() {
            let m = CatModel::bundled(name).unwrap();
            assert!(m.plan().prunes(), "{name} must have staged constraints");
        }
    }

    #[test]
    fn plus_rewrite_under_irreflexive() {
        let p = crate::parse::parse_cat(
            "t",
            "let ob = (rf | po)+\nirreflexive ob as ext\nacyclic ((rf ; po))+ as ac",
            &|_| None,
        )
        .unwrap();
        let plan = StagedPlan::compile(&p);
        // Both checks staged as acyclicity over the closure-free body.
        assert_eq!(plan.staged_constraints(), 2);
        for c in &plan.constraints {
            assert_eq!(c.mode, Mode::Acyclic);
            assert!(
                !format!("{}", c.expr).contains('+'),
                "closure must be stripped: {}",
                c.expr
            );
        }
    }

    #[test]
    fn constant_subexpressions_are_hoisted() {
        let p = crate::parse::parse_cat(
            "t",
            "let dob = (ctrl ; [W]) | (rf & int)\nacyclic dob | (po ; [F] ; po) as a",
            &|_| None,
        )
        .unwrap();
        let plan = StagedPlan::compile(&p);
        let hoists = plan
            .steps
            .iter()
            .filter(|s| match s {
                Step::BindConst { bindings, .. } => {
                    bindings.iter().any(|(n, _)| n.as_str().starts_with("__hoist_"))
                }
                _ => false,
            })
            .count();
        // `ctrl ; [W]` (inside the dynamic binding) and `po ; [F] ; po`
        // (inside the constraint) are cached per combo.
        assert!(hoists >= 2, "expected ≥ 2 hoisted constants, got {hoists}");
        // The constraint expression reads the hoisted slot, not the tree.
        assert!(format!("{}", plan.constraints[0].expr).contains("__hoist_"));
    }

    #[test]
    fn dead_dynamic_bindings_are_skipped() {
        let p = crate::parse::parse_cat(
            "t",
            "let unused = (rf ; co)+\nlet used = rf | co\nacyclic used | po as a",
            &|_| None,
        )
        .unwrap();
        let plan = StagedPlan::compile(&p);
        let flags: Vec<(bool, bool)> = plan
            .steps
            .iter()
            .filter_map(|s| match s {
                Step::BindDyn { frontier, leaf, .. } => Some((*frontier, *leaf)),
                _ => None,
            })
            .collect();
        assert_eq!(
            flags,
            vec![(false, false), (true, false)],
            "`unused` must be dead, `used` frontier-only"
        );
    }

    /// Scripted DFS: at every node of a hand-driven push/undo schedule the
    /// staged verdict and value must equal a from-scratch evaluation of
    /// the program on the materialised partial candidate.
    #[test]
    fn scripted_push_undo_matches_from_scratch_eval() {
        let skeleton = sb_skeleton();
        let n = skeleton.events.len();
        // Event ids in the SB combo: 0/1 init writes x/y, 2 = Wx1, 3 = Ry,
        // 4 = Wy1, 5 = Rx (matching the enumerate builder's layout).
        let wx0 = EventId(0);
        let wy0 = EventId(1);
        let wx1 = EventId(2);
        let ry = EventId(3);
        let wy1 = EventId(4);
        let rx = EventId(5);
        for model_name in ["aarch64", "rc11", "sc", "x86tso"] {
            let model = CatModel::bundled(model_name).unwrap();
            let mut state = StagedState::new(model.plan(), &skeleton).unwrap();
            let mut partial = skeleton.clone();
            // Forbidden ⟺ some staged constraint fails from-scratch on
            // the partial (run_program stops at the first failing check;
            // staged constraints are exactly the monotone non-negated
            // ones, which for these models is every check).
            let check = |state: &StagedState, partial: &Execution| {
                let scratch = run_program(model.program(), partial).unwrap();
                let forbidden = !scratch.is_allowed();
                assert_eq!(
                    state.verdict() == PartialVerdict::Forbidden,
                    forbidden,
                    "{model_name}: staged verdict diverges on partial {partial:?}"
                );
            };
            // rf stage: both reads read the remote new value (allowed
            // under weak models), then undo one and read init instead.
            partial.rf.insert(wy1, ry);
            state.push_rf(wy1, ry);
            check(&state, &partial);
            partial.rf.insert(wx1, rx);
            state.push_rf(wx1, rx);
            check(&state, &partial);
            state.pop();
            partial.rf.remove(wx1, rx);
            partial.rf.insert(wx0, rx);
            state.push_rf(wx0, rx);
            check(&state, &partial);
            // co stage: x chain init→new, then y chain init→new.
            partial.co.insert(wx0, wx1);
            state.push_co(&[wx0], wx1);
            check(&state, &partial);
            partial.co.insert(wy0, wy1);
            state.push_co(&[wy0], wy1);
            check(&state, &partial);
            // Leaf: complete candidate — byte-identical verdict.
            assert_eq!(
                state.check_leaf().unwrap(),
                run_program(model.program(), &partial).unwrap(),
                "{model_name}: leaf verdict diverges"
            );
            // Unwind everything; the state must return to the seed.
            state.pop();
            partial.co.remove(wy0, wy1);
            state.pop();
            partial.co.remove(wx0, wx1);
            check(&state, &partial);
            state.pop();
            partial.rf.remove(wx0, rx);
            state.pop();
            partial.rf.remove(wy1, ry);
            check(&state, &partial);
            assert_eq!(state.nodes(), n);
        }
    }

    /// `empty` over a *set*-valued monotone expression stages by element
    /// cardinality (regression: this used to abort session setup with a
    /// type error).
    #[test]
    fn set_valued_empty_constraint_stages() {
        use telechat_exec::simulate_reference;
        let p = crate::parse::parse_cat("t", "empty domain(rf) as no_rf", &|_| None).unwrap();
        let model = CatModel::from_program(p);
        assert_eq!(model.plan().staged_constraints(), 1);
        assert!(model.plan().prunes());
        let test = parse_c11(SB).unwrap();
        let cfg = SimConfig::default();
        let new = simulate(&test, &model, &cfg).unwrap();
        let old = simulate_reference(&test, &model, &cfg).unwrap();
        assert_eq!(new.outcomes, old.outcomes);
        assert_eq!(new.candidates, old.candidates);
        assert_eq!(new.allowed, old.allowed);
        assert_eq!(new.allowed, 0, "every SB candidate has rf edges");
    }

    /// Shadowing a reserved or `let`-bound name makes the plan fall back
    /// to leaf-only evaluation: the staged executor runs the whole
    /// binding frontier before the constraints, so rebinding would leak a
    /// later value into an earlier check.
    #[test]
    fn shadowing_disables_staging() {
        for src in [
            "let rf = rf & ext\nacyclic rf | po as a",    // rebinds a mirror
            "let x = rf\nlet x = co\nacyclic x | po as a", // rebinds a let
            "let po = rf | co\nacyclic po as a",          // rebinds a base name
        ] {
            let p = crate::parse::parse_cat("t", src, &|_| None).unwrap();
            let plan = StagedPlan::compile(&p);
            assert!(!plan.prunes(), "{src:?} must not stage");
        }
        // Fresh names keep staging on.
        let p = crate::parse::parse_cat("t", "let x = rf\nacyclic x | po as a", &|_| None).unwrap();
        assert!(StagedPlan::compile(&p).prunes());
    }

    /// One step of a hand-scripted DFS over a staged session.
    #[derive(Clone, Copy)]
    enum Op {
        PushRf(u32, u32),
        PushCo(u32, u32),
        Pop,
        Leaf,
    }

    /// Runs `ops` on `state`, recording the verdict and blame after every
    /// step and the leaf verdict at every `Leaf`. Coherence pushes extend
    /// a chain of one predecessor (`PushCo(p, w)` adds `co(p, w)`).
    fn drive(state: &mut StagedState<'_>, ops: &[Op]) -> Vec<String> {
        let e = EventId;
        ops.iter()
            .map(|op| {
                let leaf = match *op {
                    Op::PushRf(w, r) => {
                        state.push_rf(e(w), e(r));
                        None
                    }
                    Op::PushCo(p, w) => {
                        state.push_co(&[e(p)], e(w));
                        None
                    }
                    Op::Pop => {
                        state.pop();
                        None
                    }
                    Op::Leaf => Some(state.check_leaf().unwrap()),
                };
                format!("{:?} {:?} {leaf:?}", state.verdict(), state.blame())
            })
            .collect()
    }

    /// Message passing with a non-atomic payload, so rc11's `race` flag
    /// depends on the rf-derived happens-before. Event ids: 0/1 init
    /// writes of x/y, 2 = Wx (plain), 3 = Wy (release), 4 = Ry (acquire),
    /// 5 = Rx (plain).
    const MP_NA: &str = r#"
C11 "MP+na"
{ x = 0; y = 0; }
P0 (int* x, atomic_int* y) {
  *x = 1;
  atomic_store_explicit(y, 1, memory_order_release);
}
P1 (int* x, atomic_int* y) {
  int r0 = atomic_load_explicit(y, memory_order_acquire);
  int r1 = *x;
}
exists (P1:r0=1 /\ P1:r1=0)
"#;

    /// The session-reuse contract: a session whose pushes have all been
    /// popped answers exactly like a freshly opened one — verdicts, blame
    /// and leaf verdicts (flags included) — even at a leaf reached with no
    /// push in force, where the frontier bindings the last pop left behind
    /// must not leak into residual checks.
    #[test]
    fn reused_session_answers_like_a_fresh_one() {
        let test = parse_c11(MP_NA).unwrap();
        let r = simulate(&test, &AllowAll, &SimConfig::default().keeping_executions()).unwrap();
        let mut skeleton = r.executions.into_iter().next().unwrap();
        skeleton.rf = Relation::new();
        skeleton.co = Relation::new();
        // The first combo: message passed (Ry reads Wy, Rx reads Wx),
        // then the stale-payload branch, every push popped at the end.
        let first = [
            Op::PushRf(3, 4),
            Op::PushRf(2, 5),
            Op::PushCo(0, 2),
            Op::PushCo(1, 3),
            Op::Leaf,
            Op::Pop,
            Op::Pop,
            Op::Pop,
            Op::PushRf(0, 5),
            Op::PushCo(0, 2),
            Op::PushCo(1, 3),
            Op::Leaf,
            Op::Pop,
            Op::Pop,
            Op::Pop,
            Op::Pop,
        ];
        // The next combo on the same skeleton: a leaf before any push,
        // then a different rf/co walk.
        let second = [
            Op::Leaf,
            Op::PushRf(1, 4),
            Op::PushRf(0, 5),
            Op::PushCo(0, 2),
            Op::PushCo(1, 3),
            Op::Leaf,
            Op::Pop,
            Op::Pop,
            Op::Pop,
            Op::PushRf(2, 5),
            Op::PushCo(0, 2),
            Op::Leaf,
            Op::Pop,
            Op::Pop,
            Op::Pop,
            // The weak outcome (new flag, stale payload), then unwind.
            Op::PushRf(3, 4),
            Op::PushRf(0, 5),
            Op::PushCo(0, 2),
            Op::PushCo(1, 3),
            Op::Leaf,
            Op::Pop,
            Op::Pop,
            Op::Pop,
            Op::Pop,
            Op::Leaf,
        ];
        for model_name in ["aarch64", "rc11", "sc", "x86tso"] {
            let model = CatModel::bundled(model_name).unwrap();
            let mut reused = StagedState::new(model.plan(), &skeleton).unwrap();
            let mut fresh = StagedState::new(model.plan(), &skeleton).unwrap();
            assert_eq!(
                drive(&mut reused, &first),
                drive(&mut fresh, &first),
                "{model_name}"
            );
            let mut fresh = StagedState::new(model.plan(), &skeleton).unwrap();
            let expected = drive(&mut fresh, &second);
            assert_eq!(drive(&mut reused, &second), expected, "{model_name}");
            // The schedule reaches a forbidden node under every model, and
            // under rc11 the no-push leaf sees no happens-before, so the
            // race fires there.
            assert!(
                expected.iter().any(|r| r.starts_with("Forbidden")),
                "{model_name}"
            );
            if model_name == "rc11" {
                assert!(expected[0].contains("race"), "{}", expected[0]);
            }
        }
    }

    /// Combos that alternate between skeletons (a branch on a read value)
    /// each run on their own skeleton's session: results equal the
    /// reference oracle at every thread count, staged and leaf-only.
    #[test]
    fn alternating_skeletons_match_reference() {
        use telechat_exec::simulate_reference;
        let test = parse_c11(ISA2_CTRL).unwrap();
        for name in ["aarch64", "rc11"] {
            for model in [
                CatModel::bundled(name).unwrap(),
                CatModel::bundled(name).unwrap().without_staging(),
            ] {
                let old = simulate_reference(&test, &model, &SimConfig::default()).unwrap();
                for threads in [1, 4] {
                    let cfg = SimConfig::default().with_threads(threads);
                    let new = simulate(&test, &model, &cfg).unwrap();
                    let tag = format!(
                        "{name} (staged: {}) threads={threads}",
                        model.plan().prunes()
                    );
                    assert_eq!(new.outcomes, old.outcomes, "{tag}");
                    assert_eq!(new.candidates, old.candidates, "{tag}");
                    assert_eq!(new.allowed, old.allowed, "{tag}");
                    assert_eq!(new.flags, old.flags, "{tag}");
                    assert_eq!(new.crashed, old.crashed, "{tag}");
                }
            }
        }
    }

    const IRIW: &str = r#"
C11 "IRIW"
{ x = 0; y = 0; }
P0 (atomic_int* x) {
  atomic_store_explicit(x, 1, memory_order_release);
}
P1 (atomic_int* y) {
  atomic_store_explicit(y, 1, memory_order_release);
}
P2 (atomic_int* x, atomic_int* y) {
  int r0 = atomic_load_explicit(x, memory_order_acquire);
  int r1 = atomic_load_explicit(y, memory_order_acquire);
}
P3 (atomic_int* x, atomic_int* y) {
  int r0 = atomic_load_explicit(y, memory_order_acquire);
  int r1 = atomic_load_explicit(x, memory_order_acquire);
}
exists (P2:r0=1 /\ P2:r1=0 /\ P3:r0=1 /\ P3:r1=0)
"#;

    const ISA2_CTRL: &str = r#"
C11 "ISA2+ctrls"
{ x = 0; y = 0; z = 0; }
P0 (atomic_int* x, atomic_int* y) {
  int r0 = atomic_load_explicit(x, memory_order_acquire);
  if (r0 == 1) {
    atomic_store_explicit(y, 1, memory_order_release);
  }
}
P1 (atomic_int* y, int* z) {
  int r0 = atomic_load_explicit(y, memory_order_relaxed);
  if (r0 == 1) {
    *z = 1;
  }
}
P2 (atomic_int* x, int* z) {
  atomic_store_explicit(x, 1, memory_order_release);
  int r0 = *z;
}
exists (P0:r0=1 /\ P1:r0=1 /\ P2:r0=0)
"#;

    /// Two RMWs race on `x`, a plain reader watches.
    const RMW: &str = r#"
C11 "2RMW+R"
{ x = 0; y = 0; }
P0 (atomic_int* x, atomic_int* y) {
  int r0 = atomic_fetch_add_explicit(x, 1, memory_order_acq_rel);
  atomic_store_explicit(y, 1, memory_order_release);
}
P1 (atomic_int* x) {
  int r0 = atomic_exchange_explicit(x, 2, memory_order_relaxed);
}
P2 (atomic_int* x, atomic_int* y) {
  int r0 = atomic_load_explicit(y, memory_order_acquire);
  int r1 = atomic_load_explicit(x, memory_order_seq_cst);
}
exists (P2:r0=1 /\ P2:r1=0)
"#;

    /// Five threads on one location: three writers, three reads.
    const ONE_LOC5: &str = r#"
C11 "CoRR5"
{ x = 0; }
P0 (atomic_int* x) {
  atomic_store_explicit(x, 1, memory_order_relaxed);
}
P1 (atomic_int* x) {
  atomic_store_explicit(x, 2, memory_order_seq_cst);
}
P2 (atomic_int* x) {
  int r0 = atomic_load_explicit(x, memory_order_relaxed);
  int r1 = atomic_load_explicit(x, memory_order_relaxed);
}
P3 (atomic_int* x) {
  int r0 = atomic_load_explicit(x, memory_order_seq_cst);
}
P4 (atomic_int* x) {
  atomic_store_explicit(x, 3, memory_order_release);
}
exists (P2:r0=2 /\ P2:r1=1)
"#;

    /// A test-only model whose staged constraints read `let rec` groups
    /// (a closure written as a fixpoint, and a mutually recursive pair),
    /// plus a residual flag over one of them.
    const REC_MODEL: &str = r#"
let rec hb = po | (rf & ext) | (hb ; hb)
let com = rf | co | fr
let rec eco = com | (eco ; eco) and ecow = eco ; [W]
irreflexive hb ; eco as coherence
acyclic po | rf as no_thin_air
empty ecow & id as no_self_write
flag ~empty (fr & hb) as fr_hb
"#;

    fn rec_model() -> CatModel {
        CatModel::from_program(crate::parse::parse_cat("rec", REC_MODEL, &|_| None).unwrap())
    }

    /// Skeletons (rf/co cleared) of the first and the last combo of a
    /// test; they differ in events when a branch does.
    fn skeletons(src: &str) -> Vec<Execution> {
        let test = parse_c11(src).unwrap();
        let r = simulate(&test, &AllowAll, &SimConfig::default().keeping_executions()).unwrap();
        [r.executions.first(), r.executions.last()]
            .into_iter()
            .flatten()
            .map(|x| {
                let mut x = x.clone();
                x.rf = Relation::new();
                x.co = Relation::new();
                x
            })
            .collect()
    }

    /// Asserts that every network value a name or a staged constraint
    /// reads equals a from-scratch evaluation on `partial`, and that the
    /// partial verdict and blame equal the from-scratch answers.
    fn assert_exact(state: &StagedState<'_>, program: &CatProgram, partial: &Execution, tag: &str) {
        let plan = state.plan;
        let mut scratch = Env::from_execution(partial);
        let mut dynamic = vec![base_syms().rf, base_syms().co, base_syms().fr];
        for stmt in &program.stmts {
            if let CatStmt::Let {
                recursive,
                bindings,
            } = stmt
            {
                eval_let_group(&mut scratch, *recursive, bindings).unwrap();
                dynamic.extend(bindings.iter().map(|(s, _)| *s));
            }
        }
        // Mirrors and frontier `let`s.
        for &sym in &dynamic {
            if let Some(&n) = plan.net.names.get(sym.index()).filter(|&&n| n != NO_NODE) {
                assert_eq!(
                    &state.vals[n as usize],
                    scratch.lookup_sym(sym).unwrap(),
                    "{tag}: `{sym}` diverges"
                );
            }
        }
        // Constraint values: their expressions read hoisted constants from
        // the session base and everything else from scratch.
        let mut env = Env::view(&state.base, &[], &[]);
        for &sym in &dynamic {
            env.bind(sym, scratch.lookup_sym(sym).unwrap().clone());
        }
        let mut violated = Vec::new();
        for (k, c) in plan.constraints.iter().enumerate() {
            let expected = eval_expr(&c.expr, &env).unwrap();
            assert_eq!(
                value_of(&state.vals, &state.base, plan.net.roots[k]),
                &expected,
                "{tag}: constraint `{}` diverges",
                c.name
            );
            violated.push(match (c.mode, &expected) {
                (Mode::Acyclic, CatValue::Rel(r)) => !r.is_acyclic(),
                (Mode::Irreflexive, CatValue::Rel(r)) => !r.is_irreflexive(),
                (_, CatValue::Rel(r)) => !r.is_empty(),
                (_, CatValue::Set(s)) => !s.is_empty(),
            });
        }
        let blame = plan.steps.iter().find_map(|step| match step {
            Step::CheckConst { cslot, name, .. } if !state.const_results[*cslot] => {
                Some(name.as_str())
            }
            Step::CheckStaged { idx } if violated[*idx] => Some(&plan.constraints[*idx].name),
            _ => None,
        });
        assert_eq!(state.blame(), blame, "{tag}: blame");
        assert_eq!(
            state.verdict() == PartialVerdict::Forbidden,
            blame.is_some(),
            "{tag}: verdict"
        );
    }

    /// A random walk over one skeleton's rf/co decisions, driving `state`
    /// and a materialised partial candidate side by side: pushes pick an
    /// unjustified read (reads-from a same-location write) or extend a
    /// location's coherence chain, in any interleaving; pops undo the
    /// latest push; with `absorb`, the walk folds its prefix into the
    /// baseline once. Every step is checked with [`assert_exact`], every
    /// complete candidate against [`run_program`]. Ends fully popped
    /// (down to the absorbed prefix).
    fn random_walk(
        state: &mut StagedState<'_>,
        model: &CatModel,
        skeleton: &Execution,
        rng: &mut XorShiftRng,
        absorb: bool,
        tag: &str,
    ) {
        #[derive(Clone, Copy)]
        enum Pushed {
            Rf(EventId, EventId),
            Co(usize, EventId),
        }
        let ev = &skeleton.events;
        let reads: Vec<EventId> = skeleton.reads().iter().collect();
        let writes = skeleton.writes();
        let mut chains: Vec<Vec<EventId>> =
            skeleton.init_writes().iter().map(|w| vec![w]).collect();
        let mut partial = skeleton.clone();
        let mut stack: Vec<Pushed> = Vec::new();
        let mut floor = 0;
        let mut absorb_at = if absorb {
            1 + rng.below(6) as usize
        } else {
            usize::MAX
        };
        for step in 0..60 {
            let unread: Vec<EventId> = reads
                .iter()
                .copied()
                .filter(|&r| {
                    !stack
                        .iter()
                        .any(|p| matches!(p, Pushed::Rf(_, x) if *x == r))
                })
                .collect();
            let unplaced: Vec<(usize, EventId)> = writes
                .iter()
                .filter(|&w| !chains.iter().any(|c| c.contains(&w)))
                .map(|w| {
                    let loc = ev[w.index()].loc.clone();
                    let c = chains.iter().position(|c| ev[c[0].index()].loc == loc);
                    (c.expect("every location has an init write"), w)
                })
                .collect();
            let choices = unread.len() + unplaced.len();
            if choices > 0 && (stack.len() == floor || rng.below(3) > 0) {
                let pick = rng.below(choices as u64) as usize;
                let pushed = if pick < unread.len() {
                    let r = unread[pick];
                    let sources: Vec<EventId> = writes
                        .iter()
                        .filter(|w| ev[w.index()].loc == ev[r.index()].loc)
                        .collect();
                    let w = sources[rng.below(sources.len() as u64) as usize];
                    partial.rf.insert(w, r);
                    state.push_rf(w, r);
                    Pushed::Rf(w, r)
                } else {
                    let (c, w) = unplaced[pick - unread.len()];
                    for &p in &chains[c] {
                        partial.co.insert(p, w);
                    }
                    state.push_co(&chains[c], w);
                    chains[c].push(w);
                    Pushed::Co(c, w)
                };
                stack.push(pushed);
            } else if stack.len() > floor {
                state.pop();
                match stack.pop().unwrap() {
                    Pushed::Rf(w, r) => {
                        partial.rf.remove(w, r);
                    }
                    Pushed::Co(c, w) => {
                        chains[c].pop();
                        for &p in &chains[c] {
                            partial.co.remove(p, w);
                        }
                    }
                }
            }
            if stack.len() == absorb_at {
                state.absorb();
                floor = stack.len();
                absorb_at = usize::MAX;
            }
            let tag = format!("{tag} step {step}");
            assert_exact(state, model.program(), &partial, &tag);
            if choices == 0 {
                assert_eq!(
                    state.check_leaf().unwrap(),
                    run_program(model.program(), &partial).unwrap(),
                    "{tag}: leaf verdict"
                );
            }
        }
        while stack.len() > floor {
            state.pop();
            if let Pushed::Co(c, _) = stack.pop().unwrap() {
                chains[c].pop();
            }
        }
    }

    /// Delta propagation ≡ from-scratch evaluation on random push/pop/
    /// absorb schedules, for every bundled model and the `let rec` test
    /// model, over six shapes. One session per skeleton is reused across
    /// several walks (as the enumerator reuses it across combos); another
    /// absorbs a prefix (as a stolen DFS task does).
    #[test]
    fn random_schedules_match_from_scratch_eval() {
        let mut models: Vec<CatModel> = crate::registry::model_names()
            .into_iter()
            .map(|n| CatModel::bundled(n).unwrap())
            .collect();
        models.push(rec_model());
        let mut rng = XorShiftRng::seed_from_u64(16);
        for (shape, src) in [
            ("SB", SB),
            ("MP", MP_NA),
            ("IRIW", IRIW),
            ("ISA2+ctrl", ISA2_CTRL),
            ("RMW", RMW),
            ("one-loc-5", ONE_LOC5),
        ] {
            for (si, skeleton) in skeletons(src).iter().enumerate() {
                for model in &models {
                    assert!(model.plan().prunes(), "{}", model.model_name());
                    let tag = format!("{} on {shape}#{si}", model.model_name());
                    let mut reused = StagedState::new(model.plan(), skeleton).unwrap();
                    for walk in 0..3 {
                        let tag = format!("{tag} walk {walk}");
                        random_walk(&mut reused, model, skeleton, &mut rng, false, &tag);
                    }
                    let mut stolen = StagedState::new(model.plan(), skeleton).unwrap();
                    random_walk(&mut stolen, model, skeleton, &mut rng, true, &tag);
                }
            }
        }
    }

    /// The `let rec` test model stages, and whole simulations under it
    /// agree with leaf-only evaluation and with the reference oracle.
    #[test]
    fn let_rec_model_matches_leaf_only() {
        use telechat_exec::simulate_reference;
        let model = rec_model();
        assert_eq!(model.plan().staged_constraints(), 3);
        let leaf_only = rec_model().without_staging();
        let mut pruned = 0;
        for src in [SB, MP_NA, IRIW, ISA2_CTRL, RMW, ONE_LOC5] {
            let test = parse_c11(src).unwrap();
            let cfg = SimConfig::default();
            let staged = simulate(&test, &model, &cfg).unwrap();
            for other in [
                simulate(&test, &leaf_only, &cfg).unwrap(),
                simulate_reference(&test, &model, &cfg).unwrap(),
            ] {
                assert_eq!(staged.outcomes, other.outcomes, "{}", test.name);
                assert_eq!(staged.candidates, other.candidates, "{}", test.name);
                assert_eq!(staged.allowed, other.allowed, "{}", test.name);
                assert_eq!(staged.flags, other.flags, "{}", test.name);
            }
            pruned += staged.pruned_candidates;
        }
        assert!(pruned > 0, "the staged `let rec` constraints never pruned");
    }
}
